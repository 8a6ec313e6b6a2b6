"""Differential tests: native kernel vs Python int table vs tuple reference.

Three managers must be observation-equivalent:

* the kernel-backed manager that ``BDDManager()`` returns when
  ``_kernel.c`` builds and loads;
* :class:`repro.bdd.bdd.PyBDDManager`, the same algorithms in pure
  Python (the fallback), constructed directly;
* the pre-int-table tuple-node implementation preserved verbatim in
  :mod:`repro.bdd.reference`.

All three give identical node handles in identical order (hash-consing
allocates by first construction, and the apply algorithms recurse the
same way), identical truth tables and an identical ``cache_stats()`` key
shape.  The kernel and the Python int table run one algorithm, so their
full ``cache_stats()`` dicts agree too, through node ceilings and
injected faults.  Guard handles feed automata structure and ultimately
the compiler's memo, which is keyed on the levels of a formula's free
variables and copies automata by renaming levels (``rename``), so
handle-level agreement is the strongest observable.

Two layers:

* a seeded op-stream driver plays 200+ random operation sequences against
  the three managers in lockstep (the micro level);
* generated Retreet programs' encoder formulas compile through three full
  pipelines, one per manager, and the resulting automata must agree state
  for state and guard for guard (the macro level, via :mod:`repro.gen`).

Where the kernel cannot be built, the lockstep cases still run the Python
int table (the code that runs there) against the reference; only the cases
that need the kernel itself (ceilings, probes, builds) skip.  CI asserts
separately that a fresh ``BDDManager()`` is kernel-backed.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bdd import BDDManager
from repro.bdd.bdd import PyBDDManager
from repro.bdd.reference import ReferenceBDDManager
from repro.runtime import faults
from repro.runtime.errors import MemoryCeilingExceeded
from repro.runtime.guard import ResourceGuard

N_VARS = 6
SEEDS = 208
CHUNK = 26


def _int_tables():
    """Fresh int tables: the Python one, then the kernel's where it loads."""
    mgr = BDDManager()
    return [PyBDDManager()] + ([] if isinstance(mgr, PyBDDManager) else [mgr])


def _kernel_manager():
    mgr = _int_tables()[1:]
    if not mgr:
        pytest.skip("the native BDD kernel could not be built here")
    return mgr[0]


def _managers():
    """(Python int table, reference[, kernel]), fresh."""
    py, *kernel = _int_tables()
    return [py, ReferenceBDDManager(), *kernel]


def _same(values):
    return all(v == values[0] for v in values[1:])


def _truth_table(mgr, u):
    rows = []
    for bits in itertools.product((False, True), repeat=N_VARS):
        rows.append(mgr.evaluate(u, lambda lvl: bits[lvl]))
    return tuple(rows)


def _literals(mgr):
    pool = [mgr.true, mgr.false]
    for lvl in range(N_VARS):
        pool += [mgr.var(lvl), mgr.nvar(lvl)]
    return pool


def _random_op(rng, n, ops=range(9)):
    """One op over a pool of ``n`` handles: (op, i, j, k, extra)."""
    op = rng.choice(ops)
    i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    extra = None
    if op == 5:
        extra = frozenset(rng.sample(range(N_VARS), rng.randint(1, N_VARS)))
    elif op == 6:
        extra = (rng.randrange(N_VARS), bool(rng.randrange(2)))
    elif op in (7, 8):
        extra = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
    return op, i, j, k, extra


def _play(mgr, pool, desc):
    op, i, j, k, extra = desc
    u, v, w = pool[i], pool[j], pool[k]
    if op == 0:
        return mgr.apply_and(u, v)
    if op == 1:
        return mgr.apply_or(u, v)
    if op == 2:
        return mgr.apply_not(u)
    if op == 3:
        return mgr.apply_diff(u, v)
    if op == 4:
        return mgr.ite(u, v, w)
    if op == 5:
        return mgr.exists(u, extra)
    if op == 6:
        return mgr.restrict(u, *extra)
    if op == 7:
        return mgr.conj([pool[x] for x in extra])
    return mgr.disj([pool[x] for x in extra])


def _drive(rng, n_ops=60):
    """One op stream applied to the three managers in lockstep.

    Returns the managers and their pools for post-run shape checks."""
    mgrs = _managers()
    pools = [_literals(m) for m in mgrs]
    assert _same(pools)
    for step in range(n_ops):
        desc = _random_op(rng, len(pools[0]))
        out = [_play(m, p, desc) for m, p in zip(mgrs, pools)]
        assert _same(out), (
            f"handle divergence at step {step} (op {desc[0]})"
        )
        for p, u in zip(pools, out):
            p.append(u)
        if step % 7 == 0:
            tables = {_truth_table(m, u) for m, u in zip(mgrs, out)}
            assert len(tables) == 1
            assert len({m.support(u) for m, u in zip(mgrs, out)}) == 1
    return mgrs, pools


def _assert_same_stats(py, *others):
    """Every other int table has the Python one's size and full
    ``cache_stats()``; the reference its size and counter keys."""
    for m in others:
        assert m.size() == py.size()
        if isinstance(m, ReferenceBDDManager):
            assert set(m.cache_stats()) == set(py.cache_stats()), (
                "cache_stats key shape diverged"
            )
        else:
            assert m.cache_stats() == py.cache_stats()


@pytest.mark.parametrize("base", range(0, SEEDS, CHUNK))
def test_op_streams_agree(base):
    """208 seeded builds: handles, semantics, and cache counters match."""
    for seed in range(base, base + CHUNK):
        rng = random.Random(seed)
        mgrs, pools = _drive(rng)
        _assert_same_stats(*mgrs)
        # Spot-check final pool semantics end to end.
        for handles in zip(*(pool[-5:] for pool in pools)):
            assert _same([_truth_table(m, u) for m, u in zip(mgrs, handles)])


def test_cube_enumeration_agrees():
    """pick_cube/iter_cubes walk the same shared structure."""
    rng = random.Random(1234)
    mgrs, pools = _drive(rng, n_ops=40)
    for handles in zip(*pools):
        assert _same([m.pick_cube(u) for m, u in zip(mgrs, handles)])
        assert _same([list(m.iter_cubes(u)) for m, u in zip(mgrs, handles)])


def test_node_accessors_agree():
    rng = random.Random(99)
    mgrs, pools = _drive(rng, n_ops=30)
    for handles in zip(*pools):
        assert len({m.level(u) for m, u in zip(mgrs, handles)}) == 1
        assert len({m.node(u) for m, u in zip(mgrs, handles)}) == 1


def test_restrict_agrees_and_fixes_the_level():
    """Every cofactor of every pool node: same handle in every manager,
    and it evaluates like the node with that level fixed."""
    rng = random.Random(7)
    mgrs, pools = _drive(rng, n_ops=30)
    k = mgrs[0]
    for handles in zip(*pools):
        for lvl, val in itertools.product(range(N_VARS), (False, True)):
            out = [m.restrict(u, lvl, val) for m, u in zip(mgrs, handles)]
            assert _same(out)
            for bits in itertools.product((False, True), repeat=N_VARS):
                fixed = bits[:lvl] + (val,) + bits[lvl + 1:]
                assert k.evaluate(out[0], lambda l: bits[l]) == k.evaluate(
                    handles[0], lambda l: fixed[l]
                )
    _assert_same_stats(*mgrs)


@pytest.mark.parametrize("seed", range(4))
def test_exists_over_more_than_64_levels(seed):
    """Level sets wider than one machine word: quantify 100 of 200 levels
    out of random cube disjunctions, in lockstep."""
    rng = random.Random(seed)
    mgrs = _managers()
    levels = range(200)
    cubes = [
        [(lvl, rng.random() < 0.5) for lvl in sorted(rng.sample(levels, 12))]
        for _ in range(8)
    ]
    hidden = frozenset(rng.sample(levels, 100)) | {65, 130, 199}
    results = []
    for m in mgrs:
        f = m.disj([
            m.conj([m.var(l) if pos else m.nvar(l) for l, pos in cube])
            for cube in cubes
        ])
        results.append((f, m.exists(f, hidden), m.exists(f, frozenset(levels))))
    assert _same(results)
    _assert_same_stats(*mgrs)
    f, g, everything = results[0]
    k = mgrs[0]
    assert everything == k.true
    assert k.support(g) == k.support(f) - hidden
    # Each cube survives quantification as its unquantified part.
    for cube in cubes:
        kept = k.conj([k.var(l) if pos else k.nvar(l)
                       for l, pos in cube if l not in hidden])
        assert k.apply_diff(kept, g) == k.false


@pytest.mark.parametrize("bad", ["size", -1, 1 << 62, 1 << 70])
def test_out_of_range_handles_raise_index_error(bad):
    """Every handle entering the kernel is bounds-checked, and a rejected
    call leaves its tables as they were (the Python table counts a miss
    before it dereferences, but adds no node either)."""
    for m in _int_tables():
        py = isinstance(m, PyBDDManager)
        u = m.apply_and(m.var(0), m.nvar(1))
        h = m.size() if bad == "size" else bad
        before = m.size() if py else m.cache_stats()
        calls = [
            lambda: m.apply_and(h, u), lambda: m.apply_or(u, h),
            lambda: m.apply_diff(u, h), lambda: m.apply_not(h),
            lambda: m.exists(h, frozenset({0})), lambda: m.restrict(h, 0, True),
            lambda: m.level(h), lambda: m.node(h),
        ]
        if not py:
            calls.append(lambda: m._mk(3, h, u))
        for call in calls:
            with pytest.raises(IndexError):
                call()
        assert (m.size() if py else m.cache_stats()) == before


@pytest.mark.parametrize("level", [-1, 1 << 20, 1 << 40])
def test_out_of_range_levels_raise_value_error(level):
    """Both int tables reject a level outside the packed range wherever
    one enters: a literal, a cofactor or a quantified set."""
    for m in _int_tables():
        u = m.apply_and(m.var(0), m.nvar(1))
        for call in (lambda: m.var(level), lambda: m.nvar(level),
                     lambda: m.restrict(u, level, True),
                     lambda: m.exists(u, frozenset({0, level}))):
            with pytest.raises(ValueError):
                call()


@pytest.mark.parametrize("ceiling", [100, 200, 300])
def test_node_ceiling_trips_at_the_same_allocation(ceiling):
    """A bound guard's node ceiling stops both int tables on the same op
    of a stream, with the same nodes and cache counters behind it."""
    rng = random.Random(ceiling)
    k, p = _kernel_manager(), PyBDDManager()
    pools = [_literals(k), _literals(p)]
    guards = [ResourceGuard.start(node_ceiling=ceiling) for _ in range(2)]
    for g, m in zip(guards, (k, p)):
        g.bind_manager(m)
    stopped = [None, None]
    for step in range(2000):
        desc = _random_op(rng, len(pools[0]))
        out = []
        for side, (m, pool) in enumerate(zip((k, p), pools)):
            try:
                out.append(_play(m, pool, desc))
            except MemoryCeilingExceeded as e:
                stopped[side] = (step, e.counters.get("bdd_nodes"))
        if stopped != [None, None]:
            break
        assert out[0] == out[1]
        for pool, u in zip(pools, out):
            pool.append(u)
    assert stopped[0] is not None and stopped[0] == stopped[1]
    _assert_same_stats(p, k)
    assert k.size() > ceiling


def _fault_stream(rng, n_ops, ops):
    pool_size = 2 + 2 * N_VARS
    descs = []
    for _ in range(n_ops):
        descs.append(_random_op(rng, pool_size, ops))
        pool_size += 1
    return descs


@pytest.mark.parametrize("hit", [1, 17, 250])
def test_apply_probe_raise_fires_on_the_same_hit(hit):
    """``bdd.apply:raise`` fires on the same apply miss of the same op in
    both int tables, leaving identical tables behind."""
    descs = _fault_stream(random.Random(hit), 400, range(9))
    k, p = _kernel_manager(), PyBDDManager()
    fired = []
    for m in (k, p):
        pool = _literals(m)
        spec = faults.arm("bdd.apply", hit=hit, action="raise")
        try:
            for step, desc in enumerate(descs):
                try:
                    pool.append(_play(m, pool, desc))
                except faults.InjectedFault:
                    fired.append((step, spec.hits_seen))
                    break
        finally:
            faults.disarm_all()
    assert len(fired) == 2 and fired[0] == fired[1]
    _assert_same_stats(p, k)


@pytest.mark.parametrize("hit", [1, 17, 90])
def test_apply_probe_corrupt_fires_on_the_same_hit(hit):
    """``bdd.apply:corrupt`` fires on the same apply miss of the same op in
    both int tables, and the corrupted result fails its first use with
    ``IndexError``: at once inside the kernel's recursion, or when the
    result is walked."""
    ops = (0, 1, 3, 5)  # and, or, diff, exists: every result is kept
    descs = _fault_stream(random.Random(hit), 400, ops)
    k, p = _kernel_manager(), PyBDDManager()
    fired = []
    for m in (k, p):
        pool = _literals(m)
        spec = faults.arm("bdd.apply", hit=hit, action="corrupt")
        try:
            for step, desc in enumerate(descs):
                try:
                    u = _play(m, pool, desc)
                    if spec.fired:
                        m.support(u)
                except IndexError:
                    assert spec.fired
                    fired.append((step, spec.hits_seen))
                    break
                assert not spec.fired, "a corrupted result was usable"
                pool.append(u)
        finally:
            faults.disarm_all()
    assert len(fired) == 2 and fired[0] == fired[1]


# ---------------------------------------------------------------------------
# Renaming.
# ---------------------------------------------------------------------------


def _order_preserving_map(rng):
    """Levels 0..N_VARS-1 onto random increasing levels below 3*N_VARS."""
    return dict(zip(range(N_VARS), sorted(rng.sample(range(3 * N_VARS), N_VARS))))


@pytest.mark.parametrize("seed", range(12))
def test_rename_agrees(seed):
    """Renaming levels rebuilds the same node table in every manager,
    and the result under the moved assignment evaluates like the
    original."""
    rng = random.Random(seed)
    mgrs, pools = _drive(rng, n_ops=40)
    mapping = _order_preserving_map(rng)
    moved = {new: old for old, new in mapping.items()}
    renamers = [m.renamer(mapping) for m in mgrs]
    k = mgrs[0]
    for handles in zip(*pools):
        out = [ren(u) for ren, u in zip(renamers, handles)]
        assert _same(out + [k.rename(handles[0], mapping)])
        for bits in itertools.product((False, True), repeat=N_VARS):
            assert k.evaluate(out[0], lambda lvl: bits[moved[lvl]]) == k.evaluate(
                handles[0], lambda lvl: bits[lvl]
            )
    _assert_same_stats(*mgrs)
    assert _same([[m.node(u) for u in range(2, m.size())] for m in mgrs])


@pytest.mark.parametrize(
    "manager_cls", [BDDManager, PyBDDManager, ReferenceBDDManager]
)
def test_rename_rejects_maps_that_break_the_order(manager_cls):
    mgr = manager_cls()
    u = mgr.apply_and(mgr.var(0), mgr.nvar(1))
    assert mgr.rename(u, {0: 4, 1: 7}) == mgr.apply_and(mgr.var(4), mgr.nvar(7))
    with pytest.raises(ValueError):
        mgr.rename(u, {0: 7, 1: 4})
    with pytest.raises(ValueError):
        mgr.renamer({0: 3, 1: 3, 2: 5})
    with pytest.raises(ValueError):
        mgr.rename(u, {0: 4})  # level 1 unmapped


# ---------------------------------------------------------------------------
# Macro level: full compile pipelines over generated programs.
# ---------------------------------------------------------------------------


def _compile_with(manager, src):
    from repro.automata.tta import TrackRegistry
    from repro.core.configurations import ProgramModel
    from repro.core.encode import Encoder
    from repro.lang import parse_program
    from repro.mso import syntax as S
    from repro.mso.compile import Compiler

    program = parse_program(src, name="diff")
    model = ProgramModel(program)
    enc = Encoder(model, "P")
    registry = TrackRegistry(manager)
    families = [enc.tracks(1), enc.tracks(2)]
    enc.preregister(registry, families)
    comp = Compiler(registry)
    parts = enc.config_core_parts(families[0])
    auto = comp.compile(S.And(tuple(parts)) if len(parts) > 1 else parts[0])
    return registry.manager, comp, auto


@pytest.mark.parametrize("seed", [0, 1, 2, 5, 11])
def test_generated_program_pipelines_agree(seed):
    """Same program, every manager: identical automata, node for node."""
    from repro.gen import GenConfig, RandomSource, gen_program_source

    src = gen_program_source(RandomSource(seed), GenConfig())
    runs = [_compile_with(m, src) for m in _managers()]
    _, comp_p, auto_p = runs[0]
    for _, comp, auto in runs[1:]:
        assert auto.n_states == auto_p.n_states
        assert auto.accepting == auto_p.accepting
        assert auto.leaf == auto_p.leaf
        assert auto.delta == auto_p.delta  # guard handles are ints in all
        assert set(comp._cache) == set(comp_p._cache), (
            "compile memo population diverged"
        )
    _assert_same_stats(*(mgr for mgr, _, _ in runs))


# ---------------------------------------------------------------------------
# Building the kernel; fallback: no kernel, same decisions.
# ---------------------------------------------------------------------------


def test_edited_kernel_source_builds_under_a_new_name(tmp_path, monkeypatch):
    """An edited ``_kernel.c`` gets its own artifact, and two builds racing
    for it both succeed and leave no temporary file behind."""
    import threading

    from repro.bdd import bdd

    _kernel_manager()  # skips where no kernel can be built
    original = bdd._artifact_path()
    edited = tmp_path / "_kernel.c"
    edited.write_text(bdd._KERNEL_SOURCE.read_text() + "\n/* edited */\n")
    monkeypatch.setattr(bdd, "_KERNEL_SOURCE", edited)
    target = bdd._artifact_path()
    assert target.parent == tmp_path and not target.exists()
    assert target.name.startswith("_kernel_") and target.name != original.name
    builders = [threading.Thread(target=bdd._build_kernel, args=(target,))
                for _ in range(2)]
    for t in builders:
        t.start()
    for t in builders:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in builders)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["_kernel.c", target.name]
    )
    kernel = bdd._load_kernel()
    mgr = kernel.Kernel()
    assert mgr.apply_and(mgr.var(0), mgr.nvar(1)) == 4


def test_a_build_deletes_the_builds_of_other_sources(tmp_path, monkeypatch):
    """A successful build deletes the artifacts of other kernel sources
    next to it, and leaves temporary files of builds in flight and
    unrelated files alone."""
    import sysconfig

    from repro.bdd import bdd

    _kernel_manager()  # skips where no kernel can be built
    source = tmp_path / "_kernel.c"
    source.write_text(bdd._KERNEL_SOURCE.read_text())
    monkeypatch.setattr(bdd, "_KERNEL_SOURCE", source)
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    stale = [tmp_path / f"_kernel_{d * 16}{suffix}" for d in "01"]
    kept = [tmp_path / f"_kernel_{'2' * 16}{suffix}.1234.5678.tmp",
            tmp_path / "_kernel_notes.txt"]
    for p in stale + kept:
        p.write_bytes(b"")
    target = bdd._artifact_path()
    bdd._build_kernel(target)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["_kernel.c", target.name, *(p.name for p in kept)]
    )


def test_unwritable_package_directory_falls_back_without_compiling(
        tmp_path, monkeypatch):
    """Where no build can be cached, no process runs the compiler: the
    first construction falls back at once, and quietly."""
    import subprocess
    import warnings

    from repro.bdd import bdd

    source = tmp_path / "_kernel.c"
    source.write_text(bdd._KERNEL_SOURCE.read_text())
    monkeypatch.setattr(bdd, "_KERNEL_SOURCE", source)
    monkeypatch.setattr(bdd, "_native", None)
    monkeypatch.setattr(
        os, "access",
        lambda path, mode: not (mode & os.W_OK and Path(path) == tmp_path),
    )

    def no_compile(*args, **kwargs):
        raise AssertionError("the compiler ran")

    monkeypatch.setattr(subprocess, "run", no_compile)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert type(BDDManager()) is PyBDDManager
    assert sorted(p.name for p in tmp_path.iterdir()) == ["_kernel.c"]


def test_failed_compile_falls_back_with_the_compiler_output(
        tmp_path, monkeypatch):
    """A compile that fails falls back to the Python table with one
    warning that carries the compiler's own message."""
    import warnings

    from repro.bdd import bdd

    _kernel_manager()  # skips where no kernel can be built
    broken = tmp_path / "_kernel.c"
    broken.write_text('#error "kernel source damaged"\n')
    monkeypatch.setattr(bdd, "_KERNEL_SOURCE", broken)
    monkeypatch.setattr(bdd, "_native", None)
    with pytest.warns(RuntimeWarning, match="kernel source damaged"):
        assert type(BDDManager()) is PyBDDManager
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # remembered: no second build
        assert type(BDDManager()) is PyBDDManager
    assert sorted(p.name for p in tmp_path.iterdir()) == ["_kernel.c"]


_T13_SCRIPT = """
import json, sys
from repro.bdd import bdd

def no_kernel():
    raise OSError("no C compiler")

if sys.argv[1] == "fallback":
    bdd._load_kernel = no_kernel
from repro.bdd import BDDManager
from repro.casestudies import sizecount
from repro.core.symbolic import check_data_race_mso

v = check_data_race_mso(sizecount.parallel_program())
print(json.dumps({"manager": type(BDDManager()).__name__, "found": v.found,
                  "bdd_nodes": v.stats["bdd_nodes"]}))
"""


def test_failed_kernel_load_falls_back_to_python_with_same_t13():
    """With the kernel loader failing, ``BDDManager()`` is the Python int
    table, and T1.3 decides with the same verdict and node count."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = {}
    for mode in ("fallback", "default"):
        run = subprocess.run(
            [sys.executable, "-c", _T13_SCRIPT, mode],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert run.returncode == 0, run.stderr
        out[mode] = json.loads(run.stdout.strip().splitlines()[-1])
    assert out["fallback"]["manager"] == "PyBDDManager"
    assert out["fallback"]["found"] is out["default"]["found"] is False
    assert out["fallback"]["bdd_nodes"] == out["default"]["bdd_nodes"]
