"""Differential tests: int-table BDD core vs the tuple-node reference.

The flat int-table manager in :mod:`repro.bdd.bdd` must be
observation-equivalent to the pre-refactor tuple-per-node implementation
preserved verbatim in :mod:`repro.bdd.reference`: identical node handles
in identical order (hash-consing allocates by first construction, and the
apply algorithms recurse the same way), identical truth tables, and an
identical ``cache_stats()`` key shape.  Guard handles feed automata
structure and ultimately the compiler's memo, which is keyed on the
levels of a formula's free variables and copies automata by renaming
levels (``rename``), so handle-level agreement is the strongest
observable.

Two layers:

* a seeded op-stream driver plays 200+ random operation sequences against
  both managers in lockstep (the micro level);
* generated Retreet programs' encoder formulas compile through two full
  pipelines, one per manager, and the resulting automata must agree state
  for state and guard for guard (the macro level, via :mod:`repro.gen`).
"""

import itertools
import random

import pytest

from repro.bdd import BDDManager
from repro.bdd.reference import ReferenceBDDManager

N_VARS = 6
SEEDS = 208
CHUNK = 26


def _truth_table(mgr, u):
    rows = []
    for bits in itertools.product((False, True), repeat=N_VARS):
        rows.append(mgr.evaluate(u, lambda lvl: bits[lvl]))
    return tuple(rows)


def _drive(rng, n_ops=60):
    """One op stream applied to both managers in lockstep.

    Returns the two managers for post-run shape checks."""
    a = BDDManager()
    b = ReferenceBDDManager()
    pool_a = [a.true, a.false]
    pool_b = [b.true, b.false]
    for lvl in range(N_VARS):
        pool_a += [a.var(lvl), a.nvar(lvl)]
        pool_b += [b.var(lvl), b.nvar(lvl)]
    assert pool_a == pool_b

    for step in range(n_ops):
        op = rng.randrange(9)
        i = rng.randrange(len(pool_a))
        j = rng.randrange(len(pool_a))
        k = rng.randrange(len(pool_a))
        if op == 0:
            ua, ub = a.apply_and(pool_a[i], pool_a[j]), b.apply_and(pool_b[i], pool_b[j])
        elif op == 1:
            ua, ub = a.apply_or(pool_a[i], pool_a[j]), b.apply_or(pool_b[i], pool_b[j])
        elif op == 2:
            ua, ub = a.apply_not(pool_a[i]), b.apply_not(pool_b[i])
        elif op == 3:
            ua, ub = a.apply_diff(pool_a[i], pool_a[j]), b.apply_diff(pool_b[i], pool_b[j])
        elif op == 4:
            ua = a.ite(pool_a[i], pool_a[j], pool_a[k])
            ub = b.ite(pool_b[i], pool_b[j], pool_b[k])
        elif op == 5:
            levels = frozenset(
                rng.sample(range(N_VARS), rng.randint(1, N_VARS))
            )
            ua, ub = a.exists(pool_a[i], levels), b.exists(pool_b[i], levels)
        elif op == 6:
            lvl, val = rng.randrange(N_VARS), bool(rng.randrange(2))
            ua = a.restrict(pool_a[i], lvl, val)
            ub = b.restrict(pool_b[i], lvl, val)
        elif op == 7:
            idxs = [rng.randrange(len(pool_a)) for _ in range(rng.randint(0, 4))]
            ua = a.conj([pool_a[x] for x in idxs])
            ub = b.conj([pool_b[x] for x in idxs])
        else:
            idxs = [rng.randrange(len(pool_a)) for _ in range(rng.randint(0, 4))]
            ua = a.disj([pool_a[x] for x in idxs])
            ub = b.disj([pool_b[x] for x in idxs])
        assert ua == ub, f"handle divergence at step {step} (op {op})"
        pool_a.append(ua)
        pool_b.append(ub)
        if step % 7 == 0:
            assert _truth_table(a, ua) == _truth_table(b, ub)
            assert a.support(ua) == b.support(ub)
    return a, b, pool_a, pool_b


@pytest.mark.parametrize("base", range(0, SEEDS, CHUNK))
def test_op_streams_agree(base):
    """208 seeded builds: handles, semantics, and cache shape all match."""
    for seed in range(base, base + CHUNK):
        rng = random.Random(seed)
        a, b, pool_a, pool_b = _drive(rng)
        assert a.size() == b.size()
        sa, sb = a.cache_stats(), b.cache_stats()
        assert set(sa) == set(sb), "cache_stats key shape diverged"
        assert sa["nodes"] == sb["nodes"]
        # Spot-check final pool semantics end to end.
        for ua, ub in zip(pool_a[-5:], pool_b[-5:]):
            assert _truth_table(a, ua) == _truth_table(b, ub)


def test_cube_enumeration_agrees():
    """pick_cube/iter_cubes walk the same shared structure."""
    rng = random.Random(1234)
    a, b, pool_a, pool_b = _drive(rng, n_ops=40)
    for ua, ub in zip(pool_a, pool_b):
        assert a.pick_cube(ua) == b.pick_cube(ub)
        assert list(a.iter_cubes(ua)) == list(b.iter_cubes(ub))


def test_node_accessors_agree():
    rng = random.Random(99)
    a, b, pool_a, pool_b = _drive(rng, n_ops=30)
    for ua, ub in zip(pool_a, pool_b):
        if ua in (a.true, a.false):
            continue
        assert a.level(ua) == b.level(ub)
        assert a.node(ua) == b.node(ub)


def _order_preserving_map(rng):
    """Levels 0..N_VARS-1 onto random increasing levels below 3*N_VARS."""
    return dict(zip(range(N_VARS), sorted(rng.sample(range(3 * N_VARS), N_VARS))))


@pytest.mark.parametrize("seed", range(12))
def test_rename_agrees(seed):
    """Renaming levels rebuilds the same node table in both managers, and
    the result under the moved assignment evaluates like the original."""
    rng = random.Random(seed)
    a, b, pool_a, pool_b = _drive(rng, n_ops=40)
    mapping = _order_preserving_map(rng)
    moved = {new: old for old, new in mapping.items()}
    ren_a, ren_b = a.renamer(mapping), b.renamer(mapping)
    for ua, ub in zip(pool_a, pool_b):
        va = ren_a(ua)
        assert va == ren_b(ub) == a.rename(ua, mapping)
        for bits in itertools.product((False, True), repeat=N_VARS):
            assert a.evaluate(va, lambda lvl: bits[moved[lvl]]) == a.evaluate(
                ua, lambda lvl: bits[lvl]
            )
    assert a.size() == b.size()
    assert [a.node(u) for u in range(2, a.size())] == [
        b.node(u) for u in range(2, b.size())
    ]


@pytest.mark.parametrize("manager_cls", [BDDManager, ReferenceBDDManager])
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


def _compile_with(manager_cls, src):
    from repro.automata.tta import TrackRegistry
    from repro.core.configurations import ProgramModel
    from repro.core.encode import Encoder
    from repro.lang import parse_program
    from repro.mso import syntax as S
    from repro.mso.compile import Compiler

    program = parse_program(src, name="diff")
    model = ProgramModel(program)
    enc = Encoder(model, "P")
    registry = TrackRegistry(manager_cls())
    families = [enc.tracks(1), enc.tracks(2)]
    enc.preregister(registry, families)
    comp = Compiler(registry)
    parts = enc.config_core_parts(families[0])
    auto = comp.compile(S.And(tuple(parts)) if len(parts) > 1 else parts[0])
    return registry.manager, comp, auto


@pytest.mark.parametrize("seed", [0, 1, 2, 5, 11])
def test_generated_program_pipelines_agree(seed):
    """Same program, two managers: identical automata, node for node."""
    from repro.gen import GenConfig, RandomSource, gen_program_source

    src = gen_program_source(RandomSource(seed), GenConfig())
    mgr_a, comp_a, auto_a = _compile_with(BDDManager, src)
    mgr_b, comp_b, auto_b = _compile_with(ReferenceBDDManager, src)

    assert auto_a.n_states == auto_b.n_states
    assert auto_a.accepting == auto_b.accepting
    assert auto_a.leaf == auto_b.leaf
    assert auto_a.delta == auto_b.delta  # guard handles are ints in both
    assert mgr_a.size() == mgr_b.size()
    assert set(comp_a._cache) == set(comp_b._cache), (
        "compile memo population diverged"
    )
