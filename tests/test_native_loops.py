"""The kernel's automata loops against their Python versions, in lockstep.

``TreeAutomaton.product``, ``minimize._refine``, ``minimize._reachable``
and ``tta.split_guards`` run their loop in the BDD kernel when the manager
is kernel-backed, and in Python (``product_rows``, ``refine_classes``,
``reachable_states``, ``split_regions``) otherwise.  The native loops must
be bit-identical: same state numbers, same delta order, the same shared
row objects and the same BDD calls, so node handles and every
``cache_stats()`` counter agree.

Each query runs on two fresh solvers.  One has a kernel-backed manager;
the other a subclass of it that hides the four kernel methods, so the
automata layer calls the Python functions over the same node table.
Every call of the four entry points is traced with its result, the
manager's ``size()`` and its full ``cache_stats()``; the traces must be
equal.  Edge cases (budgets, deadlines, faults, malformed rows) call the
kernel methods and the Python functions directly.
"""

import importlib
from typing import Dict, List, Tuple

import pytest

from repro.automata.tta import (
    TrackRegistry,
    TreeAutomaton,
    product_rows,
    split_guards,
)
from repro.bdd import BDDManager
from repro.bdd.bdd import PyBDDManager
from repro.casestudies import cycletree, sizecount, treemutation
from repro.core.symbolic import check_conflict_mso, check_data_race_mso
from repro.gen import gen_race_query
from repro.mso import syntax as S
from repro.mso.compile import Compiler
from repro.runtime import (
    DeadlineExceeded,
    MemoryCeilingExceeded,
    ResourceGuard,
    StateBudgetExceeded,
)
from repro.runtime import faults
from repro.solver import MSOSolver

minimize_mod = importlib.import_module("repro.automata.minimize")
determinize_mod = importlib.import_module("repro.automata.determinize")

LOOPS = ("product_rows", "refine_classes", "reachable_states", "split_regions")


def _native_class():
    cls = type(BDDManager())
    if cls is PyBDDManager:
        pytest.skip("the native BDD kernel could not be built here")
    return cls


def _python_loops_class():
    """The kernel-backed manager with the four loops hidden."""
    return type("PythonLoops", (_native_class(),), {"__slots__": (), **dict.fromkeys(LOOPS)})


# ---------------------------------------------------------------------------
# Tracing.
# ---------------------------------------------------------------------------


def _fields(a: TreeAutomaton):
    """An automaton field by field, with its row sharing: each key's row
    as the position of the first key holding the same list object."""
    first: Dict[int, int] = {}
    sharing = [first.setdefault(id(v), i) for i, v in enumerate(a.delta.values())]
    return (
        a.n_states,
        list(a.leaf),
        [(k, list(v)) for k, v in a.delta.items()],
        sorted(a.accepting),
        a.deterministic,
        a.complete,
        sorted(a.tracks),
        sharing,
    )


def _summary(out):
    if isinstance(out, TreeAutomaton):
        return _fields(out)
    if isinstance(out, set):
        return sorted(out)
    return out


class _Tracer:
    def __init__(self) -> None:
        self.trace: List[Tuple] = []

    def wrap(self, name, impl, manager_of):
        def wrapper(*args, **kwargs):
            out = impl(*args, **kwargs)
            mgr = manager_of(*args)
            self.trace.append((name, _summary(out), mgr.size(), mgr.cache_stats()))
            return out

        return wrapper


def _traced(monkeypatch, tracer: _Tracer) -> None:
    automaton = lambda a, *rest: a.manager  # noqa: E731
    manager = lambda mgr, *rest: mgr  # noqa: E731
    monkeypatch.setattr(
        TreeAutomaton, "product", tracer.wrap("product", TreeAutomaton.product, automaton)
    )
    for name in ("_refine", "_reachable"):
        monkeypatch.setattr(
            minimize_mod, name, tracer.wrap(name, getattr(minimize_mod, name), automaton)
        )
    monkeypatch.setattr(
        determinize_mod,
        "split_guards",
        tracer.wrap("split_guards", determinize_mod.split_guards, manager),
    )


def _run(query, manager_cls):
    solver = MSOSolver(registry=TrackRegistry(manager_cls()))
    guard = ResourceGuard()
    tracer = _Tracer()
    with pytest.MonkeyPatch.context() as mp:
        _traced(mp, tracer)
        verdicts = query(solver, guard)
    stats = [
        {k: v for k, v in verdict.stats.items() if not k.endswith("_s")}
        for verdict in verdicts
    ]
    return tracer.trace, stats, [v.found for v in verdicts], guard.counters()["ticks"]


def _t11(solver, guard):
    return [check_conflict_mso(
        sizecount.sequential_program(), sizecount.fused_valid(),
        sizecount.fusion_correspondence(), solver=solver, guard=guard,
    )]


def _t13(solver, guard):
    return [check_data_race_mso(sizecount.parallel_program(), solver=solver, guard=guard)]


def _t14(solver, guard):
    return [check_conflict_mso(
        treemutation.original_program(), treemutation.fused_program(),
        treemutation.fusion_correspondence(), solver=solver, guard=guard,
    )]


def _t17(solver, guard):
    return [check_data_race_mso(cycletree.parallel_program(), solver=solver, guard=guard)]


def _gen_races(solver, guard):
    return [
        check_data_race_mso(gen_race_query(seed).program(), solver=solver, guard=guard)
        for seed in range(20)
    ]


QUERIES = {"T1.1": _t11, "T1.3": _t13, "T1.4": _t14, "T1.7": _t17,
           "gen-race-0..19": _gen_races}


@pytest.mark.slow
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_native_loops_match_python_loops(query):
    run = QUERIES[query]
    python = _run(run, _python_loops_class())
    native = _run(run, _native_class())
    trace_py, trace_nat = python[0], native[0]
    assert {name for name, *_ in trace_nat} >= {"product", "_refine", "_reachable"}
    assert len(trace_nat) == len(trace_py)
    for i, (want, got) in enumerate(zip(trace_py, trace_nat)):
        assert got == want, f"{query}: call #{i} ({want[0]}) differs"
    assert native[1:] == python[1:]


# ---------------------------------------------------------------------------
# Edge cases, each run through the kernel method and the Python function.
# ---------------------------------------------------------------------------


def _pair(manager_cls, f, g):
    c = Compiler(registry=TrackRegistry(manager_cls()))
    return c.compile(f), c.compile(g)


def _both(f, g, call):
    """``call(a, b, loop)`` with the kernel's product loop, then with
    :func:`product_rows`, each on a fresh pair of automata."""
    out = []
    for cls in (_native_class(), _python_loops_class()):
        a, b = _pair(cls, f, g)
        out.append(call(a, b, a.manager.product_rows or product_rows))
    return out


SING = (S.Sing("X"), S.Subset("X", "Y"))


@pytest.mark.parametrize("budget", [0, 1, 2, 3])
def test_state_budget_trips_at_the_same_count(budget):
    def call(a, b, loop):
        with pytest.raises(StateBudgetExceeded) as e:
            loop(a, b, budget, None)
        return str(e.value), e.value.phase, e.value.counters, a.manager.cache_stats()

    native, python = _both(*SING, call)
    assert native == python
    assert native[2] == {"states": budget}


def test_expired_guard_stops_a_native_product():
    guard = ResourceGuard(deadline=0.0, check_every=1)
    a, b = _pair(_native_class(), *SING)
    with pytest.raises(DeadlineExceeded) as e:
        a.manager.product_rows(a, b, None, guard)
    assert e.value.phase == "automata.product"


def test_guard_ticks_once_per_pair_with_its_peers():
    def call(a, b, loop):
        guard = ResourceGuard()
        pairs, _, _ = loop(a, b, None, guard)
        return guard.counters()["ticks"], len(pairs)

    native, python = _both(*SING, call)
    ticks, n = native
    assert native == python and ticks == n * (n + 1) // 2


def test_node_ceiling_propagates_without_an_automaton():
    """A node ceiling trips inside the native product on the same
    allocation as in the Python loop, and no automaton comes back."""
    f = S.And((S.Subset("X", "Y"), S.Sing("X")))
    g = S.And((S.Subset("Y", "Z"), S.Sing("Z")))

    def call(a, b, loop):
        mgr = a.manager
        while mgr.size() % 256:  # the product's first node is probed
            mgr.var(1000 + mgr.size())
        guard = ResourceGuard(node_ceiling=mgr.size())
        guard.bind_manager(mgr)
        with pytest.raises(MemoryCeilingExceeded):
            a.product(b, lambda x, y: x and y)
        return mgr.size(), mgr.cache_stats()

    native, python = _both(f, g, call)
    assert native == python and native[0] % 256 == 1


@pytest.mark.parametrize("action", ["raise", "corrupt"])
def test_apply_probe_in_a_native_product(action):
    """``bdd.apply`` fires on the same hit as in the Python loop; a
    corrupted result raises ``IndexError`` inside the native loop."""
    def call(a, b, loop):
        spec = faults.arm("bdd.apply", hit=5, action=action)
        try:
            try:
                out = loop(a, b, None, None)
            except (faults.InjectedFault, IndexError) as e:
                return type(e), spec.hits_seen, a.manager.size()
            return out, spec.hits_seen, a.manager.size()
        finally:
            faults.disarm_all()

    native, python = _both(S.Subset("X", "Y"), S.Subset("Y", "Z"), call)
    assert native[1] >= 5, "the probe never fired"
    if action == "raise":
        assert native == python and native[0] is faults.InjectedFault
    else:
        assert native[0] is IndexError and native[1:] == python[1:]


def _tiny(manager_cls, n_states, leaf, delta, accepting=()):
    registry = TrackRegistry(manager_cls())
    return TreeAutomaton(registry, frozenset(), n_states, leaf, delta, frozenset(accepting))


@pytest.mark.parametrize(
    "leaf, delta",
    [
        ([(1, 0)], {(0, 0): [(1, "x")]}),  # state not an int
        ([(1, 0)], {(0, 0): [(1,)]}),  # not a pair
        ([(1, 0)], {(0, 0): ((1, 0) for _ in ())}),  # row not a list
        ([(1, 0)], {(0,): [(1, 0)]}),  # key not a pair
        ("leaf", {}),  # leaf not a list
    ],
)
def test_malformed_rows_raise_type_error(leaf, delta):
    a = _tiny(_native_class(), 1, leaf, delta)
    mgr = a.manager
    calls = [
        lambda: mgr.product_rows(a, a, None, None),
        lambda: mgr.refine_classes(a, None, None, None, "minimize"),
        lambda: mgr.reachable_states(a),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize(
    "leaf, delta",
    [
        ([(1, 1)], {}),  # state past n_states
        ([(1, -1)], {}),  # negative state
        ([(10**6, 0)], {}),  # guard not a node
        ([(1, 0)], {(0, 0): [(-1, 0)]}),  # negative guard
        ([(1, 0)], {(0, 5): [(1, 0)]}),  # key state past n_states
    ],
)
def test_out_of_range_states_and_guards_raise_index_error(leaf, delta):
    a = _tiny(_native_class(), 1, leaf, delta)
    mgr = a.manager
    for call in (
        lambda: mgr.product_rows(a, a, None, None),
        lambda: mgr.refine_classes(a, {}, None, None, "reduce"),
        lambda: mgr.reachable_states(a),
    ):
        with pytest.raises(IndexError):
            call()
    with pytest.raises(IndexError):
        mgr.split_regions([(-1, 0)])
    with pytest.raises(TypeError):
        mgr.split_regions([(1, "x")])


@pytest.mark.parametrize("n_states, leaf, delta, accepting", [
    (0, [], {}, ()),
    (1, [], {}, ()),
    (1, [(1, 0)], {}, (0,)),
    (1, [(1, 0)], {(0, 0): [(1, 0)]}, (0,)),
])
def test_empty_and_one_state_automata(n_states, leaf, delta, accepting):
    results = []
    for cls in (_native_class(), _python_loops_class()):
        a = _tiny(cls, n_states, leaf, delta, accepting)
        p = a.product(a, lambda x, y: x and y)
        results.append((
            _fields(p),
            sorted(minimize_mod._reachable(a)),
            minimize_mod._refine(a, None, "minimize"),
            minimize_mod._refine(a, None, "reduce", {}, 3),
            minimize_mod._refine(a, None, "reduce", None, 0),
            a.manager.cache_stats(),
        ))
    assert results[0] == results[1]


def test_refine_without_leaf_guards_and_with_them():
    results = []
    for cls in (_native_class(), _python_loops_class()):
        c = Compiler(registry=TrackRegistry(cls()))
        a = c.compile(S.Or((S.Sing("X"), S.Subset("X", "Y"))))
        a = a.projected(["Y"])
        leaf_guards: Dict[int, List[int]] = {}
        for g, q in a.leaf:
            leaf_guards.setdefault(q, []).append(g)
        results.append((
            minimize_mod._refine(a, None, "reduce", None, 50),
            minimize_mod._refine(a, None, "reduce", leaf_guards, 50),
            a.manager.cache_stats(),
        ))
    assert results[0] == results[1]


def test_split_regions_match():
    results = []
    for cls in (_native_class(), _python_loops_class()):
        mgr = cls()
        x, y, z = mgr.var(0), mgr.var(1), mgr.var(2)
        pairs = [(x, 3), (y, 1), (mgr.apply_and(x, z), 2), (mgr.true, 1), (mgr.false, 0)]
        results.append((split_guards(mgr, pairs), split_guards(mgr, []), mgr.cache_stats()))
    assert results[0] == results[1]
