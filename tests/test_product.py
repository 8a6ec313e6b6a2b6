"""Tests for the lazy product-emptiness engine.

Differential core: on randomized small automata, emptiness of the
implicit N-way :class:`ProductAutomaton` must coincide with emptiness of
the eagerly materialized pairwise product — the two pipelines share no
product-construction code, so agreement exercises dead-state pruning,
factor merging, and the tuple-space fixpoint against the seed's
reference semantics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import (
    ProductAutomaton,
    TrackRegistry,
    TreeAutomaton,
    find_witness,
    is_empty,
)
from repro.automata.determinize import StateBudgetExceeded
from repro.trees.generators import all_shapes

TRACKS = ("A", "B")


@st.composite
def automaton(draw, registry):
    """A small random NFTA over tracks {A, B} (possibly empty-language)."""
    mgr = registry.manager
    guards = [
        mgr.true,
        registry.bit("A"),
        registry.bit("A", False),
        registry.bit("B"),
        mgr.apply_and(registry.bit("A"), registry.bit("B", False)),
    ]
    n = draw(st.integers(min_value=1, max_value=3))
    leaf = []
    for q in range(n):
        if draw(st.booleans()):
            leaf.append((draw(st.sampled_from(guards)), q))
    delta = {}
    for ql in range(n):
        for qr in range(n):
            entries = []
            for q in range(n):
                if draw(st.integers(0, 3)) == 0:
                    entries.append((draw(st.sampled_from(guards)), q))
            if entries:
                delta[(ql, qr)] = entries
    accepting = frozenset(
        q for q in range(n) if draw(st.booleans())
    ) or frozenset([draw(st.integers(0, n - 1))])
    return TreeAutomaton(
        registry=registry,
        tracks=frozenset(TRACKS),
        n_states=n,
        leaf=leaf,
        delta=delta,
        accepting=accepting,
        deterministic=False,
        complete=False,
    )


def _eager_product(autos):
    acc = autos[0]
    for nxt in autos[1:]:
        acc = acc.product(nxt, lambda x, y: x and y)
    return acc


@st.composite
def factor_list(draw):
    registry = TrackRegistry()
    k = draw(st.integers(min_value=2, max_value=4))
    return [draw(automaton(registry)) for _ in range(k)]


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(factor_list())
    def test_lazy_emptiness_matches_materialized(self, autos):
        lazy = ProductAutomaton(autos)
        eager = _eager_product(autos)
        assert lazy.explore().empty == is_empty(eager)
        # The early-stop answer must agree with the saturating run's.
        saturated = ProductAutomaton(autos).explore(stop_on_accepting=False)
        assert saturated.empty == lazy.explore().empty

    @settings(max_examples=30, deadline=None)
    @given(factor_list())
    def test_lazy_witness_is_accepted_by_all_factors(self, autos):
        lazy = ProductAutomaton(autos)
        exp = lazy.explore()
        if exp.empty:
            return
        from repro.automata.emptiness import witness_from_exploration

        w = witness_from_exploration(lazy, exp)
        labels = {t: w.labels.get(t, frozenset()) for t in TRACKS}
        for a in autos:
            assert a.run(w.tree, labels)

    @settings(max_examples=30, deadline=None)
    @given(factor_list())
    def test_run_agrees_with_factor_conjunction(self, autos):
        lazy = ProductAutomaton(autos)
        trees = [t for n in range(3) for t in all_shapes(n)]
        for t in trees:
            labels = {tr: frozenset() for tr in TRACKS}
            want = all(a.run(t, labels) for a in autos)
            assert lazy.run(t, labels) == want


class TestBudget:
    def test_budget_counts_reached_states(self):
        registry = TrackRegistry()
        mgr = registry.manager
        # A k-state automaton accepting nothing before depth k; three of
        # them give a tuple space large enough to trip a tiny budget.
        def chain(k):
            return TreeAutomaton(
                registry=registry,
                tracks=frozenset(TRACKS),
                n_states=k,
                leaf=[(mgr.true, 0)],
                delta={
                    (i, j): [(mgr.true, min(max(i, j) + 1, k - 1))]
                    for i in range(k)
                    for j in range(k)
                },
                accepting=frozenset([k - 1]),
                deterministic=False,
                complete=False,
            )

        big = ProductAutomaton(
            [chain(5), chain(6), chain(7)], merge_limit=1
        )
        with pytest.raises(StateBudgetExceeded):
            big.explore(max_states=3, stop_on_accepting=False)
        exp = big.explore(stop_on_accepting=False)
        assert not exp.empty
        assert exp.reached > 3


class TestRecordedExploration:
    def test_false_guard_transition_is_not_recorded(self):
        """A false-guard transition fires on no label, so a recorded run
        must not log it: the logged edge pointed at a tuple the fixpoint
        never reached, and materializing the run raised ``KeyError``."""
        registry = TrackRegistry()
        mgr = registry.manager
        a = TreeAutomaton(
            registry=registry,
            tracks=frozenset({"A"}),
            n_states=3,
            leaf=[(mgr.true, 0)],
            delta={(0, 0): [(registry.bit("A"), 1), (mgr.false, 2)]},
            accepting=frozenset({1, 2}),
        )
        prod = ProductAutomaton([a])
        exp = prod.explore(stop_on_accepting=False, record=True)
        m = prod.materialized_explored(exp)
        assert m.n_states == 2 and not m.deterministic
        for t in [t for n in range(3) for t in all_shapes(n)]:
            for root_a in (frozenset(), frozenset({""})):
                labels = {"A": root_a}
                assert m.run(t, labels) == a.run(t, labels)


class TestRegressionT13:
    def test_sizecount_parallel_decided_under_default_budget(self):
        from repro.casestudies import sizecount
        from repro.core.symbolic import check_data_race_mso
        from repro.solver import MSOSolver

        solver = MSOSolver()
        v = check_data_race_mso(sizecount.parallel_program(), solver=solver)
        assert v.status == "decided"
        assert not v.found
        assert v.queries > 0
        assert v.max_states <= solver.product_budget
