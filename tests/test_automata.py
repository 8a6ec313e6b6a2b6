"""Tests for the symbolic tree-automata library.

The operations are validated against set semantics: for each construction,
acceptance on every small labelled tree must match the expected boolean
combination of the operands' acceptance.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import (
    TrackRegistry,
    TreeAutomaton,
    determinize,
    find_witness,
    is_empty,
    minimize,
    prune_unreachable,
    split_guards,
)
from repro.automata.determinize import StateBudgetExceeded
from repro.mso import syntax as S
from repro.mso.compile import Compiler
from repro.trees.generators import all_shapes


@pytest.fixture(scope="module")
def compiler():
    return Compiler()


@pytest.fixture(scope="module")
def trees():
    return [t for n in range(4) for t in all_shapes(n)]


def _labelings(tree, tracks, limit=None):
    """All labelings of the tree over the given tracks (or a sample)."""
    paths = tree.paths(include_nil=True)
    subsets = list(
        itertools.chain.from_iterable(
            itertools.combinations(paths, r) for r in range(len(paths) + 1)
        )
    )
    combos = itertools.product(subsets, repeat=len(tracks))
    out = []
    for i, combo in enumerate(combos):
        if limit is not None and i >= limit:
            break
        out.append({t: frozenset(s) for t, s in zip(tracks, combo)})
    return out


@pytest.fixture(scope="module")
def a_sing(compiler):
    return compiler.compile(S.Sing("X"), already_fresh=True)


@pytest.fixture(scope="module")
def a_empty(compiler):
    return compiler.compile(S.Empty("X"), already_fresh=True)


@pytest.fixture(scope="module")
def a_subset(compiler):
    return compiler.compile(S.Subset("X", "Y"), already_fresh=True)


class TestRun:
    def test_sing_accepts_singletons(self, a_sing, trees):
        for t in trees:
            for lab in _labelings(t, ["X"], limit=40):
                want = len(lab["X"]) == 1
                assert a_sing.run(t, lab) == want

    def test_empty(self, a_empty, trees):
        for t in trees[:5]:
            for lab in _labelings(t, ["X"], limit=30):
                assert a_empty.run(t, lab) == (len(lab["X"]) == 0)

    def test_describe(self, a_sing):
        out = a_sing.describe()
        assert "states" in out and "tracks" in out


class TestProduct:
    def test_intersection_semantics(self, compiler, a_sing, a_subset, trees):
        prod = a_sing.product(a_subset, lambda x, y: x and y)
        for t in trees[:6]:
            for lab in _labelings(t, ["X", "Y"], limit=40):
                assert prod.run(t, lab) == (
                    a_sing.run(t, lab) and a_subset.run(t, lab)
                )

    def test_union_semantics_product(self, a_sing, a_empty, trees):
        u = a_sing.completed().product(a_empty.completed(), lambda x, y: x or y)
        for t in trees[:6]:
            for lab in _labelings(t, ["X"], limit=40):
                assert u.run(t, lab) == (
                    a_sing.run(t, lab) or a_empty.run(t, lab)
                )

    def test_union_sum_semantics(self, a_sing, a_empty, trees):
        u = a_sing.union_sum(a_empty)
        assert u.n_states == a_sing.n_states + a_empty.n_states
        for t in trees[:6]:
            for lab in _labelings(t, ["X"], limit=40):
                assert u.run(t, lab) == (
                    a_sing.run(t, lab) or a_empty.run(t, lab)
                )

    def test_product_tracks_union(self, a_sing, a_subset):
        prod = a_sing.product(a_subset, lambda x, y: x and y)
        assert prod.tracks == {"X", "Y"}


class TestComplement:
    def test_complement_semantics(self, a_sing, trees):
        comp = a_sing.complemented()
        for t in trees[:6]:
            for lab in _labelings(t, ["X"], limit=40):
                assert comp.run(t, lab) == (not a_sing.run(t, lab))

    def test_double_complement(self, a_sing, trees):
        cc = a_sing.complemented().complemented()
        for t in trees[:6]:
            for lab in _labelings(t, ["X"], limit=30):
                assert cc.run(t, lab) == a_sing.run(t, lab)


class TestProjection:
    def test_projection_is_exists(self, compiler, trees):
        # project X out of Sing(X): "some singleton labelling exists" —
        # true on every tree that has at least one node (incl. nil root).
        a = compiler.compile(S.Sing("X"), already_fresh=True)
        p = a.projected(["X"])
        for t in trees:
            assert p.run(t, {})  # every tree has >= 1 position

    def test_projection_nondeterministic(self, a_sing):
        assert not a_sing.projected(["X"]).deterministic


class TestDeterminize:
    def test_preserves_language(self, a_sing, trees):
        nfta = a_sing.projected([])  # mark nondeterministic, same language
        det = determinize(nfta)
        assert det.deterministic and det.complete
        for t in trees[:6]:
            for lab in _labelings(t, ["X"], limit=30):
                assert det.run(t, lab) == a_sing.run(t, lab)

    def test_budget_raises(self, compiler):
        f = S.Exists1(("x", "y"), S.And((S.Reach("x", "y"), S.Reach("x", "y"))))
        a = compiler.compile(f)
        with pytest.raises(StateBudgetExceeded):
            determinize(a, max_states=1)

    def test_compiler_det_budget_bounds_complement(self):
        # Negating a projection determinizes it; the compiler's
        # ``det_budget`` is that construction's state budget.
        f = S.Not(S.Exists1(("x",), S.In(S.NodeTerm("x"), "X")))
        with pytest.raises(StateBudgetExceeded) as ei:
            Compiler(det_budget=1).compile(f)
        assert ei.value.phase == "determinize"
        assert Compiler().compile(f).deterministic


class TestMinimize:
    def test_preserves_language(self, a_subset, trees):
        m = minimize(a_subset.completed())
        for t in trees[:6]:
            for lab in _labelings(t, ["X", "Y"], limit=40):
                assert m.run(t, lab) == a_subset.run(t, lab)

    def test_does_not_grow(self, a_sing):
        assert minimize(a_sing.completed()).n_states <= a_sing.completed().n_states

    def test_rejects_nondeterministic(self, a_sing):
        with pytest.raises(ValueError):
            minimize(a_sing.projected([]))

    def test_prune_unreachable(self, a_sing):
        # Add an unreachable state manually.
        bloated = TreeAutomaton(
            registry=a_sing.registry,
            tracks=a_sing.tracks,
            n_states=a_sing.n_states + 1,
            leaf=a_sing.leaf,
            delta=a_sing.delta,
            accepting=a_sing.accepting,
            deterministic=a_sing.deterministic,
        )
        assert prune_unreachable(bloated).n_states == a_sing.n_states


class TestEmptiness:
    def test_nonempty_with_witness(self, a_sing):
        w = find_witness(a_sing)
        assert w is not None
        assert len(w.labels.get("X", ())) == 1
        assert a_sing.run(w.tree, w.labels)

    def test_empty_automaton(self, compiler):
        a = compiler.compile(S.FalseF())
        assert is_empty(a)
        assert find_witness(a) is None

    def test_witness_satisfies_formula(self, compiler):
        f = S.And(
            (
                S.Sing("X"),
                S.Exists1(("x",), S.And((S.In(S.NodeTerm("x"), "X"),
                                          S.Not(S.RootT(S.NodeTerm("x")))))),
            )
        )
        a = compiler.compile(f)
        w = find_witness(a)
        assert w is not None
        from repro.mso.semantics import evaluate

        env = {"X": w.labels["X"]}
        assert evaluate(S.Sing("X"), w.tree, env)
        assert "" not in w.labels["X"]


class TestSplitGuards:
    def test_partition_covers_and_disjoint(self):
        reg = TrackRegistry()
        mgr = reg.manager
        a, b = reg.bit("a"), reg.bit("b")
        parts = split_guards(mgr, [(a, 1), (b, 2), (mgr.apply_and(a, b), 3)])
        # Coverage: OR of all guards is true.
        assert mgr.disj([g for g, _ in parts]) == mgr.true
        # Disjoint: pairwise AND is false.
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert mgr.apply_and(parts[i][0], parts[j][0]) == mgr.false

    def test_destination_sets(self):
        reg = TrackRegistry()
        mgr = reg.manager
        a = reg.bit("a")
        parts = dict()
        for g, s in split_guards(mgr, [(a, 1), (mgr.true, 2)]):
            parts[s] = g
        assert frozenset({1, 2}) in parts and frozenset({2}) in parts


class TestRegistry:
    def test_levels_stable(self):
        reg = TrackRegistry()
        assert reg.level("a") == 0
        assert reg.level("b") == 1
        assert reg.level("a") == 0

    def test_name_of(self):
        reg = TrackRegistry()
        reg.level("t0")
        assert reg.name_of(0) == "t0"
        with pytest.raises(KeyError):
            reg.name_of(99)
