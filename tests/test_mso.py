"""Differential tests: MSO compiler vs the reference semantics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mso import syntax as S
from repro.mso.compile import Compiler, freshen
from repro.mso.semantics import evaluate
from repro.trees.generators import all_shapes

x, y, z = "x", "y", "z"
X, Y = "X", "Y"

CLOSED_FORMULAS = [
    # (formula, description)
    (S.Exists1((x,), S.RootT(S.NodeTerm(x))), "a root exists"),
    (S.Forall1((x,), S.Exists2((X,), S.In(S.NodeTerm(x), X))), "every node in some set"),
    (S.Exists1((x,), S.And((S.RootT(S.NodeTerm(x)), S.IsNilT(S.NodeTerm(x))))), "tree empty"),
    (S.Exists1((x, y), S.LeftOf(x, y)), "some left edge"),
    (S.Exists1((x, y), S.Reach(x, y)), "some proper ancestry"),
    (S.Forall1((x, y), S.Implies(S.LeftOf(x, y), S.Reach(x, y))), "left implies reach"),
    (S.Forall1((x, y), S.Implies(S.RightOf(x, y), S.Reach(x, y))), "right implies reach"),
    (S.Exists1((x, y), S.And((S.Reach(x, y), S.Reach(y, x)))), "cyclic reach (false)"),
    (
        S.Exists1((x,), S.And((S.RootT(S.NodeTerm(x)), S.IsNilT(S.NodeTerm(x, "l"))))),
        "root's left child nil",
    ),
    (
        S.Exists1((x,), S.Not(S.IsNilT(S.NodeTerm(x, "lr")))),
        "some x with x.l.r internal",
    ),
    (
        S.Exists1((x, y), S.EqT(S.NodeTerm(x, "l"), S.NodeTerm(y, "r"))),
        "x.l == y.r",
    ),
    (
        S.Forall1((x,), S.Or((S.IsNilT(S.NodeTerm(x)), S.Exists1((y,), S.LeftOf(x, y))))),
        "internal nodes have left children",
    ),
    (
        S.Exists2((X,), S.And((S.Sing(X), S.Forall1((x,), S.Implies(
            S.In(S.NodeTerm(x), X), S.RootT(S.NodeTerm(x))))))),
        "a singleton containing only the root",
    ),
    (
        S.Forall2((X,), S.Exists2((Y,), S.Subset(X, Y))),
        "every set has a superset",
    ),
    (
        S.Forall1((x, y, z), S.Implies(S.And((S.Reach(x, y), S.Reach(y, z))),
                                        S.Reach(x, z))),
        "reach transitive",
    ),
]


@pytest.fixture(scope="module")
def trees():
    return [t for n in range(4) for t in all_shapes(n)]


@pytest.fixture(scope="module")
def compiler():
    return Compiler()


class TestClosedFormulas:
    @pytest.mark.parametrize(
        "formula,desc", CLOSED_FORMULAS, ids=[d for _, d in CLOSED_FORMULAS]
    )
    def test_compiler_matches_semantics(self, compiler, trees, formula, desc):
        a = compiler.compile(formula)
        for t in trees:
            assert a.run(t, {}) == evaluate(formula, t), (
                f"{desc} on tree {t.paths(True)}"
            )


OPEN_ATOMS = [
    (S.ParentRelIn("u", "l", "", "X"), ("u",), ("X",)),
    (S.ParentRelIn("u", "r", "l", "X"), ("u",), ("X",)),
    (S.ParentRelNil("u", "l", "r"), ("u",), ()),
    (S.ParentRelNil("u", "r", ""), ("u",), ()),
    (S.AgreeUpTo("z", (("A", "B"),)), ("z",), ("A", "B")),
    (S.AgreeUpTo("z", (("A", "B"), ("C", "D"))), ("z",), ("A", "B", "C", "D")),
    (S.In(S.NodeTerm("x", "l"), "X"), ("x",), ("X",)),
    (S.In(S.NodeTerm("x", "rl"), "X"), ("x",), ("X",)),
    (S.IsNilT(S.NodeTerm("x", "r")), ("x",), ()),
    (S.ChildIs("x", "l", "z"), ("x", "z"), ()),
    (S.ChildIs("x", "lr", "z"), ("x", "z"), ()),
    (S.ParentRelNil("u", "l", "lr"), ("u",), ()),
    (S.ParentRelNil("u", "r", "rl"), ("u",), ()),
    (S.ParentRelIn("u", "l", "rl", "X"), ("u",), ("X",)),
    (S.IsNilT(S.NodeTerm("x")), ("x",), ()),
    (S.IsNilT(S.NodeTerm("x", "lr")), ("x",), ()),
    (S.In(S.NodeTerm("x"), "X"), ("x",), ("X",)),
    (S.ChildIs("x", "r", "z"), ("x", "z"), ()),
]


class TestOpenAtoms:
    @pytest.mark.parametrize("formula,fo,so", OPEN_ATOMS, ids=[str(f) for f, _, _ in OPEN_ATOMS])
    def test_atom_matches_semantics(self, compiler, trees, formula, fo, so):
        rng = random.Random(0)
        a = compiler.compile(formula, already_fresh=True)
        for t in trees:
            paths = t.paths(include_nil=True)
            for _ in range(25):
                env = {}
                labels = {}
                for v in fo:
                    env[v] = rng.choice(paths)
                    labels[v] = frozenset({env[v]})
                for v in so:
                    s = frozenset(p for p in paths if rng.random() < 0.4)
                    env[v] = s
                    labels[v] = s
                assert a.run(t, labels) == evaluate(formula, t, env), (
                    str(formula), t.paths(True), env,
                )


class TestFreshen:
    def test_bound_names_unique(self):
        f = S.And(
            (
                S.Exists1((x,), S.RootT(S.NodeTerm(x))),
                S.Exists1((x,), S.IsNilT(S.NodeTerm(x))),
            )
        )
        g = freshen(f)
        names = []

        def collect(h):
            if isinstance(h, S.Exists1):
                names.extend(h.names)
                collect(h.body)
            elif isinstance(h, S.And):
                for p in h.parts:
                    collect(p)

        collect(g)
        assert len(names) == len(set(names)) == 2

    def test_free_vars_preserved(self):
        f = S.Exists1((x,), S.In(S.NodeTerm(x), X))
        assert S.free_vars(freshen(f)) == {X}

    def test_deterministic(self):
        f = S.Exists1((x,), S.RootT(S.NodeTerm(x)))
        assert str(freshen(f)) == str(freshen(f))


class TestRenameFormula:
    def test_rename_free(self):
        f = S.In(S.NodeTerm(x), X)
        g = S.rename_formula(f, {x: "w", X: "W"})
        assert S.free_vars(g) == {"w", "W"}

    def test_rename_skips_bound(self):
        f = S.Exists1((x,), S.In(S.NodeTerm(x), X))
        g = S.rename_formula(f, {x: "w"})
        assert S.free_vars(g) == {X}


class TestCompilerInternals:
    def test_memoization(self):
        c = Compiler()
        f = S.Sing(X)
        a1 = c.compile(f)
        a2 = c.compile(f)
        assert a1 is a2

    def test_stats_accumulate(self):
        c = Compiler()
        c.compile(S.Not(S.Sing(X)))
        assert c.stats.complements >= 1

    def test_iff_and_implies_sugar(self, trees):
        c = Compiler()
        f = S.Forall1((x,), S.Iff(S.IsNilT(S.NodeTerm(x)), S.IsNilT(S.NodeTerm(x))))
        a = c.compile(f)
        for t in trees[:4]:
            assert a.run(t, {})
