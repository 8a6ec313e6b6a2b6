"""The compiler's memo against a rebuild of every formula it serves.

``Compiler._compile`` returns one automaton per subformula *shape*: an
exact hit when the free variables sit on the same BDD levels, and a
renamed copy when they sit on other levels in the same relative order
(DESIGN.md §12.6).  ``CheckedCompiler`` below also runs ``_build`` on
every formula it is asked for and requires the memo's answer to equal
that fresh build field by field, guard handle for guard handle.  The
check's own nested lookups are not checked again, so each lookup costs
one extra build of its top node.
"""

import pytest

from repro.automata.tta import TreeAutomaton
from repro.casestudies import sizecount
from repro.core.symbolic import check_data_race_mso
from repro.mso import syntax as S
from repro.mso.compile import Compiler
from repro.solver import solver as solver_mod
from repro.trees.heap import Tree, node
from tests.test_row_sharing import QUERIES  # T1.1, T1.3, T1.7, 20 gen races

FIELDS = (
    "n_states", "leaf", "delta", "accepting", "tracks", "deterministic",
    "complete",
)


class CheckedCompiler(Compiler):
    """A compiler that rebuilds every formula it looks up."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.checking = False
        self.lookups = 0
        self.mismatches = []

    def _compile(self, f: S.Formula) -> TreeAutomaton:
        a = super()._compile(f)
        if self.checking:
            return a
        self.checking = True
        try:
            fresh = self._build(f)
        finally:
            self.checking = False
        self.lookups += 1
        bad = [n for n in FIELDS if getattr(a, n) != getattr(fresh, n)]
        if bad:
            self.mismatches.append((str(f)[:120], bad))
        return a


@pytest.mark.slow
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_memo_matches_a_fresh_build(query, monkeypatch):
    compilers = []

    def make(*args, **kwargs):
        c = CheckedCompiler(*args, **kwargs)
        compilers.append(c)
        return c

    monkeypatch.setattr(solver_mod, "Compiler", make)
    QUERIES[query]()
    assert compilers and all(c.lookups for c in compilers)
    assert [m for c in compilers for m in c.mismatches] == []
    assert sum(c.stats.renames for c in compilers) >= 1


def test_repeated_compile_returns_the_same_object():
    c = Compiler()
    f = S.Forall1(("y",), S.Or((S.Not(S.In(S.NodeTerm("y"), "X")),
                                 S.Reach("y", "z"))))
    a = c.compile(f)
    builds = c.stats.builds
    assert c.compile(f) is a  # freshened anew, same shape and levels
    assert c.stats.builds == builds


def test_renamed_result_is_kept_by_identity():
    c = Compiler()
    for name in ("X", "Y", "U", "V"):
        c.registry.level(name)
    first = c.compile(S.Subset("X", "Y"))
    assert (c.stats.builds, c.stats.renames) == (1, 0)
    renamed = c.compile(S.Subset("U", "V"))
    assert (c.stats.builds, c.stats.renames) == (1, 1)
    assert renamed is not first and renamed.tracks == {"U", "V"}
    assert c.compile(S.Subset("U", "V")) is renamed
    assert c.stats.renames == 1
    # Levels in the other order are not an order-preserving renaming.
    c.compile(S.Subset("V", "U"))
    assert (c.stats.builds, c.stats.renames) == (2, 1)


def test_eq_term_is_not_served_child_is():
    """``EqT(x.l, z)`` and ``ChildIs(x, "l", z)`` both print as ``x.l == z``
    but agree only for a singleton ``z``: with ``x`` the root and ``z``
    both of its (nil) children, only ChildIs holds."""
    eq = S.EqT(S.NodeTerm("x", "l"), S.NodeTerm("z"))
    c = Compiler()
    child_is = c.compile(S.ChildIs("x", "l", "z"))
    shared = c.compile(eq)
    assert shared is not child_is
    tree = Tree(node())
    labels = {"x": frozenset({""}), "z": frozenset({"l", "r"})}
    assert child_is.run(tree, labels)
    assert not shared.run(tree, labels)
    assert not Compiler().compile(eq).run(tree, labels)


def test_solver_stats_report_builds_and_renames():
    stats = check_data_race_mso(sizecount.parallel_program()).stats
    assert stats["compile_builds"] > 0 and stats["compile_renames"] > 0
