"""Monadic second-order logic over labelled binary trees (paper §4).

The logic of the paper: a unique ``root``, ``left``/``right`` successors,
``reach`` as their transitive closure, and an ``isNil`` predicate closed
under successors (our models make nil nodes explicit leaves).  First-order
variables range over nodes (including nils), second-order variables over
node sets.

Beyond the textbook atoms we provide *child terms* — ``NodeTerm(x, "lr")``
denotes ``x.l.r`` — with direct atom automata.  The Retreet encoder uses
them to express ``Next``/``PathCond`` without inner quantifiers, which is
the main reason the symbolic pipeline stays tractable (the same rewriting a
MONA user performs by hand).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Sequence, Tuple

__all__ = [
    "NodeTerm",
    "Formula",
    "In", "IsNilT", "RootT", "EqT", "Reach", "Subset", "Sing", "Empty",
    "LeftOf", "RightOf", "TrueF", "FalseF",
    "ChildIs", "ParentRelIn", "ParentRelNil", "AgreeUpTo",
    "Not", "And", "Or", "Implies", "Iff",
    "Exists1", "Forall1", "Exists2", "Forall2",
    "atom_vars", "free_vars", "rename_formula",
]


@dataclass(frozen=True)
class NodeTerm:
    """A first-order node term: variable ``var`` descended through
    ``dirs`` ('' = the variable itself)."""

    var: str
    dirs: str = ""

    def __post_init__(self) -> None:
        if any(d not in "lr" for d in self.dirs):
            raise ValueError(f"bad dirs {self.dirs!r}")

    def __str__(self) -> str:
        return self.var + "".join("." + d for d in self.dirs)


class Formula:
    __slots__ = ()

    # Convenience combinators.
    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)


# -- atoms -------------------------------------------------------------------

@dataclass(frozen=True)
class TrueF(Formula):
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseF(Formula):
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class In(Formula):
    """``term ∈ X``"""

    term: NodeTerm
    setvar: str

    def __str__(self) -> str:
        return f"{self.term} in {self.setvar}"


@dataclass(frozen=True)
class IsNilT(Formula):
    """``isNil(term)`` — term denotes a nil node (children of nil are nil)."""

    term: NodeTerm

    def __str__(self) -> str:
        return f"isNil({self.term})"


@dataclass(frozen=True)
class RootT(Formula):
    """``term == root``"""

    term: NodeTerm

    def __str__(self) -> str:
        return f"root({self.term})"


@dataclass(frozen=True)
class EqT(Formula):
    """``term1 == term2`` (same node)."""

    a: NodeTerm
    b: NodeTerm

    def __str__(self) -> str:
        return f"{self.a} == {self.b}"


@dataclass(frozen=True)
class Reach(Formula):
    """``reach(x, y)``: x is a *proper* ancestor of y."""

    a: str
    b: str

    def __str__(self) -> str:
        return f"reach({self.a}, {self.b})"


@dataclass(frozen=True)
class LeftOf(Formula):
    """``left(x) == y``"""

    parent: str
    child: str

    def __str__(self) -> str:
        return f"left({self.parent}) == {self.child}"


@dataclass(frozen=True)
class RightOf(Formula):
    parent: str
    child: str

    def __str__(self) -> str:
        return f"right({self.parent}) == {self.child}"


@dataclass(frozen=True)
class Subset(Formula):
    a: str
    b: str

    def __str__(self) -> str:
        return f"{self.a} sub {self.b}"


@dataclass(frozen=True)
class Sing(Formula):
    """``X`` is a singleton (used to encode first-order variables)."""

    setvar: str

    def __str__(self) -> str:
        return f"sing({self.setvar})"


@dataclass(frozen=True)
class Empty(Formula):
    setvar: str

    def __str__(self) -> str:
        return f"empty({self.setvar})"


# -- encoder atoms -----------------------------------------------------------------
#
# These quantifier-free atoms exist so the Retreet encoder can express
# ``Next``/``Prev``/``Consistent`` without inner quantifier alternations.
# Each is definable in plain MSO (the test suite checks the equivalences);
# the direct automata keep the pipeline tractable.


@dataclass(frozen=True)
class ChildIs(Formula):
    """``x.dirs == z`` (z first-order)."""

    xvar: str
    dirs: str
    zvar: str

    def __str__(self) -> str:
        return f"{self.xvar}.{self.dirs} == {self.zvar}"


@dataclass(frozen=True)
class ParentRelIn(Formula):
    """``u`` is the ``d``-child of its parent ``p`` and ``p.dirs ∈ X`` —
    the quantifier-free shape of the paper's ``Prev``."""

    uvar: str
    d: str
    dirs: str
    setvar: str

    def __str__(self) -> str:
        return f"parent[{self.d}]({self.uvar}).{self.dirs} in {self.setvar}"


@dataclass(frozen=True)
class ParentRelNil(Formula):
    """``u`` is the ``d``-child of its parent ``p`` and ``p.dirs`` is nil."""

    uvar: str
    d: str
    dirs: str

    def __str__(self) -> str:
        return f"isNil(parent[{self.d}]({self.uvar}).{self.dirs})"


@dataclass(frozen=True)
class AgreeUpTo(Formula):
    """Prefix agreement — the core of the paper's ``Consistent`` predicate.

    Track pairs in ``pairs`` must agree on every ancestor of ``z``
    *including* ``z`` itself (condition labels: the diverging steps fire
    under the same conditions); pairs in ``strict_pairs`` must agree only
    on ancestors *strictly above* ``z`` (record labels: the configurations
    legitimately diverge at ``z``)."""

    zvar: str
    pairs: Tuple[Tuple[str, str], ...]
    strict_pairs: Tuple[Tuple[str, str], ...] = ()

    def __str__(self) -> str:
        ps = ",".join(f"{a}~{b}" for a, b in self.pairs)
        sp = ",".join(f"{a}~{b}" for a, b in self.strict_pairs)
        return f"agree_upto({self.zvar}; incl[{ps}]; strict[{sp}])"


# -- connectives ------------------------------------------------------------------

@dataclass(frozen=True)
class Not(Formula):
    body: Formula

    def __str__(self) -> str:
        return f"~({self.body})"


@dataclass(frozen=True)
class And(Formula):
    parts: Tuple[Formula, ...]

    def __str__(self) -> str:
        return "(" + " & ".join(map(str, self.parts)) + ")"


@dataclass(frozen=True)
class Or(Formula):
    parts: Tuple[Formula, ...]

    def __str__(self) -> str:
        return "(" + " | ".join(map(str, self.parts)) + ")"


def Implies(a: Formula, b: Formula) -> Formula:
    return Or((Not(a), b))


def Iff(a: Formula, b: Formula) -> Formula:
    return And((Implies(a, b), Implies(b, a)))


# -- quantifiers -----------------------------------------------------------------

@dataclass(frozen=True)
class Exists1(Formula):
    names: Tuple[str, ...]
    body: Formula

    def __str__(self) -> str:
        return f"ex1 {', '.join(self.names)}. ({self.body})"


@dataclass(frozen=True)
class Forall1(Formula):
    names: Tuple[str, ...]
    body: Formula

    def __str__(self) -> str:
        return f"all1 {', '.join(self.names)}. ({self.body})"


@dataclass(frozen=True)
class Exists2(Formula):
    names: Tuple[str, ...]
    body: Formula

    def __str__(self) -> str:
        return f"ex2 {', '.join(self.names)}. ({self.body})"


@dataclass(frozen=True)
class Forall2(Formula):
    names: Tuple[str, ...]
    body: Formula

    def __str__(self) -> str:
        return f"all2 {', '.join(self.names)}. ({self.body})"


# -- variable bookkeeping ------------------------------------------------------------

def atom_vars(f: Formula) -> Tuple[str, ...]:
    """The variable names of an atom, in field order (repeats kept)."""
    if isinstance(f, (TrueF, FalseF)):
        return ()
    if isinstance(f, In):
        return (f.term.var, f.setvar)
    if isinstance(f, (IsNilT, RootT)):
        return (f.term.var,)
    if isinstance(f, EqT):
        return (f.a.var, f.b.var)
    if isinstance(f, (Reach, Subset)):
        return (f.a, f.b)
    if isinstance(f, (LeftOf, RightOf)):
        return (f.parent, f.child)
    if isinstance(f, (Sing, Empty)):
        return (f.setvar,)
    if isinstance(f, ChildIs):
        return (f.xvar, f.zvar)
    if isinstance(f, ParentRelIn):
        return (f.uvar, f.setvar)
    if isinstance(f, ParentRelNil):
        return (f.uvar,)
    if isinstance(f, AgreeUpTo):
        return (f.zvar,) + tuple(
            t for p in f.pairs + f.strict_pairs for t in p
        )
    raise TypeError(f"unknown atom formula {f!r}")


def free_vars(f: Formula) -> FrozenSet[str]:
    """Free variable names (first- and second-order share a namespace)."""
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or)):
        out: FrozenSet[str] = frozenset()
        for p in f.parts:
            out |= free_vars(p)
        return out
    if isinstance(f, (Exists1, Forall1, Exists2, Forall2)):
        return free_vars(f.body) - frozenset(f.names)
    return frozenset(atom_vars(f))


def rename_formula(f: Formula, sub: dict) -> Formula:
    """Capture-avoiding-enough rename: substitute *free* variable names.

    Callers must ensure substituted names do not collide with bound names
    (the compiler freshens bound variables first)."""

    def r(name: str) -> str:
        return sub.get(name, name)

    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, In):
        return In(NodeTerm(r(f.term.var), f.term.dirs), r(f.setvar))
    if isinstance(f, IsNilT):
        return IsNilT(NodeTerm(r(f.term.var), f.term.dirs))
    if isinstance(f, RootT):
        return RootT(NodeTerm(r(f.term.var), f.term.dirs))
    if isinstance(f, EqT):
        return EqT(
            NodeTerm(r(f.a.var), f.a.dirs), NodeTerm(r(f.b.var), f.b.dirs)
        )
    if isinstance(f, Reach):
        return Reach(r(f.a), r(f.b))
    if isinstance(f, LeftOf):
        return LeftOf(r(f.parent), r(f.child))
    if isinstance(f, RightOf):
        return RightOf(r(f.parent), r(f.child))
    if isinstance(f, Subset):
        return Subset(r(f.a), r(f.b))
    if isinstance(f, Sing):
        return Sing(r(f.setvar))
    if isinstance(f, Empty):
        return Empty(r(f.setvar))
    if isinstance(f, ChildIs):
        return ChildIs(r(f.xvar), f.dirs, r(f.zvar))
    if isinstance(f, ParentRelIn):
        return ParentRelIn(r(f.uvar), f.d, f.dirs, r(f.setvar))
    if isinstance(f, ParentRelNil):
        return ParentRelNil(r(f.uvar), f.d, f.dirs)
    if isinstance(f, AgreeUpTo):
        return AgreeUpTo(
            r(f.zvar),
            tuple((r(a), r(b)) for a, b in f.pairs),
            tuple((r(a), r(b)) for a, b in f.strict_pairs),
        )
    if isinstance(f, Not):
        return Not(rename_formula(f.body, sub))
    if isinstance(f, And):
        return And(tuple(rename_formula(p, sub) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(rename_formula(p, sub) for p in f.parts))
    if isinstance(f, (Exists1, Forall1, Exists2, Forall2)):
        inner = {k: v for k, v in sub.items() if k not in f.names}
        return type(f)(f.names, rename_formula(f.body, inner))
    raise TypeError(f"unknown formula {f!r}")
