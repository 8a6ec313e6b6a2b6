"""Emptiness test and witness-tree extraction for tree automata.

Both entry points accept a plain :class:`TreeAutomaton` or an implicit
:class:`~repro.automata.product.ProductAutomaton`; either way the
bottom-up reachability fixpoint runs lazily (a plain automaton is a
1-factor product), constructs only reachable states, short-circuits on
the first accepting state, and can be bounded by a reached-state budget
and a :class:`~repro.runtime.ResourceGuard`.  It is plain reachability,
so "empty" means that no reached state is accepting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Union

from ..runtime import ResourceGuard
from ..trees.heap import Tree, TreeNode, nil, node
from .product import Exploration, ProductAutomaton
from .tta import TreeAutomaton

__all__ = ["Witness", "find_witness", "is_empty"]

Automaton = Union[TreeAutomaton, ProductAutomaton]


@dataclass
class Witness:
    """A labelled tree accepted by the automaton.

    ``labels`` maps each track name to the set of node paths carrying the
    bit.  ``tree`` is the underlying shape (with explicit nil leaves).
    """

    tree: Tree
    labels: Dict[str, FrozenSet[str]]

    def render(self) -> str:
        lines = [self.tree.render()]
        for t in sorted(self.labels):
            if self.labels[t]:
                lines.append(
                    f"  {t}: {sorted(p or 'root' for p in self.labels[t])}"
                )
        return "\n".join(lines)


def _as_product(a: Automaton) -> ProductAutomaton:
    return a if isinstance(a, ProductAutomaton) else ProductAutomaton([a])


def is_empty(
    a: Automaton,
    max_states: Optional[int] = None,
    guard: Optional[ResourceGuard] = None,
) -> bool:
    """True iff the automaton accepts no labelled tree."""
    return _as_product(a).explore(max_states=max_states, guard=guard).empty


def find_witness(
    a: Automaton,
    max_states: Optional[int] = None,
    guard: Optional[ResourceGuard] = None,
) -> Optional[Witness]:
    """A smallest-ish accepted labelled tree, or None when empty."""
    prod = _as_product(a)
    exp = prod.explore(max_states=max_states, guard=guard)
    return witness_from_exploration(prod, exp)


def witness_from_exploration(
    prod: ProductAutomaton, exp: Exploration
) -> Optional[Witness]:
    """Decode the witness tree recorded by a lazy exploration."""
    if exp.target is None:
        return None
    registry = prod.registry
    tracks = prod.tracks
    labels: Dict[str, set] = {t: set() for t in tracks}
    level_to_name = {registry.level(t): t for t in tracks}
    table = exp.table

    def build(q, path: str) -> TreeNode:
        cube, ql, qr = table[q]
        for lvl, val in cube.items():
            if val and lvl in level_to_name:
                labels[level_to_name[lvl]].add(path)
        if ql is None:
            return nil()
        left = build(ql, path + "l")
        right = build(qr, path + "r")
        return node(left, right)

    root = build(exp.target, "")
    return Witness(
        tree=Tree(root),
        labels={t: frozenset(s) for t, s in labels.items()},
    )
