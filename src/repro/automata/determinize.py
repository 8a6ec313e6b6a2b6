"""Symbolic subset construction for bottom-up tree automata."""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..runtime import ResourceGuard

# Re-exported for backward compatibility: the seed pipeline defined
# ``StateBudgetExceeded`` here, and tests/solver code import it from this
# module.  The class now lives in the runtime taxonomy.
from ..runtime import StateBudgetExceeded
from .tta import TreeAutomaton, split_guards

__all__ = ["determinize", "StateBudgetExceeded"]


def determinize(
    a: TreeAutomaton,
    max_states: int = 200_000,
    guard: Optional[ResourceGuard] = None,
) -> TreeAutomaton:
    """Equivalent deterministic, complete automaton (subset construction).

    Guards of a subset state's outgoing transitions partition the label
    space, so the result is complete by construction (the empty subset acts
    as the sink).  ``max_states`` bounds the blow-up; exceeding it raises
    ``StateBudgetExceeded`` so callers can fall back to the bounded engine.
    A :class:`~repro.runtime.ResourceGuard` cancels the construction with
    ``DeadlineExceeded`` on expiry.
    """
    mgr = a.manager
    index: Dict[FrozenSet[int], int] = {}
    order: List[FrozenSet[int]] = []

    def state(s: FrozenSet[int]) -> int:
        if s not in index:
            if len(index) >= max_states:
                raise StateBudgetExceeded(
                    f"determinization exceeded {max_states} states",
                    phase="determinize",
                    counters={"states": len(index)},
                )
            index[s] = len(index)
            order.append(s)
        return index[s]

    leaf = [
        (g, state(s)) for g, s in split_guards(mgr, a.leaf)
    ]
    delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    # split_guards is a function of the concatenated pair list, and equal
    # lists recur across keys: split each distinct list once and share
    # each distinct row.
    splits: Dict[Tuple, List[Tuple[int, FrozenSet[int]]]] = {}
    rows: Dict[Tuple, List[Tuple[int, int]]] = {}
    done = set()
    changed = True
    while changed:
        changed = False
        current = list(order)
        if guard is not None:
            guard.check_now("determinize")
        for sl in current:
            for sr in current:
                key = (index[sl], index[sr])
                if key in done:
                    continue
                done.add(key)
                if guard is not None:
                    guard.tick("determinize")
                pairs = []
                for ql in sl:
                    for qr in sr:
                        pairs.extend(a.delta.get((ql, qr), ()))
                pk = tuple(pairs)
                split = splits.get(pk)
                if split is None:
                    split = splits[pk] = split_guards(mgr, pairs)
                entries = []
                for g, s in split:
                    known = s in index
                    entries.append((g, state(s)))
                    if not known:
                        changed = True
                delta[key] = rows.setdefault(tuple(entries), entries)
        if len(order) > len(current):
            changed = True
    accepting = frozenset(
        idx for s, idx in index.items() if s & a.accepting
    )
    return TreeAutomaton(
        registry=a.registry,
        tracks=a.tracks,
        n_states=len(index),
        leaf=leaf,
        delta=delta,
        accepting=accepting,
        deterministic=True,
        complete=True,
    )
