"""Myhill–Nerode style minimization for deterministic tree automata.

Moore-style partition refinement: start from {accepting, rejecting}, then
split classes whose members behave differently — i.e. two states ``p, q``
stay together only if for every peer state ``r`` and both child positions,
the class-level symbolic transition functions from ``(p, r)``/``(r, p)`` and
``(q, r)``/``(r, q)`` coincide.  BDD guards are hash-consed, so "coincide"
is an exact, canonical comparison of (class → guard) maps.

Delta rows are immutable and shared, so refinement rounds (one loop,
:func:`_refine`, for both ``minimize`` and ``reduce_nfta``), the quotient
and the pruning remaps work once per distinct row, in first-occurrence
order: the skipped BDD operations are exactly the op-cache hits, so the
automata and the BDD node numbering are those of a per-key pass.

Dead states (that cannot reach an accepting run context) are *not* removed
here — completeness is preserved so complements stay cheap; unreachable
states are pruned.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..runtime import ResourceGuard
from .tta import TreeAutomaton, index_rows, row_memo

__all__ = [
    "minimize", "prune_dead", "prune_unreachable", "reachable_states",
    "reduce_nfta", "refine_classes",
]

Trans_t = List[Tuple[int, int]]


def _reachable(a: TreeAutomaton) -> set:
    """States some labelled tree reaches (bottom-up): the kernel's
    ``reachable_states`` when the manager has one, else
    :func:`reachable_states`."""
    loop = getattr(a.manager, "reachable_states", None) or reachable_states
    return loop(a)


def reachable_states(a: TreeAutomaton) -> set:
    """:func:`_reachable` in Python, as a bottom-up worklist.

    One pass over the delta keys: a key whose child is not reached yet
    waits on that child and is retried when the child arrives, so each
    key is looked at most three times.
    """
    delta = a.delta
    reach = set(q for _, q in a.leaf)
    waiting: Dict[int, List[Tuple[int, int]]] = {}
    arrived: List[int] = []
    for first in delta:
        keys: Iterable[Tuple[int, int]] = (first,)
        while True:
            for key in keys:
                ql, qr = key
                if ql not in reach:
                    waiting.setdefault(ql, []).append(key)
                elif qr not in reach:
                    waiting.setdefault(qr, []).append(key)
                else:
                    for _, q in delta[key]:
                        if q not in reach:
                            reach.add(q)
                            arrived.append(q)
            if not arrived:
                break
            keys = waiting.pop(arrived.pop(), ())
    return reach


def prune_unreachable(a: TreeAutomaton) -> TreeAutomaton:
    """Drop states that no labelled tree can reach (bottom-up)."""
    reach = _reachable(a)
    if len(reach) == a.n_states:
        return a
    remap = {q: i for i, q in enumerate(sorted(reach))}
    kept = row_memo(lambda v: [(g, remap[q]) for g, q in v if q in remap])
    return TreeAutomaton(
        registry=a.registry,
        tracks=a.tracks,
        n_states=len(remap),
        leaf=[(g, remap[q]) for g, q in a.leaf if q in remap],
        delta={
            (remap[ql], remap[qr]): kept(entries)
            for (ql, qr), entries in a.delta.items()
            if ql in remap and qr in remap
        },
        accepting=frozenset(remap[q] for q in a.accepting if q in remap),
        deterministic=a.deterministic,
        complete=a.complete,
    )


def prune_dead(a: TreeAutomaton) -> TreeAutomaton:
    """Keep only *useful* states — those occurring in some accepting run.

    A state is useful iff it is bottom-up reachable AND co-reachable: an
    accepting root state, or a child position of a transition whose
    target is useful.  Dropping the rest preserves the language exactly
    (every accepting run consists of useful states only) but loses
    completeness, so this is for emptiness-oriented pipelines — lazy
    product exploration above all, where a dead component dooms every
    product tuple containing it.
    """
    reach = _reachable(a)
    useful = set(q for q in a.accepting if q in reach)
    changed = True
    while changed:
        changed = False
        for (ql, qr), entries in a.delta.items():
            if ql not in reach or qr not in reach:
                continue
            if any(q in useful for _, q in entries):
                if ql not in useful:
                    useful.add(ql)
                    changed = True
                if qr not in useful:
                    useful.add(qr)
                    changed = True
    if len(useful) == a.n_states:
        return a
    remap = {q: i for i, q in enumerate(sorted(useful))}
    kept = row_memo(lambda v: [(g, remap[q]) for g, q in v if q in remap])
    return TreeAutomaton(
        registry=a.registry,
        tracks=a.tracks,
        n_states=len(remap),
        leaf=[(g, remap[q]) for g, q in a.leaf if q in remap],
        delta={
            (remap[ql], remap[qr]): pruned
            for (ql, qr), entries in a.delta.items()
            if ql in remap and qr in remap
            for pruned in [kept(entries)]
            if pruned
        },
        accepting=frozenset(remap[q] for q in a.accepting if q in remap),
        deterministic=a.deterministic,
        complete=False,
    )


def _refine(
    a: TreeAutomaton,
    guard: Optional[ResourceGuard],
    phase: str,
    leaf_guards: Optional[Dict[int, List[int]]] = None,
    max_rounds: Optional[int] = None,
) -> List[int]:
    """Moore-style partition refinement; returns the class of each state.

    The loop is :func:`refine_classes`, run by the kernel when the
    manager has one.
    """
    loop = getattr(a.manager, "refine_classes", None)
    if loop is None:
        return refine_classes(a, leaf_guards, max_rounds, guard, phase)
    return loop(a, leaf_guards, max_rounds, guard, phase)


def refine_classes(
    a: TreeAutomaton,
    leaf_guards: Optional[Dict[int, List[int]]],
    max_rounds: Optional[int],
    guard: Optional[ResourceGuard],
    phase: str,
) -> List[int]:
    """:func:`_refine` in Python.

    Each round maps every distinct row to its class-level map; a state's
    signature holds the maps of its rows (as left and right child, per
    peer class), and, with ``leaf_guards`` (state -> guards), its leaf
    guard.  Classes are numbered by their first state.
    """
    mgr = a.manager
    n = a.n_states
    numbers, rows = index_rows(a.delta)
    adj: List[List[Tuple[int, bool, int]]] = [[] for _ in range(n)]
    for (ql, qr), i in numbers.items():
        adj[ql].append((qr, False, i))
        adj[qr].append((ql, True, i))
    cls = [1 if q in a.accepting else 0 for q in range(n)]
    leaf_sig: List[Optional[int]] = [None] * n
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        rounds += 1
        if guard is not None:
            guard.check_now(phase)
        maps: Dict[Tuple, int] = {}
        canon = []
        for entries in rows:
            merged: Dict[int, int] = {}
            for g, q in entries:
                c = cls[q]
                prev = merged.get(c)
                merged[c] = g if prev is None else mgr.apply_or(prev, g)
            canon.append(maps.setdefault(tuple(sorted(merged.items())), len(maps)))
        # After the first row maps: BDD node numbers follow op order.
        if leaf_guards is not None and rounds == 1:
            leaf_sig = [mgr.disj(leaf_guards.get(p, [])) for p in range(n)]
        table: Dict[Tuple, int] = {}
        new_cls = []
        for p in range(n):
            sig = frozenset((cls[r], right, canon[i]) for r, right, i in adj[p])
            new_cls.append(table.setdefault((cls[p], leaf_sig[p], sig), len(table)))
        if new_cls == cls:
            break
        cls = new_cls
    return cls


def reduce_nfta(
    a: TreeAutomaton,
    max_rounds: int = 50,
    guard: Optional[ResourceGuard] = None,
) -> TreeAutomaton:
    """Bisimulation-based state reduction for nondeterministic automata.

    Merges states with identical acceptance and identical class-level
    transition behaviour (as left and right child).  Sound for NFTAs —
    merged states are forward-bisimilar, so the language is unchanged —
    but not necessarily minimal (NFTA minimization is PSPACE-hard)."""
    a = prune_unreachable(a)
    mgr = a.manager
    n = a.n_states
    if n <= 1:
        return a
    leaf_by_state: Dict[int, List[int]] = {}
    for g, q in a.leaf:
        leaf_by_state.setdefault(q, []).append(g)
    cls = _refine(a, guard, "reduce", leaf_by_state, max_rounds)
    k = max(cls) + 1
    if k == n:
        return a
    leaf_merged: Dict[int, int] = {}
    for g, q in a.leaf:
        c = cls[q]
        leaf_merged[c] = mgr.apply_or(leaf_merged.get(c, mgr.false), g)
    delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    rows: Dict[Tuple, List[Tuple[int, int]]] = {}
    for (ql, qr), entries in a.delta.items():
        key = (cls[ql], cls[qr])
        acc: Dict[int, int] = {}
        for g, q in delta.get(key, ()):
            acc[q] = mgr.apply_or(acc.get(q, mgr.false), g)
        for g, q in entries:
            c = cls[q]
            acc[c] = mgr.apply_or(acc.get(c, mgr.false), g)
        row = [(g, c) for c, g in acc.items() if g != mgr.false]
        delta[key] = rows.setdefault(tuple(row), row)
    return TreeAutomaton(
        registry=a.registry,
        tracks=a.tracks,
        n_states=k,
        leaf=[(g, c) for c, g in leaf_merged.items() if g != mgr.false],
        delta=delta,
        accepting=frozenset(cls[q] for q in a.accepting),
        deterministic=False,
        complete=a.complete,
    )


def minimize(a: TreeAutomaton, guard: Optional[ResourceGuard] = None) -> TreeAutomaton:
    """Minimize a deterministic (preferably complete) tree automaton."""
    if not a.deterministic:
        raise ValueError("minimize requires a deterministic automaton")
    a = prune_unreachable(a)
    mgr = a.manager
    n = a.n_states
    if n <= 1:
        return a
    cls = _refine(a, guard, "minimize")
    k = max(cls) + 1
    if k == n:
        return a
    # Build the quotient: one row per class pair, from its first key.
    leaf_merged: Dict[Tuple[int, int], int] = {}
    for g, q in a.leaf:
        key = (0, cls[q])
        leaf_merged[key] = mgr.apply_or(leaf_merged.get(key, mgr.false), g)

    def merge(entries: Trans_t) -> Trans_t:
        merged: Dict[int, int] = {}
        for g, q in entries:
            c = cls[q]
            merged[c] = mgr.apply_or(merged.get(c, mgr.false), g)
        return [(g, c) for c, g in merged.items() if g != mgr.false]

    quotient = row_memo(merge)
    delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for (ql, qr), entries in a.delta.items():
        key = (cls[ql], cls[qr])
        if key not in delta:
            delta[key] = quotient(entries)
    return TreeAutomaton(
        registry=a.registry,
        tracks=a.tracks,
        n_states=k,
        leaf=[(g, c) for (_, c), g in leaf_merged.items() if g != mgr.false],
        delta=delta,
        accepting=frozenset(cls[q] for q in a.accepting),
        deterministic=True,
        complete=a.complete,
    )
