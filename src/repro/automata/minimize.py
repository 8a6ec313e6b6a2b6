"""Myhill–Nerode style minimization for deterministic tree automata.

Moore-style partition refinement: start from {accepting, rejecting}, then
split classes whose members behave differently — i.e. two states ``p, q``
stay together only if for every peer state ``r`` and both child positions,
the class-level symbolic transition functions from ``(p, r)``/``(r, p)`` and
``(q, r)``/``(r, q)`` coincide.  BDD guards are hash-consed, so "coincide"
is an exact, canonical comparison of (class → guard) maps.

Dead states (that cannot reach an accepting run context) are *not* removed
here — completeness is preserved so complements stay cheap; unreachable
states are pruned.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..runtime import ResourceGuard
from .tta import TreeAutomaton

__all__ = ["minimize", "prune_dead", "prune_unreachable", "reduce_nfta"]

Trans_t = List[Tuple[int, int]]


def _reachable(a: TreeAutomaton) -> set:
    """States some labelled tree reaches (bottom-up fixpoint)."""
    reach = set(q for _, q in a.leaf)
    changed = True
    while changed:
        changed = False
        for (ql, qr), entries in a.delta.items():
            if ql in reach and qr in reach:
                for _, q in entries:
                    if q not in reach:
                        reach.add(q)
                        changed = True
    return reach


def prune_unreachable(a: TreeAutomaton) -> TreeAutomaton:
    """Drop states that no labelled tree can reach (bottom-up)."""
    reach = _reachable(a)
    if len(reach) == a.n_states:
        return a
    remap = {q: i for i, q in enumerate(sorted(reach))}
    return TreeAutomaton(
        registry=a.registry,
        tracks=a.tracks,
        n_states=len(remap),
        leaf=[(g, remap[q]) for g, q in a.leaf if q in remap],
        delta={
            (remap[ql], remap[qr]): [
                (g, remap[q]) for g, q in entries if q in remap
            ]
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
    return TreeAutomaton(
        registry=a.registry,
        tracks=a.tracks,
        n_states=len(remap),
        leaf=[(g, remap[q]) for g, q in a.leaf if q in remap],
        delta={
            (remap[ql], remap[qr]): pruned
            for (ql, qr), entries in a.delta.items()
            if ql in remap and qr in remap
            for pruned in [
                [(g, remap[q]) for g, q in entries if q in remap]
            ]
            if pruned
        },
        accepting=frozenset(remap[q] for q in a.accepting if q in remap),
        deterministic=a.deterministic,
        complete=False,
    )


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
    cls = [1 if q in a.accepting else 0 for q in range(n)]
    by_left: Dict[int, List[int]] = {p: [] for p in range(n)}
    by_right: Dict[int, List[int]] = {p: [] for p in range(n)}
    for (ql, qr) in a.delta:
        by_left[ql].append(qr)
        by_right[qr].append(ql)
    leaf_by_state: Dict[int, List[int]] = {}
    for g, q in a.leaf:
        leaf_by_state.setdefault(q, []).append(g)

    for _ in range(max_rounds):
        if guard is not None:
            guard.check_now("reduce")
        canon: Dict[Tuple[int, int], Tuple] = {}
        for key, entries in a.delta.items():
            merged: Dict[int, int] = {}
            for g, q in entries:
                c = cls[q]
                prev = merged.get(c)
                merged[c] = g if prev is None else mgr.apply_or(prev, g)
            canon[key] = tuple(sorted(merged.items()))
        sigs: Dict[int, Tuple] = {}
        for p in range(n):
            sig = set()
            for r in by_left[p]:
                sig.add((cls[r], "L", canon[(p, r)]))
            for r in by_right[p]:
                sig.add((cls[r], "R", canon[(r, p)]))
            leaf_guard = mgr.disj(leaf_by_state.get(p, []))
            sigs[p] = (cls[p], leaf_guard, tuple(sorted(sig)))
        table: Dict[Tuple, int] = {}
        new_cls = []
        for p in range(n):
            sp = sigs[p]
            if sp not in table:
                table[sp] = len(table)
            new_cls.append(table[sp])
        if new_cls == cls:
            break
        cls = new_cls
    k = max(cls) + 1
    if k == n:
        return a
    leaf_merged: Dict[int, int] = {}
    for g, q in a.leaf:
        c = cls[q]
        leaf_merged[c] = mgr.apply_or(leaf_merged.get(c, mgr.false), g)
    delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for (ql, qr), entries in a.delta.items():
        key = (cls[ql], cls[qr])
        acc: Dict[int, int] = {}
        for g, q in delta.get(key, ()):
            acc[q] = mgr.apply_or(acc.get(q, mgr.false), g)
        for g, q in entries:
            c = cls[q]
            acc[c] = mgr.apply_or(acc.get(c, mgr.false), g)
        delta[key] = [(g, c) for c, g in acc.items() if g != mgr.false]
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
    # class id per state.
    cls = [1 if q in a.accepting else 0 for q in range(n)]

    # Adjacency index: for each state p, its delta entries by peer.
    by_left: Dict[int, List[Tuple[int, Trans_t]]] = {p: [] for p in range(n)}
    by_right: Dict[int, List[Tuple[int, Trans_t]]] = {p: [] for p in range(n)}
    for (ql, qr), entries in a.delta.items():
        by_left[ql].append((qr, entries))
        by_right[qr].append((ql, entries))

    while True:
        if guard is not None:
            guard.check_now("minimize")
        # Canonical class-level transition map per delta entry, computed
        # once per refinement round.
        canon: Dict[Tuple[int, int], Tuple] = {}
        for key, entries in a.delta.items():
            merged: Dict[int, int] = {}
            for g, q in entries:
                c = cls[q]
                prev = merged.get(c)
                merged[c] = g if prev is None else mgr.apply_or(prev, g)
            canon[key] = tuple(sorted(merged.items()))

        signatures: Dict[int, Tuple] = {}
        for p in range(n):
            sig = set()
            for r, _e in by_left[p]:
                sig.add((cls[r], "L", canon[(p, r)]))
            for r, _e in by_right[p]:
                sig.add((cls[r], "R", canon[(r, p)]))
            signatures[p] = (cls[p], tuple(sorted(sig)))
        # Re-class by signature.
        table: Dict[Tuple, int] = {}
        new_cls = []
        for p in range(n):
            s = signatures[p]
            if s not in table:
                table[s] = len(table)
            new_cls.append(table[s])
        if new_cls == cls:
            break
        cls = new_cls
    k = max(cls) + 1
    if k == n:
        return a
    # Build the quotient.
    leaf_merged: Dict[Tuple[int, int], int] = {}
    for g, q in a.leaf:
        key = (0, cls[q])
        leaf_merged[key] = mgr.apply_or(leaf_merged.get(key, mgr.false), g)
    delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    seen_pairs = set()
    for (ql, qr), entries in a.delta.items():
        key = (cls[ql], cls[qr])
        if key in seen_pairs:
            continue
        seen_pairs.add(key)
        merged: Dict[int, int] = {}
        for g, q in entries:
            c = cls[q]
            merged[c] = mgr.apply_or(merged.get(c, mgr.false), g)
        delta[key] = [(g, c) for c, g in merged.items() if g != mgr.false]
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
