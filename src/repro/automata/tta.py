"""Bottom-up tree automata over bit-vector-labelled binary trees.

Models are the finite binary trees of :mod:`repro.trees.heap`: internal
nodes have exactly two children, nil nodes are leaves, and *every* node
(including leaves) carries one bit per *track* (an MSO variable).  A
transition guard is a BDD over track levels, so the alphabet 2^k never
materializes — only states do (MONA's architecture).

An automaton is nondeterministic in general; products keep determinism,
projection loses it, and :mod:`repro.automata.determinize` restores it via
symbolic subset construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..bdd.bdd import BDDManager
from ..runtime import ResourceGuard, StateBudgetExceeded
from ..trees.heap import Tree, TreeNode

__all__ = [
    "TreeAutomaton", "TrackRegistry", "index_rows", "product_rows", "row_memo",
    "split_guards", "split_regions",
]

Guard = int  # a BDD node index
Trans = List[Tuple[Guard, int]]


def row_memo(fn: Callable[[Trans], Trans]) -> Callable[[Trans], Trans]:
    """``fn`` over delta rows, computed once per distinct row content.

    Rows are immutable once built, so results are shared: equal results
    come back as one list object.  Rows are looked up by ``id`` first, so
    every row passed in must stay alive while the memo is in use.
    """
    by_id: Dict[int, Trans] = {}
    by_content: Dict[Tuple, Trans] = {}
    results: Dict[Tuple, Trans] = {}

    def get(row: Trans) -> Trans:
        out = by_id.get(id(row))
        if out is None:
            key = tuple(row)
            out = by_content.get(key)
            if out is None:
                out = fn(row)
                out = by_content[key] = results.setdefault(tuple(out), out)
            by_id[id(row)] = out
        return out

    return get


def index_rows(
    delta: Mapping[Tuple[int, int], Trans]
) -> Tuple[Dict[Tuple[int, int], int], List[Trans]]:
    """Number the distinct rows of ``delta`` in first-occurrence order.

    Returns ``key -> row number`` and the rows by number.  Rows equal by
    content get one number, whether or not they are one object.
    """
    by_id: Dict[int, int] = {}
    by_content: Dict[Tuple, int] = {}
    rows: List[Trans] = []
    numbers: Dict[Tuple[int, int], int] = {}
    for key, row in delta.items():
        i = by_id.get(id(row))
        if i is None:
            i = by_id[id(row)] = by_content.setdefault(tuple(row), len(rows))
            if i == len(rows):
                rows.append(row)
        numbers[key] = i
    return numbers, rows


class TrackRegistry:
    """Global track-name -> BDD-level mapping shared by a solver instance."""

    def __init__(self, manager: Optional[BDDManager] = None) -> None:
        self.manager = manager or BDDManager()
        self._levels: Dict[str, int] = {}

    def level(self, name: str) -> int:
        if name not in self._levels:
            self._levels[name] = len(self._levels)
        return self._levels[name]

    def bit(self, name: str, value: bool = True) -> Guard:
        lvl = self.level(name)
        return self.manager.var(lvl) if value else self.manager.nvar(lvl)

    def names(self) -> List[str]:
        return sorted(self._levels, key=self._levels.get)

    def name_of(self, level: int) -> str:
        for n, l in self._levels.items():
            if l == level:
                return n
        raise KeyError(level)


@dataclass
class TreeAutomaton:
    """A (possibly nondeterministic) bottom-up tree automaton.

    ``delta`` maps a child-state pair to its row of ``(guard, target)``
    transitions.  Rows are never mutated once built; constructions share
    one list object among all keys (and automata) with an equal row.
    """

    registry: TrackRegistry
    tracks: FrozenSet[str]
    n_states: int
    leaf: Trans
    delta: Dict[Tuple[int, int], Trans]
    accepting: FrozenSet[int]
    deterministic: bool = False
    # ``complete``: every (state-pair, label) has at least one successor.
    # Products/projections preserve it; ``completed()`` is a no-op on it.
    complete: bool = False

    @property
    def manager(self) -> BDDManager:
        return self.registry.manager

    def describe(self) -> str:
        kind = "DFTA" if self.deterministic else "NFTA"
        edges = sum(len(v) for v in self.delta.values()) + len(self.leaf)
        return (
            f"{kind}({self.n_states} states, {edges} symbolic edges, "
            f"{len(self.accepting)} accepting, tracks={sorted(self.tracks)})"
        )

    # -- running on a concrete labelled tree --------------------------------------
    def run(self, tree: Tree, labels: Mapping[str, FrozenSet[str]]) -> bool:
        """Accept the tree under the labelling ``track name -> set of node
        paths carrying the bit``."""
        mgr = self.manager
        level_sets = {
            self.registry.level(t): labels.get(t, frozenset()) for t in self.tracks
        }

        def bits_at(path: str) -> Callable[[int], bool]:
            def f(level: int) -> bool:
                return path in level_sets.get(level, frozenset())

            return f

        def states(node: TreeNode) -> FrozenSet[int]:
            assign = bits_at(node.path)
            if node.is_nil:
                return frozenset(
                    q for g, q in self.leaf if mgr.evaluate(g, assign)
                )
            ls = states(node.left)  # type: ignore[arg-type]
            rs = states(node.right)  # type: ignore[arg-type]
            out = set()
            for ql in ls:
                for qr in rs:
                    for g, q in self.delta.get((ql, qr), ()):
                        if mgr.evaluate(g, assign):
                            out.add(q)
            return frozenset(out)

        return bool(states(tree.root) & self.accepting)

    # -- constructions ---------------------------------------------------------------
    def product(
        self,
        other: "TreeAutomaton",
        acc: Callable[[bool, bool], bool],
        max_states: Optional[int] = None,
        guard: Optional[ResourceGuard] = None,
    ) -> "TreeAutomaton":
        """Synchronized product with acceptance combiner ``acc``.

        Sound for conjunction on arbitrary automata; for disjunction both
        sides must be complete (use :meth:`completed`).  Only reachable
        product states are built, and each distinct pair of operand rows
        is multiplied once: every key carrying that pair shares the row.
        A guard cancels the construction with ``DeadlineExceeded`` on
        expiry.  The pairing loop is :func:`product_rows`, run by the
        kernel when the manager has one.
        """
        assert self.registry is other.registry
        loop = getattr(self.manager, "product_rows", None) or product_rows
        pairs, leaf, delta = loop(self, other, max_states, guard)
        accepting = frozenset(
            idx
            for idx, (p, q) in enumerate(pairs)
            if acc(p in self.accepting, q in other.accepting)
        )
        return TreeAutomaton(
            registry=self.registry,
            tracks=self.tracks | other.tracks,
            n_states=len(pairs),
            leaf=leaf,
            delta=delta,
            accepting=accepting,
            deterministic=self.deterministic and other.deterministic,
            complete=self.complete and other.complete,
        )

    def union_sum(self, other: "TreeAutomaton") -> "TreeAutomaton":
        """Union by disjoint sum — linear in states, nondeterministic.

        Runs cannot mix components (no cross-component transitions), so the
        language is exactly L(self) ∪ L(other).  The cheap path for
        positive-context disjunctions; the product construction is only
        worthwhile when a small deterministic result is needed (e.g. before
        a complement)."""
        assert self.registry is other.registry
        off = self.n_states
        leaf = list(self.leaf) + [(g, q + off) for g, q in other.leaf]
        delta = dict(self.delta)
        shift = row_memo(lambda v: [(g, q + off) for g, q in v])
        for (ql, qr), entries in other.delta.items():
            delta[(ql + off, qr + off)] = shift(entries)
        return TreeAutomaton(
            registry=self.registry,
            tracks=self.tracks | other.tracks,
            n_states=self.n_states + other.n_states,
            leaf=leaf,
            delta=delta,
            accepting=self.accepting
            | frozenset(q + off for q in other.accepting),
            deterministic=False,
            complete=self.complete or other.complete,
        )

    def completed(self) -> "TreeAutomaton":
        """Add a non-accepting sink so every (state-pair, label) has at
        least one successor."""
        if self.complete:
            return self
        mgr = self.manager
        sink = self.n_states
        leaf = list(self.leaf)
        covered = mgr.disj([g for g, _ in self.leaf])
        rest = mgr.apply_not(covered)
        needs_sink = rest != mgr.false
        if rest != mgr.false:
            leaf.append((rest, sink))

        def fill(entries: Trans) -> Trans:
            rest = mgr.apply_not(mgr.disj([g for g, _ in entries]))
            return entries if rest == mgr.false else entries + [(rest, sink)]

        filled = row_memo(fill)
        delta = dict(self.delta)
        no_row: Trans = []
        states = range(self.n_states + 1)
        for ql in states:
            for qr in states:
                entries = delta.get((ql, qr), no_row)
                delta[(ql, qr)] = full = filled(entries)
                if len(full) > len(entries):
                    needs_sink = True
        n = self.n_states + (1 if needs_sink else 0)
        return TreeAutomaton(
            registry=self.registry,
            tracks=self.tracks,
            n_states=n,
            leaf=leaf,
            delta=delta,
            accepting=self.accepting,
            deterministic=self.deterministic,
            complete=True,
        )

    def complemented(
        self,
        guard: Optional[ResourceGuard] = None,
        max_states: int = 200_000,
    ) -> "TreeAutomaton":
        """Complement; determinizes (within ``max_states``) and completes
        first when needed."""
        from .determinize import determinize

        det = self if self.deterministic else determinize(
            self, max_states=max_states, guard=guard
        )
        det = det.completed()
        return TreeAutomaton(
            registry=det.registry,
            tracks=det.tracks,
            n_states=det.n_states,
            leaf=det.leaf,
            delta=det.delta,
            accepting=frozenset(range(det.n_states)) - det.accepting,
            deterministic=True,
            complete=True,
        )

    def projected(self, tracks: Iterable[str]) -> "TreeAutomaton":
        """Existentially quantify the given tracks out of every guard."""
        levels = frozenset(self.registry.level(t) for t in tracks)
        mgr = self.manager
        quantified = row_memo(lambda v: [(mgr.exists(g, levels), q) for g, q in v])
        return TreeAutomaton(
            registry=self.registry,
            tracks=self.tracks - frozenset(tracks),
            n_states=self.n_states,
            leaf=[(mgr.exists(g, levels), q) for g, q in self.leaf],
            delta={k: quantified(v) for k, v in self.delta.items()},
            accepting=self.accepting,
            deterministic=False,
            complete=self.complete,
        )


def product_rows(
    a: TreeAutomaton,
    b: TreeAutomaton,
    max_states: Optional[int] = None,
    guard: Optional[ResourceGuard] = None,
) -> Tuple[List[Tuple[int, int]], Trans, Dict[Tuple[int, int], Trans]]:
    """The reachable part of ``a × b``: its states as operand-state pairs
    in number order, its leaf transitions and its delta.

    Pairs are discovered from the leaves, then popped LIFO; each popped
    pair expands against every processed pair, itself included, as left
    child and then as right child.  The guard ticks once per popped pair
    for all of its peers.  A kernel-backed manager's ``product_rows``
    runs this loop natively, step for step.
    """
    mgr = a.manager
    index: Dict[Tuple[int, int], int] = {}
    leaf: Trans = []
    delta: Dict[Tuple[int, int], Trans] = {}
    frontier: List[Tuple[int, int]] = []

    def discover(pair: Tuple[int, int]) -> int:
        idx = index.get(pair)
        if idx is None:
            if max_states is not None and len(index) >= max_states:
                raise StateBudgetExceeded(
                    f"product exceeded {max_states} states",
                    phase="automata.product",
                    counters={"states": len(index)},
                )
            idx = index[pair] = len(index)
            frontier.append(pair)
        return idx

    for g1, q1 in a.leaf:
        for g2, q2 in b.leaf:
            g = mgr.apply_and(g1, g2)
            if g != mgr.false:
                leaf.append((g, discover((q1, q2))))

    left_of, left_rows = index_rows(a.delta)
    right_of, right_rows = index_rows(b.delta)
    products: Dict[Tuple[int, int], Trans] = {}
    rows: Dict[Tuple, Trans] = {}

    def expand(pl: Tuple[int, int], pr: Tuple[int, int]) -> None:
        i1 = left_of.get((pl[0], pr[0]))
        i2 = right_of.get((pl[1], pr[1]))
        if i1 is None or i2 is None:
            return
        entries = products.get((i1, i2))
        if entries is None:
            entries = []
            for g1, q1 in left_rows[i1]:
                for g2, q2 in right_rows[i2]:
                    g = mgr.apply_and(g1, g2)
                    if g != mgr.false:
                        entries.append((g, discover((q1, q2))))
            entries = rows.setdefault(tuple(entries), entries)
            products[(i1, i2)] = entries
        if entries:
            delta[(index[pl], index[pr])] = entries

    processed: List[Tuple[int, int]] = []
    while frontier:
        pair = frontier.pop()
        processed.append(pair)
        if guard is not None:
            guard.tick("automata.product", len(processed))
        for peer in processed:
            expand(pair, peer)
            if peer != pair:
                expand(peer, pair)
    return list(index), leaf, delta


def split_guards(
    mgr: BDDManager, pairs: Iterable[Tuple[Guard, int]]
) -> List[Tuple[Guard, FrozenSet[int]]]:
    """Partition the label space by which transitions fire.

    Returns disjoint guards covering the whole space, each mapped to the set
    of destinations enabled there (possibly empty).  The loop is
    :func:`split_regions`, run by the kernel when ``mgr`` has one.
    """
    native = getattr(mgr, "split_regions", None)
    return split_regions(mgr, pairs) if native is None else native(pairs)


def split_regions(
    mgr: BDDManager, pairs: Iterable[Tuple[Guard, int]]
) -> List[Tuple[Guard, FrozenSet[int]]]:
    """:func:`split_guards` in Python: each pair splits every region into
    the part it fires on and the rest, in order; regions with equal
    destination sets are then OR-ed in first-occurrence order."""
    parts: List[Tuple[Guard, FrozenSet[int]]] = [(mgr.true, frozenset())]
    for g, d in pairs:
        nxt: List[Tuple[Guard, FrozenSet[int]]] = []
        for h, s in parts:
            both = mgr.apply_and(h, g)
            if both != mgr.false:
                nxt.append((both, s | {d}))
            rest = mgr.apply_diff(h, g)
            if rest != mgr.false:
                nxt.append((rest, s))
        parts = nxt
    # Merge regions with identical destination sets.
    merged: Dict[FrozenSet[int], Guard] = {}
    for h, s in parts:
        merged[s] = mgr.apply_or(merged.get(s, mgr.false), h)
    return [(g, s) for s, g in merged.items()]
