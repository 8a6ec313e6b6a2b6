"""Implicit N-way conjunction products with on-the-fly emptiness.

The seed pipeline materialized conjunction products pairwise: every
``A ∧ B`` built *all* reachable ``(p, q)`` states of the binary product
before the next factor was conjoined, so an intermediate product could
blow the state budget even when the *final* conjunction — pruned by the
cheap constraints conjoined last — was tiny.  MONA's engineering lesson
(and the pipeline discipline of the monadic-datalog literature) is to
never build states the emptiness search does not reach.

:class:`ProductAutomaton` represents the synchronized product of N tree
automata *implicitly*: a product state is a tuple of factor states, a
product transition conjoins the factors' BDD guards.  Nothing is
enumerated at construction time.  :meth:`ProductAutomaton.explore` runs
the bottom-up reachability fixpoint directly on this implicit automaton,
constructing only reachable tuples, conjoining guards
smallest-factor-state-set first so empty intersections prune before the
expensive factors are consulted, and short-circuiting as soon as an
accepting tuple is reached.  The state budget therefore counts *reached*
product states — the quantity emptiness actually needs — not the size of
the materialized product.

The fixpoint is plain bottom-up reachability, as in MONA's emptiness
check: no tuple is dropped or retired once reached, so a saturated run's
reached set is exactly the reachable set, closed under the synchronized
transitions.  An empty verdict rests on that set alone.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..runtime import ResourceExhausted, ResourceGuard, StateBudgetExceeded
from ..runtime import faults as _faults
from .tta import TreeAutomaton

__all__ = ["ProductAutomaton", "Exploration"]


def _pruned_dead(f: TreeAutomaton) -> TreeAutomaton:
    """Memoized :func:`~repro.automata.minimize.prune_dead`.

    Automata are immutable once built and heavily shared across queries
    (compiler shape-keyed memo, conjunction cache), but every query
    used to re-run the useful-state restriction on the same objects —
    for the big case studies that was a dominant, unaccounted cost.  The
    result rides on the instance, and is marked as its own fixpoint so
    chained calls are free.
    """
    from .minimize import prune_dead

    pruned = getattr(f, "_useful", None)
    if pruned is None:
        pruned = prune_dead(f)
        f._useful = pruned
        pruned._useful = pruned
    return pruned


def _merge_small_factors(
    factors, limit: int, guard: Optional[ResourceGuard] = None
):
    """Greedily fold factor pairs whose product stays tiny.

    Dozens of 1–4-state atom automata dominate a query's conjunction;
    exploring them as separate tuple components pays a per-factor cost
    on every expansion.  Pairs are merged smallest-first whenever the
    materialized product, pruned and reduced, stays within ``limit``
    states — a bounded amount of eager work that typically collapses the
    factor list by an order of magnitude.  Factors that cannot merge
    under the cap stay implicit (that is the whole point of the lazy
    engine).

    Two cost guards keep this phase from re-creating the eager engine's
    blow-ups: pairs with disjoint track sets are only tried while the
    *full* product fits the cap (independent automata don't compress —
    their minimal conjunction is the whole product), and each attempt
    materializes at most ``4 * limit`` states before giving up.  Merging
    is best-effort: when the guard's deadline (or any other limit) trips,
    the remaining factors are returned unmerged rather than raising —
    exploration enforces its own limits.

    Merge attempts are cached on the shared :class:`TrackRegistry`,
    keyed by the identity of the (immutable, memo-shared) operand pair:
    queries of one family conjoin mostly the same factors, so after the
    first query the greedy fold is a sequence of dict hits, and the
    merged products themselves are *shared objects*, so merges keyed on
    them hit the cache in later queries too.  Deadline/memory aborts are
    never cached.
    """
    from .minimize import minimize, reduce_nfta

    attempt_cap = max(4 * limit, 64)
    registry = factors[0].registry
    cache = getattr(registry, "_merge_cache", None)
    if cache is None:
        cache = registry._merge_cache = {}
    seen = getattr(registry, "_merge_seen", None)
    if seen is None:
        seen = registry._merge_seen = set()

    def order(p):
        # Stable factors (seen by an earlier merge run on this registry)
        # first, query-fresh ones last, size-sorted within each class:
        # queries in a sweep share most factors (conjunction-cache and
        # compile-memo objects) and differ in one or two, and a fresh
        # factor merged early would poison the whole chain into
        # pair-specific intermediates that no later query can reuse.
        return sorted(p, key=lambda a: (id(a) not in seen, a.n_states))

    pool = order(factors)
    done: List[TreeAutomaton] = []
    # Fold every pair with a cached successful merge first, so the shared
    # subset of the conjunction collapses to the *identical objects* of
    # the previous query and only the varying factors pay a fresh
    # product+minimize below.
    folded = True
    while folded and len(pool) > 1:
        folded = False
        for i in range(len(pool) - 1):
            for j in range(i + 1, len(pool)):
                hit = cache.get((id(pool[i]), id(pool[j]), limit))
                if hit is not None and hit[0] is not None:
                    merged = hit[0]
                    pool.pop(j)
                    pool.pop(i)
                    pool = order(pool + [merged])
                    folded = True
                    break
            if folded:
                break
    while len(pool) > 1:
        if guard is not None and guard.expired():
            return done + pool
        head = pool.pop(0)
        merged = None
        for j, cand in enumerate(pool):
            if head.n_states * cand.n_states > limit * limit:
                continue  # pool is not size-sorted: keep scanning
            if (
                head.n_states * cand.n_states > limit
                and not (head.tracks & cand.tracks)
            ):
                continue
            key = (id(head), id(cand), limit)
            hit = cache.get(key)
            if hit is not None:
                prod = hit[0]
                if prod is None:  # cached failure (budget / over-limit)
                    continue
                merged = prod
                pool.pop(j)
                break
            try:
                prod = head.product(
                    cand,
                    lambda x, y: x and y,
                    max_states=attempt_cap,
                    guard=guard,
                )
                prod = _pruned_dead(prod)
                if prod.deterministic:
                    prod = minimize(prod, guard=guard)
                else:
                    prod = reduce_nfta(prod, guard=guard)
            except StateBudgetExceeded:
                # The entry holds strong refs to the operands so their
                # ids stay valid for the cache's lifetime.
                cache[key] = (None, head, cand)
                continue
            except ResourceExhausted:
                # Deadline/memory: no point trying further pairs.
                return done + [head] + pool
            if prod.n_states <= limit:
                cache[key] = (prod, head, cand)
                merged = prod
                pool.pop(j)
                break
            cache[key] = (None, head, cand)
        if merged is None:
            done.append(head)
        else:
            seen.add(id(merged))
            pool = order(pool + [merged])
    for f in factors:
        seen.add(id(f))
    return done + pool


def _only_empty(factors: List[TreeAutomaton]) -> List[TreeAutomaton]:
    """Just the first empty-language factor if there is one, else all."""
    empty = next((f for f in factors if not f.accepting), None)
    return factors if empty is None else [empty]


# Witness table entry: (cube, left_tuple, right_tuple); leaves have None
# children.  ``cube`` is a {BDD level: bool} partial assignment for the
# node's label bits, as in :mod:`repro.automata.emptiness`.
_Entry = Tuple[Dict[int, bool], Optional[tuple], Optional[tuple]]


@dataclass
class Exploration:
    """Result of one lazy reachability fixpoint run."""

    table: Dict[tuple, _Entry]
    target: Optional[tuple]  # an accepting tuple, or None
    reached: int  # product states constructed
    complete: bool  # False when the search short-circuited on ``target``
    # With ``record=True``: every synchronized transition touched by the
    # fixpoint, for :meth:`ProductAutomaton.materialized_explored`.
    leaf_edges: Optional[List[Tuple[int, tuple]]] = None
    edges: Optional[Dict[Tuple[tuple, tuple], List[Tuple[int, tuple]]]] = None

    @property
    def empty(self) -> bool:
        return self.target is None


class ProductAutomaton:
    """Implicit synchronized product of tree automata (conjunction).

    The language is the intersection of the factor languages; a tuple
    state is accepting iff every component is accepting in its factor.
    Factors must share one :class:`~repro.automata.tta.TrackRegistry`.
    Nested products flatten, so ``ProductAutomaton([P, a])`` where ``P``
    is itself a product behaves like one flat N-way product.
    """

    #: Pre-merge cap: factor pairs whose materialized product minimizes
    #: to at most this many states are combined eagerly.  Small enough
    #: that a merge attempt is always cheap, large enough to fold the
    #: dozens of tiny atom automata a query conjoins into a few factors.
    MERGE_LIMIT = 32

    #: Frontier tuples popped per expansion batch: amortizes heap churn.
    BATCH = 64

    def __init__(
        self,
        factors: Sequence,
        merge_limit: Optional[int] = None,
        guard: Optional[ResourceGuard] = None,
    ) -> None:
        flat: List[TreeAutomaton] = []
        for f in factors:
            if isinstance(f, ProductAutomaton):
                flat.extend(f.factors)  # already pruned
            else:
                # Dead components doom every tuple containing them, so
                # restricting each factor to states that occur in some
                # accepting run shrinks the explorable tuple space by
                # orders of magnitude without changing any language.
                # Memoized per instance — factors recur across queries.
                flat.append(_pruned_dead(f))
        if not flat:
            raise ValueError("ProductAutomaton needs at least one factor")
        registry = flat[0].registry
        for f in flat[1:]:
            assert f.registry is registry, "factors must share a registry"
        # An empty-language factor (no accepting state survives the dead
        # prune, or a merge) dooms the whole conjunction; keep just that
        # factor so neither the merge phase nor exploration pays for the
        # rest.
        flat = _only_empty(flat)
        limit = self.MERGE_LIMIT if merge_limit is None else merge_limit
        if limit and len(flat) > 1:
            flat = _only_empty(_merge_small_factors(flat, limit, guard=guard))
        self.factors: List[TreeAutomaton] = flat
        self.registry = registry
        # Exploration order: smallest factor state sets first, so the
        # cheap, most-constraining factors conjoin (and fail) early.
        self._order = sorted(
            range(len(flat)), key=lambda i: flat[i].n_states
        )
        self._last: Optional[Exploration] = None

    # -- automaton-like surface -------------------------------------------------
    @property
    def manager(self):
        return self.registry.manager

    @property
    def tracks(self) -> frozenset:
        out: frozenset = frozenset()
        for f in self.factors:
            out = out | f.tracks
        return out

    @property
    def n_states(self) -> int:
        """Size of the *full* product (what eager construction would pay)."""
        n = 1
        for f in self.factors:
            n *= f.n_states
        return n

    @property
    def reached_states(self) -> int:
        """Product states constructed by the most recent exploration."""
        return self._last.reached if self._last is not None else 0

    def accepting_tuple(self, t: tuple) -> bool:
        return all(
            t[i] in f.accepting for i, f in enumerate(self.factors)
        )

    def run(self, tree, labels) -> bool:
        """Accept iff every factor accepts (for differential testing)."""
        return all(f.run(tree, labels) for f in self.factors)

    # -- explicit automaton over a recorded run ---------------------------------
    def materialized_explored(self, exp: Exploration) -> TreeAutomaton:
        """Explicit automaton over the *reached* tuples of a recorded run.

        Requires an exploration from ``explore(stop_on_accepting=False,
        record=True)``: complete (so the reached set is the whole
        reachable set) and with the synchronized transitions recorded.
        The result recognizes exactly the product language — pairwise
        materialization would rebuild unreachable states; this builds
        only what the fixpoint touched, which for sparse conjunctions is
        orders of magnitude smaller than the eager product.
        """
        if not exp.complete or exp.edges is None:
            raise ValueError(
                "materialized_explored needs a complete recorded "
                "exploration (stop_on_accepting=False, record=True)"
            )
        mgr = self.manager
        apply_or = mgr.apply_or
        idx = {t: i for i, t in enumerate(exp.table)}

        def fold(entries):
            # OR together parallel edges (same children, same target).
            by_tgt: Dict[int, int] = {}
            for g, t in entries:
                q = idx[t]
                prev = by_tgt.get(q)
                by_tgt[q] = g if prev is None else apply_or(prev, g)
            return list(by_tgt.items())

        leaf = [(g, q) for q, g in fold(exp.leaf_edges or [])]
        delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for (l, r), entries in exp.edges.items():
            delta[(idx[l], idx[r])] = [(g, q) for q, g in fold(entries)]
        accepting = frozenset(
            i for t, i in idx.items() if self.accepting_tuple(t)
        )
        return TreeAutomaton(
            registry=self.registry,
            tracks=self.tracks,
            n_states=len(idx),
            leaf=leaf,
            delta=delta,
            accepting=accepting,
            deterministic=all(f.deterministic for f in self.factors),
        )

    # -- the lazy fixpoint ------------------------------------------------------
    def explore(
        self,
        max_states: Optional[int] = None,
        stop_on_accepting: bool = True,
        guard: Optional[ResourceGuard] = None,
        record: bool = False,
    ) -> Exploration:
        """Bottom-up reachability fixpoint on the implicit product.

        Discovers tuple states from the factors' leaf transitions and
        closes under the synchronized delta, recording one witness cube
        and child pointers per tuple (for witness-tree extraction).
        Raises :class:`~repro.runtime.StateBudgetExceeded` when more than
        ``max_states`` tuples are constructed, and
        :class:`~repro.runtime.DeadlineExceeded` when the guard's deadline
        passes.
        With ``stop_on_accepting`` the search returns as soon as an
        accepting tuple is found (sufficient for emptiness/witness
        queries); the returned exploration is then marked incomplete.
        Without it the reached set is exactly the reachable set, closed
        under the synchronized transitions.  The frontier is drained in
        batches of ``BATCH`` tuples.
        """
        rg = guard  # ``guard`` names BDD guards below
        mgr = self.manager
        factors = self.factors
        order = self._order
        n = len(factors)
        false = mgr.false
        apply_and = mgr.apply_and

        # With ``record``, every synchronized transition is kept as well,
        # for :meth:`materialized_explored`.
        leaf_edges: List[Tuple[int, tuple]] = []
        edges: Dict[Tuple[tuple, tuple], List[Tuple[int, tuple]]] = {}

        table: Dict[tuple, _Entry] = {}
        target: Optional[tuple] = None
        # Frontier as a heap ordered by number of non-accepting
        # components: tuples closer to acceptance expand first, which
        # finds witnesses (and short-circuits) sooner on sat queries.
        frontier: List[Tuple[int, int, tuple]] = []
        counter = 0

        def distance(t: tuple) -> int:
            return sum(
                1 for i in range(n) if t[i] not in factors[i].accepting
            )

        def discover(t: tuple, guard: int, lt, rt) -> bool:
            """Record a newly reached tuple; True when it is accepting."""
            nonlocal counter, target
            if _faults.ARMED:
                t = _faults.fire("product.expand", t)
            if record:
                if lt is None:
                    leaf_edges.append((guard, t))
                else:
                    edges.setdefault((lt, rt), []).append((guard, t))
            if t in table:
                return False
            if max_states is not None and len(table) >= max_states:
                raise StateBudgetExceeded(
                    f"lazy product exceeded {max_states} reached states",
                    phase="product.explore",
                    counters={"reached": len(table)},
                )
            table[t] = (mgr.pick_cube(guard), lt, rt)  # combos: guard != false
            counter += 1
            heapq.heappush(frontier, (distance(t), counter, t))
            if target is None and self.accepting_tuple(t):
                target = t
                return True
            return False

        ticks = [0]

        def tick() -> None:
            ticks[0] += 1
            if ticks[0] % 4096 == 0 and rg is not None:
                rg.check_now("product.explore")

        def combos(entry_lists: List):
            """Yield satisfiable guard-conjunctions across the factors.

            ``entry_lists[k]`` is the transition list of factor
            ``order[k]``; results are (guard, tuple-in-factor-order).
            Guards conjoin in exploration order, so an empty
            intersection aborts before later (larger) factors are
            touched.  A generator, so the budget/deadline checks in the
            consumer interleave with enumeration — a combinatorial cell
            count can only ever burn budget, not hang.
            """
            buf = [0] * n

            def rec(k: int, guard: int):
                if k == n:
                    yield (guard, tuple(buf))
                    return
                tick()
                for g, q in entry_lists[k]:
                    g2 = apply_and(guard, g)
                    if g2 != false:
                        buf[order[k]] = q
                        yield from rec(k + 1, g2)

            yield from rec(0, mgr.true)

        def finish(complete: bool) -> Exploration:
            self._last = Exploration(
                table, target, len(table), complete,
                leaf_edges if record else None, edges if record else None,
            )
            return self._last

        # Seed: synchronized leaf transitions.
        for guard, t in combos([factors[i].leaf for i in order]):
            if discover(t, guard, None, None) and stop_on_accepting:
                return finish(False)

        deltas = [f.delta for f in factors]

        def expand(l: tuple, r: tuple) -> bool:
            """Synchronized expansion of one child pair."""
            entry_lists = []
            for i in order:
                entries = deltas[i].get((l[i], r[i]))
                if not entries:
                    return False
                entry_lists.append(entries)
            for guard, t in combos(entry_lists):
                if discover(t, guard, l, r) and stop_on_accepting:
                    return True
            return False

        # Child-pair index: processed tuples are grouped by their state
        # in the factor whose delta refutes the most child pairs (lowest
        # key density), so each new tuple only pairs with processed
        # tuples that are delta-compatible there — the quadratic
        # all-pairs sweep only materializes where that factor allows a
        # transition at all.  Sparse factors (the big compiled cores)
        # routinely cut candidate pairs by two orders of magnitude.
        jx = min(
            range(n),
            key=lambda i: len(factors[i].delta)
            / max(1, factors[i].n_states ** 2),
        )
        partners_right: Dict[int, List[int]] = {}
        partners_left: Dict[int, List[int]] = {}
        for (a, b) in factors[jx].delta:
            partners_right.setdefault(a, []).append(b)
            partners_left.setdefault(b, []).append(a)
        groups: Dict[int, List[tuple]] = {}

        batch_cap = self.BATCH
        while frontier:
            batch: List[tuple] = []
            while frontier and len(batch) < batch_cap:
                _, _, t = heapq.heappop(frontier)
                if _faults.ARMED:
                    t = _faults.fire("emptiness.fixpoint", t)
                batch.append(t)
            for t in batch:
                tq = t[jx]
                groups.setdefault(tq, []).append(t)
                # t as left child (includes the (t, t) self-pair) …
                for b in partners_right.get(tq, ()):
                    for u in groups.get(b, ()):
                        if expand(t, u):
                            return finish(False)
                # … and as right child of every earlier tuple.
                for a in partners_left.get(tq, ()):
                    for u in groups.get(a, ()):
                        if u is t:
                            continue
                        if expand(u, t):
                            return finish(False)

        return finish(True)
