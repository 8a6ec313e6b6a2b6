"""Shared delta rows: differential test against the pre-sharing constructions.

The automata constructions build each distinct transition row once and
store the same list object under every key that has it (see DESIGN.md,
automata section).  That is a pure speedup: every BDD call it skips
would have hit the operation cache, so the automata, their guard handles
and the BDD node table must all stay exactly as before.

The reference below is the row-per-key code the constructions replaced,
kept verbatim as an oracle.  Each query is compiled twice, once with the
reference constructions and once with the shipped ones, each on a fresh
solver; every outermost construction call is recorded with a digest of
its output, the manager's ``size()`` and its operation-cache entry count
right after it.  The two traces must be equal: equal cache entries mean
equal cache misses, so the ``bdd.apply`` fault probe fires on the same
hits.  The shipped run also pins the sharing itself: rows equal
by content are one object in every automaton a construction builds.
"""

import hashlib
import importlib
import sys
from typing import Dict, FrozenSet, List, Tuple

import pytest

from repro.automata.tta import TreeAutomaton, split_guards
from repro.casestudies import cycletree, sizecount
from repro.core.symbolic import check_conflict_mso, check_data_race_mso
from repro.gen import gen_race_query
from repro.mso import syntax as S
from repro.mso.compile import Compiler
from repro.runtime import DeadlineExceeded, ResourceGuard, StateBudgetExceeded

# ``repro.automata`` re-exports the functions under the module names.
minimize_mod = importlib.import_module("repro.automata.minimize")
determinize_mod = importlib.import_module("repro.automata.determinize")

# ---------------------------------------------------------------------------
# Reference: the constructions as they were before rows were shared.
# ---------------------------------------------------------------------------


def ref_product(self, other, acc, max_states=None, guard=None):
    mgr = self.manager
    index: Dict[Tuple[int, int], int] = {}
    leaf = []
    delta = {}

    def state(pair):
        if pair not in index:
            if max_states is not None and len(index) >= max_states:
                raise StateBudgetExceeded(
                    f"product exceeded {max_states} states",
                    phase="automata.product",
                    counters={"states": len(index)},
                )
            index[pair] = len(index)
        return index[pair]

    frontier = []

    def discover(pair):
        known = pair in index
        idx = state(pair)
        if not known:
            frontier.append(pair)
        return idx

    for g1, q1 in self.leaf:
        for g2, q2 in other.leaf:
            g = mgr.apply_and(g1, g2)
            if g != mgr.false:
                leaf.append((g, discover((q1, q2))))

    def expand(pl, pr):
        key = (index[pl], index[pr])
        entries = []
        for g1, q1 in self.delta.get((pl[0], pr[0]), ()):
            for g2, q2 in other.delta.get((pl[1], pr[1]), ()):
                g = mgr.apply_and(g1, g2)
                if g != mgr.false:
                    entries.append((g, discover((q1, q2))))
        if entries:
            delta[key] = entries

    processed = []
    while frontier:
        pair = frontier.pop()
        processed.append(pair)
        for peer in processed:
            if guard is not None:
                guard.tick("automata.product")
            expand(pair, peer)
            if peer != pair:
                expand(peer, pair)
    accepting = frozenset(
        idx
        for pair, idx in index.items()
        if acc(pair[0] in self.accepting, pair[1] in other.accepting)
    )
    return TreeAutomaton(
        registry=self.registry,
        tracks=self.tracks | other.tracks,
        n_states=len(index),
        leaf=leaf,
        delta=delta,
        accepting=accepting,
        deterministic=self.deterministic and other.deterministic,
        complete=self.complete and other.complete,
    )


def ref_completed(self):
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
    delta = {k: list(v) for k, v in self.delta.items()}
    states = range(self.n_states + 1)
    for ql in states:
        for qr in states:
            entries = delta.get((ql, qr), [])
            covered = mgr.disj([g for g, _ in entries])
            rest = mgr.apply_not(covered)
            if rest != mgr.false:
                entries = entries + [(rest, sink)]
                delta[(ql, qr)] = entries
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


def ref_reachable(a):
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


def ref_prune_unreachable(a):
    reach = ref_reachable(a)
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


def ref_reduce_nfta(a, max_rounds=50, guard=None):
    a = ref_prune_unreachable(a)
    mgr = a.manager
    n = a.n_states
    if n <= 1:
        return a
    cls = [1 if q in a.accepting else 0 for q in range(n)]
    by_left = {p: [] for p in range(n)}
    by_right = {p: [] for p in range(n)}
    for (ql, qr) in a.delta:
        by_left[ql].append(qr)
        by_right[qr].append(ql)
    leaf_by_state = {}
    for g, q in a.leaf:
        leaf_by_state.setdefault(q, []).append(g)

    for _ in range(max_rounds):
        if guard is not None:
            guard.check_now("reduce")
        canon = {}
        for key, entries in a.delta.items():
            merged = {}
            for g, q in entries:
                c = cls[q]
                prev = merged.get(c)
                merged[c] = g if prev is None else mgr.apply_or(prev, g)
            canon[key] = tuple(sorted(merged.items()))
        sigs = {}
        for p in range(n):
            sig = set()
            for r in by_left[p]:
                sig.add((cls[r], "L", canon[(p, r)]))
            for r in by_right[p]:
                sig.add((cls[r], "R", canon[(r, p)]))
            leaf_guard = mgr.disj(leaf_by_state.get(p, []))
            sigs[p] = (cls[p], leaf_guard, tuple(sorted(sig)))
        table = {}
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
    leaf_merged = {}
    for g, q in a.leaf:
        c = cls[q]
        leaf_merged[c] = mgr.apply_or(leaf_merged.get(c, mgr.false), g)
    delta = {}
    for (ql, qr), entries in a.delta.items():
        key = (cls[ql], cls[qr])
        acc = {}
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


def ref_minimize(a, guard=None):
    if not a.deterministic:
        raise ValueError("minimize requires a deterministic automaton")
    a = ref_prune_unreachable(a)
    mgr = a.manager
    n = a.n_states
    if n <= 1:
        return a
    cls = [1 if q in a.accepting else 0 for q in range(n)]
    by_left = {p: [] for p in range(n)}
    by_right = {p: [] for p in range(n)}
    for (ql, qr), entries in a.delta.items():
        by_left[ql].append((qr, entries))
        by_right[qr].append((ql, entries))

    while True:
        if guard is not None:
            guard.check_now("minimize")
        canon = {}
        for key, entries in a.delta.items():
            merged = {}
            for g, q in entries:
                c = cls[q]
                prev = merged.get(c)
                merged[c] = g if prev is None else mgr.apply_or(prev, g)
            canon[key] = tuple(sorted(merged.items()))

        signatures = {}
        for p in range(n):
            sig = set()
            for r, _e in by_left[p]:
                sig.add((cls[r], "L", canon[(p, r)]))
            for r, _e in by_right[p]:
                sig.add((cls[r], "R", canon[(r, p)]))
            signatures[p] = (cls[p], tuple(sorted(sig)))
        table = {}
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
    leaf_merged = {}
    for g, q in a.leaf:
        key = (0, cls[q])
        leaf_merged[key] = mgr.apply_or(leaf_merged.get(key, mgr.false), g)
    delta = {}
    seen_pairs = set()
    for (ql, qr), entries in a.delta.items():
        key = (cls[ql], cls[qr])
        if key in seen_pairs:
            continue
        seen_pairs.add(key)
        merged = {}
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


def ref_determinize(a, max_states=200_000, guard=None):
    mgr = a.manager
    index: Dict[FrozenSet[int], int] = {}
    order: List[FrozenSet[int]] = []

    def state(s):
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

    leaf = [(g, state(s)) for g, s in split_guards(mgr, a.leaf)]
    delta = {}
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
                entries = []
                for g, s in split_guards(mgr, pairs):
                    known = s in index
                    entries.append((g, state(s)))
                    if not known:
                        changed = True
                delta[key] = entries
        if len(order) > len(current):
            changed = True
    accepting = frozenset(idx for s, idx in index.items() if s & a.accepting)
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


# ---------------------------------------------------------------------------
# Recording harness.
# ---------------------------------------------------------------------------

#: name -> (owner, attribute, reference implementation)
DIFFERENTIAL = {
    "product": (TreeAutomaton, "product", ref_product),
    "completed": (TreeAutomaton, "completed", ref_completed),
    "prune_unreachable": (
        minimize_mod, "prune_unreachable", ref_prune_unreachable
    ),
    "minimize": (minimize_mod, "minimize", ref_minimize),
    "reduce_nfta": (minimize_mod, "reduce_nfta", ref_reduce_nfta),
    "determinize": (determinize_mod, "determinize", ref_determinize),
}
#: Constructions only pinned for sharing (no reference copy).
SHARING_ONLY = {
    "projected": (TreeAutomaton, "projected"),
    "prune_dead": (minimize_mod, "prune_dead"),
}


def _digest(a: TreeAutomaton) -> str:
    shape = (
        a.n_states,
        list(a.leaf),
        [(k, list(v)) for k, v in a.delta.items()],
        sorted(a.accepting),
        a.deterministic,
        a.complete,
    )
    return hashlib.blake2b(repr(shape).encode(), digest_size=16).hexdigest()


def _unshared_rows(a: TreeAutomaton) -> int:
    """Number of rows equal by content to an earlier, different object."""
    first: Dict[Tuple, list] = {}
    return sum(
        first.setdefault(tuple(v), v) is not v for v in a.delta.values()
    )


class _Recorder:
    def __init__(self) -> None:
        self.trace: List[Tuple[str, str, int, int]] = []
        self.unshared: List[Tuple[str, int]] = []
        self.depth = 0

    def check_sharing(self, name, out, args) -> None:
        if isinstance(out, TreeAutomaton) and all(out is not x for x in args):
            n = _unshared_rows(out)
            if n:
                self.unshared.append((name, n))

    def wrap(self, name, impl, pin):
        rec = self

        def wrapper(*args, **kwargs):
            if rec.depth:
                return impl(*args, **kwargs)
            rec.depth += 1
            try:
                out = impl(*args, **kwargs)
            finally:
                rec.depth -= 1
            mgr = out.manager
            rec.trace.append(
                (name, _digest(out), mgr.size(), mgr.cache_stats()["cache_entries"])
            )
            if pin:
                rec.check_sharing(name, out, args)
            return out

        return wrapper

    def wrap_pin_only(self, name, impl):
        rec = self

        def wrapper(*args, **kwargs):
            out = impl(*args, **kwargs)
            rec.check_sharing(name, out, args)
            return out

        return wrapper


def _patch(monkeypatch, owner, attr, replacement) -> None:
    """Rebind ``attr`` on ``owner`` and wherever it was imported by name."""
    original = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, replacement)
    if isinstance(owner, type):
        return
    for mod in list(sys.modules.values()):
        if (
            mod is not None
            and getattr(mod, "__name__", "").startswith("repro")
            and getattr(mod, attr, None) is original
        ):
            monkeypatch.setattr(mod, attr, replacement)


def _record(run, reference: bool) -> _Recorder:
    rec = _Recorder()
    with pytest.MonkeyPatch.context() as mp:
        for name, (owner, attr, ref) in DIFFERENTIAL.items():
            impl = ref if reference else getattr(owner, attr)
            _patch(mp, owner, attr, rec.wrap(name, impl, pin=not reference))
        if not reference:
            for name, (owner, attr) in SHARING_ONLY.items():
                _patch(mp, owner, attr, rec.wrap_pin_only(name, getattr(owner, attr)))
        run()
    return rec


def _t11():
    check_conflict_mso(
        sizecount.sequential_program(),
        sizecount.fused_valid(),
        sizecount.fusion_correspondence(),
    )


def _t13():
    check_data_race_mso(sizecount.parallel_program())


def _t17():
    check_data_race_mso(cycletree.parallel_program())


def _gen_races():
    for seed in range(20):
        check_data_race_mso(gen_race_query(seed).program())


QUERIES = {"T1.1": _t11, "T1.3": _t13, "T1.7": _t17, "gen-race-0..19": _gen_races}


@pytest.mark.slow
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_shared_rows_match_reference(query):
    run = QUERIES[query]
    ref = _record(run, reference=True)
    new = _record(run, reference=False)
    assert len(ref.trace) > 0
    assert len(new.trace) == len(ref.trace)
    for i, (want, got) in enumerate(zip(ref.trace, new.trace)):
        assert got == want, f"{query}: construction #{i} differs"
    assert new.unshared == [], (
        f"{query}: equal rows stored as separate objects: {new.unshared[:5]}"
    )


@pytest.mark.slow
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_products_are_fully_reachable(query, monkeypatch):
    """``product`` discovers only reachable pairs, so the compiler has
    nothing to prune after one: every state of every product is
    reachable."""
    real = TreeAutomaton.product
    sizes, partial = [], []

    def checked(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        sizes.append(out.n_states)
        if len(minimize_mod._reachable(out)) != out.n_states:
            partial.append(out.n_states)
        return out

    monkeypatch.setattr(TreeAutomaton, "product", checked)
    QUERIES[query]()
    assert sizes and partial == []


def test_products_share_rows_per_operand_row_pair():
    """A product stores one list per distinct row, however many keys."""
    c = Compiler()
    a = c.compile(S.Sing("X"))
    b = c.compile(S.Sing("Y"))
    p = a.product(b, lambda x, y: x and y)
    assert len(p.delta) > len({id(v) for v in p.delta.values()})
    assert _unshared_rows(p) == 0
    m = minimize_mod.minimize(p.completed())
    assert _unshared_rows(m) == 0


def test_union_fold_honours_the_guard():
    """Or-folding passes the compiler's guard to product and minimize."""
    c = Compiler()
    parts = (S.Sing("X"), S.Sing("Y"))
    for p in parts:
        c.compile(p)
    c.guard = ResourceGuard(deadline=0.0)
    with pytest.raises(DeadlineExceeded):
        c.compile(S.Or(parts))
