"""Reference ROBDD implementation (tuple nodes, tuple-keyed caches).

This is the pre-int-table :class:`BDDManager`, kept verbatim (modulo the
class name, the later ``rename`` and ``true``/``false`` as class
attributes) as the differential-testing oracle for the int-table
managers in :mod:`repro.bdd.bdd`, the native kernel and its pure-Python
fallback.  The managers must agree on every observable: node semantics
(truth tables), ``cache_stats()`` key shape, and the node-index
sequences that every compiled automaton's guards, and so the compiler's
memo, are built from.  It is not exported from the package ``__init__`` and nothing in
the solver imports it; only ``tests/test_bdd_differential.py`` does.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..runtime import faults as _faults

__all__ = ["ReferenceBDDManager"]

FALSE = 0
TRUE = 1

# Operation tags for the shared memo table (small ints hash fastest).
_AND = 0
_OR = 1
_NOT = 2
_EXISTS = 3
_RESTRICT = 4

_OP_NAMES = {_AND: "and", _OR: "or", _NOT: "not",
             _EXISTS: "exists", _RESTRICT: "restrict"}


class ReferenceBDDManager:
    """A shared store of hash-consed BDD nodes (tuple-per-node layout)."""

    true = TRUE
    false = FALSE

    def __init__(self) -> None:
        # node idx -> (level, lo, hi); indices 0/1 are terminals.
        self._nodes: List[Tuple[int, int, int]] = [(-1, -1, -1), (-1, -1, -1)]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        # One keyed operation cache for every memoized op; keys are
        # (op-tag, operands...).  A single table keeps memory accounting
        # (and ``cache_stats``) trivial and lets callers clear one dict.
        self._op_cache: Dict[Tuple, int] = {}
        self._op_hits = 0
        self._op_misses = 0
        # Optional ResourceGuard (set via guard.bind_manager): enforces
        # the BDD-node ceiling and the deadline from inside allocation.
        self.guard = None

    # -- node plumbing ---------------------------------------------------------
    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level, lo, hi)
        idx = self._unique.get(key)
        if idx is None:
            idx = len(self._nodes)
            self._nodes.append(key)
            self._unique[key] = idx
            # Probe the guard every 256 allocations: cheap enough to sit
            # on the allocation path, frequent enough that a node ceiling
            # or deadline trips within a bounded amount of extra work.
            if self.guard is not None and not (idx & 255):
                self.guard.note_nodes(idx + 1)
        return idx

    def level(self, u: int) -> int:
        return self._nodes[u][0]

    def node(self, u: int) -> Tuple[int, int, int]:
        return self._nodes[u]

    def var(self, level: int) -> int:
        """The BDD of "bit at ``level`` is 1"."""
        return self._mk(level, FALSE, TRUE)

    def nvar(self, level: int) -> int:
        return self._mk(level, TRUE, FALSE)

    def size(self) -> int:
        return len(self._nodes)

    def cache_stats(self) -> Dict[str, int]:
        """Node and operation-cache counters (for solver statistics).

        ``cache_<op>`` entries count memoized results per operation;
        ``cache_hits``/``cache_misses`` count lookups since construction.
        """
        per_op: Dict[int, int] = {}
        for key in self._op_cache:
            per_op[key[0]] = per_op.get(key[0], 0) + 1
        out = {
            "nodes": len(self._nodes),
            "cache_entries": len(self._op_cache),
            "cache_hits": self._op_hits,
            "cache_misses": self._op_misses,
        }
        for tag, name in _OP_NAMES.items():
            out[f"cache_{name}"] = per_op.get(tag, 0)
        return out

    # -- boolean operations -------------------------------------------------------
    def apply_and(self, u: int, v: int) -> int:
        if u == FALSE or v == FALSE:
            return FALSE
        if u == TRUE:
            return v
        if v == TRUE:
            return u
        if u == v:
            return u
        if u > v:
            u, v = v, u
        key = (_AND, u, v)
        r = self._op_cache.get(key)
        if r is not None:
            self._op_hits += 1
            return r
        self._op_misses += 1
        lu, lou, hiu = self._nodes[u]
        lv, lov, hiv = self._nodes[v]
        if lu == lv:
            lo = self.apply_and(lou, lov)
            hi = self.apply_and(hiu, hiv)
            lvl = lu
        elif lu < lv:
            lo = self.apply_and(lou, v)
            hi = self.apply_and(hiu, v)
            lvl = lu
        else:
            lo = self.apply_and(u, lov)
            hi = self.apply_and(u, hiv)
            lvl = lv
        r = self._mk(lvl, lo, hi)
        self._op_cache[key] = r
        if _faults.ARMED:
            r = _faults.fire("bdd.apply", r)
        return r

    def apply_or(self, u: int, v: int) -> int:
        if u == TRUE or v == TRUE:
            return TRUE
        if u == FALSE:
            return v
        if v == FALSE:
            return u
        if u == v:
            return u
        if u > v:
            u, v = v, u
        key = (_OR, u, v)
        r = self._op_cache.get(key)
        if r is not None:
            self._op_hits += 1
            return r
        self._op_misses += 1
        lu, lou, hiu = self._nodes[u]
        lv, lov, hiv = self._nodes[v]
        if lu == lv:
            lo = self.apply_or(lou, lov)
            hi = self.apply_or(hiu, hiv)
            lvl = lu
        elif lu < lv:
            lo = self.apply_or(lou, v)
            hi = self.apply_or(hiu, v)
            lvl = lu
        else:
            lo = self.apply_or(u, lov)
            hi = self.apply_or(u, hiv)
            lvl = lv
        r = self._mk(lvl, lo, hi)
        self._op_cache[key] = r
        if _faults.ARMED:
            r = _faults.fire("bdd.apply", r)
        return r

    def apply_not(self, u: int) -> int:
        if u == FALSE:
            return TRUE
        if u == TRUE:
            return FALSE
        key = (_NOT, u)
        r = self._op_cache.get(key)
        if r is not None:
            self._op_hits += 1
            return r
        self._op_misses += 1
        lvl, lo, hi = self._nodes[u]
        r = self._mk(lvl, self.apply_not(lo), self.apply_not(hi))
        self._op_cache[key] = r
        return r

    def apply_diff(self, u: int, v: int) -> int:
        """u AND NOT v."""
        return self.apply_and(u, self.apply_not(v))

    def ite(self, c: int, t: int, e: int) -> int:
        return self.apply_or(self.apply_and(c, t), self.apply_and(self.apply_not(c), e))

    def conj(self, items: Sequence[int]) -> int:
        r = TRUE
        for u in items:
            r = self.apply_and(r, u)
            if r == FALSE:
                return FALSE
        return r

    def disj(self, items: Sequence[int]) -> int:
        r = FALSE
        for u in items:
            r = self.apply_or(r, u)
            if r == TRUE:
                return TRUE
        return r

    # -- cofactors / quantification -------------------------------------------------
    def restrict(self, u: int, level: int, value: bool) -> int:
        if u <= TRUE:
            return u
        key = (_RESTRICT, u, level, value)
        r = self._op_cache.get(key)
        if r is not None:
            self._op_hits += 1
            return r
        self._op_misses += 1
        lvl, lo, hi = self._nodes[u]
        if lvl > level:
            r = u
        elif lvl == level:
            r = hi if value else lo
        else:
            r = self._mk(
                lvl,
                self.restrict(lo, level, value),
                self.restrict(hi, level, value),
            )
        self._op_cache[key] = r
        return r

    def exists(self, u: int, levels: frozenset) -> int:
        """Existentially quantify the given levels out of ``u``."""
        if u <= TRUE or not levels:
            return u
        key = (_EXISTS, u, levels)
        r = self._op_cache.get(key)
        if r is not None:
            self._op_hits += 1
            return r
        self._op_misses += 1
        lvl, lo, hi = self._nodes[u]
        elo = self.exists(lo, levels)
        ehi = self.exists(hi, levels)
        if lvl in levels:
            r = self.apply_or(elo, ehi)
        else:
            r = self._mk(lvl, elo, ehi)
        self._op_cache[key] = r
        return r

    # -- level renaming ----------------------------------------------------------------
    def rename(self, u: int, mapping: Mapping[int, int]) -> int:
        """``u`` with every variable level ``l`` replaced by ``mapping[l]``."""
        return self.renamer(mapping)(u)

    def renamer(self, mapping: Mapping[int, int]) -> Callable[[int], int]:
        """A memoized :meth:`rename` under one strictly increasing map."""
        levels = dict(mapping)
        keys = sorted(levels)
        if any(levels[a] >= levels[b] for a, b in zip(keys, keys[1:])):
            raise ValueError("level map does not preserve order")
        memo = {FALSE: FALSE, TRUE: TRUE}

        def ren(u: int) -> int:
            if u not in memo:
                lvl, lo, hi = self._nodes[u]
                if lvl not in levels:
                    raise ValueError(f"level {lvl} is not in the rename map")
                memo[u] = self._mk(levels[lvl], ren(lo), ren(hi))
            return memo[u]

        return ren

    # -- evaluation / models -----------------------------------------------------------
    def evaluate(self, u: int, assignment: Callable[[int], bool]) -> bool:
        while u > TRUE:
            lvl, lo, hi = self._nodes[u]
            u = hi if assignment(lvl) else lo
        return u == TRUE

    def support(self, u: int) -> frozenset:
        out = set()
        seen = set()
        stack = [u]
        while stack:
            n = stack.pop()
            if n <= TRUE or n in seen:
                continue
            seen.add(n)
            lvl, lo, hi = self._nodes[n]
            out.add(lvl)
            stack.append(lo)
            stack.append(hi)
        return frozenset(out)

    def pick_cube(self, u: int) -> Optional[Dict[int, bool]]:
        """One satisfying partial assignment (level -> bool), or None."""
        if u == FALSE:
            return None
        cube: Dict[int, bool] = {}
        while u > TRUE:
            lvl, lo, hi = self._nodes[u]
            if hi != FALSE:
                cube[lvl] = True
                u = hi
            else:
                cube[lvl] = False
                u = lo
        return cube

    def iter_cubes(self, u: int) -> Iterator[Dict[int, bool]]:
        """All satisfying partial assignments (disjoint cubes)."""
        if u == FALSE:
            return
        if u == TRUE:
            yield {}
            return
        lvl, lo, hi = self._nodes[u]
        for sub in self.iter_cubes(lo):
            yield {lvl: False, **sub}
        for sub in self.iter_cubes(hi):
            yield {lvl: True, **sub}
