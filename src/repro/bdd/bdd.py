"""Reduced ordered binary decision diagrams (ROBDDs), int-table layout.

The symbolic backbone of the tree-automata library: transition guards over
the node-label alphabet {0,1}^k are BDDs, so automata scale with the number
of *states*, not with 2^k alphabet entries — the same architectural choice
MONA makes.

Nodes live in a flat *int table*: three parallel arrays of var level /
low child / high child indexed by the node handle, so a node is just an
``int``.  Hash-consing and the operation memo are keyed on those ints.
The table and its recursive operations come in two implementations with
identical observable behaviour (handles, ``size()``, ``cache_stats()``):

* the native kernel, ``_kernel.c``, a CPython extension type compiled with
  the system C compiler the first time a :class:`BDDManager` is
  constructed and cached next to this module under a name that holds a
  hash of the C source (DESIGN.md §12.7);
* :class:`PyBDDManager`, the same algorithms in pure Python (``list``
  columns, dicts keyed by bit-packed ints), used wherever the kernel
  cannot be built or loaded.

``BDDManager()`` returns a kernel-backed manager when the kernel loads and
a :class:`PyBDDManager` otherwise; nothing else chooses between them.
The original tuple-node manager survives as
:class:`repro.bdd.reference.ReferenceBDDManager`, and
``tests/test_bdd_differential.py`` holds all three equivalent.  Their
shared surface:

* terminals are ``0`` and ``1``; a node is an ``int`` index;
* ``apply`` / ``ite`` / ``exists`` are memoized per manager, ``rename``
  per level map;
* variables are integer *levels*; the caller (the automata layer) maps
  track names to levels;
* ``cache_stats()`` exposes the same counter keys.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..runtime import faults as _faults
from ..runtime.errors import MemoryCeilingExceeded, StateBudgetExceeded

__all__ = ["BDDManager", "PyBDDManager"]

FALSE = 0
TRUE = 1

# Operation tags for the shared memo table (low bits of every packed key,
# so per-op keys occupy disjoint ranges of one dict).
_AND = 0
_OR = 1
_NOT = 2
_EXISTS = 3
_RESTRICT = 4

_OP_NAMES = {_AND: "and", _OR: "or", _NOT: "not",
             _EXISTS: "exists", _RESTRICT: "restrict"}

#: Bits per node handle in packed keys: handles < 2^26 (≈67M nodes).
_SHIFT = 26
_CAPACITY = 1 << _SHIFT
#: Bits per variable level in packed keys.
_LEVEL_BITS = 20
_MAX_LEVEL = 1 << _LEVEL_BITS


def _out_of_range(u: int) -> IndexError:
    """The error for a handle that is not a node of the table: both int
    tables check every handle they are given."""
    return IndexError(f"BDD node handle {u!r} out of range")


def _order_preserving(mapping: Mapping[int, int]) -> Dict[int, int]:
    """A copy of a level map, after checking that it is strictly
    increasing and stays in the packed level range."""
    pairs = sorted(mapping.items())
    for (a, x), (b, y) in zip(pairs, pairs[1:]):
        if x >= y:
            raise ValueError(
                f"level map does not preserve order: {a}->{x}, {b}->{y}"
            )
    if pairs and not (0 <= pairs[0][1] and pairs[-1][1] < _MAX_LEVEL):
        raise ValueError(f"level map leaves the packed range [0, {_MAX_LEVEL})")
    return dict(pairs)


class BDDManager:
    """A shared store of hash-consed BDD nodes in a flat int table.

    ``BDDManager()`` builds (once per process) and returns the native
    kernel's manager, or a :class:`PyBDDManager` where the kernel cannot
    be built or loaded.  This class holds what both share: the terminals
    and the operations derived from the table's primitives (``_mk``,
    ``node``, the applies), so their results agree by construction.
    ``pick_cube`` is a primitive too: exploration calls it once per
    reached product tuple.
    """

    __slots__ = ()

    true = TRUE
    false = FALSE

    def __new__(cls):
        if cls is BDDManager:
            cls = _native_manager() or PyBDDManager
            return cls.__new__(cls)
        return object.__new__(cls)

    # -- derived boolean operations --------------------------------------------------
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

    # -- level renaming ----------------------------------------------------------------
    def rename(self, u: int, mapping: Mapping[int, int]) -> int:
        """``u`` with every variable level ``l`` replaced by ``mapping[l]``."""
        return self.renamer(mapping)(u)

    def renamer(self, mapping: Mapping[int, int]) -> Callable[[int], int]:
        """A memoized :meth:`rename` under one level map, for many nodes.

        The map must be strictly increasing (``ValueError`` otherwise), so
        the renamed graph is still ordered and is rebuilt node for node
        through ``_mk``, lo before hi.  Every level of a renamed node must
        be a key of the map.
        """
        levels = _order_preserving(mapping)
        memo = {FALSE: FALSE, TRUE: TRUE}
        node, mk = self.node, self._mk

        def ren(u: int) -> int:
            r = memo.get(u)
            if r is None:
                var, lo, hi = node(u)
                lvl = levels.get(var)
                if lvl is None:
                    raise ValueError(f"level {var} is not in the rename map")
                r = memo[u] = mk(lvl, ren(lo), ren(hi))
            return r

        return ren

    # -- evaluation / models -----------------------------------------------------------
    def evaluate(self, u: int, assignment: Callable[[int], bool]) -> bool:
        node = self.node
        while u > TRUE:
            var, lo, hi = node(u)
            u = hi if assignment(var) else lo
        return u == TRUE

    def support(self, u: int) -> frozenset:
        out = set()
        seen = set()
        stack = [u]
        node = self.node
        while stack:
            n = stack.pop()
            if n <= TRUE or n in seen:
                continue
            seen.add(n)
            var, lo, hi = node(n)
            out.add(var)
            stack.append(lo)
            stack.append(hi)
        return frozenset(out)

    def iter_cubes(self, u: int) -> Iterator[Dict[int, bool]]:
        """All satisfying partial assignments (disjoint cubes)."""
        if u == FALSE:
            return
        if u == TRUE:
            yield {}
            return
        lvl, lo, hi = self.node(u)
        for sub in self.iter_cubes(lo):
            yield {lvl: False, **sub}
        for sub in self.iter_cubes(hi):
            yield {lvl: True, **sub}


class PyBDDManager(BDDManager):
    """The int-table manager in pure Python: the fallback where the
    native kernel cannot be built or loaded.

    Nodes are three ``list`` columns; hash-consing and the operation memo
    are plain dicts keyed by *packed integers* (level/lo/hi and operand
    pairs bit-packed into one int), which CPython stores open-addressed
    with the identity hash — no tuple hashing on the hot path.  Packing
    widths are fixed (``_SHIFT`` bits per handle, ``_LEVEL_BITS`` per
    level) and enforced at allocation, so keys never collide across
    fields.
    """

    def __init__(self) -> None:
        # Parallel arrays: node idx -> var level / low child / high child.
        # Indices 0/1 are the terminals (level -1 keeps them below every
        # real variable without special-casing level reads).
        self._var: List[int] = [-1, -1]
        self._lo: List[int] = [-1, -1]
        self._hi: List[int] = [-1, -1]
        # Unique (hash-cons) table: (level << 2*_SHIFT | lo << _SHIFT | hi)
        # -> idx.  Int keys hash to themselves, so probing is one modulo.
        self._unique: Dict[int, int] = {}
        # One packed-int-keyed operation cache for every memoized op; the
        # op tag sits in the low 3 bits, so a single dict serves all five
        # ops and callers can still clear / account for one table.
        self._op_cache: Dict[int, int] = {}
        self._op_hits = 0
        self._op_misses = 0
        # Entries currently memoized per op tag (cache_stats breakdown;
        # counted at insert time since entries are never evicted).
        self._op_entries = [0, 0, 0, 0, 0]
        # Quantified level-set -> packed bitmask (exists() cache keys).
        self._mask_cache: Dict[frozenset, int] = {}
        # Optional ResourceGuard (set via guard.bind_manager): enforces
        # the BDD-node ceiling and the deadline from inside allocation.
        self.guard = None

    # -- node plumbing ---------------------------------------------------------
    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level << 52) | (lo << _SHIFT) | hi
        idx = self._unique.get(key)
        if idx is None:
            var = self._var
            idx = len(var)
            if idx >= _CAPACITY:
                raise MemoryCeilingExceeded(
                    f"BDD unique table exceeded int-table capacity ({_CAPACITY} nodes)",
                    counters={"bdd_nodes": idx},
                )
            var.append(level)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = idx
            # Probe the guard every 256 allocations: cheap enough to sit
            # on the allocation path, frequent enough that a node ceiling
            # or deadline trips within a bounded amount of extra work.
            if self.guard is not None and not (idx & 255):
                self.guard.note_nodes(idx + 1)
        return idx

    def level(self, u: int) -> int:
        self._check(u)
        return self._var[u]

    def node(self, u: int) -> Tuple[int, int, int]:
        self._check(u)
        return (self._var[u], self._lo[u], self._hi[u])

    def var(self, level: int) -> int:
        """The BDD of "bit at ``level`` is 1"."""
        if not (0 <= level < _MAX_LEVEL):
            raise ValueError(f"BDD level {level} outside packed range [0, {_MAX_LEVEL})")
        return self._mk(level, FALSE, TRUE)

    def nvar(self, level: int) -> int:
        if not (0 <= level < _MAX_LEVEL):
            raise ValueError(f"BDD level {level} outside packed range [0, {_MAX_LEVEL})")
        return self._mk(level, TRUE, FALSE)

    def size(self) -> int:
        return len(self._var)

    def cache_stats(self) -> Dict[str, int]:
        """Node and operation-cache counters (for solver statistics).

        ``cache_<op>`` entries count memoized results per operation;
        ``cache_hits``/``cache_misses`` count lookups since construction.
        """
        out = {
            "nodes": len(self._var),
            "cache_entries": len(self._op_cache),
            "cache_hits": self._op_hits,
            "cache_misses": self._op_misses,
        }
        for tag, name in _OP_NAMES.items():
            out[f"cache_{name}"] = self._op_entries[tag]
        return out

    # -- boolean operations -------------------------------------------------------
    def apply_and(self, u: int, v: int) -> int:
        n = len(self._var)
        if not (0 <= u < n and 0 <= v < n):
            raise _out_of_range(v if 0 <= u < n else u)
        return self._and(u, v)

    def apply_or(self, u: int, v: int) -> int:
        n = len(self._var)
        if not (0 <= u < n and 0 <= v < n):
            raise _out_of_range(v if 0 <= u < n else u)
        return self._or(u, v)

    def apply_not(self, u: int) -> int:
        self._check(u)
        return self._not(u)

    def apply_diff(self, u: int, v: int) -> int:
        """u AND NOT v."""
        n = len(self._var)
        if not (0 <= u < n and 0 <= v < n):
            raise _out_of_range(v if 0 <= u < n else u)
        return self._and(u, self._not(v))

    def _check(self, u: int) -> None:
        if not 0 <= u < len(self._var):
            raise _out_of_range(u)

    def _and(self, u: int, v: int) -> int:
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
        key = (((u << _SHIFT) | v) << 3) | _AND
        cache = self._op_cache
        r = cache.get(key)
        if r is not None:
            self._op_hits += 1
            return r
        self._op_misses += 1
        var = self._var
        lo_ = self._lo
        hi_ = self._hi
        lu = var[u]
        lv = var[v]
        if lu == lv:
            lo = self._and(lo_[u], lo_[v])
            hi = self._and(hi_[u], hi_[v])
            lvl = lu
        elif lu < lv:
            lo = self._and(lo_[u], v)
            hi = self._and(hi_[u], v)
            lvl = lu
        else:
            lo = self._and(u, lo_[v])
            hi = self._and(u, hi_[v])
            lvl = lv
        r = lo if lo == hi else self._mk(lvl, lo, hi)
        cache[key] = r
        self._op_entries[_AND] += 1
        if _faults.ARMED:
            r = _faults.fire("bdd.apply", r)
        return r

    def _or(self, u: int, v: int) -> int:
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
        key = (((u << _SHIFT) | v) << 3) | _OR
        cache = self._op_cache
        r = cache.get(key)
        if r is not None:
            self._op_hits += 1
            return r
        self._op_misses += 1
        var = self._var
        lo_ = self._lo
        hi_ = self._hi
        lu = var[u]
        lv = var[v]
        if lu == lv:
            lo = self._or(lo_[u], lo_[v])
            hi = self._or(hi_[u], hi_[v])
            lvl = lu
        elif lu < lv:
            lo = self._or(lo_[u], v)
            hi = self._or(hi_[u], v)
            lvl = lu
        else:
            lo = self._or(u, lo_[v])
            hi = self._or(u, hi_[v])
            lvl = lv
        r = lo if lo == hi else self._mk(lvl, lo, hi)
        cache[key] = r
        self._op_entries[_OR] += 1
        if _faults.ARMED:
            r = _faults.fire("bdd.apply", r)
        return r

    def _not(self, u: int) -> int:
        if u == FALSE:
            return TRUE
        if u == TRUE:
            return FALSE
        key = (u << 3) | _NOT
        r = self._op_cache.get(key)
        if r is not None:
            self._op_hits += 1
            return r
        self._op_misses += 1
        r = self._mk(self._var[u], self._not(self._lo[u]), self._not(self._hi[u]))
        self._op_cache[key] = r
        self._op_entries[_NOT] += 1
        return r

    def pick_cube(self, u: int) -> Optional[Dict[int, bool]]:
        """One satisfying partial assignment (level -> bool), or None."""
        self._check(u)
        if u == FALSE:
            return None
        cube: Dict[int, bool] = {}
        var = self._var
        lo_ = self._lo
        hi_ = self._hi
        while u > TRUE:
            lvl = var[u]
            hi = hi_[u]
            if hi != FALSE:
                cube[lvl] = True
                u = hi
            else:
                cube[lvl] = False
                u = lo_[u]
        return cube

    # -- cofactors / quantification -------------------------------------------------
    def restrict(self, u: int, level: int, value: bool) -> int:
        self._check(u)
        if not (0 <= level < _MAX_LEVEL):
            raise ValueError(f"BDD level {level} outside packed range [0, {_MAX_LEVEL})")
        return self._restrict(u, level, value)

    def _restrict(self, u: int, level: int, value: bool) -> int:
        if u <= TRUE:
            return u
        key = (((((u << _LEVEL_BITS) | level) << 1) | (1 if value else 0)) << 3) | _RESTRICT
        r = self._op_cache.get(key)
        if r is not None:
            self._op_hits += 1
            return r
        self._op_misses += 1
        lvl = self._var[u]
        if lvl > level:
            r = u
        elif lvl == level:
            r = self._hi[u] if value else self._lo[u]
        else:
            r = self._mk(
                lvl,
                self._restrict(self._lo[u], level, value),
                self._restrict(self._hi[u], level, value),
            )
        self._op_cache[key] = r
        self._op_entries[_RESTRICT] += 1
        return r

    def exists(self, u: int, levels: frozenset) -> int:
        """Existentially quantify the given levels out of ``u``."""
        self._check(u)
        if u <= TRUE or not levels:
            return u
        mask = self._mask_cache.get(levels)
        if mask is None:
            mask = 0
            for lvl in levels:
                if not (0 <= lvl < _MAX_LEVEL):
                    raise ValueError(f"BDD level {lvl} outside packed range [0, {_MAX_LEVEL})")
                mask |= 1 << lvl
            self._mask_cache[levels] = mask
        return self._exists(u, levels, mask)

    def _exists(self, u: int, levels: frozenset, mask: int) -> int:
        if u <= TRUE:
            return u
        lvl = self._var[u]
        if mask < (1 << lvl):
            # Every quantified level is above (comes before) this node,
            # and levels only grow downward: the subgraph is untouched.
            return u
        key = (((mask << _SHIFT) | u) << 3) | _EXISTS
        r = self._op_cache.get(key)
        if r is not None:
            self._op_hits += 1
            return r
        self._op_misses += 1
        elo = self._exists(self._lo[u], levels, mask)
        ehi = self._exists(self._hi[u], levels, mask)
        if (mask >> lvl) & 1:
            r = self._or(elo, ehi)
        else:
            r = self._mk(lvl, elo, ehi)
        self._op_cache[key] = r
        self._op_entries[_EXISTS] += 1
        return r


# -- native kernel -----------------------------------------------------------------------

_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_native_lock = threading.Lock()
#: The kernel-backed manager class once resolved, False if the kernel
#: cannot be built or loaded, None before the first construction.
_native = None


def _native_manager():
    """The kernel-backed manager class, or None where the kernel cannot
    be built or loaded.  Resolved once per process, on first use; the
    loader imports what it needs only then, so a process that never
    constructs a manager pays nothing for the kernel.

    No compiler and an unwritable package directory are expected set-ups
    and fall back quietly; a compile or load that fails otherwise falls
    back with one ``RuntimeWarning`` saying why."""
    global _native
    if _native is None:
        import subprocess

        with _native_lock:
            if _native is None:
                try:
                    kernel = _load_kernel()
                except OSError:
                    _native = False
                except (ImportError, subprocess.SubprocessError) as e:
                    _native = False
                    _warn_fallback(e)
                else:

                    class NativeBDDManager(kernel.Kernel, BDDManager):
                        """The int-table manager with its tables and
                        recursive operations in ``_kernel.c``."""

                        __slots__ = ()
                        __qualname__ = "NativeBDDManager"

                    _native = NativeBDDManager
    return _native or None


def _artifact_path() -> Path:
    """Where the build of the current ``_kernel.c`` is cached: next to
    the source, under a name holding a hash of it."""
    import hashlib
    import sysconfig

    digest = hashlib.sha256(_KERNEL_SOURCE.read_bytes()).hexdigest()[:16]
    return _KERNEL_SOURCE.with_name(
        f"_kernel_{digest}{sysconfig.get_config_var('EXT_SUFFIX')}"
    )


def _load_kernel():
    """Import the native kernel, compiling ``_kernel.c`` first when no
    build of this exact source sits next to it."""
    import importlib.util

    import os

    path = _artifact_path()
    if not path.exists():
        if not os.access(path.parent, os.W_OK):
            raise PermissionError(f"cannot cache a kernel build in {path.parent}")
        _build_kernel(path)
    spec = importlib.util.spec_from_file_location(f"{__package__}._kernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.configure(_faults, MemoryCeilingExceeded, StateBudgetExceeded)
    return module


def _build_kernel(path: Path) -> None:
    """Compile ``_kernel.c`` to ``path`` with the interpreter's own
    shared-library link command, then delete the builds of other sources
    next to it.  Concurrent builds are safe: each writes its own temporary
    file and renames it into place, and temporary files are never
    deleted."""
    import os
    import shlex
    import subprocess
    import sysconfig

    link = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        subprocess.run(
            [*link, "-fPIC", "-O1", f"-I{sysconfig.get_paths()['include']}",
             str(_KERNEL_SOURCE), "-o", str(tmp)],
            check=True, capture_output=True, timeout=300,
        )
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    for stale in path.parent.glob(f"_kernel_*{sysconfig.get_config_var('EXT_SUFFIX')}"):
        if stale != path:
            try:
                stale.unlink(missing_ok=True)
            except OSError:
                pass  # best effort: a stale build is never loaded


def _warn_fallback(error: Exception) -> None:
    """Say why the kernel is not in use: the error and, for a failed
    compile, the tail of the compiler's output."""
    import subprocess
    import warnings

    detail = str(error)
    if isinstance(error, subprocess.CalledProcessError) and error.stderr:
        tail = error.stderr.decode(errors="replace").strip().splitlines()[-10:]
        detail += "\n" + "\n".join(tail)
    warnings.warn(
        f"native BDD kernel unavailable, using the pure-Python manager: {detail}",
        RuntimeWarning, stacklevel=4,
    )
