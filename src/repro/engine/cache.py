"""Content-addressed result cache with soundness-aware reuse.

Records are keyed by :meth:`query.key` — the hash of *what* is asked,
never of the limits — and kept in memory plus, when the cache is given
a directory, in that directory's ``cache.sqlite``
(:class:`repro.service.sharedcache.SharedCache`): checksummed rows,
quarantine on corruption, WAL crash safety.  That one file is the only
durable record store.  A batch run directory and a solve daemon's run
directory each hold one, so either doubles as a warm cache across runs.
The same file also holds *task-keyed* rows (``{"key", "kind",
"result"}``, see :meth:`ResultCache.store_task`): a batch's resume
records and the daemon's fuzz-case results.

Reuse is governed by the verdict and the deciding engine's
``complete_for`` (:mod:`repro.engine.engines`):

* ``"unknown"`` is never reusable (and never stored) — a bigger budget
  might decide it;
* a **counterexample** (``race`` / ``not-equivalent``) is always
  reusable — every engine's counterexamples are concrete evidence that
  stands regardless of scope or budget;
* a **clean** verdict (``race-free`` / ``equivalent``) is reusable iff
  the deciding engine is *complete* for what the query asks: over all
  trees, or exhaustive on the same scope (the scope is part of the
  key, and re-checked here as belt and braces).  A sampled engine's
  clean verdict is never reused;
* the deciding engine must be one the current plan would run — a
  bounded verdict must not satisfy an ``engine="mso"`` caller;
* a ``bisim`` verdict (the equivalence fast path) counts as sound and
  complete, but is only reused when the caller still enables the
  bisimulation gate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from .engines import get_engine

__all__ = ["CacheStats", "ResultCache"]

#: Verdicts that carry a counterexample (always-reusable evidence).
_FOUND_VERDICTS = frozenset({"race", "not-equivalent"})


@dataclass
class CacheStats:
    """Observable cache counters (mirrored into ``SolverStats`` and the
    batch ``report.json``)."""

    hits: int = 0
    misses: int = 0
    stored: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stored": self.stored,
        }


def _decided_engine(decided_by, attempts) -> Optional[str]:
    """The engine name behind a ``decided_by`` rung (``"bisim"`` for the
    equivalence fast path, which records no attempt)."""
    if decided_by is None:
        return None
    if decided_by == "bisim":
        return "bisim"
    for a in attempts:
        if a.get("rung") == decided_by:
            return a.get("engine")
    return None


class ResultCache:
    """In-memory verdict cache keyed by query hash, backed by
    ``path/cache.sqlite`` when ``path`` (a directory) is given."""

    def __init__(self, path: Optional[Path] = None) -> None:
        self._memory: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()
        #: The durable tier, or ``None`` for a memory-only cache.
        self.shared = None
        if path is not None:
            from ..service.sharedcache import SharedCache

            self.shared = SharedCache(Path(path) / "cache.sqlite")

    # -- reuse policy ----------------------------------------------------

    @staticmethod
    def _reusable(record: Dict[str, Any], query, plan,
                  allow_bisim: bool) -> bool:
        verdict = record.get("verdict")
        decided_engine = record.get("decided_engine")
        if verdict in (None, "unknown") or decided_engine is None:
            return False
        if record.get("kind") != query.kind:
            return False
        if decided_engine == "bisim":
            return allow_bisim and query.kind == "equiv"
        if decided_engine not in plan.engine_names():
            return False
        if verdict in _FOUND_VERDICTS:
            return True
        complete_for = get_engine(decided_engine).complete_for
        if complete_for == "all-trees":
            return True
        if complete_for == "scope":
            return record.get("scope") == query.scope
        return False

    # -- lookup / store --------------------------------------------------

    def lookup(self, query, plan,
               allow_bisim: bool = True) -> Optional[Dict[str, Any]]:
        """The reusable cache record for ``query`` under ``plan``, or
        ``None`` (counted as a miss)."""
        key = query.key()
        with self._lock:
            record = self._memory.get(key)
        if record is None and self.shared is not None:
            record = self.shared.get(key)
            if record is not None:
                with self._lock:
                    self._memory[key] = record
        if record is not None and self._reusable(
            record, query, plan, allow_bisim
        ):
            with self._lock:
                self.stats.hits += 1
            return record
        with self._lock:
            self.stats.misses += 1
        return None

    def store(self, query, result: Dict[str, Any]) -> bool:
        """Store one wire-format result (see :func:`repro.core.api.
        verification_to_dict`); refuses ``unknown`` (a bigger budget
        might decide it, so it must always be recomputed)."""
        verdict = result.get("verdict", "unknown")
        details = result.get("details") or {}
        decided_by = details.get("decided_by")
        engine = _decided_engine(decided_by, details.get("attempts") or [])
        if verdict == "unknown" or engine is None:
            return False
        key = query.key()
        record = {
            "key": key,
            "kind": query.kind,
            "scope": query.scope,
            "verdict": verdict,
            "holds": bool(result.get("holds")),
            "decided_by": decided_by,
            "decided_engine": engine,
            "result": result,
        }
        with self._lock:
            self._memory[key] = record
            self.stats.stored += 1
        if self.shared is not None:
            self.shared.put(key, record)
        return True

    # -- task-keyed rows -------------------------------------------------

    def task_result(self, key: str) -> Optional[Dict[str, Any]]:
        """The durable result stored under a task key, or ``None``."""
        row = self.shared.get(key)
        return None if row is None else row.get("result")

    def store_task(self, key: str, kind: str, result: Dict[str, Any]) -> None:
        """Durably store one task's result under its task key (no reuse
        policy applies: the key names the exact task)."""
        self.shared.put(key, {"key": key, "kind": kind, "result": result})
