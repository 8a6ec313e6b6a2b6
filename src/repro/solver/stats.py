"""Per-phase solver statistics (the instrumentation DESIGN.md promises).

:class:`SolverStats` accumulates, per :class:`~repro.solver.solver.MSOSolver`
instance, where a query's time actually goes — formula→automaton
compilation, lazy product exploration, witness decoding — plus the
reached-states-vs-budget picture of the lazy emptiness engine, the
compiler's memo counters and the BDD manager's node/cache counters.
``as_dict()`` renders a flat, JSON-friendly snapshot for result objects
and the benchmark harness.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["SolverStats"]


@dataclass
class SolverStats:
    """Cumulative counters for one solver instance."""

    # Phase wall-clock totals (seconds).
    compile_s: float = 0.0
    explore_s: float = 0.0
    witness_s: float = 0.0
    # Lazy-emptiness accounting.
    budget: Optional[int] = None
    queries: int = 0
    last_reached: int = 0
    max_reached: int = 0
    total_reached: int = 0
    # Cross-query caching.
    conj_cache_hits: int = 0
    conj_cache_misses: int = 0
    # Content-addressed result cache (repro.engine.cache) counters at
    # solve time — zero unless a cache is attached to the plan executor.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stored: int = 0

    @contextmanager
    def phase(self, name: str):
        """Time a block into ``<name>_s`` (compile/explore/witness)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            setattr(self, f"{name}_s", getattr(self, f"{name}_s") + dt)

    def note_cache(self, cache_stats) -> None:
        """Mirror a result-cache's counters (an object with
        ``hits``/``misses``/``stored``) into this snapshot."""
        self.cache_hits = cache_stats.hits
        self.cache_misses = cache_stats.misses
        self.cache_stored = cache_stats.stored

    def note_exploration(self, reached: int) -> None:
        self.queries += 1
        self.last_reached = reached
        self.max_reached = max(self.max_reached, reached)
        self.total_reached += reached

    def as_dict(self, manager=None, compile_stats=None) -> Dict[str, object]:
        """Flat snapshot; pass the BDD manager and the compiler's
        ``CompileStats`` to include their counters."""
        out: Dict[str, object] = {
            "compile_s": round(self.compile_s, 6),
            "explore_s": round(self.explore_s, 6),
            "witness_s": round(self.witness_s, 6),
            "queries": self.queries,
            "budget": self.budget,
            "last_reached": self.last_reached,
            "max_reached": self.max_reached,
            "total_reached": self.total_reached,
            "conj_cache_hits": self.conj_cache_hits,
            "conj_cache_misses": self.conj_cache_misses,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "stored": self.cache_stored,
            },
        }
        if compile_stats is not None:
            # Memo misses vs automata copied by renaming BDD levels.
            out["compile_builds"] = compile_stats.builds
            out["compile_renames"] = compile_stats.renames
        if manager is not None:
            for k, v in manager.cache_stats().items():
                out[f"bdd_{k}"] = v
        return out

    def __str__(self) -> str:
        return (
            f"[stats] compile {self.compile_s:.3f}s, explore "
            f"{self.explore_s:.3f}s, witness {self.witness_s:.3f}s; "
            f"{self.queries} queries, max {self.max_reached} reached"
            + (f"/{self.budget} budget" if self.budget is not None else "")
        )
