"""Cooperative resource governance for the decision procedure.

A single :class:`ResourceGuard` carries the limits a solver run checks
cooperatively — wall-clock deadline and BDD-node (memory) ceiling — and
is passed down through BDD operations, automaton constructions, product
exploration, compilation, and the solver.  (State budgets are the
``max_states`` arguments of the constructions themselves.)  Hot
loops call the cheap :meth:`ResourceGuard.tick` probe (an integer
increment; the expensive clock/size reads only run every
``check_every`` ticks), while natural phase boundaries call
:meth:`ResourceGuard.check_now` directly.

Limit violations raise the typed exceptions from
:mod:`repro.runtime.errors`, so callers can distinguish a timeout from
budget exhaustion from a memory ceiling.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from .errors import DeadlineExceeded, MemoryCeilingExceeded

__all__ = ["ResourceGuard"]


class ResourceGuard:
    """One cooperative cancellation/limits object for a solver run.

    Parameters
    ----------
    deadline:
        Absolute ``time.perf_counter()`` value after which work must
        stop, or ``None`` for no wall-clock limit.
    node_ceiling:
        Maximum number of live BDD nodes in a bound manager, or
        ``None`` for unlimited.
    check_every:
        How many :meth:`tick` calls to skip between real checks.
    """

    __slots__ = (
        "deadline",
        "node_ceiling",
        "check_every",
        "_ticks",
        "_next_check",
        "_managers",
        "last_phase",
    )

    def __init__(
        self,
        deadline: Optional[float] = None,
        node_ceiling: Optional[int] = None,
        check_every: int = 1024,
    ) -> None:
        self.deadline = deadline
        self.node_ceiling = node_ceiling
        self.check_every = max(1, int(check_every))
        self._ticks = 0
        self._next_check = self.check_every
        self._managers: list = []
        self.last_phase: Optional[str] = None

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def start(
        cls,
        deadline_s: Optional[float] = None,
        node_ceiling: Optional[int] = None,
        check_every: int = 1024,
    ) -> "ResourceGuard":
        """Create a guard whose deadline is *deadline_s* seconds from now."""
        deadline = None
        if deadline_s is not None:
            deadline = time.perf_counter() + deadline_s
        return cls(
            deadline=deadline,
            node_ceiling=node_ceiling,
            check_every=check_every,
        )

    def bind_manager(self, manager) -> None:
        """Attach a :class:`~repro.bdd.bdd.BDDManager` for node accounting.

        The manager's allocation loop reports its node count back through
        :meth:`note_nodes`; binding also lets :meth:`check_now` enforce
        the ceiling at phase boundaries.
        """
        manager.guard = self
        if manager not in self._managers:
            self._managers.append(manager)

    def unbind_managers(self) -> None:
        """Detach every bound manager (clears their ``guard`` attribute)."""
        for manager in self._managers:
            if getattr(manager, "guard", None) is self:
                manager.guard = None
        self._managers = []

    # ------------------------------------------------------------------
    # probes

    def tick(self, phase: Optional[str] = None, n: int = 1) -> None:
        """Cheap hot-loop probe for ``n`` units of work: a full check only
        every ``check_every`` ticks."""
        self._ticks += n
        if self._ticks >= self._next_check:
            self._next_check = self._ticks + self.check_every
            self.check_now(phase)

    def check_now(self, phase: Optional[str] = None) -> None:
        """Enforce the deadline and node ceiling immediately."""
        if phase is not None:
            self.last_phase = phase
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise DeadlineExceeded(
                "wall-clock deadline exceeded",
                phase=phase or self.last_phase,
                counters=self.counters(),
            )
        if self.node_ceiling is not None:
            for manager in self._managers:
                self._check_ceiling(manager.size(), phase)

    def note_nodes(self, count: int, phase: str = "bdd") -> None:
        """Called by a bound BDD manager after allocating nodes."""
        self._check_ceiling(count, phase)
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise DeadlineExceeded(
                "wall-clock deadline exceeded",
                phase=phase,
                counters=self.counters(),
            )

    def _check_ceiling(self, count: int, phase: Optional[str]) -> None:
        if self.node_ceiling is not None and count > self.node_ceiling:
            raise MemoryCeilingExceeded(
                f"BDD node count {count} exceeded ceiling of {self.node_ceiling}",
                phase=phase or self.last_phase,
                counters=self.counters(),
            )

    # ------------------------------------------------------------------
    # introspection

    def expired(self) -> bool:
        """Non-raising deadline test."""
        return self.deadline is not None and time.perf_counter() > self.deadline

    def remaining_s(self) -> Optional[float]:
        """Seconds until the deadline, or ``None`` if no deadline is set."""
        if self.deadline is None:
            return None
        return self.deadline - time.perf_counter()

    def counters(self) -> Dict[str, object]:
        counters: Dict[str, object] = {"ticks": self._ticks}
        if self._managers:
            counters["bdd_nodes"] = sum(m.size() for m in self._managers)
        if self.deadline is not None:
            counters["remaining_s"] = round(self.deadline - time.perf_counter(), 6)
        return counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResourceGuard(deadline={self.deadline!r}, "
            f"node_ceiling={self.node_ceiling!r})"
        )
