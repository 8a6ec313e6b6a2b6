"""Admission control and fair scheduling for the solve daemon.

The daemon (:mod:`repro.service.daemon`) fronts the PR 4 supervisor
pool for many concurrent clients; this module is the policy layer that
keeps it overload-tolerant and fair, enforced in code rather than
convention:

* **Bounded admission queue** — at most ``max_depth`` queued
  submissions.  A submission that cannot be admitted raises the typed
  :class:`ServiceOverloaded` carrying a *retry-after hint* (derived
  from the queue depth and an EWMA of recent service times), so clients
  can back off intelligently instead of hammering the socket.
* **Load shedding, lowest priority first** — when the queue is full and
  a strictly higher-priority submission arrives, the lowest-priority
  queued entry (newest among ties) is evicted and *its* waiters get the
  overload rejection; an incoming submission that is itself lowest
  priority is rejected directly.
* **Per-client token-bucket quotas** — each client id owns a bucket
  (``rate`` tokens/second, ``burst`` capacity); an empty bucket rejects
  with the exact time until the next token.  ``rate=None`` disables
  quotas.
* **Fair scheduling** — stride scheduling over per-client virtual
  time with equal shares: each dequeue picks the backlogged client with
  the smallest *pass* value and advances it by one, so no backlog,
  however deep, can starve another client (the starved client's pass
  value stays put while the flooder's races ahead).

The scheduler is a pure, deterministic data structure: no threads, no
asyncio, a injectable clock.  The daemon drives it from its event loop;
tests drive it directly.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..runtime import faults
from ..runtime.errors import ReproError
from .protocol import Task, task_key

__all__ = [
    "DEFAULT_PRIORITY",
    "ServiceOverloaded",
    "TokenBucket",
    "Submission",
    "FairScheduler",
]

#: Priorities run 0 (shed first) to 9 (shed last).
DEFAULT_PRIORITY = 5


class ServiceOverloaded(ReproError):
    """Typed admission rejection with a retry-after hint.

    ``reason`` is one of ``"queue-full"`` (bounded depth reached),
    ``"quota"`` (the client's token bucket is empty), ``"shed"`` (the
    submission was admitted but later evicted for higher-priority
    work), or ``"shutting-down"`` (the daemon is draining).
    """

    def __init__(
        self,
        reason: str,
        retry_after_s: float,
        client: Optional[str] = None,
        message: Optional[str] = None,
    ) -> None:
        super().__init__(
            message
            or f"service overloaded ({reason}); retry in {retry_after_s:.2f}s",
            phase="admission",
            counters={"reason": reason, "retry_after_s": retry_after_s},
        )
        self.reason = reason
        self.retry_after_s = retry_after_s
        self.client = client

    def to_dict(self) -> Dict[str, Any]:
        return {
            "error": "ServiceOverloaded",
            "reason": self.reason,
            "retry_after_s": round(self.retry_after_s, 3),
            "client": self.client,
        }


class TokenBucket:
    """A standard token bucket with an injectable clock."""

    def __init__(
        self,
        rate_per_s: Optional[float],
        burst: float = 8.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = rate_per_s
        self.burst = float(burst)
        self.tokens = float(burst)
        self._clock = clock
        self._last = clock()

    def _refill(self, now: float) -> None:
        if self.rate:
            self.tokens = min(
                self.burst, self.tokens + (now - self._last) * self.rate
            )
        self._last = now

    def try_take(self) -> Optional[float]:
        """Take one token; ``None`` on success, else seconds until the
        next token becomes available (the retry-after hint)."""
        if self.rate is None:
            return None
        now = self._clock()
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return None
        if self.rate <= 0:
            return math.inf
        return (1.0 - self.tokens) / self.rate


@dataclass
class Submission:
    """One admitted unit of work waiting for (or receiving) service."""

    client: str
    priority: int
    task: Task
    key: str
    seq: int
    enqueued_s: float
    cancelled: bool = field(default=False, compare=False)
    #: The query the daemon decoded ``task`` to for its cache lookup
    #: (opaque here), kept so the verdict is stored without decoding the
    #: task again.
    query: Any = field(default=None, compare=False)


class _ClientState:
    def __init__(self, client_id: str, bucket: Optional[TokenBucket]) -> None:
        self.id = client_id
        self.bucket = bucket
        #: stride-scheduling virtual time; smallest backlogged pass runs.
        self.pass_value = 0.0
        #: heap of (-priority, seq, Submission): high priority first,
        #: FIFO within a priority level.
        self.heap: List[Tuple[int, int, Submission]] = []
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "rejected_quota": 0,
            "rejected_full": 0,
            "shed": 0,
        }

    def backlog(self) -> int:
        return sum(1 for _, _, s in self.heap if not s.cancelled)

    def peek(self) -> Optional[Submission]:
        while self.heap and self.heap[0][2].cancelled:
            heapq.heappop(self.heap)
        return self.heap[0][2] if self.heap else None

    def pop(self) -> Submission:
        while True:
            _, _, sub = heapq.heappop(self.heap)
            if not sub.cancelled:
                return sub


class FairScheduler:
    """Bounded, quota-enforcing, fair admission queue."""

    def __init__(
        self,
        max_depth: int = 64,
        quota_rate: Optional[float] = None,
        quota_burst: float = 8.0,
        workers: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.max_depth = max(1, int(max_depth))
        self.quota_rate = quota_rate
        self.quota_burst = quota_burst
        self.workers = max(1, int(workers))
        self._clock = clock
        self._clients: Dict[str, _ClientState] = {}
        self._depth = 0
        self._seq = 0
        self._global_pass = 0.0
        #: EWMA of recent service times, feeding the retry-after hint.
        self._avg_service_s = 0.5
        self.counters: Dict[str, int] = {
            "admitted": 0,
            "dispatched": 0,
            "completed": 0,
            "rejected_full": 0,
            "rejected_quota": 0,
            "shed": 0,
        }

    # -- clients ---------------------------------------------------------

    def client(self, client_id: str) -> _ClientState:
        state = self._clients.get(client_id)
        if state is None:
            bucket = (
                TokenBucket(self.quota_rate, self.quota_burst, self._clock)
                if self.quota_rate is not None
                else None
            )
            state = _ClientState(client_id, bucket)
            # A newcomer (or returner) starts at the current virtual
            # time: no catching up on service it never requested.
            state.pass_value = self._global_pass
            self._clients[client_id] = state
        return state

    # -- admission -------------------------------------------------------

    def retry_after_s(self) -> float:
        """Backoff hint: roughly one queue's worth of service time."""
        est = (self._depth + 1) * self._avg_service_s / self.workers
        return min(60.0, max(0.1, est))

    def _lowest_priority_victim(self) -> Optional[Submission]:
        """The queued submission shed first: lowest priority, newest
        among ties (older work has waited longest and survives)."""
        victim: Optional[Submission] = None
        for state in self._clients.values():
            for _, _, sub in state.heap:
                if sub.cancelled:
                    continue
                if (
                    victim is None
                    or sub.priority < victim.priority
                    or (
                        sub.priority == victim.priority
                        and sub.seq > victim.seq
                    )
                ):
                    victim = sub
        return victim

    def submit(
        self,
        client_id: str,
        task: Task,
        priority: int = DEFAULT_PRIORITY,
        key: Optional[str] = None,
    ) -> Tuple[Submission, List[Submission]]:
        """Admit one task; returns ``(submission, shed)`` where ``shed``
        lists lower-priority submissions evicted to make room.

        Raises :class:`ServiceOverloaded` when the client's quota is
        exhausted or the queue is full of equal-or-higher-priority work.
        """
        priority = max(0, min(9, int(priority)))
        state = self.client(client_id)
        state.counters["submitted"] += 1
        if faults.ARMED:
            try:
                faults.fire("queue-full")
            except faults.InjectedFault as e:
                self.counters["rejected_full"] += 1
                state.counters["rejected_full"] += 1
                raise ServiceOverloaded(
                    "queue-full",
                    self.retry_after_s(),
                    client=client_id,
                    message=f"service overloaded (injected): {e}",
                ) from e
        if state.bucket is not None:
            retry = state.bucket.try_take()
            if retry is not None:
                self.counters["rejected_quota"] += 1
                state.counters["rejected_quota"] += 1
                raise ServiceOverloaded(
                    "quota", retry, client=client_id
                )
        shed: List[Submission] = []
        if self._depth >= self.max_depth:
            victim = self._lowest_priority_victim()
            if victim is None or victim.priority >= priority:
                self.counters["rejected_full"] += 1
                state.counters["rejected_full"] += 1
                raise ServiceOverloaded(
                    "queue-full", self.retry_after_s(), client=client_id
                )
            victim.cancelled = True
            self._depth -= 1
            self.counters["shed"] += 1
            self._clients[victim.client].counters["shed"] += 1
            shed.append(victim)
        self._seq += 1
        sub = Submission(
            client=client_id,
            priority=priority,
            task=task,
            key=key if key is not None else task_key(task),
            seq=self._seq,
            enqueued_s=self._clock(),
        )
        heapq.heappush(state.heap, (-priority, sub.seq, sub))
        self._depth += 1
        self.counters["admitted"] += 1
        return sub, shed

    # -- dispatch --------------------------------------------------------

    def next_ready(self) -> Optional[Submission]:
        """Dequeue per stride scheduling: the backlogged client with the
        smallest pass value; ties break on client id for determinism."""
        best: Optional[_ClientState] = None
        for state in sorted(self._clients.values(), key=lambda s: s.id):
            if state.peek() is None:
                continue
            if best is None or state.pass_value < best.pass_value:
                best = state
        if best is None:
            return None
        sub = best.pop()
        self._depth -= 1
        self._global_pass = best.pass_value
        best.pass_value += 1.0
        self.counters["dispatched"] += 1
        return sub

    def task_done(self, client_id: str, elapsed_s: float) -> None:
        self.counters["completed"] += 1
        state = self._clients.get(client_id)
        if state is not None:
            state.counters["completed"] += 1
        self._avg_service_s = (
            0.8 * self._avg_service_s + 0.2 * max(0.001, elapsed_s)
        )

    def depth(self) -> int:
        return self._depth

    # -- observability ---------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "depth": self._depth,
            "max_depth": self.max_depth,
            "avg_service_s": round(self._avg_service_s, 4),
            "retry_after_s": round(self.retry_after_s(), 3),
            "quota_rate": self.quota_rate,
            "quota_burst": self.quota_burst,
            "counters": dict(self.counters),
            "clients": {
                cid: {
                    "backlog": state.backlog(),
                    "pass": round(state.pass_value, 4),
                    "tokens": (
                        round(state.bucket.tokens, 3)
                        if state.bucket is not None
                        else None
                    ),
                    **state.counters,
                }
                for cid, state in sorted(self._clients.items())
            },
        }
