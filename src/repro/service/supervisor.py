"""Supervised execution: bounded pool, retries, circuit breaker.

The supervisor sits between callers (the batch layer, ``core.api``'s
``isolation="process"`` path, the fuzz loop) and the per-task worker in
:mod:`repro.service.worker`:

* **Retry policy** — each task gets a retry budget; which outcome
  classes are retried is policy (default: only ``crashed`` — a resource
  exhaustion under the same limits is deterministic, and a verdict
  needs no retry).  Backoff is exponential with *deterministic* jitter
  derived from the task key, so concurrent workers decorrelate without
  consuming RNG state anywhere.
* **Circuit breaker** — repeated crashes of *symbolic* workers trip the
  breaker; while it is open, every subsequent symbolic ``check-*``/fuzz
  task is degraded to the bounded engine alone (``engine="bounded"`` /
  ``run_symbolic=False``) before being handed to a worker.  That is the
  process-level analogue of PR 2's in-process degradation ladder: when
  the symbolic engine does not fail cooperatively, stop feeding it
  queries rather than burning the whole batch's retry budget.
* **Bounded pool** — :meth:`Supervisor.map` runs tasks over at most
  ``jobs`` concurrent children and kills every live child if the caller
  is interrupted, so ``^C`` never leaks sandboxed workers.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from .protocol import Task, task_key
from .worker import (
    WorkerOutcome,
    _error_dict,
    _task_is_symbolic,
    execute_payload,
    run_task,
)

__all__ = [
    "RetryPolicy",
    "CircuitBreaker",
    "SupervisedResult",
    "Supervisor",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Per-task retry budget and backoff shape."""

    max_attempts: int = 3
    retry_classes: Tuple[str, ...] = ("crashed",)
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter_frac: float = 0.25

    def should_retry(self, attempt: int, outcome_class: str) -> bool:
        return attempt < self.max_attempts and outcome_class in self.retry_classes

    def backoff_s(self, attempt: int, key: str) -> float:
        base = min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.backoff_max_s,
        )
        # Deterministic jitter in [-jitter_frac, +jitter_frac], keyed by
        # (task, attempt): reproducible runs, decorrelated workers.
        h = int.from_bytes(
            hashlib.sha256(f"{key}:{attempt}".encode()).digest()[:4], "big"
        )
        unit = h / 0xFFFFFFFF
        return base * (1.0 + self.jitter_frac * (2.0 * unit - 1.0))


class CircuitBreaker:
    """Trips after N consecutive crashes of symbolic workers.

    The breaker's full state is observable through :meth:`as_dict` —
    surfaced in the batch ``report.json`` and the daemon's
    ``repro serve --status`` output, so bounded-only degradation is
    visible rather than silent.
    """

    def __init__(self, threshold: int = 3) -> None:
        self.threshold = threshold
        self._consecutive = 0
        self._open = False
        self._trips = 0
        self._lock = threading.Lock()

    @property
    def open(self) -> bool:
        return self._open

    def record(self, outcome_class: str, symbolic: bool) -> None:
        with self._lock:
            if outcome_class == "crashed" and symbolic:
                self._consecutive += 1
                if self._consecutive >= self.threshold and not self._open:
                    self._open = True
                    self._trips += 1
            elif outcome_class == "ok":
                self._consecutive = 0

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "open": self._open,
                "threshold": self.threshold,
                "consecutive_crashes": self._consecutive,
                "trips": self._trips,
            }


def _degrade_task(task: Task) -> Task:
    """The symbolic-free rendering of a task (circuit breaker open).

    A ``check-*`` task runs ``engine="bounded"`` instead; the fuzz
    oracle has its own flag.
    """
    payload = dict(task.payload)
    if task.kind in ("check-race", "check-fusion"):
        payload["options"] = {
            **(payload.get("options") or {}), "engine": "bounded"
        }
    elif task.kind == "fuzz-case":
        payload["oracle"] = dict(payload.get("oracle") or {})
        payload["oracle"]["run_symbolic"] = False
    return replace(task, payload=payload)


@dataclass
class SupervisedResult:
    """Final outcome of one task plus its full attempt history."""

    task: Task
    key: str
    final: WorkerOutcome
    attempts: List[Dict[str, Any]]
    degraded: bool = False

    @property
    def ok(self) -> bool:
        return self.final.status == "ok"

    @property
    def retries(self) -> int:
        """Retry-budget spend: attempts beyond the first."""
        return max(0, len(self.attempts) - 1)

    def reply(self) -> Dict[str, Any]:
        """The JSON form of this finished task: what the daemon sends a
        client and what ``core.api`` reads for process isolation.

        ``value`` is the solve's result on success; a failure carries
        ``outcome_class``, ``detail`` and the ``worker`` post-mortem
        (status, signal, last heartbeat phase and RSS, structured error).
        """
        out: Dict[str, Any] = {
            "ok": self.ok,
            "key": self.key,
            "attempts": self.attempts,
            "degraded": self.degraded,
        }
        final = self.final
        if self.ok:
            out["value"] = final.value or {}
            return out
        out["outcome_class"] = final.outcome_class
        out["detail"] = final.describe()
        out["worker"] = {
            k: getattr(final, k)
            for k in ("status", "signal", "phase", "rss_kb", "error")
        }
        return out


class Supervisor:
    """Runs tasks through sandboxed workers with retries and breaker."""

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        isolation: str = "process",
        env: Optional[Dict[str, str]] = None,
    ) -> None:
        if isolation not in ("process", "inline"):
            raise ValueError(f"unknown isolation mode {isolation!r}")
        self.policy = policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.isolation = isolation
        self.env = env
        # _lock guards the live children and the retry spend, which the
        # pool's threads update concurrently.
        self._lock = threading.Lock()
        self._procs: Dict[int, object] = {}
        self._retries_spent = 0

    # -- child bookkeeping (so an interrupt can kill live workers) ------

    def _register(self, proc) -> None:
        with self._lock:
            self._procs[proc.pid] = proc

    def _forget(self) -> None:
        with self._lock:
            self._procs = {
                pid: p for pid, p in self._procs.items() if p.poll() is None
            }

    def kill_live_workers(self) -> None:
        with self._lock:
            procs = list(self._procs.values())
            self._procs.clear()
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.kill()
                    proc.wait()
                except OSError:  # pragma: no cover - already reaped
                    pass

    def health(self) -> Dict[str, Any]:
        """The circuit breaker's state and the retry budget's spend, as
        the batch ``report.json`` and ``repro serve --status`` show
        them."""
        return {
            "breaker": self.breaker.as_dict(),
            "retry_budget": {
                "per_task_max": self.policy.max_attempts - 1,
                "spent_total": self._retries_spent,
            },
        }

    # -- single attempt --------------------------------------------------

    def _attempt(self, task: Task) -> WorkerOutcome:
        if self.isolation == "inline":
            t0 = time.monotonic()
            try:
                value = execute_payload(task.kind, task.payload)
                outcome = WorkerOutcome(status="ok", value=value)
            except Exception as e:
                outcome = WorkerOutcome(status="failed", error=_error_dict(e))
            outcome.elapsed = time.monotonic() - t0
            return outcome
        outcome = run_task(task, env=self.env, on_spawn=self._register)
        self._forget()
        return outcome

    # -- supervised task -------------------------------------------------

    def run_one(self, task: Task) -> SupervisedResult:
        key = task_key(task)
        attempts: List[Dict[str, Any]] = []
        degraded_any = False
        final: Optional[WorkerOutcome] = None
        for attempt in range(1, self.policy.max_attempts + 1):
            degraded = self.breaker.open and _task_is_symbolic(task)
            run = _degrade_task(task) if degraded else task
            degraded_any = degraded_any or degraded
            outcome = self._attempt(run)
            self.breaker.record(
                outcome.outcome_class, _task_is_symbolic(run)
            )
            record: Dict[str, Any] = {
                "attempt": attempt,
                "isolation": self.isolation,
                "outcome": outcome.outcome_class,
                "status": outcome.status,
                "elapsed": round(outcome.elapsed, 6),
            }
            if outcome.signal is not None:
                record["signal"] = outcome.signal
            if outcome.phase is not None:
                record["phase"] = outcome.phase
            if outcome.status not in ("ok",):
                record["detail"] = outcome.describe()
            if degraded:
                record["degraded"] = True
            final = outcome
            if not self.policy.should_retry(attempt, outcome.outcome_class):
                attempts.append(record)
                break
            backoff = self.policy.backoff_s(attempt, key)
            record["backoff_s"] = round(backoff, 6)
            attempts.append(record)
            time.sleep(backoff)
        assert final is not None
        res = SupervisedResult(
            task=task,
            key=key,
            final=final,
            attempts=attempts,
            degraded=degraded_any,
        )
        with self._lock:
            self._retries_spent += res.retries
        return res

    # -- bounded pool -----------------------------------------------------

    def map(
        self,
        tasks: List[Task],
        jobs: int = 1,
        on_result: Optional[Callable[[SupervisedResult], None]] = None,
    ) -> List[SupervisedResult]:
        """Run every task over at most ``jobs`` concurrent workers.

        ``on_result`` fires as each task settles (under no lock — the
        batch layer's result store serializes its own writes).  Results
        come back in task order.  On interruption every live child is
        killed before the exception propagates.
        """
        jobs = max(1, jobs)
        results: List[Optional[SupervisedResult]] = [None] * len(tasks)

        def run_indexed(i: int) -> None:
            res = self.run_one(tasks[i])
            results[i] = res
            if on_result is not None:
                on_result(res)

        if jobs == 1:
            try:
                for i in range(len(tasks)):
                    run_indexed(i)
            except BaseException:
                self.kill_live_workers()
                raise
            return [r for r in results if r is not None]

        executor = ThreadPoolExecutor(max_workers=jobs)
        try:
            pending = {
                executor.submit(run_indexed, i) for i in range(len(tasks))
            }
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    fut.result()
        except BaseException:
            for fut in pending:
                fut.cancel()
            self.kill_live_workers()
            executor.shutdown(wait=False, cancel_futures=True)
            raise
        executor.shutdown(wait=True)
        return [r for r in results if r is not None]
