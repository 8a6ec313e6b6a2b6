"""Crash-isolated solver service (DESIGN.md §9).

The paper's evaluation runs each MONA query as an external, killable
process; this package gives the reproduction the same property.  In-
process execution (PR 2's :class:`~repro.runtime.ResourceGuard` and
degradation ladder) handles *cooperative* failure — a limit a running
solver can notice and report.  ``repro.service`` handles the *non-
cooperative* kind: runaway BDD growth that outruns every probe, C-level
recursion blowouts, or a fault-injected corruption that escapes the
ladder and takes the interpreter down with it.

Seven layers:

* :mod:`repro.service.protocol` — length-prefixed JSON framing, the
  serializable :class:`Task`/:class:`WorkerLimits` model, and content-hash
  task keys;
* :mod:`repro.service.worker` — one solve per sandboxed child process
  (``resource.setrlimit`` on CPU/address space, wall-clock kill from the
  parent); a dying child yields a structured :class:`WorkerOutcome`
  (signal, rss, phase from the last heartbeat) instead of tearing down
  the parent;
* :mod:`repro.service.supervisor` — a bounded worker pool with per-task
  retries (exponential backoff + deterministic jitter, retry budget,
  crash/resource/verdict outcome classes) and a circuit breaker that
  falls back to the bounded-only ladder rung when symbolic workers
  crash repeatedly; :meth:`SupervisedResult.reply` is the one JSON form
  of a finished task, whether the daemon sends it or ``core.api`` reads
  it in-process;
* :mod:`repro.service.sharedcache` — the one durable store: a sqlite
  file of checksummed rows (corruption quarantine, WAL crash safety)
  that :class:`repro.engine.cache.ResultCache` opens as
  ``<dir>/cache.sqlite``, in a batch run directory and in the daemon's;
* :mod:`repro.service.batch` — manifest-driven runs over that store,
  enabling ``repro batch --resume``: each finished task's committed row
  is its resume record, so a run killed with SIGKILL mid-way restarts
  and recomputes only the tasks without a verified row;
* :mod:`repro.service.scheduler` — admission control for the daemon:
  bounded queue with typed :class:`ServiceOverloaded` rejections and
  retry-after hints, priority-aware load shedding, per-client
  token-bucket quotas, and stride scheduling with equal client shares;
* :mod:`repro.service.daemon` + :mod:`repro.service.client` — the
  long-lived multi-tenant solve daemon behind ``repro serve`` (DESIGN.md
  §11) and its blocking socket client (``repro client``,
  ``core.api``'s ``isolation="daemon"``).
"""

from .batch import BatchError, BatchReport, load_manifest, run_batch
from .client import DaemonClient
from .daemon import DaemonConfig, DaemonError, SolveDaemon, serve
from .protocol import Task, WorkerLimits, task_key
from .scheduler import FairScheduler, ServiceOverloaded, TokenBucket
from .sharedcache import SharedCache
from .supervisor import (
    CircuitBreaker,
    RetryPolicy,
    SupervisedResult,
    Supervisor,
)
from .worker import (
    WorkerOutcome,
    run_case_isolated,
    run_task,
)

__all__ = [
    "Task",
    "WorkerLimits",
    "task_key",
    "WorkerOutcome",
    "run_task",
    "run_case_isolated",
    "Supervisor",
    "SupervisedResult",
    "RetryPolicy",
    "CircuitBreaker",
    "BatchError",
    "BatchReport",
    "load_manifest",
    "run_batch",
    "FairScheduler",
    "ServiceOverloaded",
    "TokenBucket",
    "SharedCache",
    "SolveDaemon",
    "DaemonConfig",
    "DaemonError",
    "DaemonClient",
    "serve",
]
