"""The long-lived multi-tenant solve daemon (DESIGN.md §11).

``repro serve RUN_DIR`` turns the one-shot service stack into a
persistent process: an asyncio daemon listening on a Unix socket
(``RUN_DIR/daemon.sock``), speaking the same length-prefixed JSON
framing as the worker protocol, and fronting the PR 4 supervisor pool
behind the PR 5 query-keyed cache.  The request path is::

    client ──▶ admission (quota, bounded queue, shedding)
           ──▶ shared-cache lookup (sqlite tier, soundness-gated reuse)
           ──▶ coalescing (identical in-flight keys share one solve)
           ──▶ fair scheduler (stride over clients, equal shares)
           ──▶ supervisor pool (sandboxed workers, retries, breaker)
           ──▶ shared cache  ──▶ every waiter's response

**Durability contract.**  A verdict is durable once its checksummed row
is committed to the shared sqlite cache, which happens before any
client sees the result.  ``SIGKILL`` at any moment loses at most
in-flight work (clients see a dropped connection and resubmit); on
restart every row is re-verified byte-for-byte (corrupt rows are
quarantined and will be recomputed), and resubmissions of completed
work are answered from the cache — no lost and no recomputed verdicts.
``SIGTERM`` drains: admission closes
(``ServiceOverloaded(reason="shutting-down")``), queued and running
work completes and is answered, then the daemon exits 0.

**Requests** (one JSON frame each; responses mirror the type):

``{"type": "submit", "client": id, "priority": 0-9, "task": {...}}``
    solve (or reuse) one :class:`~repro.service.protocol.Task`;
``{"type": "status"}``
    full observability snapshot: queue/quota/fairness state, circuit
    breaker, retry spend, cache tiers, restart verification counts;
``{"type": "ping"}`` / ``{"type": "shutdown"}``
    liveness / graceful drain (what ``SIGTERM`` triggers).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..runtime import faults
from .client import DaemonError
from .protocol import FrameError, Task, task_key
from .protocol import HEADER_BYTES, decode_frame, encode_frame, frame_length
from .scheduler import (
    DEFAULT_PRIORITY,
    FairScheduler,
    ServiceOverloaded,
    Submission,
)
from .supervisor import RetryPolicy, SupervisedResult, Supervisor
from .worker import lookup_verdict, store_verdict

__all__ = [
    "DaemonConfig",
    "DaemonError",
    "SolveDaemon",
    "serve",
    "warm_from_corpus",
    "read_frame_async",
    "write_frame_async",
]

PROTOCOL_VERSION = 1


# ----------------------------------------------------------------------
# Async framing (the codec of repro.service.protocol over asyncio streams)


async def read_frame_async(reader: asyncio.StreamReader) -> Optional[Dict]:
    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as e:
        if not e.partial:
            return None  # clean EOF
        raise FrameError("stream torn inside frame length prefix") from e
    try:
        return decode_frame(await reader.readexactly(frame_length(header)))
    except asyncio.IncompleteReadError as e:
        raise FrameError("stream torn inside frame payload") from e


async def write_frame_async(writer: asyncio.StreamWriter, obj: Any) -> None:
    writer.write(encode_frame(obj))
    await writer.drain()


# ----------------------------------------------------------------------
# Configuration


@dataclass
class DaemonConfig:
    """Tunables of one daemon instance (all enforced in code)."""

    socket_path: Optional[Path] = None
    jobs: int = 2
    isolation: str = "process"
    retries: int = 2
    queue_depth: int = 64
    client_rate: Optional[float] = None  # tokens/second per client
    client_burst: float = 8.0
    warm_corpus: Optional[Path] = None
    drain_grace_s: float = 60.0
    #: worker-loop poll interval; tests raise it to make admission
    #: races deterministic.
    poll_s: float = 0.02


# ----------------------------------------------------------------------
# Corpus warm start


def warm_from_corpus(
    rcache,
    corpus_dir: Path,
    log: Optional[Callable[[str], None]] = None,
    deadline_s: float = 10.0,
) -> Dict[str, int]:
    """Pre-solve the conformance corpus into the shared cache.

    Each ``race``/``equiv`` corpus entry is decided with the *bounded*
    engine at the entry's own scope — fast, and its clean verdicts are
    exactly-scope-complete, so the cache's reuse rules let any client
    running a bounded-capable plan at the same scope reuse them
    (counterexamples are reusable everywhere).  Entries that fail to
    parse, map, or decide are skipped and counted, never fatal.
    """
    from ..core.api import check_data_race, check_equivalence
    from ..core.transform import correspondence_by_key
    from ..lang.parser import parse_program

    say = log or (lambda _m: None)
    counts = {"warmed": 0, "already": 0, "skipped": 0}
    for path in sorted(Path(corpus_dir).glob("*.json")):
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            kind = entry.get("kind")
            if kind not in ("race", "equiv"):
                counts["skipped"] += 1
                continue
            name = entry.get("name", path.stem)
            p = parse_program(entry["source"], name=name)
            options = dict(
                engine="bounded",
                max_internal=int(entry.get("max_internal", 2)),
                bounded_deadline_s=deadline_s,
                replay=False,
                cache=rcache,
            )
            before = rcache.stats.hits
            if kind == "race":
                res = check_data_race(p, **options)
            else:
                q = parse_program(entry["source2"], name=f"{name}-2")
                overrides = {
                    k: set(v)
                    for k, v in (entry.get("correspondence") or {}).items()
                }
                mapping = correspondence_by_key(
                    p, q, overrides=overrides, strict=True
                )
                res = check_equivalence(p, q, mapping, **options)
            if rcache.stats.hits > before:
                counts["already"] += 1
            elif res.verdict != "unknown":
                counts["warmed"] += 1
            else:
                counts["skipped"] += 1
        except Exception as e:
            counts["skipped"] += 1
            say(f"warm-start: skipping {path.name}: {e}")
    say(
        f"warm-start: {counts['warmed']} warmed, {counts['already']} already "
        f"cached, {counts['skipped']} skipped"
    )
    return counts


# ----------------------------------------------------------------------
# The daemon


class SolveDaemon:
    """One persistent, multi-tenant, crash-safe solve service."""

    def __init__(
        self,
        run_dir: Path,
        config: Optional[DaemonConfig] = None,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        from ..engine import ResultCache

        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.config = config or DaemonConfig()
        self.say = log or (lambda _m: None)
        self.socket_path = Path(
            self.config.socket_path or self.run_dir / "daemon.sock"
        )
        self.cache = ResultCache(self.run_dir)
        self.scheduler = FairScheduler(
            max_depth=self.config.queue_depth,
            quota_rate=self.config.client_rate,
            quota_burst=self.config.client_burst,
            workers=self.config.jobs,
        )
        self.supervisor = Supervisor(
            policy=RetryPolicy(max_attempts=1 + max(0, self.config.retries)),
            isolation=self.config.isolation,
        )
        self._executor: Optional[ThreadPoolExecutor] = None
        #: key → futures of every request waiting on that key.
        self._waiters: Dict[str, List[asyncio.Future]] = {}
        #: key → queued submission (coalescing anchor before dispatch).
        self._queued: Dict[str, Submission] = {}
        self._running: set = set()
        self._stop: Optional[asyncio.Event] = None
        self._draining = False
        self._drain_aborted = False
        self._exit_code = 0
        self._lock_fp = None
        self.started_s = time.time()
        self.stats: Dict[str, Any] = {
            "completed": 0,
            "failed": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "verified_rows": 0,
            "verify_quarantined": 0,
        }

    # -- startup ---------------------------------------------------------

    def _acquire_lock(self) -> None:
        """One daemon per run directory, enforced with an exclusive
        flock (released by the kernel even on SIGKILL)."""
        import fcntl

        fp = open(self.run_dir / "daemon.lock", "w")
        try:
            fcntl.flock(fp, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as e:
            fp.close()
            raise DaemonError(
                f"another daemon already serves {self.run_dir} "
                f"(daemon.lock is held)"
            ) from e
        fp.write(f"{os.getpid()}\n")
        fp.flush()
        self._lock_fp = fp

    def _release_lock(self) -> None:
        # Closing the fd drops the flock; a successor in the SAME
        # process (tests restart daemons in-process) needs this — a
        # killed process releases through the kernel anyway.
        if self._lock_fp is not None:
            try:
                self._lock_fp.close()
            except OSError:  # pragma: no cover
                pass
            self._lock_fp = None

    def _verify_store(self) -> None:
        """Byte-verify every shared-cache row; corrupt rows are
        quarantined and will be recomputed."""
        verified, corrupt = self.cache.shared.verify_all()
        self.stats["verified_rows"] = verified
        self.stats["verify_quarantined"] = corrupt
        if verified or corrupt:
            self.say(
                f"cache: {verified} row(s) byte-verified, "
                f"{corrupt} quarantined"
            )

    # -- result fan-out --------------------------------------------------

    def _resolve_waiters(self, key: str, frame: Dict[str, Any]) -> None:
        """Answer every request waiting on ``key`` with ``frame``."""
        for fut in self._waiters.pop(key, []):
            if not fut.done():
                fut.set_result(frame)

    def _finish(self, sub: Submission, res: SupervisedResult) -> None:
        self.scheduler.task_done(sub.client, res.final.elapsed)
        reply = res.reply()
        if res.ok:
            store_verdict(
                self.cache, sub.task, sub.key, sub.query, reply["value"]
            )
            self.stats["completed"] += 1
        else:
            self.stats["failed"] += 1
        self._resolve_waiters(
            sub.key, {"type": "result", "cached": False, **reply}
        )

    # -- worker loops ----------------------------------------------------

    async def _worker_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            sub = self.scheduler.next_ready()
            if sub is None:
                if self._draining:
                    return
                await asyncio.sleep(self.config.poll_s)
                continue
            self._queued.pop(sub.key, None)
            self._running.add(sub.key)
            try:
                res = await loop.run_in_executor(
                    self._executor, self.supervisor.run_one, sub.task
                )
                self._finish(sub, res)
            except Exception as e:  # pragma: no cover - defensive
                self._resolve_waiters(
                    sub.key,
                    {
                        "type": "result",
                        "ok": False,
                        "key": sub.key,
                        "outcome_class": "error",
                        "detail": f"daemon internal error: {e}",
                    },
                )
                self.stats["failed"] += 1
            finally:
                self._running.discard(sub.key)

    # -- request handling ------------------------------------------------

    def status(self) -> Dict[str, Any]:
        return {
            "version": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.started_s, 3),
            "run_dir": str(self.run_dir),
            "socket": str(self.socket_path),
            "jobs": self.config.jobs,
            "isolation": self.config.isolation,
            "draining": self._draining,
            "in_flight": len(self._running),
            "queue": self.scheduler.stats(),
            **self.supervisor.health(),
            "cache": {
                "memory": self.cache.stats.as_dict(),
                "shared": self.cache.shared.stats(),
            },
            "store": {
                "verified_rows": self.stats["verified_rows"],
                "verify_quarantined": self.stats["verify_quarantined"],
            },
            "completed": self.stats["completed"],
            "failed": self.stats["failed"],
            "cache_hits": self.stats["cache_hits"],
            "coalesced": self.stats["coalesced"],
        }

    def _overloaded_frame(self, exc: ServiceOverloaded) -> Dict[str, Any]:
        return {"type": "error", **exc.to_dict()}

    async def _handle_submit(
        self, frame: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        client = str(frame.get("client") or "anon")
        wait = bool(frame.get("wait", True))
        try:
            priority = int(frame.get("priority", DEFAULT_PRIORITY))
            task = Task.from_dict(frame["task"])
            key = task_key(task)
        except (KeyError, TypeError, ValueError) as e:
            await write_frame_async(
                writer,
                {"type": "error", "error": "BadRequest", "detail": str(e)},
            )
            return
        if self._draining:
            await write_frame_async(
                writer,
                self._overloaded_frame(
                    ServiceOverloaded(
                        "shutting-down",
                        self.scheduler.retry_after_s(),
                        client=client,
                    )
                ),
            )
            return
        hit, query = lookup_verdict(self.cache, task, key)
        if hit is not None:
            self.stats["cache_hits"] += 1
            await write_frame_async(
                writer,
                {
                    "type": "result",
                    "ok": True,
                    "cached": True,
                    "key": key,
                    "value": hit,
                },
            )
            return
        loop = asyncio.get_running_loop()
        if key in self._queued or key in self._running:
            # Coalesce: identical work in flight — join its waiters
            # (consumes no queue slot and no quota token).
            self.stats["coalesced"] += 1
            fut: asyncio.Future = loop.create_future()
            self._waiters.setdefault(key, []).append(fut)
        else:
            try:
                sub, shed = self.scheduler.submit(
                    client, task, priority=priority, key=key
                )
            except ServiceOverloaded as e:
                await write_frame_async(writer, self._overloaded_frame(e))
                return
            sub.query = query
            self._queued[key] = sub
            for victim in shed:
                self._queued.pop(victim.key, None)
                self._resolve_waiters(
                    victim.key,
                    self._overloaded_frame(ServiceOverloaded(
                        "shed",
                        self.scheduler.retry_after_s(),
                        client=victim.client,
                    )),
                )
            fut = loop.create_future()
            self._waiters.setdefault(key, []).append(fut)
        if not wait:
            await write_frame_async(
                writer, {"type": "accepted", "key": key}
            )
            return
        await write_frame_async(writer, await fut)

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                frame = await read_frame_async(reader)
                if frame is None:
                    break
                rtype = frame.get("type")
                if rtype == "ping":
                    await write_frame_async(
                        writer,
                        {"type": "pong", "version": PROTOCOL_VERSION,
                         "pid": os.getpid()},
                    )
                elif rtype == "status":
                    await write_frame_async(
                        writer, {"type": "status", "status": self.status()}
                    )
                elif rtype == "shutdown":
                    await write_frame_async(writer, {"type": "ok"})
                    self.begin_shutdown(0)
                elif rtype == "submit":
                    await self._handle_submit(frame, writer)
                else:
                    await write_frame_async(
                        writer,
                        {"type": "error", "error": "BadRequest",
                         "detail": f"unknown request type {rtype!r}"},
                    )
        except (FrameError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # -- lifecycle -------------------------------------------------------

    def begin_shutdown(self, exit_code: int = 0) -> None:
        self._exit_code = exit_code
        if self._stop is not None and not self._stop.is_set():
            self._stop.set()

    async def run(self) -> int:
        """Serve until a drain is requested; returns the exit code
        (0 clean drain, 130 SIGINT, 1 aborted drain)."""
        self._acquire_lock()
        try:
            return await self._run_locked()
        finally:
            self._release_lock()

    async def _run_locked(self) -> int:
        self._verify_store()
        if self.config.warm_corpus is not None:
            warm_from_corpus(
                self.cache, self.config.warm_corpus, log=self.say
            )
        self._stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig, code in ((signal.SIGTERM, 0), (signal.SIGINT, 130)):
            try:
                loop.add_signal_handler(sig, self.begin_shutdown, code)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # not the main thread (in-process tests)
        self._executor = ThreadPoolExecutor(max_workers=self.config.jobs)
        if self.socket_path.exists():
            # The flock proves no live daemon owns it: a stale socket
            # from a SIGKILLed predecessor.
            self.socket_path.unlink()
        try:
            server = await asyncio.start_unix_server(
                self._handle_conn, path=str(self.socket_path)
            )
        except OSError as e:
            raise DaemonError(
                f"cannot bind {self.socket_path}: {e}"
            ) from e
        workers = [
            asyncio.create_task(self._worker_loop())
            for _ in range(self.config.jobs)
        ]
        self.say(
            f"daemon pid {os.getpid()} listening on {self.socket_path} "
            f"(jobs={self.config.jobs}, isolation={self.config.isolation}, "
            f"queue-depth={self.config.queue_depth})"
        )
        await self._stop.wait()

        # -- graceful drain: stop admitting, finish everything admitted.
        self._draining = True
        server.close()
        await server.wait_closed()
        exit_code = self._exit_code
        deadline = time.monotonic() + self.config.drain_grace_s
        try:
            while (
                self.scheduler.depth() or self._running
            ) and time.monotonic() < deadline:
                if faults.ARMED:
                    faults.fire("drain-interrupt")
                await asyncio.sleep(self.config.poll_s)
        except faults.InjectedFault:
            self._drain_aborted = True
            exit_code = 1
            self.say("drain interrupted by injected fault; aborting")
            self.supervisor.kill_live_workers()
        for w in workers:
            w.cancel()
        await asyncio.gather(*workers, return_exceptions=True)
        # Fail any request still waiting (aborted drain / grace expiry).
        for key in list(self._waiters):
            self._resolve_waiters(
                key,
                self._overloaded_frame(ServiceOverloaded(
                    "shutting-down", self.scheduler.retry_after_s()
                )),
            )
        await asyncio.sleep(min(0.2, self.config.poll_s * 2))
        self._executor.shutdown(wait=not self._drain_aborted)
        self.cache.shared.close()
        try:
            self.socket_path.unlink()
        except OSError:  # pragma: no cover
            pass
        self.say(
            f"daemon drained: {self.stats['completed']} completed, "
            f"{self.stats['cache_hits']} cache hit(s); exit {exit_code}"
        )
        return exit_code


def serve(
    run_dir: Path,
    config: Optional[DaemonConfig] = None,
    log: Optional[Callable[[str], None]] = None,
) -> int:
    """Blocking entry point behind ``repro serve``."""
    faults.install_from_env()
    daemon = SolveDaemon(run_dir, config=config, log=log)
    return asyncio.run(daemon.run())
