"""One solve per sandboxed child process, forked from a warm zygote.

The **child** is forked, one per task, from a zygote (:func:`zygote_main`)
that imported the solver once.  It takes the task's environment,
applies hard OS limits to itself (``RLIMIT_CPU``, ``RLIMIT_AS``, no core
dumps), runs the task's solve, and writes phase heartbeats plus one
result frame to its pipe.  Cooperative failures — the PR 2 taxonomy,
``MemoryError`` from the address-space rlimit, ``SIGXCPU`` from the CPU
rlimit (converted to a :class:`~repro.runtime.DeadlineExceeded` by a
signal handler) — still produce a structured ``result`` frame.  Only a
*non-cooperative* death (SIGSEGV, SIGKILL, ``os._exit``) leaves the
stream without one.

The **parent** (:func:`run_task`) has the child forked, enforces the
wall-clock limit with SIGKILL, and classifies what it read back into a
:class:`WorkerOutcome`: ``ok`` (a verdict), ``failed`` (structured
error), ``timeout`` (parent killed it), or ``crashed`` (died without a
result frame — the outcome records the signal, last heartbeat phase and
RSS so a crash report can say where the solver was).

A test-only crash hook rides on :mod:`repro.runtime.faults`:
``REPRO_FAULT=worker-abort`` makes the child die by SIGSEGV mid-solve
whenever the task would run the symbolic engine — the non-cooperative
analogue of the PR 2 probes.  Setting ``REPRO_FAULT_ONCE=<path>``
additionally makes the crash one-shot across process boundaries (the
child touches the sentinel file before dying), which is how the retry
and resume tests model a transient crash.  ``REPRO_FAULT=worker-spin``
makes the child spin on CPU in phase ``solve`` until something kills it.
"""

from __future__ import annotations

import atexit
import os
import select
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import suppress
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from .protocol import (
    HEADER_BYTES,
    FrameError,
    Task,
    WorkerLimits,
    decode_frame,
    encode_frame,
    frame_length,
    jsonable,
    read_frame,
    write_frame,
)

__all__ = [
    "WorkerOutcome",
    "run_task",
    "execute_payload",
    "start_zygote",
    "shutdown_zygotes",
    "decode_task",
    "lookup_verdict",
    "store_verdict",
    "task_for_race",
    "task_for_fusion",
    "task_for_case",
    "run_case_isolated",
]

#: Seconds between heartbeat frames from the child.
HEARTBEAT_PERIOD_S = 0.25

#: Grace period for a child to exit after its result frame (or a kill).
_REAP_GRACE_S = 5.0

#: True only inside a worker child process; the crash hook and rlimit
#: plumbing are inert everywhere else (in particular under the
#: supervisor's inline mode, which runs runners in the parent).
_IN_CHILD = False

_EMITTER: Optional["_Emitter"] = None


# ----------------------------------------------------------------------
# Outcomes


@dataclass
class WorkerOutcome:
    """What one child-process attempt produced.

    ``status`` is the protocol-level result (``ok``/``failed``/
    ``timeout``/``crashed``); :attr:`outcome_class` maps it onto the
    supervisor's retry classes (``ok``/``error``/``resource``/
    ``crashed``), folding structured resource failures and wall-clock
    kills into ``resource`` per the PR 2 taxonomy.
    """

    status: str  # "ok" | "failed" | "timeout" | "crashed"
    value: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    signal: Optional[int] = None
    returncode: Optional[int] = None
    phase: Optional[str] = None
    rss_kb: Optional[int] = None
    elapsed: float = 0.0
    stderr_tail: str = ""

    @property
    def outcome_class(self) -> str:
        if self.status == "ok":
            return "ok"
        if self.status == "timeout":
            return "resource"
        if self.status == "failed":
            return "resource" if (self.error or {}).get("resource") else "error"
        return "crashed"

    def describe(self) -> str:
        if self.status == "ok":
            return "ok"
        if self.status == "timeout":
            return (
                f"wall-clock limit exceeded (killed in phase "
                f"{self.phase or 'startup'})"
            )
        if self.status == "failed":
            err = self.error or {}
            return f"{err.get('type', 'error')}: {err.get('message', '')}"
        how = (
            f"signal {self.signal} ({signal.Signals(self.signal).name})"
            if self.signal is not None and self.signal in signal.Signals._value2member_map_
            else f"signal {self.signal}"
            if self.signal is not None
            else f"exit code {self.returncode} without a result"
        )
        return f"worker crashed: {how} in phase {self.phase or 'startup'}"


# ----------------------------------------------------------------------
# Child side


# The functions below run only inside the worker child; coverage is
# measured in the parent, so they are excluded from the ratchet.


def _apply_rlimits(limits: WorkerLimits) -> None:  # pragma: no cover - child only
    import resource as res

    res.setrlimit(res.RLIMIT_CORE, (0, 0))
    if limits.cpu_s is not None:
        soft = max(1, int(limits.cpu_s + 0.999))
        res.setrlimit(res.RLIMIT_CPU, (soft, soft + 1))
    if limits.mem_bytes is not None:
        res.setrlimit(res.RLIMIT_AS, (limits.mem_bytes, limits.mem_bytes))


def _rss_kb() -> int:  # pragma: no cover - child only
    import resource as res

    return int(res.getrusage(res.RUSAGE_SELF).ru_maxrss)


class _Emitter:  # pragma: no cover - child only
    """Serializes child→parent frames across the solve and heartbeat
    threads; after the result frame nothing else is written."""

    def __init__(self, fp) -> None:
        self._fp = fp
        self._lock = threading.Lock()
        self.phase = "start"
        self.done = False

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self.emit_phase()

    def emit_phase(self) -> None:
        with self._lock:
            if self.done:
                return
            write_frame(
                self._fp,
                {"type": "phase", "phase": self.phase, "rss_kb": _rss_kb()},
            )

    def result(self, body: Dict[str, Any]) -> None:
        with self._lock:
            self.done = True
            write_frame(self._fp, {"type": "result", **body})


def _heartbeat_loop(emitter: _Emitter) -> None:  # pragma: no cover - child only
    while not emitter.done:
        time.sleep(HEARTBEAT_PERIOD_S)
        try:
            emitter.emit_phase()
        except (BrokenPipeError, OSError):
            os._exit(1)  # parent is gone; nothing left to report to


def _on_xcpu(signum, frame) -> None:  # pragma: no cover - child only
    from ..runtime import DeadlineExceeded

    phase = _EMITTER.phase if _EMITTER is not None else None
    raise DeadlineExceeded(
        "CPU rlimit exhausted", phase=phase, counters={"signal": "SIGXCPU"}
    )


def _task_is_symbolic(task: Task) -> bool:
    """Whether ``task`` would run the MSO procedure — what both the
    crash hook and the supervisor's circuit breaker key on."""
    if task.kind in ("check-race", "check-fusion"):
        from ..engine.plan import plan_for

        spec = (task.payload.get("options") or {}).get("engine", "auto")
        try:
            return plan_for(spec).symbolic
        except ValueError:
            return True  # unknown spec: assume the worst for the breaker
    if task.kind == "fuzz-case":
        oracle = task.payload.get("oracle") or {}
        return bool(oracle.get("run_symbolic", True))
    return False


def _maybe_worker_fault(task: Task) -> None:
    """Test-only hooks of a child entering ``solve``: ``worker-spin``
    spins on CPU until something kills the child; ``worker-abort`` dies
    by SIGSEGV, only when :func:`_task_is_symbolic` says the task would
    run the symbolic engine (the hook models a non-cooperative symbolic
    blow-up, and this is what lets the circuit breaker's bounded-only
    degradation actually recover), and — when ``REPRO_FAULT_ONCE`` names
    a sentinel path — exactly once *pool-wide*: the sentinel is claimed
    with an atomic ``O_CREAT | O_EXCL`` create, so concurrent children
    that all raced past the fast-path existence check still elect a
    single crasher (under the daemon's pool several workers start at
    once; a check-then-touch sentinel would let every one of them die).
    """
    from ..runtime import faults

    if not (_IN_CHILD and faults.ARMED):
        return
    try:
        faults.fire("worker-spin")
    except faults.InjectedFault:
        while True:
            pass
    if not _task_is_symbolic(task):
        return
    once = os.environ.get("REPRO_FAULT_ONCE")
    if once and os.path.exists(once):
        return
    try:
        faults.fire("worker-abort")
    except faults.InjectedFault:
        if once:
            try:
                os.close(os.open(once, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                return  # another child already claimed the crash
        os.kill(os.getpid(), signal.SIGSEGV)
        os._exit(139)  # fallback if SIGSEGV is somehow blocked


def _error_dict(e: BaseException) -> Dict[str, Any]:
    from ..runtime import ResourceExhausted

    return {
        "type": type(e).__name__,
        "message": str(e),
        "phase": getattr(e, "phase", None),
        "resource": isinstance(e, (ResourceExhausted, MemoryError)),
    }


# ----------------------------------------------------------------------
# Task runners (shared by the child and the supervisor's inline mode)


#: Task options besides the solver limits, every field of
#: :class:`repro.engine.Limits`, which a task may also carry.
_RACE_OPTIONS = ("engine", "max_internal", "replay")
_FUSION_OPTIONS = _RACE_OPTIONS + ("check_bisim",)


def _options(payload: Dict[str, Any], allowed) -> Tuple[Dict[str, Any], Any]:
    """The task's options (``allowed`` plus the limit names) and the
    :class:`~repro.engine.Limits` they set; raises ``ValueError`` on an
    unknown option or an invalid limit."""
    from ..engine import Limits

    names = tuple(f.name for f in fields(Limits))
    allowed = allowed + names
    opts = payload.get("options") or {}
    unknown = sorted(set(opts) - set(allowed))
    if unknown:
        raise ValueError(f"unknown task options {unknown}")
    options = {k: opts[k] for k in allowed if k in opts}
    return options, Limits(**{k: options[k] for k in names if k in options})


def _run_check(kind: str, payload: Dict[str, Any], set_phase) -> Dict[str, Any]:
    from ..core import api

    task = Task(kind=kind, payload=payload)
    set_phase("parse")
    query, options = decode_task(task)
    set_phase("solve")
    _maybe_worker_fault(task)
    if query.kind == "race":
        res = api.check_data_race(query.program, **options)
    else:
        res = api.check_equivalence(
            query.program, query.program2, query.mapping, **options
        )
    return api.verification_to_dict(res)


def _run_fuzz_case(payload: Dict[str, Any], set_phase) -> Dict[str, Any]:
    from ..conformance.oracle import Case, OracleConfig, run_case

    set_phase("parse")
    case = Case(**payload["case"])
    cfg_data = dict(payload.get("oracle") or {})
    if "field_seeds" in cfg_data:
        cfg_data["field_seeds"] = tuple(cfg_data["field_seeds"])
    if cfg_data.get("fault") is not None:
        cfg_data["fault"] = tuple(cfg_data["fault"])
    cfg = OracleConfig(**cfg_data)
    set_phase("solve")
    _maybe_worker_fault(Task(kind="fuzz-case", payload=payload))
    result = run_case(case, cfg)
    return {
        "mismatches": [
            {"kind": m.kind, "detail": m.detail} for m in result.mismatches
        ],
        "warnings": list(result.warnings),
        "engines": jsonable(result.engines),
        "elapsed": result.elapsed,
    }


_RUNNERS: Dict[str, Callable[[Dict[str, Any], Callable], Dict[str, Any]]] = {
    "check-race": partial(_run_check, "check-race"),
    "check-fusion": partial(_run_check, "check-fusion"),
    "fuzz-case": _run_fuzz_case,
}


def execute_payload(
    kind: str,
    payload: Dict[str, Any],
    set_phase: Callable[[str], None] = lambda _p: None,
) -> Dict[str, Any]:
    """Run one task's solve in the current process; returns the
    JSON-plain result value.  This is the child's core, and also what
    the supervisor's inline (non-isolated) mode calls directly."""
    runner = _RUNNERS.get(kind)
    if runner is None:
        raise ValueError(
            f"unknown task kind {kind!r}; known: {sorted(_RUNNERS)}"
        )
    return runner(payload, set_phase)


def _child_main(  # pragma: no cover - child only
    request: Dict[str, Any], frame_fd: int, stderr_fd: int
) -> int:
    """One forked child: the task's environment and limits, then
    heartbeats and one result frame on ``frame_fd``."""
    global _IN_CHILD, _EMITTER
    _IN_CHILD = True
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # Keep the framing fd private: stray prints from engine code (or C
    # extensions writing to fd 1) go to the stderr tail instead.
    os.dup2(stderr_fd, 1)
    os.dup2(stderr_fd, 2)
    os.close(stderr_fd)
    sys.stdout = sys.stderr
    with suppress(OSError):
        os.chdir(request["cwd"])
    os.environ.clear()
    os.environ.update(request["env"])
    task = Task.from_dict(request["task"])
    _apply_rlimits(task.limits)
    signal.signal(signal.SIGXCPU, _on_xcpu)

    from ..runtime import faults

    faults.install_from_env()

    emitter = _Emitter(os.fdopen(frame_fd, "wb"))
    _EMITTER = emitter
    emitter.emit_phase()
    threading.Thread(
        target=_heartbeat_loop, args=(emitter,), daemon=True).start()
    try:
        value = execute_payload(task.kind, task.payload, emitter.set_phase)
        emitter.result({"ok": True, "value": value})
    except Exception as e:  # structured failure is a protocol success
        try:
            emitter.result({"ok": False, "error": _error_dict(e)})
        except (BrokenPipeError, OSError):
            return 1
    return 0


def zygote_main(ctl_fd: int) -> int:  # pragma: no cover - subprocess
    """Fork a child per request on socket ``ctl_fd``; at EOF (the owner
    closed it, or died) SIGKILL and reap live children, and exit.  Each
    request's status pipe gets the child's pid, then its exit code
    (``-signum`` for a signal) once ``SIGCHLD`` has it reaped."""
    from ..conformance import oracle  # noqa: F401 - what children run
    from ..core import api  # noqa: F401

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the owner's ^C is its own
    ctl = socket.socket(fileno=ctl_fd)
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda _s, _f: None)
    live: Dict[int, int] = {}  # child pid -> status pipe

    def reap(flags: int) -> None:
        while live:
            pid, status = os.waitpid(-1, flags)
            if pid == 0:
                return
            with suppress(OSError):
                os.write(live[pid], b"%d\n" % os.waitstatus_to_exitcode(status))
            os.close(live.pop(pid))

    while True:
        if wake_r in select.select([ctl, wake_r], [], [])[0]:
            os.read(wake_r, 512)
            reap(os.WNOHANG)
            continue
        # Reading exact lengths keeps each request's fds on its prefix.
        head, fds, *_ = socket.recv_fds(ctl, HEADER_BYTES, 3, socket.MSG_WAITALL)
        if len(head) < HEADER_BYTES:
            break
        body, n = b"", frame_length(head)
        while len(body) < n and (chunk := ctl.recv(n - len(body))):
            body += chunk  # a signal can cut one read short
        request = decode_frame(body)
        frame_w, status_w, stderr_fd = fds
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                ctl.close()
                for fd in (status_w, *live.values()):
                    os.close(fd)
                code = _child_main(request, frame_w, stderr_fd)
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(frame_w)
        os.close(stderr_fd)
        live[pid] = status_w
        with suppress(OSError):
            os.write(status_w, b"%d\n" % pid)
    for pid in live:
        os.kill(pid, signal.SIGKILL)
    reap(0)
    return 0


# ----------------------------------------------------------------------
# Parent side


class _WallTimeout(Exception):
    pass


class _DeadlineReader:
    """File-like reader over a pipe fd that honours a wall deadline."""

    def __init__(self, fd: int, deadline: Optional[float]) -> None:
        self._fd = fd
        self._deadline = deadline

    def read(self, n: int) -> bytes:
        buf = b""
        while len(buf) < n:
            timeout = None
            if self._deadline is not None:
                timeout = self._deadline - time.monotonic()
                if timeout <= 0:
                    raise _WallTimeout
            ready, _, _ = select.select([self._fd], [], [], timeout)
            if not ready:
                raise _WallTimeout
            chunk = os.read(self._fd, n - len(buf))
            if not chunk:
                return buf  # EOF; read_frame classifies a torn frame
            buf += chunk
        return buf


def _child_env(env: Optional[Dict[str, str]]) -> Dict[str, str]:
    out = dict(os.environ if env is None else env)
    pkg_root = str(Path(__file__).resolve().parents[2])
    parts = out.get("PYTHONPATH", "")
    if pkg_root not in parts.split(os.pathsep):
        out["PYTHONPATH"] = (
            pkg_root + (os.pathsep + parts if parts else "")
        )
    return out


class _Zygote:
    """The owner's end of one zygote: its process and control socket."""

    def __init__(self, env: Dict[str, str]) -> None:
        self.ctl, theirs = socket.socketpair()
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, "-c",
                 "import sys; from repro.service.worker import zygote_main;"
                 " sys.exit(zygote_main(int(sys.argv[1])))",
                 str(theirs.fileno())],
                pass_fds=(theirs.fileno(),),
                env={k: v for k, v in env.items()
                     if not k.startswith("REPRO_FAULT")},
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
            )

    def close(self) -> None:
        self.ctl.close()  # EOF: the zygote kills its children and exits
        self.proc.wait()


#: This process's zygotes by start-up variables (``PYTHON*``): a task
#: never runs in a zygote started with another ``PYTHONPATH``.
_ZYGOTES: Dict[Tuple, _Zygote] = {}
_ZYGOTES_LOCK = threading.Lock()  # also keeps one request on the wire


def shutdown_zygotes() -> None:
    """Stop this process's zygotes (and so their children) and wait."""
    with _ZYGOTES_LOCK:
        zygotes = list(_ZYGOTES.values())
        _ZYGOTES.clear()
    for zygote in zygotes:
        zygote.close()


atexit.register(shutdown_zygotes)


def _zygote_key(env: Dict[str, str]) -> Tuple:
    return tuple(sorted(i for i in env.items() if i[0].startswith("PYTHON")))


def _live_zygote(key: Tuple, env: Dict[str, str]) -> _Zygote:
    """The zygote for ``key``, started if there is none or it died;
    the caller holds ``_ZYGOTES_LOCK``."""
    zygote = _ZYGOTES.get(key)
    if zygote is None or zygote.proc.poll() is not None:
        zygote = _ZYGOTES[key] = _Zygote(env)
    return zygote


def start_zygote(env: Optional[Dict[str, str]] = None) -> None:
    """Start the zygote that tasks run with ``env`` (default: this
    process's environment) will use, without waiting for its imports,
    so a long-lived owner's first task does not pay for them."""
    env = _child_env(env)
    with _ZYGOTES_LOCK:
        _live_zygote(_zygote_key(env), env)


def _spawn(env: Dict[str, str], request: bytes, fds) -> None:
    """Send ``request`` with ``fds`` to the zygote for ``env``, starting
    it on first use and once more if it has died."""
    key = _zygote_key(env)
    with _ZYGOTES_LOCK:
        for _ in range(2):
            zygote = _live_zygote(key, env)
            try:
                sent = socket.send_fds(zygote.ctl, [request], fds)
                zygote.ctl.sendall(request[sent:])
                return
            except OSError:
                del _ZYGOTES[key]
                zygote.close()


@dataclass
class _Child:
    """``on_spawn``'s handle: kills by pid until the status is read."""

    pid: int
    reaped: bool = False

    def kill(self) -> None:
        if not self.reaped:
            with suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)


def run_task(
    task: Task,
    env: Optional[Dict[str, str]] = None,
    on_spawn: Optional[Callable[[_Child], None]] = None,
) -> WorkerOutcome:
    """Run one task in a fresh sandboxed child; never raises for child
    failure — every way the child can die maps to a :class:`WorkerOutcome`.
    ``env`` is the child's environment (default: this process's)."""
    t0 = time.monotonic()
    deadline = (
        t0 + task.limits.wall_s if task.limits.wall_s is not None else None
    )
    env = _child_env(env)
    request = encode_frame(
        {"task": task.to_dict(), "env": env, "cwd": os.getcwd()}
    )
    stderr_file = tempfile.TemporaryFile()
    frame_r, frame_w = os.pipe()
    status_r, status_w = os.pipe()
    try:
        _spawn(env, request, (frame_w, status_w, stderr_file.fileno()))
    finally:
        os.close(frame_w)
        os.close(status_w)
    status = os.fdopen(status_r, "rb", buffering=0)
    phase: Optional[str] = None
    rss_kb: Optional[int] = None
    result_frame: Optional[Dict[str, Any]] = None
    returncode: Optional[int] = None
    timed_out = False
    torn = False
    try:
        pid = status.readline()  # empty if the zygote died first
        child = _Child(int(pid)) if pid else None
        if child is not None and on_spawn is not None:
            on_spawn(child)
        reader = _DeadlineReader(frame_r, deadline)
        while child is not None:
            try:
                frame = read_frame(reader)
            except _WallTimeout:
                child.kill()
                timed_out = True
                break
            except FrameError:
                torn = True
                break
            if frame is None:
                break
            if frame.get("type") == "phase":
                phase = frame.get("phase", phase)
                rss_kb = frame.get("rss_kb", rss_kb)
            elif frame.get("type") == "result":
                result_frame = frame
                break
        if child is not None:
            if not select.select([status], [], [], _REAP_GRACE_S)[0]:
                child.kill()
            code = status.readline()
            child.reaped = True
            returncode = int(code) if code else None
    finally:
        os.close(frame_r)
        status.close()
    stderr_file.seek(0)
    stderr_tail = stderr_file.read()[-2048:].decode("utf-8", "replace")
    stderr_file.close()
    elapsed = time.monotonic() - t0
    sig = -returncode if returncode is not None and returncode < 0 else None

    seen = dict(phase=phase, rss_kb=rss_kb, elapsed=elapsed,
                stderr_tail=stderr_tail)
    if result_frame is not None:
        if result_frame.get("ok"):
            return WorkerOutcome(status="ok", value=result_frame.get("value"),
                                 returncode=returncode, **seen)
        return WorkerOutcome(status="failed",
                             error=result_frame.get("error") or {},
                             returncode=returncode, **seen)
    if timed_out:
        return WorkerOutcome(status="timeout", signal=signal.SIGKILL,
                             returncode=returncode, **seen)
    # EOF (or a torn frame) without a result: a non-cooperative death.
    return WorkerOutcome(
        status="crashed",
        signal=sig,
        returncode=returncode if sig is None else None,
        error={"torn_frame": True} if torn else None,
        **seen,
    )


# ----------------------------------------------------------------------
# Task decoding (shared by the runners, the batch layer and the daemon)


def decode_task(task: Task) -> Tuple[Any, Dict[str, Any]]:
    """The :class:`~repro.engine.query.RaceQuery` /
    :class:`~repro.engine.query.EquivalenceQuery` behind a ``check-*``
    task, plus its solve options (the keyword arguments of
    ``check_data_race`` / ``check_equivalence``, the limits included).

    Parses the program(s), resolves ``mapping``/``map_overrides`` and
    builds the query with the task's limits; raises on a malformed task
    (unknown options and invalid limits included).
    """
    from ..engine import EquivalenceQuery, RaceQuery
    from ..lang.parser import parse_program

    payload = task.payload
    entry = payload.get("entry", "Main")
    if task.kind == "check-race":
        program = parse_program(
            payload["source"], name=payload.get("name", "program"),
            entry=entry,
        )
        options, limits = _options(payload, _RACE_OPTIONS)
        return RaceQuery(
            program=program, scope=options.get("max_internal", 4),
            limits=limits,
        ), options
    if task.kind != "check-fusion":
        raise ValueError(f"task kind {task.kind!r} has no query")
    from ..core.transform import correspondence_by_key

    p = parse_program(
        payload["source"], name=payload.get("name", "original"), entry=entry
    )
    q = parse_program(
        payload["source2"], name=payload.get("name2", "fused"), entry=entry
    )
    if payload.get("mapping") is not None:
        mapping = {k: set(v) for k, v in payload["mapping"].items()}
    else:
        overrides = {
            k: set(v) for k, v in (payload.get("map_overrides") or {}).items()
        }
        mapping = correspondence_by_key(p, q, overrides=overrides, strict=True)
    options, limits = _options(payload, _FUSION_OPTIONS)
    return EquivalenceQuery(
        program=p, program2=q, mapping=mapping,
        scope=options.get("max_internal", 4), limits=limits,
    ), options


def lookup_verdict(cache, task: Task, key: str) -> Tuple[Optional[Dict], Any]:
    """``(cached result or None, query)`` for ``task`` (task key ``key``)
    in ``cache``, a :class:`~repro.engine.cache.ResultCache`; pass the
    query on to :func:`store_verdict` so the task is decoded once.

    A ``check-*`` task is looked up by its decoded query under the reuse
    policy of its plan; a fuzz case raw by its task key (its query is
    ``None``).  A ``check-*`` task that fails to decode is a miss with no
    query: a worker reports the real error -- the cache never turns a
    malformed task into a crash.
    """
    if task.kind not in ("check-race", "check-fusion"):
        return cache.task_result(key), None
    from ..engine import plan_for

    try:
        query, options = decode_task(task)
        plan = plan_for(options.get("engine", "auto"))
    except Exception:
        return None, None
    record = cache.lookup(
        query, plan, allow_bisim=bool(options.get("check_bisim", True))
    )
    return (None if record is None else record["result"]), query


def store_verdict(
    cache, task: Task, key: str, query, value: Dict[str, Any]
) -> Optional[str]:
    """Store a finished task's result where :func:`lookup_verdict` finds
    it; returns the row key, or ``None`` when nothing was stored (an
    ``unknown`` verdict, which must always be recomputed, or a task that
    did not decode)."""
    if task.kind not in ("check-race", "check-fusion"):
        cache.store_task(key, task.kind, value)
        return key
    if query is None:
        return None
    return query.key() if cache.store(query, value) else None


# ----------------------------------------------------------------------
# Task builders + high-level isolated entry points


def task_for_race(
    source: str,
    entry: str = "Main",
    options: Optional[Dict[str, Any]] = None,
    limits: Optional[WorkerLimits] = None,
    name: str = "program",
) -> Task:
    return Task(
        kind="check-race",
        payload={
            "source": source,
            "entry": entry,
            "name": name,
            "options": dict(options or {}),
        },
        name=name,
        limits=limits or WorkerLimits(),
    )


def task_for_fusion(
    source: str,
    source2: str,
    entry: str = "Main",
    options: Optional[Dict[str, Any]] = None,
    mapping: Optional[Dict[str, List[str]]] = None,
    map_overrides: Optional[Dict[str, List[str]]] = None,
    limits: Optional[WorkerLimits] = None,
    name: str = "original",
    name2: str = "fused",
) -> Task:
    payload: Dict[str, Any] = {
        "source": source,
        "source2": source2,
        "entry": entry,
        "name": name,
        "name2": name2,
        "options": dict(options or {}),
    }
    if mapping is not None:
        payload["mapping"] = {k: sorted(v) for k, v in mapping.items()}
    if map_overrides is not None:
        payload["map_overrides"] = {
            k: sorted(v) for k, v in map_overrides.items()
        }
    return Task(
        kind="check-fusion",
        payload=payload,
        name=f"{name}-vs-{name2}",
        limits=limits or WorkerLimits(),
    )


def task_for_case(
    case, cfg=None, limits: Optional[WorkerLimits] = None
) -> Task:
    from dataclasses import asdict

    from ..conformance.oracle import OracleConfig

    cfg = cfg or OracleConfig()
    cfg_data = asdict(cfg)
    cfg_data["field_seeds"] = list(cfg.field_seeds)
    if cfg.fault is not None:
        cfg_data["fault"] = list(cfg.fault)
    return Task(
        kind="fuzz-case",
        payload={"case": asdict(case), "oracle": cfg_data},
        name=case.name,
        limits=limits or WorkerLimits(),
    )


def run_case_isolated(
    case,
    cfg=None,
    limits: Optional[WorkerLimits] = None,
    policy=None,
    supervisor=None,
):
    """Run one conformance case in a sandboxed worker.

    A worker that dies — crash, rlimit exhaustion, wall-clock kill —
    becomes an ``engine-error`` mismatch on the returned
    :class:`~repro.conformance.oracle.CaseResult` instead of aborting
    the fuzz loop: from the oracle's viewpoint, an engine that cannot
    answer inside its sandbox *is* a broken engine.
    """
    from ..conformance.oracle import CaseResult, Mismatch
    from .supervisor import Supervisor

    sup = supervisor or Supervisor(policy=policy)
    reply = sup.run_one(task_for_case(case, cfg, limits)).reply()
    result = CaseResult(case=case)
    result.engines["worker_attempts"] = reply["attempts"]
    result.elapsed = sum(a["elapsed"] for a in reply["attempts"])
    if reply["ok"]:
        value = reply["value"]
        result.mismatches = [
            Mismatch(kind=m["kind"], detail=m["detail"])
            for m in value.get("mismatches", ())
        ]
        result.warnings = list(value.get("warnings", ()))
        result.engines.update(value.get("engines") or {})
        return result
    result.engines["worker"] = {
        "outcome_class": reply["outcome_class"], **reply["worker"]
    }
    result.mismatches.append(
        Mismatch(kind="engine-error", detail=f"isolated {reply['detail']}")
    )
    return result

