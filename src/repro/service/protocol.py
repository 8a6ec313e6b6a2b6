"""Worker wire protocol and the serializable task model.

Parent and child speak *length-prefixed JSON frames* over pipes: a
4-byte big-endian payload length followed by that many bytes of UTF-8
JSON.  The framing makes a dying child unambiguous — a parent either
reads a complete frame or knows the stream was torn mid-message — which
is what turns a SIGSEGV in the solver into a structured
``WorkerCrashed`` result instead of a parse guess.

Frames from child to parent:

``{"type": "phase", "phase": "solve", "rss_kb": 31200}``
    heartbeat: the phase the child is in and its max RSS so far;
    emitted at every phase transition and periodically from a
    heartbeat thread, so a crash report can say *where* the child died;
``{"type": "result", "ok": true, "value": {...}}``
    the solve completed and ``value`` is its JSON rendering;
``{"type": "result", "ok": false, "error": {...}}``
    the solve failed *cooperatively* — ``error`` carries the PR 2
    taxonomy type name, message, phase, and whether it is a resource
    class failure.

The one parent-to-child frame, sent via the zygote, carries the :class:`Task`.

Task identity is a *content hash* (:func:`task_key`): the SHA-256 of
the canonical JSON of ``(kind, payload)``, in the spirit of the
compiler's shape-keyed formula memo.  Execution limits are
deliberately excluded — re-running a batch with a bigger sandbox must
still reuse every verdict that already succeeded.

A task's ``limits`` are :class:`WorkerLimits`, the OS limits of its
worker child; the solver limits (:class:`repro.engine.Limits`) ride in
the payload's ``options``.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from ..engine.keys import canonical_json, content_key
from ..engine.query import check_limits, limit_field

__all__ = [
    "FrameError",
    "WorkerLimits",
    "Task",
    "task_key",
    "canonical_json",
    "payload_digest",
    "write_frame",
    "read_frame",
    "encode_frame",
    "frame_length",
    "decode_frame",
    "jsonable",
]

#: Refuse frames larger than this (a corrupted length prefix would
#: otherwise make the reader try to allocate gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


def payload_digest(payload: Any) -> str:
    """SHA-256 of ``payload``'s canonical JSON: the per-row checksum of
    the sqlite store and the batch manifest's fingerprint."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class FrameError(RuntimeError):
    """A malformed frame (bad length prefix or torn payload)."""


@dataclass(frozen=True)
class WorkerLimits:
    """Hard OS limits applied to one worker child.

    ``wall_s`` is enforced by the *parent* (SIGKILL past the deadline);
    ``cpu_s`` and ``mem_bytes`` become ``RLIMIT_CPU`` / ``RLIMIT_AS``
    inside the child, so even a solver stuck in C code cannot outrun
    them.  Each is a positive number (an integer for ``mem_bytes``) or
    ``None``, checked as :class:`repro.engine.Limits` checks its own.
    """

    wall_s: Optional[float] = limit_field(120.0, float, optional=True)
    cpu_s: Optional[float] = limit_field(None, float, optional=True)
    mem_bytes: Optional[int] = limit_field(None, int, optional=True)

    __post_init__ = check_limits

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "WorkerLimits":
        """Raises ``ValueError`` on an invalid limit."""
        data = data or {}
        if not isinstance(data, dict):
            raise ValueError(
                f"limits must be an object, not {type(data).__name__}"
            )
        return cls(
            wall_s=data.get("wall_s", 120.0),
            cpu_s=data.get("cpu_s"),
            mem_bytes=data.get("mem_bytes"),
        )


@dataclass(frozen=True)
class Task:
    """One unit of isolated work, serializable as plain data.

    ``kind`` selects a runner in :mod:`repro.service.worker`
    (``"check-race"``, ``"check-fusion"``, ``"fuzz-case"``); ``payload``
    is the kind-specific input (program sources, engine options, oracle
    config) and must be JSON-plain.
    """

    kind: str
    payload: Dict[str, Any]
    name: str = "task"
    limits: WorkerLimits = field(default_factory=WorkerLimits)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "payload": self.payload,
            "name": self.name,
            "limits": self.limits.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Task":
        return cls(
            kind=data["kind"],
            payload=dict(data["payload"]),
            name=data.get("name", "task"),
            limits=WorkerLimits.from_dict(data.get("limits")),
        )


def task_key(task: Task) -> str:
    """Content-hash identity of a task: what is solved, not how hard.

    Delegates to :func:`repro.engine.keys.content_key` — the same
    formula behind :meth:`repro.engine.query.RaceQuery.key` — so a
    query hashed in-process, a batch-store entry, and a fuzz-dedup key
    all agree byte-for-byte.
    """
    return content_key(task.kind, task.payload)


# ----------------------------------------------------------------------
# Framing (the blocking pipe/socket readers here and the daemon's
# asyncio streams share these pieces)

#: Bytes of the length prefix that starts every frame.
HEADER_BYTES = _LEN.size


def encode_frame(obj: Any) -> bytes:
    """One length-prefixed JSON frame."""
    data = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(data)) + data


def frame_length(header: bytes) -> int:
    """The payload length a complete prefix announces; raises
    :class:`FrameError` past :data:`MAX_FRAME_BYTES`."""
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return length


def decode_frame(data: bytes) -> Any:
    """The JSON value of one frame payload; raises :class:`FrameError`."""
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as e:
        raise FrameError(f"frame payload is not JSON: {e}") from e


def write_frame(fp, obj: Any) -> None:
    """Write one length-prefixed JSON frame and flush."""
    fp.write(encode_frame(obj))
    fp.flush()


def read_frame(fp) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF.

    A torn frame — EOF inside the length prefix or payload, which is
    exactly what a SIGKILLed child leaves behind — raises
    :class:`FrameError` so the caller can classify the death instead of
    mis-parsing half a message.
    """
    header = fp.read(HEADER_BYTES)
    if not header:
        return None
    if len(header) < HEADER_BYTES:
        raise FrameError("stream torn inside frame length prefix")
    length = frame_length(header)
    data = fp.read(length)  # buffered readers return short only at EOF
    if len(data) < length:
        raise FrameError(
            f"stream torn inside frame payload ({length - len(data)} of "
            f"{length} bytes missing)"
        )
    return decode_frame(data)


def jsonable(value: Any) -> Any:
    """Best-effort conversion of a result structure to JSON-plain data.

    Dicts/lists/tuples recurse (tuples become lists); scalars pass
    through; anything else — stats objects, witnesses — is rendered
    with ``str``.  Used on the ``details`` dicts the engines produce so
    a worker result always frames.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return str(value)
