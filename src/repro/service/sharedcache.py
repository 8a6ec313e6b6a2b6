"""The durable sqlite record store (``cache.sqlite``).

This is the one durable store of verdicts.  A
:class:`repro.engine.cache.ResultCache` given a directory opens
``<dir>/cache.sqlite`` here; a batch run directory and a solve daemon's
run directory each hold one, and many runs — and many clients of the
long-lived daemon — can share it.  Its discipline:

* **Checksummed rows** — every row carries the SHA-256 of its payload's
  canonical JSON; a row is only believed after re-verification at read
  time, so bit rot, torn writes that somehow survived sqlite's
  journaling, or hand-edited rows can never flow onward as a verdict.
* **Corruption quarantine** — a row that fails verification is moved to
  a ``quarantine`` table (with the failure reason, for the post-mortem)
  and reported as a miss, so it is recomputed and **never trusted**.
* **Single-writer locking** — writes run under ``BEGIN IMMEDIATE`` so
  sqlite's own locking serializes concurrent writers; in-process access
  is additionally serialized by a lock so the daemon's executor threads
  and event loop cannot interleave half-written state.
* **Crash safety** — WAL journaling with ``synchronous=FULL``: a
  ``kill -9`` mid-write leaves either the old row or the new row,
  never a torn one, and :meth:`verify_all` byte-verifies the whole
  tier on daemon restart.

Rows are plain ``key → payload`` JSON objects; the cache layers the
query-keyed reuse policy (and the task-keyed row shape) on top.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..runtime import faults
from .protocol import payload_digest

__all__ = ["SharedCache"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    key TEXT PRIMARY KEY,
    sha256 TEXT NOT NULL,
    payload TEXT NOT NULL,
    created_s REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    key TEXT NOT NULL,
    sha256 TEXT,
    payload TEXT,
    reason TEXT NOT NULL,
    quarantined_s REAL NOT NULL
);
"""


class SharedCache:
    """Checksummed, quarantining, crash-safe sqlite key→payload store."""

    def __init__(self, path: Path, timeout_s: float = 30.0) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            str(self.path),
            timeout=timeout_s,
            check_same_thread=False,
            isolation_level=None,  # explicit BEGIN IMMEDIATE below
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=FULL")
        self._conn.executescript(_SCHEMA)
        #: Keys quarantined by this instance (observability mirror of
        #: the ``quarantine`` table).
        self.quarantined: List[str] = []

    # -- writes ----------------------------------------------------------

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = payload_digest(payload)
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT OR REPLACE INTO records "
                    "(key, sha256, payload, created_s) VALUES (?, ?, ?, ?)",
                    (key, digest, text, time.time()),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    # -- reads -----------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The verified payload for ``key``, or ``None``.

        A row that fails to parse or to checksum is quarantined and
        treated as a miss (the ``cache-row-corrupt`` fault probe can
        substitute a corrupted payload here to prove that path).
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT sha256, payload FROM records WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        digest, text = row
        if faults.ARMED:
            try:
                text = faults.fire("cache-row-corrupt", text)
            except faults.InjectedFault as e:
                # action="raise" models an unreadable row; same
                # discipline as a checksum failure.
                self._quarantine(key, digest, text, f"injected: {e}")
                return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("row payload is not an object")
            if payload_digest(payload) != digest:
                raise ValueError("row checksum mismatch")
        except ValueError as e:
            self._quarantine(key, digest, text, str(e))
            return None
        return payload

    def _quarantine(
        self, key: str, digest: str, text: str, reason: str
    ) -> None:
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT INTO quarantine "
                    "(key, sha256, payload, reason, quarantined_s) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (key, digest, text, reason, time.time()),
                )
                self._conn.execute(
                    "DELETE FROM records WHERE key = ?", (key,)
                )
                self._conn.execute("COMMIT")
            except BaseException:  # pragma: no cover - defensive
                self._conn.execute("ROLLBACK")
                raise
        self.quarantined.append(key)

    # -- maintenance / observability -------------------------------------

    def keys(self) -> List[str]:
        with self._lock:
            rows = self._conn.execute("SELECT key FROM records").fetchall()
        return [r[0] for r in rows]

    def __len__(self) -> int:
        with self._lock:
            (n,) = self._conn.execute(
                "SELECT COUNT(*) FROM records"
            ).fetchone()
        return int(n)

    def quarantine_count(self) -> int:
        with self._lock:
            (n,) = self._conn.execute(
                "SELECT COUNT(*) FROM quarantine"
            ).fetchone()
        return int(n)

    def verify_all(self) -> Tuple[int, int]:
        """Byte-verify every row; returns ``(verified, quarantined)``.

        Run on daemon restart so a crash can never leave a silently
        corrupt row to be served later.
        """
        verified = corrupt = 0
        for key in self.keys():
            if self.get(key) is None:
                corrupt += 1
            else:
                verified += 1
        return verified, corrupt

    def stats(self) -> Dict[str, Any]:
        return {
            "path": str(self.path),
            "rows": len(self),
            "quarantined": self.quarantine_count(),
        }

    def close(self) -> None:
        with self._lock:
            self._conn.close()
