"""Append-only journal for resumable runs, plus the payload checksum.

**Journal** — one JSON record per line (``<run_dir>/journal.jsonl`` for
a batch, ``daemon-journal.jsonl`` for the daemon), each appended with
flush+fsync before the run moves on.  The journal is the resume index:
a record marks "this task's verdict is safely in the run directory's
``cache.sqlite``" (:class:`repro.service.sharedcache.SharedCache`).
Replay is tolerant by construction — a line that does not parse (the
torn tail a ``kill -9`` leaves behind) is skipped and counted, and every
journaled completion is re-verified against the checksummed row before
it is believed, so a lying journal line can at worst cause
recomputation, never a wrong verdict.

:func:`payload_digest` is the SHA-256 of a payload's canonical JSON —
the per-row checksum of the sqlite store.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List

from .protocol import canonical_json

__all__ = ["Journal", "payload_digest"]


def payload_digest(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass
class JournalReplay:
    records: List[Dict[str, Any]]
    skipped_lines: int = 0


class Journal:
    """Append-only JSONL event log, durable per append."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    def append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fp:
                fp.write(line)
                fp.flush()
                os.fsync(fp.fileno())

    def replay(self) -> JournalReplay:
        """Every parseable record, skipping (and counting) torn lines."""
        if not self.path.exists():
            return JournalReplay(records=[])
        records: List[Dict[str, Any]] = []
        skipped = 0
        with open(self.path, "r", encoding="utf-8") as fp:
            for line in fp:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    skipped += 1
                    continue
                if isinstance(rec, dict):
                    records.append(rec)
                else:
                    skipped += 1
        return JournalReplay(records=records, skipped_lines=skipped)
