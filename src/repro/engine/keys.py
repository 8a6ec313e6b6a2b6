"""Canonical JSON + content hashing shared by every addressing layer.

One formula — the SHA-256 of the canonical JSON of ``{"kind": ...,
"payload": ...}`` — names a unit of work everywhere it can appear: a
:class:`~repro.engine.query.RaceQuery` in process, a
:class:`~repro.service.protocol.Task` crossing the worker pipe, a
record in the batch store, a fuzz case being deduplicated.  It
generalizes what ``service.protocol.task_key`` introduced (and that
function now delegates here), in the spirit of the compiler's
shape-keyed formula memo: identity is *what* is asked, never
how hard the asker is willing to work — execution limits are excluded
by construction.

This module deliberately imports nothing from the rest of the package
so the worker child's protocol layer can use it without dragging the
language or solver stacks into startup.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["canonical_json", "content_key"]


def canonical_json(obj: Any) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_key(kind: str, payload: Any) -> str:
    """Content-hash identity of one unit of work: what is solved, not
    how hard."""
    raw = canonical_json({"kind": kind, "payload": payload})
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()
