"""Outside-in span recorder for the traced benchmark run.

The recorder wraps named public functions *where their callers look them
up* (a module attribute such as ``repro.core.api.replay_race``, or a
method on a class) and records one span per call: name, start, end, the
enclosing span in the same thread, and an optional counter taken from the
call's result.  Nothing inside the program is edited, and an untraced run
never constructs a recorder, so it installs no wrappers at all.

Spans stay in memory; the benchmark reduces them to per-layer totals when
the run ends.  A span's request is its top-level span, reached through the
parent links.  A span's self time is its duration minus the time its
direct children cover (children of one thread nest, so their durations
add up without overlap).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = ["Span", "SpanRecorder"]


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    count: int = 0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class SpanRecorder:
    spans: List[Span] = field(default_factory=list)
    _undo: List[tuple] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # -- installing wrappers ----------------------------------------------

    def wrap(self, target: str, name: str,
             count: Optional[Callable[[object], int]] = None) -> None:
        """Wrap ``target`` (``"pkg.module:attr"`` or
        ``"pkg.module:Class.method"``) so each call records a span
        ``name``; ``count(result)`` adds to the span's counter."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    span.count += count(result)
                return result
            finally:
                self._close(span)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- recording --------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            parent = stack[-1] if stack else None
            span = Span(name, time.perf_counter(), parent)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            with self._lock:
                self.spans[span.parent].child_s += span.duration

    # -- reductions -------------------------------------------------------

    def _has_ancestor_named(self, span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == span.name:
                return True
            parent = self.spans[parent].parent
        return False

    def total_s(self) -> Dict[str, float]:
        """Inclusive seconds per name (a call nested in a call of the same
        name is not counted twice)."""
        out: Dict[str, float] = {}
        for s in self.spans:
            if not self._has_ancestor_named(s):
                out[s.name] = out.get(s.name, 0.0) + s.duration
        return out

    def self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.self_s
        return out

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0) + s.count
        return out

    def root_s(self) -> float:
        """Seconds covered by top-level spans, summed over threads."""
        return sum(s.duration for s in self.spans if s.parent is None)
