"""Execution traces: iterations, access events and happens-before.

An execution of a Retreet program is a sequence of *iterations* — each runs
one non-call block on one tree node (paper §3).  The interpreter additionally
records every field/variable access as an :class:`Event` tagged with its
*dynamic context*: the path through the dynamic call/compose tree.  Two
events are concurrent iff the first differing step of their contexts is a
pair of distinct branches of the same dynamic ``par`` — exact happens-before
for fork-join parallelism.

Contexts come in two interchangeable forms:

* the legacy tuple-of-steps form (``Context``), still accepted everywhere;
* :class:`Ctx`, a linked parent chain the explicit-stack machine shares
  between events of the same frame.  Extending a context is O(1) instead of
  copying a tuple, and :func:`concurrent` decides by walking to the lowest
  common ancestor *by identity* — O(depth) with no per-event materialized
  path strings, which is what keeps race detection near-linear on depth-100k
  trees.

Steps are ``("call", call-site sid, node)`` and ``("par", par id, branch)``.
In the legacy form the call step's ``node`` is the tree path string; a
:class:`Ctx` may hold the :class:`TreeNode` itself and only renders the
path when someone materializes the tuple form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

__all__ = ["Iteration", "Event", "Trace", "concurrent", "Context", "Ctx"]

# Legacy dynamic-context form: a tuple of steps.
Context = Tuple[Tuple, ...]


class Ctx:
    """A dynamic context as a linked chain of steps (root-ward)."""

    __slots__ = ("parent", "step", "depth")

    def __init__(self, parent: Optional["Ctx"], step: Tuple) -> None:
        self.parent = parent
        self.step = step
        self.depth = 1 if parent is None else parent.depth + 1

    def child(self, step: Tuple) -> "Ctx":
        return Ctx(self, step)

    def to_tuple(self) -> Context:
        """Materialize the legacy tuple form (call steps render node paths)."""
        steps: List[Tuple] = []
        c: Optional[Ctx] = self
        while c is not None:
            steps.append(_materialize_step(c.step))
            c = c.parent
        steps.reverse()
        return tuple(steps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ctx{self.to_tuple()!r}"


def _materialize_step(step: Tuple) -> Tuple:
    if step[0] == "call" and not isinstance(step[2], str):
        return ("call", step[1], step[2].path)
    return step


def _node_path(node) -> str:
    return node if isinstance(node, str) else node.path


class Iteration:
    """One execution of a non-call block on a node."""

    __slots__ = ("sid", "_node", "context")

    def __init__(self, sid: str, node, context=()) -> None:
        self.sid = sid
        self._node = node  # tree path string, or the TreeNode itself
        self.context = context

    @property
    def node(self) -> str:
        """Tree path of the node the function runs on."""
        return _node_path(self._node)

    def __str__(self) -> str:
        return f"({self.sid}, {self.node or 'root'})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Iteration(sid={self.sid!r}, node={self.node!r})"


class Event:
    """A single memory access."""

    __slots__ = ("kind", "target", "_node", "name", "iteration", "sid", "context")

    def __init__(
        self,
        kind: str,  # "read" | "write"
        target: str,  # "field" | "var"
        node,  # tree node (or path string); for vars: the frame scope id
        name: str,  # field or variable name
        iteration: int,  # index into Trace.iterations (-1 for condition reads)
        sid: Optional[str],  # block sid if attributable
        context=(),
    ) -> None:
        self.kind = kind
        self.target = target
        self._node = node
        self.name = name
        self.iteration = iteration
        self.sid = sid
        self.context = context

    @property
    def node(self) -> str:
        """Tree path ("" for root); for vars: the frame scope id."""
        return _node_path(self._node)

    @property
    def node_key(self):
        """Cell-identity key: the TreeNode itself when available (identity
        grouping avoids materializing paths), else the path/scope string."""
        n = self._node
        return n if isinstance(n, str) else id(n)

    @property
    def is_write(self) -> bool:
        return self.kind == "write"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event({self.kind!r}, {self.target!r}, {self.node!r}, "
            f"{self.name!r}, sid={self.sid!r})"
        )


def concurrent(a: Union[Context, Ctx], b: Union[Context, Ctx]) -> bool:
    """True iff contexts diverge at distinct branches of the same par."""
    if isinstance(a, Ctx) and isinstance(b, Ctx):
        return _concurrent_ctx(a, b)
    if isinstance(a, Ctx):
        a = a.to_tuple()
    if isinstance(b, Ctx):
        b = b.to_tuple()
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    if k >= len(a) or k >= len(b):
        return False
    sa, sb = a[k], b[k]
    return (
        sa[0] == "par"
        and sb[0] == "par"
        and sa[1] == sb[1]
        and sa[2] != sb[2]
    )


def _concurrent_ctx(a: Ctx, b: Ctx) -> bool:
    x, y = a, b
    while x.depth > y.depth:
        x = x.parent  # type: ignore[assignment]
    while y.depth > x.depth:
        y = y.parent  # type: ignore[assignment]
    if x is y:  # one context is a prefix of the other
        return False
    while x.parent is not y.parent:
        x = x.parent  # type: ignore[assignment]
        y = y.parent  # type: ignore[assignment]
    sa, sb = x.step, y.step
    return (
        sa[0] == "par"
        and sb[0] == "par"
        and sa[1] == sb[1]
        and sa[2] != sb[2]
    )


@dataclass
class Trace:
    """Full record of one execution."""

    iterations: List[Iteration] = field(default_factory=list)
    events: List[Event] = field(default_factory=list)
    returns: Tuple[int, ...] = ()

    def iteration_pairs(self) -> List[Tuple[str, str]]:
        """(sid, node) pairs in execution order — the paper's sequence of
        iterations."""
        return [(it.sid, it.node) for it in self.iterations]

    def __len__(self) -> int:
        return len(self.iterations)
