"""The Query IR: verification questions as first-class data.

A :class:`RaceQuery` or :class:`EquivalenceQuery` carries everything a
backend needs — the program(s), the block correspondence, the bounded
scope — plus a :class:`Limits` bundle saying how hard the caller is
willing to work.  The split matters for identity: :meth:`key` hashes
the *question* (canonical program sources, entry, mapping, scope) and
never the limits, mirroring how ``service.protocol.task_key`` excludes
sandbox limits, so the same key addresses a query in-process, in the
batch store, and in the fuzz loop's dedup set, and re-running with a
bigger budget still reuses every verdict already decided.

Programs are canonicalized through :func:`repro.lang.printer.
program_source` (which round-trips through the parser), so two ASTs
that print identically — regardless of how they were constructed — are
the same query.

:class:`Limits` is the one declaration of every solver limit — default,
validation, attempts key and CLI flag per field (DESIGN.md §7).  It is
not :class:`repro.service.protocol.WorkerLimits`, the OS limits of one
sandboxed worker child.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Set

from ..lang import ast as A
from .keys import content_key

__all__ = [
    "Limits",
    "limit_field",
    "check_limits",
    "RaceQuery",
    "EquivalenceQuery",
    "program_fields",
]


def program_fields(program: A.Program) -> List[str]:
    """All field names the program touches (for replay field seeding).

    The single shared copy — ``core.api`` and ``conformance.oracle``
    used to carry private duplicates of this helper.
    """
    from ..core.readwrite import ReadWriteAnalysis
    from ..lang.blocks import BlockTable

    table = BlockTable(program)
    rw = ReadWriteAnalysis(table)
    fields = set()
    for b in table.all_noncalls:
        for c in rw.access(b).readwrites:
            if c.kind == "field":
                fields.add(c.name)
    return sorted(fields)


def limit_field(default, kind, optional=False, attempts=None, flag=None):
    """A field that :func:`check_limits` validates: ``kind`` is ``int``
    or ``float``; ``None`` (unlimited) is valid only when ``optional``.
    ``attempts`` is the key an ``mso`` rung records it under, ``flag``
    an optional ``(option, metavar, help)`` CLI flag."""
    return field(default=default, metadata={
        "kind": kind, "optional": optional, "attempts": attempts, "flag": flag,
    })


def check_limits(limits) -> None:
    """Raise ``ValueError`` unless every field of ``limits`` is a positive
    number of its kind (not a bool), or ``None`` where optional."""
    for f in fields(limits):
        value, kind = getattr(limits, f.name), f.metadata["kind"]
        if value is None and f.metadata["optional"]:
            continue
        number = int if kind is int else (int, float)
        if (isinstance(value, bool) or not isinstance(value, number)
                or not value > 0):
            raise ValueError(
                f"limit {f.name!r} must be a positive "
                f"{'integer' if kind is int else 'number'}"
                f"{' or None' if f.metadata['optional'] else ''}, "
                f"not {value!r}"
            )


@dataclass(frozen=True)
class Limits:
    """How hard to work on a query — never part of its identity."""

    det_budget: int = limit_field(
        50_000, int, attempts="det_budget",
        flag=("--det-budget", "STATES",
              "determinization state budget for the symbolic engine"),
    )
    product_budget: int = limit_field(50_000, int, attempts="product_budget")
    mso_deadline_s: Optional[float] = limit_field(
        600.0, float, optional=True, attempts="deadline_s",
        flag=("--deadline", "SECONDS",
              "wall-clock deadline for the symbolic engine"),
    )
    node_ceiling: Optional[int] = limit_field(
        None, int, optional=True, attempts="node_ceiling"
    )
    bounded_deadline_s: Optional[float] = limit_field(
        None, float, optional=True
    )

    __post_init__ = check_limits

    def attempt_limits(self) -> Dict[str, object]:
        """The ``limits`` of an ``mso`` rung's attempts record."""
        return {
            f.metadata["attempts"]: getattr(self, f.name)
            for f in fields(self)
            if f.metadata["attempts"] is not None
        }


def _canonical_source(program: A.Program) -> str:
    from ..lang.printer import program_source

    return program_source(program)


@dataclass(frozen=True)
class RaceQuery:
    """Is ``program`` data-race-free (paper Thm 2)?"""

    program: A.Program
    scope: int = 4
    limits: Limits = field(default_factory=Limits)

    kind = "race"

    def display(self) -> str:
        """The human-facing query string used by ``VerificationResult``."""
        return f"data-race({self.program.name})"

    def payload(self) -> Dict[str, object]:
        """Canonical, JSON-plain identity payload (limits excluded)."""
        return {
            "entry": self.program.entry,
            "scope": self.scope,
            "source": _canonical_source(self.program),
        }

    def key(self) -> str:
        return content_key(self.kind, self.payload())

    def fields(self) -> List[str]:
        return program_fields(self.program)


@dataclass(frozen=True)
class EquivalenceQuery:
    """Are the two programs equivalent under the block correspondence
    (paper Thm 3: bisimilar and conflict-free)?"""

    program: A.Program
    program2: A.Program
    mapping: Mapping[str, Set[str]]
    scope: int = 4
    limits: Limits = field(default_factory=Limits)

    kind = "equiv"

    def display(self) -> str:
        return f"equivalence({self.program.name} vs {self.program2.name})"

    def payload(self) -> Dict[str, object]:
        return {
            "entry": self.program.entry,
            "mapping": {k: sorted(v) for k, v in self.mapping.items()},
            "scope": self.scope,
            "source": _canonical_source(self.program),
            "source2": _canonical_source(self.program2),
        }

    def key(self) -> str:
        return content_key(self.kind, self.payload())

    def fields(self) -> List[str]:
        return sorted(
            set(program_fields(self.program))
            | set(program_fields(self.program2))
        )
