"""One seam for queries, engines, limits, and results (DESIGN.md §10).

The paper's pipeline is answered by three backends — the interpreter,
the bounded checker, and the MSO/automata engine.  This package makes
their invocation first-class data so every consumer (``core.api``, the
service worker, the conformance oracle, the CLI, the batch driver)
dispatches the same way:

* :mod:`repro.engine.keys` — the one content-hash formula
  (``sha256(canonical_json({kind, payload}))``) shared with
  ``service.protocol.task_key``;
* :mod:`repro.engine.query` — :class:`RaceQuery` /
  :class:`EquivalenceQuery` + :class:`Limits`: the question as data,
  hashed without its limits;
* :mod:`repro.engine.engines` — the :class:`Engine` protocol (one
  ``bind(query)`` rung runner per engine, and what its clean verdicts
  are ``complete_for``) and the three backends in a fixed name →
  engine table;
* :mod:`repro.engine.plan` — the degradation ladder as a two-field
  :class:`Plan` (does the MSO procedure run, which scope engine
  follows) run by one :func:`~repro.engine.plan.execute` producing the
  historical ``details["attempts"]`` schema;
* :mod:`repro.engine.cache` — a content-addressed verdict cache whose
  reuse rules read the deciding engine's ``complete_for``.
"""

from .cache import CacheStats, ResultCache
from .engines import (
    BoundedEngine,
    Engine,
    InterpEngine,
    SymbolicEngine,
    get_engine,
    known_engines,
)
from .keys import canonical_json, content_key
from .plan import (
    LADDER_ESCALATION,
    Plan,
    PlanOutcome,
    execute,
    known_specs,
    normalized_attempts,
    plan_for,
)
from .query import EquivalenceQuery, Limits, RaceQuery, program_fields

__all__ = [
    "canonical_json",
    "content_key",
    "Limits",
    "RaceQuery",
    "EquivalenceQuery",
    "program_fields",
    "Engine",
    "SymbolicEngine",
    "BoundedEngine",
    "InterpEngine",
    "get_engine",
    "known_engines",
    "Plan",
    "plan_for",
    "known_specs",
    "LADDER_ESCALATION",
    "execute",
    "PlanOutcome",
    "normalized_attempts",
    "CacheStats",
    "ResultCache",
]
