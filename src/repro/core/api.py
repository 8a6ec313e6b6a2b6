"""Top-level verification API: the Fig. 1 pipeline as two calls.

``check_data_race`` (Thm 2) and ``check_equivalence`` (Thm 3) are thin
façades over :mod:`repro.engine`: each call builds a Query-IR object
(:class:`~repro.engine.query.RaceQuery` /
:class:`~repro.engine.query.EquivalenceQuery`), resolves the ``engine=``
spec to a :class:`~repro.engine.plan.Plan`, and hands both to
:func:`repro.engine.plan.execute`:

* ``engine="mso"`` — the paper's MSO/automata pipeline, deciding over
  all trees;
* ``engine="bounded"`` — exhaustive on every tree shape up to a bound;
* ``engine="interp"`` — the interpreter's dynamic evidence on every
  tree shape up to a bound, under seeded field valuations;
* ``engine="auto"`` — the **degradation ladder** (DESIGN.md §7/§10):
  the lazy symbolic engine under a :class:`~repro.runtime.
  ResourceGuard`, one retry with escalated budgets when only the state
  budget was exhausted (wall clock permitting), then the bounded
  checker, shrinking its scope whenever a rung overruns its own limits;
* an unknown name raises ``ValueError`` listing the known ones.

Every rung attempted is recorded in ``details["attempts"]`` and
``details["decided_by"]`` names the rung whose answer is reported.  A
query no rung could decide returns ``verdict="unknown"`` with
``holds=False`` — never a silent ``race-free``/``equivalent``.
Counterexamples are automatically replayed against the concrete
interpreter (:mod:`repro.core.witness`), automating the paper's manual
true-positive check.

Passing ``cache=`` a :class:`~repro.engine.cache.ResultCache` makes the
call consult and feed the content-addressed verdict cache; a stored
counterexample is always reusable, a clean verdict only when the
deciding engine is complete for the query (see
:mod:`repro.engine.cache`), and cache traffic is surfaced in
``details["cache"]``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Set

from ..engine import (
    EquivalenceQuery,
    Limits,
    RaceQuery,
    execute,
    plan_for,
    program_fields,
)
from ..lang import ast as A
from ..lang.validate import validate
from ..trees.heap import Tree
from .bisim import check_bisimulation
from .witness import ReplayOutcome, replay_conflict, replay_race

__all__ = [
    "VerificationResult",
    "check_data_race",
    "check_equivalence",
    "verification_to_dict",
    "verification_from_dict",
    "verification_from_reply",
]


@dataclass
class VerificationResult:
    """Uniform result of a verification query.

    ``details["attempts"]`` lists every ladder rung that ran (rung name,
    engine, limits, outcome, elapsed, and the rung's raw ``found``
    verdict — kept even when a later rung decides, so per-engine answers
    stay inspectable); ``details["decided_by"]`` names the rung whose
    verdict is reported (``None`` when ``unknown``).
    """

    query: str
    verdict: str  # "race-free"|"race"|"equivalent"|"not-equivalent"|"unknown"
    engine: str  # "mso" | "bounded" | "mso+bounded" | "interp" | "bisim"
    elapsed: float
    holds: bool
    witness: Optional[object] = None
    witness_tree: Optional[Tree] = None
    replay: Optional[ReplayOutcome] = None
    details: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        extra = ""
        if self.replay is not None:
            extra = f"; replay: {'confirmed' if self.replay.confirmed else 'unconfirmed'}"
        decided_by = self.details.get("decided_by")
        if decided_by and decided_by != self.engine:
            extra += f"; decided by {decided_by}"
        return (
            f"{self.query}: {self.verdict} "
            f"[{self.engine}, {self.elapsed:.3f}s]{extra}"
        )


# ----------------------------------------------------------------------
# Wire format (shared by the worker protocol and the result cache)


def verification_to_dict(res: VerificationResult) -> Dict[str, object]:
    """JSON-plain rendering of a result (the worker wire format)."""
    from ..service.protocol import jsonable
    from ..trees.heap import tree_to_tuple

    return {
        "query": res.query,
        "verdict": res.verdict,
        "engine": res.engine,
        "elapsed": res.elapsed,
        "holds": res.holds,
        "witness": str(res.witness) if res.witness is not None else None,
        "witness_tree": (
            tree_to_tuple(res.witness_tree)
            if res.witness_tree is not None
            else None
        ),
        "replay": (
            {"confirmed": res.replay.confirmed, "detail": res.replay.detail}
            if res.replay is not None
            else None
        ),
        "details": jsonable(res.details),
    }


def verification_from_dict(
    value: Dict[str, object], elapsed: Optional[float] = None
) -> VerificationResult:
    """Lift a wire-format result dict back into a
    :class:`VerificationResult` (witness becomes its string rendering;
    the witness tree is reconstructed)."""
    from ..trees.heap import tree_from_tuple

    replay_data = value.get("replay")
    return VerificationResult(
        query=value["query"],
        verdict=value["verdict"],
        engine=value["engine"],
        elapsed=(
            elapsed if elapsed is not None else float(value.get("elapsed", 0.0))
        ),
        holds=bool(value["holds"]),
        witness=value.get("witness"),
        witness_tree=(
            tree_from_tuple(value["witness_tree"])
            if value.get("witness_tree") is not None
            else None
        ),
        replay=(
            ReplayOutcome(
                confirmed=bool(replay_data["confirmed"]),
                detail=replay_data["detail"],
            )
            if replay_data
            else None
        ),
        details=dict(value.get("details") or {}),
    )


# ----------------------------------------------------------------------
# The one solve path


#: (found, clean) verdict names per query kind.
_VERDICTS = {
    "race": ("race", "race-free"),
    "equiv": ("not-equivalent", "equivalent"),
}


def verification_from_reply(
    reply: Dict[str, object],
    query,
    limits: Dict[str, object],
    isolation: str,
    elapsed: float,
) -> VerificationResult:
    """The :class:`VerificationResult` of a finished worker task's reply
    (:meth:`repro.service.supervisor.SupervisedResult.reply`), read the
    same whether ``isolation`` is ``"process"`` or ``"daemon"``.

    Every failed worker attempt leads ``details["attempts"]`` in the
    plan's schema (``limits`` is the task's sandbox-limits dict).  A
    worker that never produced a verdict yields ``verdict="unknown"``
    with ``holds=False`` and its post-mortem in ``details["worker"]`` --
    never a silent wrong answer.
    """
    from ..engine.plan import worker_attempt_record

    attempts = [
        worker_attempt_record(limits, a)
        for a in reply.get("attempts") or ()
        if a["outcome"] != "ok"
    ]
    if reply["ok"]:
        res = verification_from_dict(reply["value"], elapsed=elapsed)
        res.details["attempts"] = attempts + list(
            res.details.get("attempts") or []
        )
    else:
        res = VerificationResult(
            query="",
            verdict="unknown",
            engine=isolation,
            elapsed=elapsed,
            holds=False,
            details={
                "attempts": attempts,
                "decided_by": None,
                "worker": {
                    "outcome_class": reply["outcome_class"],
                    "detail": reply["detail"],
                    **(reply.get("worker") or {}),
                },
            },
        )
    res.query = query.display()
    res.details["isolation"] = isolation
    if reply.get("degraded"):
        res.details["circuit_breaker"] = "open"
    return res


def _isolated(
    query,
    options: Dict[str, object],
    isolation: str,
    daemon_socket=None,
    client_id: str = "api",
    priority: Optional[int] = None,
    retries: int = 0,
) -> VerificationResult:
    """Solve ``query`` in a supervised sandboxed worker (``"process"``)
    or through the running solve daemon at ``daemon_socket``
    (``"daemon"``, DESIGN.md §11), which shares its pool and cache tier
    across callers.  Admission rejections
    (:class:`~repro.service.scheduler.ServiceOverloaded`) propagate to
    the caller — by design, so backpressure is visible, not swallowed.

    The worker task carries the program(s) pretty-printed
    (:func:`repro.lang.printer.program_source` round-trips through the
    parser) and every field of ``query.limits``: plain data a child
    process — or a daemon on the far side of a socket — can solve
    without sharing any state with this caller.
    """
    from ..lang.printer import program_source
    from ..service import DaemonClient, Supervisor, WorkerLimits
    from ..service.scheduler import DEFAULT_PRIORITY
    from ..service.worker import task_for_fusion, task_for_race

    t0 = time.perf_counter()
    options = dict(options)
    limits = WorkerLimits(
        wall_s=options.pop("wall_s", None),
        cpu_s=options.pop("cpu_s", None),
        mem_bytes=options.pop("mem_bytes", None),
    )
    options.update(asdict(query.limits))
    p = query.program
    if query.kind == "race":
        task = task_for_race(
            source=program_source(p), entry=p.entry, options=options,
            limits=limits, name=p.name,
        )
    else:
        task = task_for_fusion(
            source=program_source(p),
            source2=program_source(query.program2),
            entry=p.entry,
            options=options,
            mapping={k: sorted(v) for k, v in query.mapping.items()},
            limits=limits,
            name=p.name,
            name2=query.program2.name,
        )
    if isolation == "process":
        reply = Supervisor().run_one(task).reply()
    else:
        with DaemonClient(daemon_socket, client_id=client_id) as client:
            reply = client.submit_task(
                task,
                priority=DEFAULT_PRIORITY if priority is None else priority,
                retries=retries,
            )
    res = verification_from_reply(
        reply, query, limits.to_dict(), isolation, time.perf_counter() - t0
    )
    if isolation == "daemon":
        res.details["daemon"] = {
            "cached": bool(reply.get("cached")),
            "key": reply.get("key"),
        }
    return res


def _solve(
    query,
    options: Dict[str, object],
    replay_witness,
    isolation: str,
    cache,
    daemon_socket,
    t0: float,
) -> VerificationResult:
    """Answer ``query`` — the path both public entry points share.

    ``options`` are the entry's solve keywords bar ``query.limits`` (the
    worker task's options plus the ``wall_s``/``cpu_s``/``mem_bytes``
    sandbox limits);
    ``replay_witness(tree)`` replays a counterexample concretely.  The
    cache is consulted first; ``isolation`` then picks the transport:
    ``"inline"`` runs the plan here (behind the bisimulation gate when
    ``options["check_bisim"]``), ``"process"`` a sandboxed worker and
    ``"daemon"`` the solve daemon at ``daemon_socket``; a worker that
    dies without answering comes back as ``verdict="unknown"``, never as
    an exception.  A decided result is stored back into the cache.
    """
    plan = plan_for(options["engine"])
    if cache is not None:
        record = cache.lookup(
            query, plan, allow_bisim=options.get("check_bisim", True)
        )
        if record is not None:
            res = verification_from_dict(
                record["result"], elapsed=time.perf_counter() - t0
            )
            res.details["cache"] = {
                "hit": True,
                "key": record["key"],
                "stats": cache.stats.as_dict(),
            }
            return res
    if isolation not in ("inline", "process", "daemon"):
        raise ValueError(f"unknown isolation mode {isolation!r}")
    if isolation == "daemon" and daemon_socket is None:
        raise ValueError(
            "isolation='daemon' needs daemon_socket= "
            "(the socket of a running `repro serve`)"
        )
    bis = None
    if isolation == "inline" and options.get("check_bisim"):
        bis = check_bisimulation(query.program, query.program2, query.mapping)
    if isolation != "inline":
        res = _isolated(query, options, isolation, daemon_socket)
    elif bis is not None and not bis.bisimilar:
        res = VerificationResult(
            query=query.display(),
            verdict="not-equivalent",
            engine="bisim",
            elapsed=time.perf_counter() - t0,
            holds=False,
            details={
                "attempts": [],
                "bisimulation": str(bis),
                "decided_by": "bisim",
            },
        )
    else:
        outcome = execute(query, plan, cache=cache)
        if bis is not None:
            outcome.details["bisimulation"] = str(bis)
        found, clean = _VERDICTS[query.kind]
        verdict = found if outcome.found else clean
        if outcome.undecided:
            verdict = "unknown"
        rep = None
        if (options["replay"] and outcome.found
                and outcome.witness_tree is not None):
            rep = replay_witness(outcome.witness_tree)
        res = VerificationResult(
            query=query.display(),
            verdict=verdict,
            engine=outcome.engine_label,
            elapsed=time.perf_counter() - t0,
            holds=not outcome.found and verdict != "unknown",
            witness=outcome.witness,
            witness_tree=outcome.witness_tree,
            replay=rep,
            details=outcome.details,
        )
    if cache is not None:
        stored = cache.store(query, verification_to_dict(res))
        res.details["cache"] = {
            "hit": False,
            "key": query.key(),
            "stored": stored,
            "stats": cache.stats.as_dict(),
        }
    return res


# ----------------------------------------------------------------------
# Public entry points


def _race_on_user_trees(
    program: A.Program,
    on_trees: Sequence[object],
    replay: bool,
    t0: float,
) -> VerificationResult:
    """The ``on_trees=`` path of :func:`check_data_race`: dynamic
    happens-before race detection on concrete user inputs (binary or
    n-ary), witness coordinates translated back to the input's arity."""
    from ..engine import get_engine
    from ..trees.lcrs import lcrs_path_to_nary_coords
    from ..trees.nary import as_binary, is_nary

    converted = [(is_nary(t), as_binary(t)) for t in on_trees]
    query = RaceQuery(program=program, scope=0)
    eng = get_engine("interp")
    hit = eng.first_race(query, [b for _, b in converted])
    details: Dict[str, object] = {
        "decided_by": "interp",
        "on_trees": len(converted),
    }
    rep = None
    witness_tree = None
    if hit is not None:
        index, seed, work, race = hit
        nary_input = converted[index][0]
        witness_tree = work
        details["evidence"] = str(race)
        details["witness_input"] = {"index": index, "seed": seed}
        details["witness_cell"] = f"{race.field}@{race.node}"
        if nary_input:
            details["witness_nary"] = {
                "field": race.field,
                "coords": lcrs_path_to_nary_coords(race.node),
            }
        if replay:
            # The race tree already carries the racing valuation; replay
            # it verbatim (no re-seeding).
            outcome = replay_race(program, work, field_names=())
            rep = outcome
    else:
        details["note"] = (
            "dynamic evidence only: no race on the supplied trees under "
            "their own fields or the seeded valuations (not a proof over "
            "all trees)"
        )
    found = hit is not None
    return VerificationResult(
        query=query.display(),
        verdict="race" if found else "race-free",
        engine="interp",
        elapsed=time.perf_counter() - t0,
        holds=not found,
        witness=hit[3] if hit is not None else None,
        witness_tree=witness_tree,
        replay=rep,
        details=details,
    )


def check_data_race(
    program: A.Program,
    engine: str = "auto",
    max_internal: int = 4,
    replay: bool = True,
    isolation: str = "inline",
    wall_s: Optional[float] = None,
    cpu_s: Optional[float] = None,
    mem_bytes: Optional[int] = None,
    cache=None,
    daemon_socket=None,
    on_trees: Optional[Sequence[object]] = None,
    **limits,
) -> VerificationResult:
    """Is the program data-race-free (paper Thm 2)?

    The keyword-only ``**limits`` are fields of :class:`repro.engine.
    Limits`: an unknown name raises ``TypeError``, a bad value ``ValueError``.

    ``isolation="process"`` runs the whole query in a sandboxed,
    supervised child process (``wall_s``/``cpu_s``/``mem_bytes`` become
    hard OS limits on it); ``isolation="daemon"`` submits it to the
    long-lived solve daemon at ``daemon_socket=`` (shared cache tier,
    admission control — may raise
    :class:`~repro.service.scheduler.ServiceOverloaded`); the default
    ``"inline"`` solves in-process.  ``cache=`` an optional
    :class:`~repro.engine.cache.ResultCache`.

    ``on_trees=`` checks the program on *user-supplied input trees*
    instead of the engines' scope enumeration: each item may be an
    engine-native binary :class:`~repro.trees.heap.Tree` or an
    any-arity :class:`~repro.trees.lcrs.NaryNode` (converted through
    the LCRS encoding at this boundary).  This path runs the dynamic
    engine — happens-before detection over one execution per tree and
    valuation, depth-unbounded thanks to the explicit-stack machine —
    so a clean answer is dynamic evidence on those inputs, not a proof
    over all trees.  A race found on an n-ary input reports its witness
    node both as the LCRS path and, in ``details["witness_nary"]``, as
    n-ary child coordinates.
    """
    query = RaceQuery(
        program=program, scope=max_internal, limits=Limits(**limits)
    )
    validate(program)
    t0 = time.perf_counter()
    if on_trees is not None:
        if isolation != "inline":
            raise ValueError("on_trees= only supports isolation='inline'")
        return _race_on_user_trees(program, on_trees, replay, t0)
    options = {
        "engine": engine,
        "max_internal": max_internal,
        "replay": replay,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "mem_bytes": mem_bytes,
    }
    return _solve(
        query,
        options,
        lambda tree: replay_race(program, tree, program_fields(program)),
        isolation,
        cache,
        daemon_socket,
        t0,
    )


def check_equivalence(
    p: A.Program,
    p_prime: A.Program,
    mapping: Mapping[str, Set[str]],
    engine: str = "auto",
    max_internal: int = 4,
    replay: bool = True,
    check_bisim: bool = True,
    isolation: str = "inline",
    wall_s: Optional[float] = None,
    cpu_s: Optional[float] = None,
    mem_bytes: Optional[int] = None,
    cache=None,
    daemon_socket=None,
    **limits,
) -> VerificationResult:
    """Are the two programs equivalent under the block correspondence
    (paper Thm 3: bisimilar and conflict-free)?

    Precondition per the paper: both programs are data-race-free (footnote
    7); check separately with :func:`check_data_race`.
    ``isolation="process"`` sandboxes the query and
    ``isolation="daemon"`` (+ ``daemon_socket=``) submits it to a
    running solve daemon, and ``**limits`` are the solver limits, as in
    :func:`check_data_race`; ``cache=`` an optional
    :class:`~repro.engine.cache.ResultCache`.
    """
    query = EquivalenceQuery(
        program=p,
        program2=p_prime,
        mapping=mapping,
        scope=max_internal,
        limits=Limits(**limits),
    )
    validate(p)
    validate(p_prime)
    t0 = time.perf_counter()
    options = {
        "engine": engine,
        "max_internal": max_internal,
        "replay": replay,
        "check_bisim": check_bisim,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "mem_bytes": mem_bytes,
    }
    return _solve(
        query,
        options,
        lambda tree: replay_conflict(p, p_prime, tree, query.fields()),
        isolation,
        cache,
        daemon_socket,
        t0,
    )
