"""Every solver limit binds, and reaches the engine from every entry.

``repro.engine.Limits`` is the one declaration of the solver limits
(DESIGN.md §7).  A limit that is stored but never read is
indistinguishable from a working one until the query it should stop
runs away, so each field has a pinned query here: it decides at the
default limits and changes outcome at the field's tightest value.  A new
field without a pinned query fails :func:`test_every_limit_has_a_pinned_query`.
"""

import json
from dataclasses import fields

import pytest

from repro.casestudies import sizecount
from repro.core.api import check_data_race, check_equivalence
from repro.engine import Limits
from repro.lang.blocks import BlockTable
from repro.service.protocol import Task
from repro.service.worker import decode_task

#: field -> (tightest value, engine=, the outcome every attempt reports)
PINNED = {
    "det_budget": (1, "mso", "budget"),
    "product_budget": (1, "mso", "budget"),
    "mso_deadline_s": (1e-9, "mso", "deadline"),
    "node_ceiling": (1, "mso", "memory"),
    "bounded_deadline_s": (1e-9, "bounded", "deadline"),
}

#: A valid non-default value per field, for the wire test.
NON_DEFAULT = {
    "det_budget": 7,
    "product_budget": 11,
    "mso_deadline_s": 12.5,
    "node_ceiling": 13,
    "bounded_deadline_s": 1.5,
}


def _race(engine, **limits):
    return check_data_race(
        sizecount.parallel_program(), engine=engine, max_internal=2,
        replay=False, **limits,
    )


def _outcomes(res):
    return [a["outcome"] for a in res.details["attempts"]]


@pytest.fixture(scope="module")
def at_default():
    """The pinned queries under the default limits, one run per engine."""
    return {engine: _race(engine) for engine in ("mso", "bounded")}


def test_every_limit_has_a_pinned_query():
    names = [f.name for f in fields(Limits)]
    assert sorted(PINNED) == sorted(names)
    assert sorted(NON_DEFAULT) == sorted(names)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_limit_binds(name, at_default):
    tight, engine, status = PINNED[name]
    default = at_default[engine]
    assert default.verdict == "race-free"
    assert _outcomes(default)[0] == "decided"
    res = _race(engine, **{name: tight})
    assert res.verdict == "unknown" and not res.holds
    assert _outcomes(res) and set(_outcomes(res)) == {status}


class _Sent(Exception):
    """Stops ``_isolated`` once it has built its worker task."""

    def __init__(self, task):
        self.task = task


@pytest.mark.parametrize("name", sorted(NON_DEFAULT))
@pytest.mark.parametrize("kind", ["race", "equiv"])
def test_limit_survives_the_worker_wire(name, kind, monkeypatch):
    """check_* → the task ``_isolated`` builds → JSON → ``decode_task``
    gives back the caller's limits."""
    from repro.service import worker

    for builder in ("task_for_race", "task_for_fusion"):
        def sent(*args, _build=getattr(worker, builder), **kwargs):
            wire = json.dumps(_build(*args, **kwargs).to_dict())
            raise _Sent(Task.from_dict(json.loads(wire)))

        monkeypatch.setattr(worker, builder, sent)
    limits = {name: NON_DEFAULT[name]}
    p = sizecount.parallel_program()
    with pytest.raises(_Sent) as sent:
        if kind == "race":
            check_data_race(p, isolation="process", **limits)
        else:
            mapping = {b.sid: {b.sid} for b in BlockTable(p).all_noncalls}
            check_equivalence(p, p, mapping, isolation="process", **limits)
    query, _options = decode_task(sent.value.task)
    assert query.kind == kind
    assert query.limits == Limits(**limits) != Limits()


def test_a_task_without_limits_decodes_to_the_defaults():
    from repro.service.worker import task_for_race

    task = task_for_race("Main(n) { return 0 }", options={"engine": "bounded"})
    assert decode_task(task)[0].limits == Limits()


@pytest.mark.parametrize("name, value", [
    ("det_budget", 0),
    ("det_budget", -5),
    ("det_budget", "x"),
    ("det_budget", True),
    ("det_budget", None),
    ("det_budget", 2.5),
    ("product_budget", None),
    ("product_budget", 0),
    ("mso_deadline_s", 0),
    ("mso_deadline_s", -1.0),
    ("mso_deadline_s", "600"),
    ("mso_deadline_s", float("nan")),
    ("node_ceiling", 0),
    ("node_ceiling", 1.5),
    ("bounded_deadline_s", False),
])
def test_invalid_limit_raises_value_error(name, value):
    with pytest.raises(ValueError, match=name):
        Limits(**{name: value})


def test_check_rejects_bad_limits_where_they_enter():
    p = sizecount.parallel_program()
    # Under "auto" an invalid budget used to surface as an mso error
    # that the bounded rung then papered over with a verdict.
    with pytest.raises(ValueError, match="det_budget"):
        check_data_race(p, det_budget="x")
    with pytest.raises(TypeError):
        check_data_race(p, det_budgte=10)
