"""Tests for repro.runtime: taxonomy, ResourceGuard, status mapping.

Includes the T1.3 regression pair from DESIGN.md §7: a tiny wall-clock
deadline and a tiny state budget must surface as *distinguishable*
statuses ("deadline" vs "budget"), not collapse into one.
"""

import time

import pytest

from repro.bdd.bdd import BDDManager
from repro.runtime import (
    DeadlineExceeded,
    MemoryCeilingExceeded,
    ReproError,
    ResourceExhausted,
    ResourceGuard,
    SolverInternalError,
    StateBudgetExceeded,
    exhaustion_status,
)


class TestTaxonomy:
    def test_subclassing(self):
        for exc in (DeadlineExceeded, StateBudgetExceeded, MemoryCeilingExceeded):
            assert issubclass(exc, ResourceExhausted)
            assert issubclass(exc, ReproError)
        assert issubclass(SolverInternalError, ReproError)
        assert not issubclass(SolverInternalError, ResourceExhausted)
        # Deadline and budget are *siblings*: catching one must not
        # swallow the other (the seed bug this PR fixes).
        assert not issubclass(DeadlineExceeded, StateBudgetExceeded)
        assert not issubclass(StateBudgetExceeded, DeadlineExceeded)

    def test_phase_and_counters_attached(self):
        e = DeadlineExceeded("out of time", phase="determinize", counters={"states": 7})
        assert e.phase == "determinize"
        assert e.counters == {"states": 7}
        assert "determinize" in str(e)

    def test_exhaustion_status(self):
        assert exhaustion_status(DeadlineExceeded("x")) == "deadline"
        assert exhaustion_status(StateBudgetExceeded("x")) == "budget"
        assert exhaustion_status(MemoryCeilingExceeded("x")) == "memory"

    def test_alias_reexport_identity(self):
        from repro.automata.determinize import StateBudgetExceeded as S2

        assert S2 is StateBudgetExceeded


class TestResourceGuard:
    def test_deadline_raises_deadline(self):
        g = ResourceGuard(deadline=time.perf_counter() - 1.0)
        with pytest.raises(DeadlineExceeded):
            g.check_now("unit")
        assert g.expired()

    def test_tick_is_lazy_then_fires(self):
        g = ResourceGuard(deadline=time.perf_counter() - 1.0, check_every=64)
        for _ in range(63):
            g.tick("unit")  # below the check interval: no clock read
        with pytest.raises(DeadlineExceeded):
            g.tick("unit")

    def test_node_ceiling_fires_from_bdd_manager(self):
        g = ResourceGuard.start(node_ceiling=100)
        mgr = BDDManager()
        g.bind_manager(mgr)
        assert mgr.guard is g
        with pytest.raises(MemoryCeilingExceeded):
            # Fresh vars allocate fresh nodes; the manager reports its
            # size back every 256 allocations, well within 5000.
            for i in range(5000):
                mgr.var(i)
        g.unbind_managers()
        assert mgr.guard is None

    def test_remaining_and_counters(self):
        g = ResourceGuard.start(deadline_s=100.0)
        assert 0 < g.remaining_s() <= 100.0
        assert "remaining_s" in g.counters()
        assert ResourceGuard().remaining_s() is None


class TestDistinguishableOutcomes:
    """T1.3 (parallel sizecount): deadline vs budget are distinct."""

    def test_tiny_deadline_reports_deadline(self, sizecount_par):
        from repro.core.symbolic import check_data_race_mso

        v = check_data_race_mso(
            sizecount_par,
            guard=ResourceGuard(deadline=time.perf_counter() + 0.05),
        )
        assert v.status == "deadline"
        assert not v.holds

    def test_tiny_state_budget_reports_budget(self, sizecount_par):
        from repro.core.symbolic import check_data_race_mso
        from repro.solver.solver import MSOSolver

        v = check_data_race_mso(
            sizecount_par, solver=MSOSolver(product_budget=2)
        )
        assert v.status == "budget"
        assert not v.holds


def test_schedule_enumeration_propagates_a_resource_error(monkeypatch):
    """A deadline raised once inside the schedule enumeration (as the
    worker's CPU-rlimit handler does) must reach the caller, not be taken
    for the schedule cap and answered by sampling."""
    from repro.casestudies import sizecount
    from repro.interp import interpreter, program_schedule_outcomes
    from repro.trees.generators import full_tree

    real, calls = interpreter.run, []

    def run_once_interrupted(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise DeadlineExceeded("CPU rlimit exhausted")
        return real(*args, **kwargs)

    monkeypatch.setattr(interpreter, "run", run_once_interrupted)
    with pytest.raises(DeadlineExceeded):
        program_schedule_outcomes(sizecount.parallel_program(), full_tree(2))
