"""The crash-isolated solver service (DESIGN.md §9).

Covers the worker wire protocol, the sandboxed child (including real
SIGSEGV crashes injected with ``REPRO_FAULT=worker-abort``), the
supervisor's retry/circuit-breaker policy, and the resumable batch
layer over its sqlite store.  Everything that spawns a child
uses the bounded engine on tiny programs so a full run stays in seconds.
"""

import io
import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.api import check_data_race
from repro.conformance.oracle import Case, OracleConfig
from repro.service import (
    CircuitBreaker,
    RetryPolicy,
    Supervisor,
    Task,
    WorkerLimits,
    run_batch,
    run_case_isolated,
    run_task,
    task_key,
)
from repro.service.batch import BatchError, load_manifest
from repro.service.protocol import FrameError, jsonable, read_frame, write_frame
from repro.service.supervisor import _degrade_task
from repro.service.worker import (
    _task_is_symbolic,
    task_for_case,
    task_for_race,
)

RACY = """
F(n) { if (n == nil) { return 0 } else { n.v = 1; a = F(n.l); b = F(n.r); return a + b } }
Main(n) { { x = F(n) || y = F(n) }; return x }
"""

RACEFREE = """
F(n) { if (n == nil) { return 0 } else { a = F(n.l); b = F(n.r); return a + b + n.v } }
Main(n) { { x = F(n.l) || y = F(n.r) }; return x + y }
"""

BOUNDED = {"engine": "bounded", "max_internal": 2}


def crash_env(tmp_path, once=True):
    """A child environment where the first symbolic solve SIGSEGVs."""
    env = dict(os.environ)
    env["REPRO_FAULT"] = "worker-abort:1"
    if once:
        env["REPRO_FAULT_ONCE"] = str(tmp_path / "crash-sentinel")
    else:
        env.pop("REPRO_FAULT_ONCE", None)
    return env


# ----------------------------------------------------------------------
# Protocol


def test_frame_roundtrip():
    buf = io.BytesIO()
    write_frame(buf, {"type": "phase", "phase": "solve", "n": [1, 2]})
    write_frame(buf, {"type": "result", "ok": True})
    buf.seek(0)
    assert read_frame(buf)["phase"] == "solve"
    assert read_frame(buf)["ok"] is True
    assert read_frame(buf) is None  # clean EOF


def test_torn_frames_raise():
    buf = io.BytesIO()
    write_frame(buf, {"big": "x" * 100})
    whole = buf.getvalue()
    with pytest.raises(FrameError):  # torn inside the length prefix
        read_frame(io.BytesIO(whole[:2]))
    with pytest.raises(FrameError):  # torn inside the payload
        read_frame(io.BytesIO(whole[:20]))
    with pytest.raises(FrameError):  # absurd length prefix
        read_frame(io.BytesIO(b"\xff\xff\xff\xff" + b"junk"))


def test_task_key_is_content_only():
    t1 = task_for_race(RACY, options=BOUNDED, name="a")
    t2 = task_for_race(RACY, options=BOUNDED, name="a",
                       limits=WorkerLimits(wall_s=5.0, cpu_s=1.0))
    t3 = task_for_race(RACEFREE, options=BOUNDED, name="a")
    assert task_key(t1) == task_key(t2)  # limits excluded by design
    assert task_key(t1) != task_key(t3)
    rt = Task.from_dict(t2.to_dict())
    assert rt == t2


def test_jsonable_sanitizes():
    class Odd:
        def __str__(self):
            return "odd"

    out = jsonable({"t": (1, 2), "o": Odd(), 3: None})
    assert out == {"t": [1, 2], "o": "odd", "3": None}


# ----------------------------------------------------------------------
# Worker children


def test_worker_ok_roundtrip():
    out = run_task(task_for_race(RACY, options=BOUNDED))
    assert out.status == "ok" and out.outcome_class == "ok"
    assert out.value["verdict"] == "race"
    assert out.value["holds"] is False


def test_worker_crash_is_structured(tmp_path):
    task = task_for_race(RACY, options={"max_internal": 2})
    out = run_task(task, env=crash_env(tmp_path, once=False))
    assert out.status == "crashed" and out.outcome_class == "crashed"
    assert out.signal == 11  # SIGSEGV
    assert out.phase == "solve"
    assert "crashed" in out.describe()


def test_worker_abort_skips_bounded_tasks(tmp_path):
    """The crash hook models a symbolic blow-up; a bounded-only task
    must sail through even with the fault armed."""
    out = run_task(
        task_for_race(RACY, options=BOUNDED), env=crash_env(tmp_path, once=False)
    )
    assert out.status == "ok"


def test_worker_wall_clock_kill():
    task = task_for_race(
        RACY, options=BOUNDED, limits=WorkerLimits(wall_s=0.05)
    )
    out = run_task(task)
    assert out.status == "timeout"
    assert out.outcome_class == "resource"


def test_worker_cpu_rlimit_never_crashes_parent():
    # The corpus crash-reproducer's query: at max_internal=4 the oracle's
    # schedule enumeration costs well over a CPU second, so cpu_s=1
    # guarantees the child dies (SIGXCPU, then the kernel's hard SIGKILL)
    # mid-solve.
    entry = json.loads(
        (Path(__file__).parent / "corpus" / "rlimit-crash-reproducer.json")
        .read_text()
    )
    case = Case(
        kind="race", source=entry["source"],
        max_internal=entry["max_internal"], name="rlimit",
    )
    task = task_for_case(
        case, OracleConfig(run_symbolic=False),
        limits=WorkerLimits(wall_s=60.0, cpu_s=1.0),
    )
    out = run_task(task)
    assert out.status in ("failed", "crashed")
    assert out.outcome_class in ("resource", "crashed")
    assert out.phase == "solve"


# ----------------------------------------------------------------------
# Supervisor


def test_retry_policy_deterministic_backoff():
    pol = RetryPolicy()
    assert pol.should_retry(1, "crashed")
    assert not pol.should_retry(1, "resource")  # deterministic under limits
    assert not pol.should_retry(1, "error")
    assert not pol.should_retry(pol.max_attempts, "crashed")
    b1 = pol.backoff_s(1, "key")
    assert b1 == pol.backoff_s(1, "key")  # same task+attempt → same jitter
    assert b1 != pol.backoff_s(2, "key")
    assert 0 < b1 <= pol.backoff_max_s * (1 + pol.jitter_frac)


def test_circuit_breaker_trips_and_degrades():
    br = CircuitBreaker(threshold=2)
    br.record("crashed", symbolic=True)
    assert not br.open
    br.record("crashed", symbolic=False)  # non-symbolic crashes don't count
    br.record("crashed", symbolic=True)
    assert br.open

    sym = task_for_race(RACY, options={"max_internal": 2})
    assert _task_is_symbolic(sym)
    deg = _degrade_task(sym)
    assert deg.payload["options"]["engine"] == "bounded"
    assert not _task_is_symbolic(deg)
    fz = task_for_case(Case(kind="race", source=RACY), OracleConfig())
    assert _task_is_symbolic(fz)
    assert not _task_is_symbolic(_degrade_task(fz))


def test_supervisor_retries_transient_crash(tmp_path):
    sup = Supervisor(
        policy=RetryPolicy(max_attempts=3, backoff_base_s=0.01),
        env=crash_env(tmp_path, once=True),
    )
    res = sup.run_one(task_for_race(RACY, options={"max_internal": 2}))
    assert [a["outcome"] for a in res.attempts] == ["crashed", "ok"]
    assert res.ok and res.final.value["verdict"] == "race"


def test_supervisor_breaker_degrades_to_bounded(tmp_path):
    """A persistently-crashing symbolic worker trips the breaker; the
    bounded-only rerun then succeeds — process-level PR 2 ladder."""
    sup = Supervisor(
        policy=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
        breaker=CircuitBreaker(threshold=1),
        env=crash_env(tmp_path, once=False),
    )
    res = sup.run_one(task_for_race(RACY, options={"max_internal": 2}))
    assert res.ok and res.degraded
    assert res.attempts[0]["outcome"] == "crashed"
    assert res.attempts[1].get("degraded") is True
    assert res.final.value["verdict"] == "race"


def test_supervisor_inline_mode_matches():
    res = Supervisor(isolation="inline").run_one(
        task_for_race(RACY, options=BOUNDED)
    )
    assert res.ok and res.final.value["verdict"] == "race"
    with pytest.raises(ValueError):
        Supervisor(isolation="carrier-pigeon")


def test_inline_runners_fusion_and_fuzz():
    from repro.service.worker import execute_payload, task_for_fusion

    sup = Supervisor(isolation="inline")
    fusion = sup.run_one(
        task_for_fusion(RACEFREE, RACEFREE, options=BOUNDED)
    )
    assert fusion.ok and fusion.final.value["verdict"] == "equivalent"
    case = task_for_case(
        Case(kind="race", source=RACY, max_internal=2, name="inline"),
        OracleConfig(run_symbolic=False),
    )
    res = sup.run_one(case)
    assert res.ok and res.final.value["mismatches"] == []
    with pytest.raises(ValueError):
        execute_payload("levitate", {})
    bad = sup.run_one(
        task_for_race(RACY, options={"engine": "bounded", "warp": 9})
    )
    assert bad.final.status == "failed"
    assert bad.final.outcome_class == "error"
    assert "unknown task options" in bad.final.describe()


def test_supervisor_map_parallel():
    tasks = [
        task_for_race(RACY, options=BOUNDED, name="racy"),
        task_for_race(RACEFREE, options=BOUNDED, name="clean"),
    ]
    results = Supervisor().map(tasks, jobs=2)
    assert [r.task.name for r in results] == ["racy", "clean"]
    assert [r.final.value["holds"] for r in results] == [False, True]


# ----------------------------------------------------------------------
# High-level isolated entry points


def test_api_isolation_process():
    from repro.lang.parser import parse_program

    program = parse_program(RACY, name="racy")
    res = check_data_race(
        program, engine="bounded", max_internal=2, isolation="process",
        wall_s=60.0,
    )
    assert res.verdict == "race" and not res.holds
    assert res.details["isolation"] == "process"
    with pytest.raises(ValueError):
        check_data_race(program, isolation="osmosis")


def test_api_isolation_surfaces_dead_worker(monkeypatch):
    # A worker that dies past its retry budget must yield unknown/False,
    # with the crash recorded in the attempts trail.
    from repro.lang.parser import parse_program

    monkeypatch.setenv("REPRO_FAULT", "worker-abort:1")
    monkeypatch.delenv("REPRO_FAULT_ONCE", raising=False)
    res = check_data_race(
        parse_program(RACY, name="racy"), max_internal=2, replay=False,
        wall_s=60.0, isolation="process",
    )
    assert res.verdict == "unknown" and res.holds is False
    assert res.engine == "process"
    assert res.details["worker"]["outcome_class"] == "crashed"
    assert res.details["attempts"][0]["outcome"] == "crashed"
    assert res.details["attempts"][0]["phase"] == "solve"


def test_worker_crash_hook_spares_interp_tasks(monkeypatch):
    """The symbolic-only crash hook must not fire on an ``engine="interp"``
    check, which never runs the MSO procedure."""
    from repro.lang.parser import parse_program

    monkeypatch.setenv("REPRO_FAULT", "worker-abort:1")
    monkeypatch.delenv("REPRO_FAULT_ONCE", raising=False)
    res = check_data_race(
        parse_program(RACY, name="racy"), engine="interp", max_internal=2,
        replay=False, wall_s=60.0, isolation="process",
    )
    assert res.verdict == "race"
    assert [a["rung"] for a in res.details["attempts"]] == ["interp@2"]


def test_fuzz_case_isolated_engine_error(tmp_path):
    case = Case(kind="race", source=RACY, max_internal=2, name="iso")
    sup = Supervisor(
        policy=RetryPolicy(max_attempts=1), env=crash_env(tmp_path, once=False)
    )
    result = run_case_isolated(case, OracleConfig(), supervisor=sup)
    assert [m.kind for m in result.mismatches] == ["engine-error"]
    assert result.engines["worker"]["status"] == "crashed"


def test_fuzz_loop_survives_crashing_engine(tmp_path):
    """With isolation, a crashing symbolic engine becomes per-case
    engine-error mismatches instead of aborting the fuzz run."""
    from repro.conformance.fuzz import run_fuzz

    env = crash_env(tmp_path, once=False)
    old = {k: os.environ.get(k) for k in ("REPRO_FAULT", "REPRO_FAULT_ONCE")}
    os.environ["REPRO_FAULT"] = env["REPRO_FAULT"]
    os.environ.pop("REPRO_FAULT_ONCE", None)
    try:
        report = run_fuzz(
            seed=3, budget_s=60.0, max_cases=2, shrink=False,
            isolation="process", worker_limits=WorkerLimits(wall_s=60.0),
        )
    finally:
        for k, v in old.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    assert report.cases == 2
    assert report.mismatches  # surfaced, not aborted
    assert all(
        m.kind == "engine-error" for _c, mms in report.mismatches for m in mms
    )


# ----------------------------------------------------------------------
# Batch layer


def write_manifest(path: Path, tasks=None) -> Path:
    data = {
        "defaults": {"options": BOUNDED, "limits": {"wall_s": 60.0}},
        "tasks": tasks or [
            {"name": "racy", "kind": "check-race", "source": RACY},
            {"name": "clean", "kind": "check-race", "source": RACEFREE},
        ],
    }
    path.write_text(json.dumps(data))
    return path


def test_load_manifest_validates(tmp_path):
    m = write_manifest(tmp_path / "m.json")
    tasks = load_manifest(m)
    assert [t.name for t in tasks] == ["racy", "clean"]
    assert tasks[0].limits.wall_s == 60.0
    with pytest.raises(BatchError):
        load_manifest(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"tasks": [{"name": "x", "kind": "levitate"}]}))
    with pytest.raises(BatchError):
        load_manifest(bad)
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"tasks": [
        {"name": "x", "kind": "check-race", "source": RACY},
        {"name": "x", "kind": "check-race", "source": RACY},
    ]}))
    with pytest.raises(BatchError):
        load_manifest(dup)
    # Non-object entries and sections are usage errors, not crashes.
    racy = {"name": "x", "kind": "check-race", "source": RACY}
    fusion = {"name": "f", "kind": "check-fusion", "source": RACY,
              "source2": RACY}
    for data in (
        {"tasks": ["oops"]},
        {"defaults": [], "tasks": [racy]},
        {"defaults": {"options": "fast"}, "tasks": [racy]},
        {"tasks": [{**racy, "options": ["bounded"]}]},
        {"tasks": [{**racy, "limits": 60}]},
        {"tasks": [{"name": "f", "kind": "fuzz-case", "case": "oops"}]},
        # map_overrides must map ids to lists of ids; limits must be
        # positive numbers or null.
        {"tasks": [{**fusion, "map_overrides": ["s1"]}]},
        {"tasks": [{**fusion, "map_overrides": {"s1": 5}}]},
        {"tasks": [{**fusion, "map_overrides": {"s1": [5]}}]},
        {"tasks": [{**racy, "limits": {"wall_s": "soon"}}]},
        {"tasks": [{**racy, "limits": {"cpu_s": -1}}]},
        {"tasks": [{**racy, "limits": {"mem_bytes": 1.5}}]},
        {"defaults": {"limits": {"wall_s": True}}, "tasks": [racy]},
    ):
        bad.write_text(json.dumps(data))
        with pytest.raises(BatchError):
            load_manifest(bad)
    # Rejected before the run directory is created.
    with pytest.raises(BatchError):
        run_batch(bad, tmp_path / "never")
    assert not (tmp_path / "never").exists()


def test_batch_run_and_full_resume(tmp_path):
    m = write_manifest(tmp_path / "m.json")
    run = tmp_path / "run"
    report = run_batch(m, run, jobs=2)
    assert report.exit_code == 1  # racy task found a violation
    assert report.ran == 2 and report.resumed == 0
    results_1 = (run / "results.json").read_bytes()
    by_name = {r["name"]: r for r in report.results}
    assert by_name["racy"]["verdict"] == "race"
    assert by_name["clean"]["verdict"] == "race-free"

    # Resuming a complete run recomputes nothing and is byte-identical.
    report2 = run_batch(m, run, resume=True)
    assert report2.resumed == 2 and report2.ran == 0
    assert (run / "results.json").read_bytes() == results_1

    # Guard rails.
    with pytest.raises(BatchError):
        run_batch(m, run)  # fresh run into a used dir
    with pytest.raises(BatchError):
        run_batch(m, tmp_path / "virgin", resume=True)  # resume of nothing
    other = write_manifest(tmp_path / "other.json", tasks=[
        {"name": "only", "kind": "check-race", "source": RACY},
    ])
    with pytest.raises(BatchError):
        run_batch(other, run, resume=True)  # manifest mismatch


def test_batch_run_dir_holds_one_sqlite_store(tmp_path):
    """Resume records and query-keyed verdicts share run/cache.sqlite;
    no file-per-record store directories appear."""
    run = tmp_path / "run"
    run_batch(write_manifest(tmp_path / "m.json"), run)
    assert (run / "cache.sqlite").is_file()
    for gone in ("store", "cache", "quarantine"):
        assert not (run / gone).exists()


def test_batch_cache_rows_are_resume_and_verdict_rows(tmp_path):
    """After a batch, cache.sqlite holds one task-keyed resume row per
    task plus one query-keyed verdict row per decided check task."""
    from repro.service.worker import decode_task

    m = write_manifest(tmp_path / "m.json", tasks=[
        {"name": "racy", "kind": "check-race", "source": RACY},
        {"name": "clean", "kind": "check-race", "source": RACEFREE},
        {"name": "fz", "kind": "fuzz-case",
         "case": {"kind": "race", "source": RACY, "max_internal": 2},
         "oracle": {"run_symbolic": False}},
    ])
    run = tmp_path / "run"
    run_batch(m, run, isolation="inline")
    conn = sqlite3.connect(run / "cache.sqlite")
    rows = {k for (k,) in conn.execute("SELECT key FROM records")}
    conn.close()
    tasks = load_manifest(m)
    assert rows == {task_key(t) for t in tasks} | {
        decode_task(t)[0].key() for t in tasks if t.kind == "check-race"
    }


def test_batch_resume_after_torn_journal(tmp_path):
    """Simulated kill -9 between two tasks: one task's resume row is
    missing and a torn ``journal.jsonl`` from an older run directory
    layout lies beside the store.  Resume ignores the journal and
    recomputes exactly the task without a row; results.json is
    byte-identical."""
    m = write_manifest(tmp_path / "m.json")
    run_a = tmp_path / "run-a"
    run_batch(m, run_a, jobs=1)
    golden = (run_a / "results.json").read_bytes()

    run_b = tmp_path / "run-b"
    run_batch(m, run_b, jobs=1)
    drop = task_key(load_manifest(m)[1])
    (run_b / "journal.jsonl").write_text(
        json.dumps({"event": "verdict", "key": drop}) + "\n"
        + '{"event": "verdict", "key": "to'
    )
    conn = sqlite3.connect(run_b / "cache.sqlite")
    conn.execute("DELETE FROM records WHERE key = ?", (drop,))
    conn.commit()
    conn.close()
    (run_b / "results.json").unlink()

    report = run_batch(m, run_b, resume=True)
    # The task without a row is recomputed -- served from the run
    # directory's query-keyed verdict row, which survived.
    assert report.resumed == 1
    assert report.ran + report.cache_hits == 1
    tasks = json.loads((run_b / "report.json").read_text())["tasks"]
    assert {n for n, t in tasks.items() if t["resumed"]} == {"racy"}
    assert (run_b / "results.json").read_bytes() == golden


def test_resume_ignores_a_leftover_journal(tmp_path):
    """A ``journal.jsonl`` of garbage in the run directory changes
    nothing: every task resumes from its row, byte-identically."""
    m = write_manifest(tmp_path / "m.json")
    run = tmp_path / "run"
    run_batch(m, run)
    golden = (run / "results.json").read_bytes()
    (run / "journal.jsonl").write_bytes(b'\x00{"event": "verdict", not json\n')
    (run / "results.json").unlink()

    report = run_batch(m, run, resume=True)
    assert report.resumed == 2 and report.ran == 0
    assert report.cache_hits == 0
    assert (run / "results.json").read_bytes() == golden
    assert "journal_skipped_lines" not in json.loads(
        (run / "report.json").read_text()
    )


def test_batch_fuzz_case_served_from_its_task_row(tmp_path):
    """A fuzz case whose checksummed task row was committed before the
    driver died resumes from that row; it is not rerun."""
    m = write_manifest(tmp_path / "m.json", tasks=[
        {"name": "fz", "kind": "fuzz-case",
         "case": {"kind": "race", "source": RACY, "max_internal": 2},
         "oracle": {"run_symbolic": False}},
    ])
    run = tmp_path / "run"
    run_batch(m, run, isolation="inline")
    golden = (run / "results.json").read_bytes()
    (run / "results.json").unlink()

    report = run_batch(m, run, isolation="inline", resume=True)
    assert report.resumed == 1
    assert report.ran == 0 and report.cache_hits == 0
    assert (run / "results.json").read_bytes() == golden


def test_batch_corrupt_store_record_recomputed(tmp_path):
    m = write_manifest(tmp_path / "m.json")
    run = tmp_path / "run"
    run_batch(m, run)
    golden = (run / "results.json").read_bytes()
    # Corrupt one task's resume row (keyed by its task key).
    victim = task_key(load_manifest(m)[0])
    conn = sqlite3.connect(run / "cache.sqlite")
    conn.execute(
        "UPDATE records SET payload = replace(payload, 'race', 'rice') "
        "WHERE key = ?", (victim,),
    )
    conn.commit()
    conn.close()
    report = run_batch(m, run, resume=True)
    assert report.quarantined == 1
    assert report.resumed == 1
    assert report.ran + report.cache_hits == 1
    assert (run / "results.json").read_bytes() == golden


def test_batch_failed_task_retried_on_resume(tmp_path):
    """A worker that dies past its retry budget leaves no resume row,
    exits 2, and gets a fresh chance on --resume."""
    # NOTE: engine "auto" (symbolic-capable) — the crash hook only fires
    # for tasks that would run the symbolic engine.
    m = write_manifest(tmp_path / "m.json", tasks=[
        {"name": "sym", "kind": "check-race", "source": RACY,
         "options": {"engine": "auto", "max_internal": 2}},
    ])
    run = tmp_path / "run"
    env = crash_env(tmp_path, once=False)
    old = os.environ.get("REPRO_FAULT")
    os.environ["REPRO_FAULT"] = env["REPRO_FAULT"]
    try:
        report = run_batch(
            m, run, policy=RetryPolicy(max_attempts=1),
        )
    finally:
        if old is None:
            os.environ.pop("REPRO_FAULT", None)
        else:
            os.environ["REPRO_FAULT"] = old
    assert report.exit_code == 2 and report.failed == 1
    status = json.loads((run / "report.json").read_text())["tasks"]["sym"]
    assert status["status"] == "crashed" and status["resumed"] is False
    assert json.loads((run / "results.json").read_text())[0]["verdict"] == "unknown"

    report2 = run_batch(m, run, resume=True)
    assert report2.exit_code == 1  # RACY: violation found this time
    assert report2.ran == 1 and report2.failed == 0
    assert report2.resumed == 0


def test_batch_cli_end_to_end(tmp_path):
    """The `repro batch` subcommand: run, then resume, uniform exit codes."""
    m = write_manifest(tmp_path / "m.json")
    run = tmp_path / "run"
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "repro.cli", "batch", str(m),
           "--run-dir", str(run), "--jobs", "2"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr  # violation in RACY
    assert "2 task(s)" in proc.stdout
    golden = (run / "results.json").read_bytes()
    proc2 = subprocess.run(
        [sys.executable, "-m", "repro.cli", "batch", str(m), "--resume", str(run)],
        env=env, capture_output=True, text=True,
    )
    assert proc2.returncode == 1, proc2.stderr
    assert "2 resumed" in proc2.stdout
    assert (run / "results.json").read_bytes() == golden
    # Usage errors exit 2.
    proc3 = subprocess.run(
        [sys.executable, "-m", "repro.cli", "batch", str(tmp_path / "no.json")],
        env=env, capture_output=True, text=True,
    )
    assert proc3.returncode == 2
    assert "error:" in proc3.stderr


def test_report_json_surfaces_breaker_and_retry_budget(tmp_path):
    """report.json carries the circuit breaker's full state and each
    task's retry/degradation spend — observability, not just a bool."""
    m = write_manifest(tmp_path / "m.json")
    run = tmp_path / "run"
    run_batch(m, run)
    report = json.loads((run / "report.json").read_text())
    assert report["breaker"] == {
        "open": False, "threshold": 3,
        "consecutive_crashes": 0, "trips": 0,
    }
    assert report["retry_budget"]["per_task_max"] == 2
    assert report["retry_budget"]["spent_total"] == 0
    for name in ("racy", "clean"):
        assert report["tasks"][name]["retries"] == 0
        assert report["tasks"][name]["degraded"] is False


def test_breaker_as_dict_counts_trips(tmp_path):
    br = CircuitBreaker(threshold=1)
    sup = Supervisor(
        policy=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
        breaker=br,
        env=crash_env(tmp_path, once=False),
    )
    res = sup.run_one(task_for_race(RACY, options={"max_internal": 2}))
    assert res.ok and res.retries == 1
    state = br.as_dict()
    assert state["open"] is True and state["trips"] == 1
    # The clean degraded retry reset the consecutive-crash streak, but
    # the breaker stays open and the trip stays counted.
    assert state["consecutive_crashes"] == 0
    assert state["threshold"] == 1


def test_fault_once_sentinel_fires_exactly_once_pool_wide(tmp_path):
    """Four symbolic tasks race through four concurrent children with
    REPRO_FAULT=worker-abort armed and a shared REPRO_FAULT_ONCE
    sentinel: exactly ONE child may crash.  The sentinel claim is an
    atomic O_CREAT|O_EXCL open, so concurrently-starting children
    cannot both win the race (the old exists()-then-touch pattern
    could crash several)."""
    sup = Supervisor(
        policy=RetryPolicy(max_attempts=3, backoff_base_s=0.01),
        breaker=CircuitBreaker(threshold=100),  # stay closed: no degrade
        env=crash_env(tmp_path, once=True),
    )
    tasks = []
    for i in range(4):
        src = RACY.replace("return a + b", f"return a + b + {i}")
        tasks.append(task_for_race(src, options={"max_internal": 2},
                                   name=f"t{i}"))
    results = sup.map(tasks, jobs=4)
    assert len(results) == 4
    crashes = sum(
        1 for r in results for a in r.attempts if a["outcome"] == "crashed"
    )
    assert crashes == 1, f"sentinel fired {crashes}× (want exactly 1)"
    assert all(r.ok for r in results)  # the crashed task retried clean
