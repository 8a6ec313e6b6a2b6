"""The multi-tenant solve daemon (DESIGN.md §11).

Covers the admission/fairness scheduler as a pure data structure (fake
clock, exact stride arithmetic), the shared crash-safe sqlite cache
tier (checksums, byte-flip corruption, quarantine, fault probes), and
the daemon end-to-end over its Unix socket: solve/cache/coalesce paths,
backpressure and shedding, status observability, graceful drain, and
restarts that byte-verify the store and serve earlier work from it.
Daemons run in-process (a thread with its own asyncio loop,
``isolation="inline"``, bounded engine) so the whole file stays in
seconds.
"""

import asyncio
import json
import sqlite3
import threading
import time
from pathlib import Path

import pytest

from repro.core.api import check_data_race
from repro.engine import ResultCache, plan_for
from repro.engine.query import RaceQuery
from repro.lang import parse_program
from repro.runtime import faults
from repro.service import (
    DaemonClient,
    DaemonConfig,
    FairScheduler,
    ServiceOverloaded,
    SharedCache,
    SolveDaemon,
    WorkerLimits,
    task_key,
)
from repro.service.client import DaemonError
from repro.service.scheduler import TokenBucket
from repro.service.worker import task_for_race

RACY = """
F(n) { if (n == nil) { return 0 } else { n.v = 1; a = F(n.l); b = F(n.r); return a + b } }
Main(n) { { x = F(n) || y = F(n) }; return x }
"""

RACEFREE = """
F(n) { if (n == nil) { return 0 } else { a = F(n.l); b = F(n.r); return a + b + n.v } }
Main(n) { { x = F(n.l) || y = F(n.r) }; return x + y }
"""

BOUNDED = {"engine": "bounded", "max_internal": 2}


def racy_task(name="racy", **opts):
    return task_for_race(RACY, options={**BOUNDED, **opts}, name=name)


def racefree_task(name="racefree", **opts):
    return task_for_race(RACEFREE, options={**BOUNDED, **opts}, name=name)


def distinct_task(i):
    """Tasks with distinct content keys (the constant varies)."""
    src = RACEFREE.replace("a + b + n.v", f"a + b + n.v + {i}")
    return task_for_race(src, options=BOUNDED, name=f"t{i}")


class WorkerGate:
    """Holds every inline solve until :meth:`release`, so a test can
    keep the daemon's one worker busy while it queues work behind it."""

    def __init__(self, monkeypatch):
        from repro.service import supervisor

        self._started = threading.Semaphore(0)
        self._open = threading.Event()
        real = supervisor.execute_payload

        def held(*args, **kw):
            self._started.release()
            self._open.wait(timeout=30)
            return real(*args, **kw)

        monkeypatch.setattr(supervisor, "execute_payload", held)

    def wait_started(self):
        """Block until a solve has entered the gate."""
        assert self._started.acquire(timeout=10), "no solve started"

    def release(self):
        self._open.set()


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.disarm_all()


# ----------------------------------------------------------------------
# Token bucket


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_token_bucket_refills_on_the_clock():
    clock = FakeClock()
    bucket = TokenBucket(rate_per_s=2.0, burst=2.0, clock=clock)
    assert bucket.try_take() is None
    assert bucket.try_take() is None
    retry = bucket.try_take()  # empty: hint is time to the next token
    assert retry == pytest.approx(0.5)
    clock.now += 0.5
    assert bucket.try_take() is None
    assert bucket.try_take() is not None


def test_token_bucket_disabled_without_rate():
    bucket = TokenBucket(rate_per_s=None, burst=1.0)
    for _ in range(100):
        assert bucket.try_take() is None


# ----------------------------------------------------------------------
# Fair scheduler


def test_quota_rejects_with_retry_after():
    clock = FakeClock()
    s = FairScheduler(quota_rate=1.0, quota_burst=2.0, clock=clock)
    s.submit("a", distinct_task(0))
    s.submit("a", distinct_task(1))
    with pytest.raises(ServiceOverloaded) as ei:
        s.submit("a", distinct_task(2))
    assert ei.value.reason == "quota"
    assert ei.value.retry_after_s == pytest.approx(1.0)
    assert ei.value.client == "a"
    # The rejection consumed no queue slot and a later token admits.
    assert s.depth() == 2
    clock.now += 1.0
    s.submit("a", distinct_task(2))
    assert s.depth() == 3


def test_queue_full_rejects_equal_priority():
    s = FairScheduler(max_depth=2)
    s.submit("a", distinct_task(0), priority=5)
    s.submit("b", distinct_task(1), priority=5)
    with pytest.raises(ServiceOverloaded) as ei:
        s.submit("c", distinct_task(2), priority=5)
    assert ei.value.reason == "queue-full"
    assert ei.value.retry_after_s > 0
    assert s.stats()["counters"]["rejected_full"] == 1


def test_load_sheds_lowest_priority_newest_first():
    s = FairScheduler(max_depth=3)
    s.submit("a", distinct_task(0), priority=2)
    low_old, _ = s.submit("b", distinct_task(1), priority=1)
    low_new, _ = s.submit("b", distinct_task(2), priority=1)
    _, shed = s.submit("c", distinct_task(3), priority=8)
    # Lowest priority loses; among equals the newest goes first.
    assert [v.key for v in shed] == [low_new.key]
    assert low_new.cancelled and not low_old.cancelled
    assert s.depth() == 3
    # An incoming submission that is itself lowest-or-equal is rejected,
    # never allowed to evict equal-priority work.
    with pytest.raises(ServiceOverloaded):
        s.submit("d", distinct_task(4), priority=1)
    assert s.stats()["counters"]["shed"] == 1


def test_no_starvation_under_flood():
    s = FairScheduler(max_depth=1000)
    for i in range(50):
        s.submit("flooder", distinct_task(i))
    s.submit("victim", distinct_task(999))
    # However deep the flooder's backlog, the victim is served within
    # two dequeues: its pass value equals the flooder's.
    first_two = {s.next_ready().client, s.next_ready().client}
    assert "victim" in first_two


def test_priority_orders_within_a_client():
    s = FairScheduler()
    s.submit("a", distinct_task(0), priority=1)
    hi, _ = s.submit("a", distinct_task(1), priority=9)
    assert s.next_ready().key == hi.key


def test_queue_full_probe_forces_rejection():
    s = FairScheduler(max_depth=100)
    faults.arm("queue-full", hit=1)
    with pytest.raises(ServiceOverloaded) as ei:
        s.submit("a", distinct_task(0))
    assert ei.value.reason == "queue-full"
    # One-shot probe: the next submission admits normally.
    s.submit("a", distinct_task(1))
    assert s.depth() == 1


# ----------------------------------------------------------------------
# Shared cache tier


def test_shared_cache_roundtrip_across_instances(tmp_path):
    path = tmp_path / "cache.sqlite"
    c1 = SharedCache(path)
    c1.put("k1", {"verdict": "race", "n": 1})
    c1.put("k1", {"verdict": "race", "n": 2})  # idempotent overwrite
    c1.close()
    c2 = SharedCache(path)
    assert c2.get("k1") == {"verdict": "race", "n": 2}
    assert c2.get("missing") is None
    assert len(c2) == 1 and c2.verify_all() == (1, 0)
    c2.close()


def test_byte_flip_is_quarantined_never_served(tmp_path):
    path = tmp_path / "cache.sqlite"
    cache = SharedCache(path)
    cache.put("k1", {"verdict": "race-free", "holds": True})
    cache.close()

    # Flip bytes in the stored row behind the cache's back.
    conn = sqlite3.connect(path)
    (payload,) = conn.execute(
        "SELECT payload FROM records WHERE key='k1'"
    ).fetchone()
    evil = payload.replace("race-free", "race-full")
    conn.execute("UPDATE records SET payload=? WHERE key='k1'", (evil,))
    conn.commit()
    conn.close()

    cache = SharedCache(path)
    assert cache.get("k1") is None  # miss, not a wrong verdict
    assert cache.quarantined == ["k1"]
    assert cache.quarantine_count() == 1
    assert len(cache) == 0  # the corrupt row is gone from records
    # Recompute path: a fresh put of the true verdict is served again.
    cache.put("k1", {"verdict": "race-free", "holds": True})
    assert cache.get("k1")["verdict"] == "race-free"
    cache.close()


def test_cache_row_corrupt_probe_quarantines(tmp_path):
    cache = SharedCache(tmp_path / "cache.sqlite")
    cache.put("k1", {"v": 1})
    faults.arm("cache-row-corrupt", hit=1, action="corrupt")
    assert cache.get("k1") is None
    assert cache.quarantined == ["k1"]
    cache.close()


def test_cache_row_corrupt_probe_raise_action(tmp_path):
    cache = SharedCache(tmp_path / "cache.sqlite")
    cache.put("k1", {"v": 1})
    faults.arm("cache-row-corrupt", hit=1, action="raise")
    assert cache.get("k1") is None  # injected raise == unreadable row
    assert cache.quarantine_count() == 1
    cache.close()


def test_result_cache_over_shared_backend(tmp_path):
    """The engine-level ResultCache keeps its rows in the directory's
    shared sqlite tier and the soundness gating still applies across
    instances."""
    prog = parse_program(RACY, name="racy")
    query = RaceQuery(program=prog, scope=2)

    rc = ResultCache(tmp_path)
    res = check_data_race(prog, engine="bounded", max_internal=2,
                          replay=False, cache=rc)
    assert res.verdict == "race"
    assert rc.stats.stored >= 1
    rc.shared.close()

    # A second process (fresh instances, same sqlite file) reuses it.
    rc2 = ResultCache(tmp_path)
    assert rc2.shared.path == tmp_path / "cache.sqlite"
    record = rc2.lookup(query, plan_for("bounded"))
    assert record is not None and record["verdict"] == "race"
    assert rc2.stats.hits == 1
    rc2.shared.close()


# ----------------------------------------------------------------------
# Daemon end-to-end (in-process)


class DaemonHandle:
    """Run one SolveDaemon on a thread with its own asyncio loop."""

    def __init__(self, run_dir, **kw):
        kw.setdefault("isolation", "inline")
        kw.setdefault("jobs", 1)
        kw.setdefault("poll_s", 0.01)
        self.daemon = SolveDaemon(Path(run_dir), DaemonConfig(**kw))
        self.result = {}
        self.thread = threading.Thread(target=self._main, daemon=True)

    def _main(self):
        try:
            self.result["code"] = asyncio.run(self.daemon.run())
        except BaseException as e:  # surfaced by __enter__/stop
            self.result["error"] = e

    def __enter__(self):
        self.thread.start()
        deadline = time.monotonic() + 15
        while not self.daemon.socket_path.exists():
            if "error" in self.result:
                raise self.result["error"]
            if time.monotonic() > deadline:
                raise TimeoutError("daemon did not come up")
            time.sleep(0.01)
        return self

    def client(self, client_id="test"):
        return DaemonClient(self.daemon.socket_path, client_id=client_id)

    def stop(self, timeout=20):
        if self.thread.is_alive() and "error" not in self.result:
            try:
                with self.client("stopper") as c:
                    c.shutdown()
            except DaemonError:
                pass  # already draining/down
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "daemon failed to drain"
        if "error" in self.result:
            raise self.result["error"]
        return self.result.get("code")

    def __exit__(self, *exc):
        self.stop()


def test_daemon_solves_caches_and_coalesces(tmp_path):
    with DaemonHandle(tmp_path / "run") as h:
        with h.client() as c:
            assert c.ping()["type"] == "pong"
            task = racy_task()
            r1 = c.submit_task(task)
            assert r1["ok"] and not r1["cached"]
            assert r1["value"]["verdict"] == "race"
            assert r1["key"] == task_key(task)
            r2 = c.submit_task(task)
            assert r2["cached"] and r2["value"]["verdict"] == "race"
            r3 = c.submit_task(racefree_task())
            assert r3["value"]["verdict"] == "race-free"
            st = c.status()
        code = h.stop()
    assert code == 0
    assert st["completed"] == 2 and st["cache_hits"] == 1
    assert st["breaker"]["open"] is False
    assert st["breaker"]["trips"] == 0
    assert st["retry_budget"]["per_task_max"] == 2
    assert st["cache"]["shared"]["rows"] == 2
    assert st["queue"]["counters"]["admitted"] == 2
    assert "test" in st["queue"]["clients"]


def test_daemon_restart_verifies_rows_and_serves_warm(tmp_path):
    run_dir = tmp_path / "run"
    task = racy_task()
    with DaemonHandle(run_dir) as h:
        with h.client() as c:
            assert not c.submit_task(task)["cached"]
        assert h.stop() == 0

    with DaemonHandle(run_dir) as h2:
        with h2.client() as c:
            st = c.status()
            r = c.submit_task(task)
            assert r["cached"] and r["value"]["verdict"] == "race"
    assert st["store"] == {"verified_rows": 1, "verify_quarantined": 0}
    assert not (run_dir / "daemon-journal.jsonl").exists()


def test_daemon_restart_recomputes_no_earlier_task(tmp_path):
    """Every task answered before a restart is answered from its row
    after it: resubmitting them all computes nothing."""
    run_dir = tmp_path / "run"
    tasks = [racy_task()] + [distinct_task(i) for i in range(3)]
    with DaemonHandle(run_dir) as h:
        with h.client() as c:
            before = [c.submit_task(t)["value"]["verdict"] for t in tasks]
        assert h.stop() == 0

    with DaemonHandle(run_dir) as h2:
        with h2.client() as c:
            replies = [c.submit_task(t) for t in tasks]
            st = c.status()
        assert h2.stop() == 0
    assert [r["value"]["verdict"] for r in replies] == before
    assert all(r["cached"] for r in replies)
    assert st["completed"] == 0 and st["cache_hits"] == len(tasks)
    assert st["store"]["verified_rows"] == len(tasks)


def test_daemon_quarantines_corruption_across_restart(tmp_path):
    """Byte-flip a shared-cache row between daemon lifetimes: the
    restart quarantines it, the resubmission recomputes, and the
    verdict never goes wrong."""
    run_dir = tmp_path / "run"
    task = racy_task()
    with DaemonHandle(run_dir) as h:
        with h.client() as c:
            r = c.submit_task(task)
            assert r["value"]["verdict"] == "race"
        assert h.stop() == 0

    conn = sqlite3.connect(run_dir / "cache.sqlite")
    conn.execute("UPDATE records SET payload = replace(payload, 'race', 'rxce')")
    conn.commit()
    conn.close()

    with DaemonHandle(run_dir) as h2:
        with h2.client() as c:
            assert c.status()["store"] == {
                "verified_rows": 0, "verify_quarantined": 1,
            }
            r = c.submit_task(task)
            assert not r["cached"]  # recomputed, not served corrupt
            assert r["value"]["verdict"] == "race"
            assert c.status()["completed"] == 1


def test_daemon_overload_and_shedding_e2e(tmp_path, monkeypatch):
    # A held solve occupies the one worker, so later submissions stay
    # queued: admission behavior becomes deterministic.
    gate = WorkerGate(monkeypatch)
    with DaemonHandle(tmp_path / "run", queue_depth=1) as h, \
            h.client("flooder") as c:
        try:
            busy = c.request({
                "type": "submit", "client": "flooder", "priority": 5,
                "task": distinct_task(3).to_dict(), "wait": False,
            })
            assert busy["type"] == "accepted"
            gate.wait_started()
            fill = c.request({
                "type": "submit", "client": "flooder", "priority": 5,
                "task": distinct_task(0).to_dict(), "wait": False,
            })
            assert fill["type"] == "accepted"
            # Equal priority cannot displace queued work: queue-full.
            rej = c.request({
                "type": "submit", "client": "flooder", "priority": 5,
                "task": distinct_task(1).to_dict(), "wait": False,
            })
            assert rej["type"] == "error"
            assert rej["error"] == "ServiceOverloaded"
            assert rej["reason"] == "queue-full"
            assert rej["retry_after_s"] > 0
            # Higher priority sheds the queued lowest-priority entry.
            vip = c.request({
                "type": "submit", "client": "vip", "priority": 9,
                "task": distinct_task(2).to_dict(), "wait": False,
            })
            assert vip["type"] == "accepted"
            st = c.status()
            assert st["queue"]["counters"]["shed"] == 1
            assert st["queue"]["counters"]["rejected_full"] == 1
        finally:
            gate.release()


def test_daemon_quota_rejects_but_other_client_completes(tmp_path):
    """The ISSUE acceptance shape: a saturating client is rejected with
    ServiceOverloaded while another client's queries still complete."""
    with DaemonHandle(
        tmp_path / "run", client_rate=0.001, client_burst=2.0
    ) as h:
        with h.client("greedy") as greedy:
            greedy.submit_task(distinct_task(0))
            greedy.submit_task(distinct_task(1))
            with pytest.raises(ServiceOverloaded) as ei:
                greedy.submit_task(distinct_task(2))
            assert ei.value.reason == "quota"
        # The other client's bucket is its own: work completes.
        with h.client("patient") as patient:
            r = patient.submit_task(distinct_task(3))
            assert r["ok"] and r["value"]["verdict"] == "race-free"
            st = patient.status()
    assert st["queue"]["counters"]["rejected_quota"] == 1
    assert st["queue"]["clients"]["patient"]["completed"] == 1


def test_daemon_coalesces_concurrent_identical_submissions(
    tmp_path, monkeypatch
):
    gate = WorkerGate(monkeypatch)
    with DaemonHandle(tmp_path / "run") as h:
        task = racy_task()
        results = {}

        def submit(tag):
            with h.client(tag) as c:
                results[tag] = c.submit_task(task)

        threads = [
            threading.Thread(target=submit, args=(f"c{i}",))
            for i in range(3)
        ]
        # The first solve is held until the other two joined it.
        threads[0].start()
        gate.wait_started()
        for t in threads[1:]:
            t.start()
        with h.client() as c:
            deadline = time.monotonic() + 10
            while (c.status()["coalesced"] < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            gate.release()
            for t in threads:
                t.join(timeout=30)
            st = c.status()
    assert len(results) == 3
    for r in results.values():
        assert r["value"]["verdict"] == "race"
    # One solve (or one solve plus cache hits) — never three solves.
    assert st["completed"] == 1
    assert st["coalesced"] + st["cache_hits"] == 2


def test_daemon_rejects_while_draining_and_exits_zero(tmp_path):
    with DaemonHandle(tmp_path / "run") as h:
        with h.client() as c:
            c.submit_task(racy_task())
            c.shutdown()
            reply = c.request({
                "type": "submit", "client": "late", "priority": 5,
                "task": racefree_task().to_dict(),
            })
        assert reply["type"] == "error"
        assert reply["reason"] == "shutting-down"
        assert h.stop() == 0  # a clean drain
    assert h.daemon.stats["completed"] == 1
    assert h.daemon.stats["failed"] == 0


def test_drain_interrupt_probe_aborts_with_exit_one(tmp_path, monkeypatch):
    gate = WorkerGate(monkeypatch)
    with DaemonHandle(tmp_path / "run") as h:
        faults.arm("drain-interrupt", hit=1)
        with h.client() as c:
            # One solve held in the only worker, one queued behind it.
            c.request({
                "type": "submit", "client": "x", "priority": 5,
                "task": racy_task().to_dict(), "wait": False,
            })
            gate.wait_started()
            c.request({
                "type": "submit", "client": "x", "priority": 5,
                "task": racefree_task().to_dict(), "wait": False,
            })
            c.shutdown()
        try:
            assert h.stop() == 1  # aborted drain is loud, not silent
        finally:
            gate.release()
    assert h.daemon.stats["completed"] == 0
    # The store is still consistent: nothing half-written to quarantine.
    store = SharedCache(tmp_path / "run" / "cache.sqlite")
    assert store.verify_all() == (0, 0)
    store.close()


def test_daemon_lock_is_exclusive(tmp_path):
    with DaemonHandle(tmp_path / "run") as h:
        rival = SolveDaemon(tmp_path / "run", DaemonConfig())
        with pytest.raises(DaemonError, match="already serves"):
            asyncio.run(rival.run())
        # The incumbent is unharmed.
        with h.client() as c:
            assert c.ping()["type"] == "pong"


def test_daemon_bad_requests_get_typed_errors(tmp_path):
    with DaemonHandle(tmp_path / "run") as h:
        with h.client() as c:
            r = c.request({"type": "no-such"})
            assert r["type"] == "error" and "unknown request" in r["detail"]
            r = c.request({"type": "submit", "client": "x"})  # no task
            assert r["type"] == "error" and r["error"] == "BadRequest"
            r = c.request({"type": "submit", "client": "x",
                           "priority": "high", "task": racy_task().to_dict()})
            assert r["type"] == "error" and r["error"] == "BadRequest"
            for limits in ({"wall_s": "soon"}, {"cpu_s": 0}, 60):
                task = {**racy_task().to_dict(), "limits": limits}
                r = c.request({"type": "submit", "client": "x",
                               "task": task})
                assert r["type"] == "error" and r["error"] == "BadRequest"
            assert c.ping()["type"] == "pong"  # connection still served
            assert c.status()["failed"] == 0


def test_daemon_bad_frames_close_only_their_connection(tmp_path):
    """An oversized length prefix and a non-JSON payload each end only
    the connection that sent them; other connections keep being served."""
    import socket
    import struct

    from repro.service.protocol import MAX_FRAME_BYTES

    with DaemonHandle(tmp_path / "run") as h:
        with h.client("bystander") as bystander:
            assert bystander.ping()["type"] == "pong"
            for raw in (
                struct.pack(">I", MAX_FRAME_BYTES + 1),
                struct.pack(">I", 5) + b"nope!",
            ):
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(10)
                try:
                    sock.connect(str(h.daemon.socket_path))
                    sock.sendall(raw)
                    assert sock.recv(1) == b""  # closed, no reply
                finally:
                    sock.close()
                with h.client("fresh") as fresh:
                    assert fresh.ping()["type"] == "pong"
            assert bystander.ping()["type"] == "pong"
            assert bystander.status()["failed"] == 0


def test_daemon_cache_rows_after_miss_and_hit(tmp_path):
    """A daemon stores a check task's verdict under its query key and a
    fuzz case's result under its task key -- one row each, and a cache
    hit adds none."""
    from repro.conformance.oracle import Case, OracleConfig
    from repro.service.worker import decode_task, task_for_case

    task = racy_task()
    fuzz = task_for_case(
        Case(kind="race", source=RACY, max_internal=2, name="fz"),
        OracleConfig(run_symbolic=False),
    )
    run_dir = tmp_path / "run"
    with DaemonHandle(run_dir) as h:
        with h.client() as c:
            assert not c.submit_task(task)["cached"]
            assert c.submit_task(task)["cached"]
            assert c.submit_task(fuzz)["ok"]
            assert c.submit_task(fuzz)["cached"]
    conn = sqlite3.connect(run_dir / "cache.sqlite")
    rows = {k for (k,) in conn.execute("SELECT key FROM records")}
    conn.close()
    assert rows == {decode_task(task)[0].key(), task_key(fuzz)}


def test_daemon_decodes_each_submission_once(tmp_path, monkeypatch):
    """The daemon decodes a task once per submission: a miss reuses the
    query it decoded for the lookup to store the verdict.  (Process
    isolation keeps the worker's own decode out of this process.)"""
    from repro.service import worker

    decoded = []
    real = worker.decode_task

    def counting(task):
        decoded.append(task.name)
        return real(task)

    monkeypatch.setattr(worker, "decode_task", counting)
    with DaemonHandle(tmp_path / "run", isolation="process") as h:
        with h.client() as c:
            assert not c.submit_task(racy_task())["cached"]
            assert decoded == ["racy"]
            assert c.submit_task(racy_task())["cached"]
            assert decoded == ["racy", "racy"]


def test_drained_daemon_has_reaped_its_zygote(tmp_path):
    """After a drain no zygote or worker is left running: the daemon
    reaps them, so their usage counts towards the daemon's children."""
    from repro.service import worker

    with DaemonHandle(tmp_path / "run", isolation="process") as h:
        with h.client() as c:
            assert c.submit_task(racy_task())["ok"]
        zygotes = list(worker._ZYGOTES.values())
        assert zygotes
    assert all(z.proc.returncode is not None for z in zygotes)
    assert not worker._ZYGOTES


def test_client_error_when_no_daemon(tmp_path):
    client = DaemonClient(tmp_path / "nope.sock")
    with pytest.raises(DaemonError, match="repro serve"):
        client.ping()


def test_api_daemon_isolation_dispatch(tmp_path):
    prog = parse_program(RACY, name="racy")
    with DaemonHandle(tmp_path / "run") as h:
        res = check_data_race(
            prog, engine="bounded", max_internal=2, replay=False,
            isolation="daemon", daemon_socket=h.daemon.socket_path,
        )
        assert res.verdict == "race" and not res.holds
        assert res.details["isolation"] == "daemon"
        assert res.details["daemon"]["cached"] is False
        res2 = check_data_race(
            prog, engine="bounded", max_internal=2, replay=False,
            isolation="daemon", daemon_socket=h.daemon.socket_path,
        )
        assert res2.verdict == "race"
        assert res2.details["daemon"]["cached"] is True
    with pytest.raises(ValueError, match="daemon_socket"):
        check_data_race(prog, isolation="daemon")


def test_warm_start_from_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.json").write_text(json.dumps({
        "name": "warm-racy", "kind": "race", "source": RACY,
        "max_internal": 2,
    }))
    (corpus / "bad.json").write_text("{ not json")
    with DaemonHandle(tmp_path / "run", warm_corpus=corpus) as h:
        with h.client() as c:
            st = c.status()
            assert st["cache"]["shared"]["rows"] == 1
            # The warmed verdict is served as a cache hit.
            r = c.submit_task(racy_task(name="warm-racy"))
            assert r["cached"] and r["value"]["verdict"] == "race"


def test_warm_start_uses_corpus_correspondence(tmp_path):
    """A corpus entry's ``correspondence`` overrides the block mapping,
    as ``map_overrides`` does for a check-fusion task."""
    import shutil

    from repro.service.daemon import warm_from_corpus

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(
        Path(__file__).parent / "corpus" / "minimax-fusion.json", corpus
    )
    cache = ResultCache(tmp_path / "run")
    try:
        counts = warm_from_corpus(cache, corpus)
    finally:
        cache.shared.close()
    assert counts == {"warmed": 1, "already": 0, "skipped": 0}


@pytest.mark.parametrize("transient", [True, False],
                         ids=["transient", "permanent"])
def test_process_and_daemon_report_a_worker_crash_alike(
    tmp_path, monkeypatch, transient
):
    """The same worker crash reads the same through process isolation
    and through the daemon: query, verdict, attempts (the crash
    included) and, on failure, the worker's outcome class."""
    from repro.engine import normalized_attempts

    prog = parse_program(RACY, name="racy")
    monkeypatch.setenv("REPRO_FAULT", "worker-abort:1")
    results = {}
    with DaemonHandle(tmp_path / "run", isolation="process") as h:
        for route in ("process", "daemon"):
            if transient:
                monkeypatch.setenv(
                    "REPRO_FAULT_ONCE", str(tmp_path / f"{route}.once")
                )
            else:
                monkeypatch.delenv("REPRO_FAULT_ONCE", raising=False)
            extra = {"daemon_socket": h.daemon.socket_path} \
                if route == "daemon" else {}
            results[route] = check_data_race(
                prog, max_internal=2, replay=False, wall_s=60.0,
                isolation=route, **extra,
            )
    proc, daemon = results["process"], results["daemon"]
    assert proc.query == daemon.query == "data-race(racy)"
    assert proc.verdict == daemon.verdict
    assert normalized_attempts(proc.details["attempts"]) == \
        normalized_attempts(daemon.details["attempts"])
    assert proc.details["attempts"][0]["rung"] == "worker#1"
    if transient:
        assert proc.verdict == "race"
    else:
        assert proc.verdict == "unknown"
        assert proc.details["worker"]["outcome_class"] == "crashed"
        assert daemon.details["worker"]["outcome_class"] == "crashed"


def test_inline_daemon_labels_failed_attempts_inline(tmp_path):
    """A failed attempt names the isolation it ran under, so a daemon
    started with ``isolation="inline"`` does not report worker rungs as
    process children."""
    from repro.engine.plan import worker_attempt_record

    with DaemonHandle(tmp_path / "run", isolation="inline") as h:
        with h.client() as c:
            r = c.submit_task(task_for_race("proc Main(n) {", name="bad"))
    assert not r["ok"]
    (attempt,) = r["attempts"]
    assert attempt["isolation"] == "inline"
    assert worker_attempt_record({}, attempt)["engine"] == "inline"


def test_daemon_reports_an_invalid_limit_as_a_decode_error(tmp_path):
    """A task with a malformed solver limit fails where it is decoded;
    no engine runs, so no verdict comes back."""
    task = task_for_race(
        RACY, options={"engine": "bounded", "det_budget": "x"}, name="bad"
    )
    with DaemonHandle(tmp_path / "run") as h:
        with h.client() as c:
            r = c.submit_task(task)
    assert not r["ok"] and r["outcome_class"] == "error"
    assert "value" not in r
    assert "limit 'det_budget' must be a positive integer" in r["detail"]


def test_cli_client_and_serve_status_stop(tmp_path, capsys):
    """`repro client` and `repro serve --status/--stop` against a live
    daemon, in-process (the chaos script covers the subprocess path)."""
    from repro.cli import main

    src = tmp_path / "racy.retreet"
    src.write_text(RACY)
    run_dir = tmp_path / "run"
    with DaemonHandle(run_dir) as h:
        argv = ["client", str(src), "--socket", str(h.daemon.socket_path),
                "--engine", "bounded", "--max-internal", "2"]
        assert main(argv) == 1  # race found
        capsys.readouterr()
        assert main(argv) == 1  # same query: served from the daemon cache
        assert "(cached by daemon)" in capsys.readouterr().err

        with pytest.raises(SystemExit) as exc:
            main(["client", str(src)])  # no --run-dir/--socket
        assert exc.value.code == 2
        capsys.readouterr()

        assert main(["serve", str(run_dir), "--status"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["completed"] == 1 and status["cache_hits"] == 1
        assert set(status["breaker"]) == {
            "open", "threshold", "consecutive_crashes", "trips",
        }
        assert set(status["retry_budget"]) == {"per_task_max", "spent_total"}

        assert main(["serve", str(run_dir), "--stop"]) == 0
        assert "daemon draining" in capsys.readouterr().err
        h.thread.join(timeout=20)
        assert h.result.get("code") == 0
