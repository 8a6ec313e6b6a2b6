#!/usr/bin/env python
"""Daemon chaos acceptance: overload, ``kill -9``, restart, drain.

The end-to-end properties DESIGN.md §11 promises, checked on a real
daemon process:

1. **Golden pass** — a daemon serves a mixed multi-client workload;
   every verdict is recorded (these are the reference verdicts).
2. **Backpressure** — with per-client quotas armed, a saturating client
   is rejected with the typed ``ServiceOverloaded`` (carrying a
   retry-after hint) while another client's queries keep completing.
3. **kill -9 mid-load** — the daemon is SIGKILLed as soon as the first
   verdict row is committed to its ``cache.sqlite``, under concurrent
   multi-client load.  A restart on the same run directory must
   byte-verify every row present at the kill (zero quarantined rows),
   and answer every resubmitted query with the golden verdict — each
   pre-kill verdict from a cache hit, nothing lost, nothing recomputed
   (the restarted daemon solves exactly the queries it could not answer
   from the cache).
4. **Graceful drain** — SIGTERM makes the daemon finish in-flight work
   and exit 0.

Exits 0 when every property holds; prints the divergence and exits 1
otherwise.  Run from the repository root::

    PYTHONPATH=src python scripts/daemon_chaos.py
"""

import argparse
import os
import signal
import sqlite3
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.client import DaemonClient, DaemonError  # noqa: E402
from repro.service.scheduler import ServiceOverloaded  # noqa: E402
from repro.service.worker import decode_task, task_for_race  # noqa: E402

RACY = """
F(n) { if (n == nil) { return 0 } else { n.v = 1; a = F(n.l); b = F(n.r); return a + b } }
Main(n) { { x = F(n) || y = F(n) }; return x }
"""

RACEFREE = """
F(n) { if (n == nil) { return 0 } else { a = F(n.l); b = F(n.r); return a + b + n.v } }
Main(n) { { x = F(n.l) || y = F(n.r) }; return x + y }
"""

BOUNDED = {"engine": "bounded", "max_internal": 2}


def workload():
    """A deterministic mixed workload with distinct content keys."""
    tasks = [task_for_race(RACY, options=BOUNDED, name="racy")]
    for i in range(7):
        src = RACEFREE.replace("a + b + n.v", f"a + b + n.v + {i}")
        tasks.append(task_for_race(src, options=BOUNDED, name=f"clean-{i}"))
    return tasks


def base_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    env.pop("REPRO_FAULT", None)
    env.pop("REPRO_FAULT_ONCE", None)
    return env


def serve_cmd(run_dir: Path, *extra: str) -> list:
    return [sys.executable, "-m", "repro.cli", "serve", str(run_dir),
            "--jobs", "2", "--isolation", "inline", "--quiet", *extra]


def start_daemon(run_dir: Path, *extra: str) -> subprocess.Popen:
    socket_path = run_dir / "daemon.sock"
    if socket_path.exists():  # stale socket from a SIGKILLed daemon
        socket_path.unlink()
    proc = subprocess.Popen(
        serve_cmd(run_dir, *extra), env=base_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30.0
    while not socket_path.exists():
        if proc.poll() is not None:
            fail(f"daemon died on startup (exit {proc.returncode})")
        if time.monotonic() > deadline:
            proc.kill()
            fail("daemon did not come up in 30s")
        time.sleep(0.02)
    return proc


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def committed_keys(run_dir: Path) -> set:
    """Keys of the rows committed to the daemon's store, read through a
    read-only connection (empty while the store or its table does not
    exist yet)."""
    try:
        conn = sqlite3.connect(f"file:{run_dir / 'cache.sqlite'}?mode=ro",
                               uri=True)
    except sqlite3.OperationalError:
        return set()
    try:
        return {k for (k,) in conn.execute("SELECT key FROM records")}
    except sqlite3.OperationalError:
        return set()
    finally:
        conn.close()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default=None,
                    help="scratch directory (default: a fresh tempdir)")
    args = ap.parse_args()
    work = Path(args.workdir or tempfile.mkdtemp(prefix="daemon-chaos-"))
    work.mkdir(parents=True, exist_ok=True)
    tasks = workload()

    # -- 1. golden pass: reference verdicts ----------------------------
    golden_dir = work / "golden"
    daemon = start_daemon(golden_dir)
    golden = {}
    with DaemonClient(golden_dir / "daemon.sock", client_id="golden") as c:
        for t in tasks:
            golden[t.name] = c.submit_task(t)["value"]["verdict"]
        c.shutdown()
    if daemon.wait(timeout=60) != 0:
        fail(f"golden daemon exited {daemon.returncode}, want 0")
    if golden["racy"] != "race" or golden["clean-0"] != "race-free":
        fail(f"golden verdicts look wrong: {golden}")
    print(f"golden pass: {len(golden)} verdicts, daemon exited 0")

    # -- 2. backpressure: saturator rejected, victim completes ---------
    quota_dir = work / "quota"
    daemon = start_daemon(quota_dir, "--client-rate", "0.001",
                          "--client-burst", "2")
    rejected = None
    with DaemonClient(quota_dir / "daemon.sock", client_id="flood") as flood:
        flood.submit_task(tasks[1])
        flood.submit_task(tasks[2])
        try:
            flood.submit_task(tasks[3])
        except ServiceOverloaded as e:
            rejected = e
    if rejected is None:
        fail("saturating client was never rejected")
    if rejected.reason != "quota" or rejected.retry_after_s <= 0:
        fail(f"bad rejection: reason={rejected.reason} "
             f"retry_after={rejected.retry_after_s}")
    with DaemonClient(quota_dir / "daemon.sock", client_id="victim") as v:
        verdict = v.submit_task(tasks[4])["value"]["verdict"]
        if verdict != golden[tasks[4].name]:
            fail(f"victim got {verdict!r} during overload")
        v.shutdown()
    if daemon.wait(timeout=60) != 0:
        fail(f"quota daemon exited {daemon.returncode}, want 0")
    print(f"backpressure: saturator rejected (ServiceOverloaded/quota, "
          f"retry in {rejected.retry_after_s:.2f}s); victim completed")

    # -- 3. kill -9 mid-load, restart, replay --------------------------
    chaos_dir = work / "chaos"
    daemon = start_daemon(chaos_dir)
    results, errors = {}, []

    def client_load(cid, my_tasks):
        try:
            with DaemonClient(chaos_dir / "daemon.sock", client_id=cid,
                              timeout_s=120.0) as c:
                for t in my_tasks:
                    results[t.name] = c.submit_task(t)["value"]["verdict"]
        except DaemonError as e:
            errors.append(str(e))  # expected: the daemon dies under us

    threads = [
        threading.Thread(target=client_load, args=(f"c{i}", tasks[i::2]))
        for i in range(2)
    ]
    for th in threads:
        th.start()
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if committed_keys(chaos_dir):
            daemon.send_signal(signal.SIGKILL)
            daemon.wait()
            break
        time.sleep(0.005)
    else:
        daemon.kill()
        fail("daemon never committed a verdict row under load")
    for th in threads:
        th.join(timeout=30)
    pre_kill = committed_keys(chaos_dir)
    print(f"SIGKILL after {len(pre_kill)} committed row(s); "
          f"{len(errors)} client connection(s) torn (expected)")

    names = {decode_task(t)[0].key(): t.name for t in tasks}
    if not pre_kill <= set(names):
        fail(f"rows for keys no task asked for: {pre_kill - set(names)}")
    daemon = start_daemon(chaos_dir)  # same run dir: byte-verify rows
    with DaemonClient(chaos_dir / "daemon.sock", client_id="replay") as c:
        st = c.status()
        if st["store"]["verify_quarantined"] != 0:
            fail(f"shared cache corrupt after kill -9: {st['store']}")
        if st["store"]["verified_rows"] != len(pre_kill):
            fail(f"verified {st['store']['verified_rows']} row(s) != "
                 f"{len(pre_kill)} committed at the kill")
        resubmitted, cached = {}, set()
        for t in tasks:
            r = c.submit_task(t)
            resubmitted[t.name] = r["value"]["verdict"]
            if r["cached"]:
                cached.add(t.name)
        st = c.status()
        c.shutdown()
    if resubmitted != golden:
        fail(f"verdicts diverge after kill+restart:\n"
             f"golden:      {golden}\nresubmitted: {resubmitted}")
    recomputed = {names[k] for k in pre_kill} - cached
    if recomputed:
        fail(f"pre-kill verdicts not served from the shared cache: "
             f"{sorted(recomputed)}")
    if st["completed"] != len(tasks) - len(cached):
        fail(f"restarted daemon solved {st['completed']} task(s), but "
             f"{len(tasks) - len(cached)} were not answered from cache")
    if daemon.wait(timeout=60) != 0:
        fail(f"restarted daemon exited {daemon.returncode}, want 0")
    print(f"restart: {len(pre_kill)} row(s) byte-verified, all "
          f"{len(tasks)} resubmissions match golden, every pre-kill "
          "verdict served from cache, none recomputed")

    # -- 4. SIGTERM drains and exits 0 ---------------------------------
    term_dir = work / "term"
    daemon = start_daemon(term_dir)
    with DaemonClient(term_dir / "daemon.sock", client_id="t") as c:
        c.submit_task(tasks[0])
    daemon.send_signal(signal.SIGTERM)
    if daemon.wait(timeout=60) != 0:
        fail(f"SIGTERM drain exited {daemon.returncode}, want 0")
    print("SIGTERM: drained and exited 0")

    print("OK: daemon survives overload, kill -9 + restart verification, "
          "and drains cleanly")


if __name__ == "__main__":
    main()
