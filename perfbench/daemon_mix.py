"""Workload ``daemon-mix``: cache hit/miss traffic through ``repro serve``.

A daemon with its defaults (``--jobs 2``, process isolation) serves a
closed loop of two client connections from this process.  The traffic is
small bounded race queries (``engine=bounded``, ``max_internal=2``), half
race-free and half racy, each made distinct by a constant in its source.
Each client's seeded sequence mixes first occurrences of new keys (misses:
a sandboxed worker solves them and the sqlite cache stores the verdict)
with repeats of keys that client already got a reply for (hits).  Keys
never repeat across clients or passes, so nothing coalesces and the hit and
miss counts are fixed by the schedule.

The daemon's run directory and socket live under ``.perfbench_run/`` in
the checkout; the socket is addressed by a path relative to the checkout
root, which keeps it well under the 107-byte ``AF_UNIX`` limit.
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

from common import Op, Workload, percentile, ratio

CLIENTS = 2
#: Per client and pass.  Six short passes per run (at ``--seconds 20``)
#: give a median wall time that one noisy stretch of the machine does not
#: move, while the run's 168 misses and 84 hits pool for the percentiles.
#: Misses are two thirds of the traffic, so the overall median falls a
#: quarter of the way into the misses, not in their fast tail or among the
#: hits: a hit's ~1 ms round trip on a saturated host is far noisier.
MISSES = 14
HITS = 7
OPTIONS = {"engine": "bounded", "max_internal": 2}
#: Overload retries a client spends before the request counts as failed.
RETRIES = 3
RUN_ROOT = Path(".perfbench_run")
AF_UNIX_MAX = 107
READY_TIMEOUT_S = 60.0

RACE_FREE = """
F(n) {{ if (n == nil) {{ return 0 }} else {{ a = F(n.l); b = F(n.r); return a + b + n.v + {k} }} }}
Main(n) {{ {{ x = F(n.l) || y = F(n.r) }}; return x + y }}
"""
RACY = """
W(n) {{ if (n == nil) {{ return 0 }} else {{ n.v = {k}; return 0 }} }}
R(n) {{ if (n == nil) {{ return 0 }} else {{ return n.v + 1 }} }}
Main(n) {{ {{ x = W(n) || y = R(n) }}; return x + y }}
"""


def _proc_cpu_s(pid: int) -> float:
    """CPU seconds of a live process plus its reaped children."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = sum(int(v) for v in fields[11:15])  # utime stime cutime cstime
    return ticks / os.sysconf("SC_CLK_TCK")


class DaemonMix(Workload):
    name = "daemon-mix"
    nominal_pass_s = 3.5
    setup_in_fresh_process = False
    threads = CLIENTS
    # The work runs in the daemon's workers while this process waits.
    speed_probe = False

    def __init__(self) -> None:
        self.proc = None
        self.run_dirs: List[Path] = []
        self.scheduled_hits = 0
        self.status = None

    def prepare(self, seed: int, passes: int = 0) -> None:
        from repro.service.client import DaemonClient  # noqa: F401
        from repro.service.worker import task_for_race  # noqa: F401

        self.seed = seed
        src = Path(__file__).resolve().parent.parent / "src"
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_FAULT")}
        self.env["PYTHONPATH"] = str(src)

    # -- daemon lifecycle -------------------------------------------------

    def _launch(self):
        """Start a daemon on a fresh run directory; returns the reference
        seconds from spawn until it answered a ping."""
        from repro.service.client import DaemonClient
        from speed import seconds_since

        run_dir = RUN_ROOT / f"d{os.getpid()}-{len(self.run_dirs)}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        self.run_dirs.append(run_dir)
        self.socket = run_dir / "d.sock"
        if len(os.fsencode(str(self.socket))) > AF_UNIX_MAX:
            raise RuntimeError(
                f"socket path {self.socket} exceeds the {AF_UNIX_MAX}-byte "
                f"AF_UNIX limit")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(run_dir),
             "--socket", str(self.socket)],
            env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        # Block on the daemon's own "listening" line, then confirm with
        # one ping round trip: no sleep-polling on the socket file.
        said = b""
        while b"listening on" not in said:
            left = t0 + READY_TIMEOUT_S - time.perf_counter()
            ready, _, _ = select.select([self.proc.stderr], [], [],
                                        max(0.0, left))
            chunk = os.read(self.proc.stderr.fileno(), 4096) if ready else b""
            if not chunk:
                raise RuntimeError(
                    "daemon did not start: "
                    + (said.decode(errors="replace").strip() or "timeout"))
            said += chunk
        with DaemonClient(self.socket, client_id="setup",
                          timeout_s=READY_TIMEOUT_S) as client:
            client.ping()
        return seconds_since(t0)

    def _stop(self) -> None:
        """Drain the daemon; kill it if it does not exit in time."""
        from repro.service.client import DaemonClient, DaemonError

        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                with DaemonClient(self.socket, timeout_s=10.0) as client:
                    client.shutdown()
            proc.wait(timeout=30)
        except (DaemonError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        finally:
            proc.stderr.close()

    def start(self, seed: int, samples: int) -> List[float]:
        self.prepare(seed)
        times = []
        for i in range(samples):
            if i:
                self._stop()
            times.append(self._launch())
        return times

    def close(self) -> None:
        try:
            self._stop()
        finally:
            for run_dir in self.run_dirs:
                shutil.rmtree(run_dir, ignore_errors=True)
            try:
                RUN_ROOT.rmdir()
            except OSError:
                pass  # another run's directory is still there

    def cpu_s(self) -> float:
        own = super().cpu_s()
        return own + (_proc_cpu_s(self.proc.pid) if self.proc else 0.0)

    # -- traffic ----------------------------------------------------------

    def trace_targets(self):
        return [("repro.service.client:DaemonClient.submit_task",
                 "service.client")]

    def _schedule(self, index: int, client: int):
        """(hit?, task, expected verdict) for one client's pass."""
        from repro.service.worker import task_for_race

        rng = random.Random(f"{self.seed}:{index}:{client}")
        kinds = ["race", "race-free"] * (MISSES // 2)
        rng.shuffle(kinds)
        slots = [False] * (MISSES - 1) + [True] * HITS
        rng.shuffle(slots)
        sent, out = [], []
        for hit in [False] + slots:
            if hit:
                out.append((True,) + rng.choice(sent))
                continue
            k = index * 1_000_000 + client * 100_000 + len(sent)
            kind = kinds[len(sent)]
            src = (RACY if kind == "race" else RACE_FREE).format(k=k)
            sent.append((task_for_race(src, options=OPTIONS, name=f"q{k}"),
                         kind))
            out.append((False,) + sent[-1])
        self.scheduled_hits += HITS
        return out

    def _client(self, cid: int, schedule, out: List[Op]) -> None:
        from repro.service.client import DaemonClient

        with DaemonClient(self.socket, client_id=f"c{cid}",
                          timeout_s=120.0) as client:
            for hit, task, expected in schedule:
                cls = "hit" if hit else "miss"
                t0 = time.perf_counter()
                try:
                    reply = client.submit_task(task, retries=RETRIES)
                except Exception as e:  # overload past retries, dead socket
                    out.append(Op(time.perf_counter() - t0, cls, False,
                                  task.name,
                                  error=f"{type(e).__name__}: {e}",
                                  start=t0))
                    continue
                latency = time.perf_counter() - t0
                value = reply.get("value") or {}
                replay = value.get("replay") or {}
                if not reply.get("ok"):
                    problem = f"daemon failure: {reply.get('detail')}"
                elif bool(reply.get("cached")) != hit:
                    problem = f"cached={reply.get('cached')}, scheduled {cls}"
                elif value.get("verdict") != expected:
                    problem = (f"verdict {value.get('verdict')!r}, "
                               f"expected {expected!r}")
                elif expected == "race" and not replay.get("confirmed"):
                    problem = "race replay not confirmed"
                else:
                    problem = None
                out.append(Op(latency, cls, problem is None, task.name,
                              error=problem,
                              extra={"solve_s": float(value.get("elapsed")
                                                      or 0.0)},
                              start=t0))

    def run_pass(self, index: int) -> List[Op]:
        schedules = [self._schedule(index, c) for c in range(CLIENTS)]
        results: List[List[Op]] = [[] for _ in range(CLIENTS)]
        threads = [
            threading.Thread(target=self._client,
                             args=(c, schedules[c], results[c]))
            for c in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ops = [op for r in results for op in r]
        # A client thread that died early leaves its remaining requests
        # unanswered: each counts as a failed operation.
        for c in range(CLIENTS):
            for hit, task, _ in schedules[c][len(results[c]):]:
                ops.append(Op(0.0, "hit" if hit else "miss", False, task.name,
                              error="client connection died"))
        return ops

    # -- checks and per-layer metrics -------------------------------------

    def _status(self) -> Dict[str, object]:
        """The daemon's counters, read the way an operator does it."""
        out = subprocess.run(
            [sys.executable, "-m", "repro", "serve", str(self.run_dirs[-1]),
             "--socket", str(self.socket), "--status"],
            env=self.env, capture_output=True, text=True, timeout=60,
        )
        if out.returncode != 0:
            raise RuntimeError(f"serve --status failed: {out.stderr.strip()}")
        return json.loads(out.stdout)

    def final_checks(self) -> List[Op]:
        try:
            self.status = self._status()
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            self.status = None
            return [Op(0.0, "check", False, "serve --status", error=str(e))]
        s = self.status
        problems = []
        if s["coalesced"] != 0:
            problems.append(f"coalesced={s['coalesced']}, expected 0")
        if s["cache_hits"] != self.scheduled_hits:
            problems.append(f"cache_hits={s['cache_hits']}, scheduled "
                            f"{self.scheduled_hits}")
        if s["failed"] != 0:
            problems.append(f"daemon failed={s['failed']}")
        return [Op(0.0, "check", not problems, "serve --status",
                   error="; ".join(problems) or None)]

    def layer_metrics(self, ops: List[Op]) -> Dict[str, float]:
        misses = [op for op in ops if op.cls == "miss" and op.ok]
        hits = [op.latency_s for op in ops if op.cls == "hit" and op.ok]
        out = {}
        if misses:
            out["engine.solve_ms_p50"] = 1000 * percentile(
                [op.extra["solve_s"] for op in misses], 50)
            out["service.overhead_ms_p50"] = 1000 * percentile(
                [op.latency_s - op.extra["solve_s"] for op in misses], 50)
        if hits:
            out["service.hit_latency_ms_p50"] = 1000 * percentile(hits, 50)
        return out

    def final_layer_metrics(self) -> Dict[str, float]:
        s = self.status
        if not s:
            return {}
        return {
            "service.hit_share": ratio(s["cache_hits"],
                                       s["cache_hits"] + s["completed"]),
            "service.coalesced": s["coalesced"],
            "service.retries": s["retry_budget"]["spent_total"],
            "service.failed": s["failed"],
        }
