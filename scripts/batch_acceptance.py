#!/usr/bin/env python
"""Batch-isolation acceptance: crash a worker, kill the driver, resume.

The end-to-end property DESIGN.md §9 promises, checked on real
processes:

1. **Golden run** — an uninterrupted ``repro batch`` over a small
   manifest records its deterministic ``results.json``.
2. **Hostile run** — the same manifest in a fresh run directory, with
   ``REPRO_FAULT=worker-abort`` making the first symbolic worker die by
   SIGSEGV (one-shot, so the supervisor's retry recovers), and the
   *driver process itself* killed with ``SIGKILL`` as soon as the first
   result row is committed to the run directory's ``cache.sqlite``.
3. **Resume** — ``repro batch --resume`` on the mangled run directory
   must report how many tasks were already done, finish the batch
   recomputing only the tasks without a row, and its ``results.json``
   must be byte-identical to the golden run's.

Exits 0 when the property holds; prints the divergence and exits 1
otherwise.  Run from the repository root::

    PYTHONPATH=src python scripts/batch_acceptance.py
"""

import argparse
import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

RACY = """
A(n) { if (n == nil) { return 0 } else { n.v = 1; a = A(n.l); b = A(n.r); return a + b } }
Main(n) { { x = A(n) || y = A(n) }; return x }
"""

RACEFREE = """
F(n) { if (n == nil) { return 0 } else { a = F(n.l); b = F(n.r); return a + b + n.v } }
Main(n) { if (n == nil) { return 0 } else { { x = F(n.l) || y = F(n.r) }; return x + y } }
"""


def write_manifest(path: Path) -> None:
    # Every task is symbolic-capable ("auto"), so the injected
    # worker-abort can hit any of them; the trailing fuzz-case keeps the
    # driver busy long enough to be killed mid-run deterministically.
    path.write_text(json.dumps({
        "defaults": {
            "options": {"engine": "auto", "max_internal": 2},
            "limits": {"wall_s": 120.0},
        },
        "tasks": [
            {"name": "racy", "kind": "check-race", "source": RACY},
            {"name": "clean", "kind": "check-race", "source": RACEFREE},
            {"name": "oracle-racy", "kind": "fuzz-case",
             "case": {"kind": "race", "source": RACY, "max_internal": 2,
                      "name": "oracle-racy"}},
            {"name": "oracle-clean", "kind": "fuzz-case",
             "case": {"kind": "race", "source": RACEFREE, "max_internal": 3,
                      "name": "oracle-clean"}},
        ],
    }, indent=1))


def batch_cmd(manifest: Path, *extra: str) -> list:
    return [sys.executable, "-m", "repro.cli", "batch", str(manifest),
            "--jobs", "1", *extra]


def base_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    env.pop("REPRO_FAULT", None)
    env.pop("REPRO_FAULT_ONCE", None)
    return env


def committed_rows(db: Path) -> int:
    """Rows committed to ``db``, read through a read-only connection
    (0 while the store or its table does not exist yet)."""
    try:
        conn = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
    except sqlite3.OperationalError:
        return 0
    try:
        (n,) = conn.execute("SELECT COUNT(*) FROM records").fetchone()
        return n
    except sqlite3.OperationalError:
        return 0
    finally:
        conn.close()


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default=None,
                    help="scratch directory (default: a fresh tempdir)")
    args = ap.parse_args()
    work = Path(args.workdir or tempfile.mkdtemp(prefix="batch-acceptance-"))
    work.mkdir(parents=True, exist_ok=True)
    manifest = work / "manifest.json"
    write_manifest(manifest)

    # -- 1. golden, uninterrupted run ----------------------------------
    golden_dir = work / "golden"
    proc = subprocess.run(
        batch_cmd(manifest, "--run-dir", str(golden_dir), "--quiet"),
        env=base_env(), capture_output=True, text=True,
    )
    if proc.returncode != 1:  # the racy tasks are violations
        fail(f"golden run exited {proc.returncode}:\n{proc.stderr}")
    golden = (golden_dir / "results.json").read_bytes()
    print(f"golden run: exit {proc.returncode}, "
          f"{len(json.loads(golden))} verdicts")

    # -- 2. crash-injected run, driver SIGKILLed mid-batch -------------
    hostile_dir = work / "hostile"
    env = base_env()
    env["REPRO_FAULT"] = "worker-abort:1"
    env["REPRO_FAULT_ONCE"] = str(work / "crash-sentinel")
    driver = subprocess.Popen(
        batch_cmd(manifest, "--run-dir", str(hostile_dir)),
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    store = hostile_dir / "cache.sqlite"
    deadline = time.monotonic() + 120.0
    killed = False
    while time.monotonic() < deadline:
        if driver.poll() is not None:
            break  # finished before we could kill it (machine too fast)
        if committed_rows(store) >= 1:
            driver.send_signal(signal.SIGKILL)
            driver.wait()
            killed = True
            break
        time.sleep(0.02)
    else:
        driver.kill()
        driver.wait()
        fail("driver neither committed a row nor finished in 120s")
    if not (work / "crash-sentinel").exists():
        fail("injected worker crash never fired (sentinel missing)")
    if not killed:
        print("note: driver finished before the kill; resume still checked")
    else:
        print(f"driver SIGKILLed after {committed_rows(store)} committed "
              "row(s)")
    if killed and (hostile_dir / "results.json").exists():
        fail("killed driver left a results.json behind")

    # -- 3. resume must complete and match the golden run byte-for-byte
    proc = subprocess.run(
        batch_cmd(manifest, "--resume", str(hostile_dir)),
        env=base_env(), capture_output=True, text=True,
    )
    if proc.returncode != 1:
        fail(f"resume exited {proc.returncode}:\n{proc.stderr}")
    already = re.search(r"(\d+) already done", proc.stderr)
    if already is None:
        fail(f"resume did not report its already-done tasks:\n{proc.stderr}")
    print(f"resume: {already.group(1)} task(s) already done")
    resumed = (hostile_dir / "results.json").read_bytes()
    if resumed != golden:
        fail(
            "results diverge after crash+kill+resume\n"
            f"--- golden ---\n{golden.decode()}\n"
            f"--- resumed ---\n{resumed.decode()}"
        )
    print("resume: results.json byte-identical to the uninterrupted run")
    print("OK: crash-isolated batch survives worker SIGSEGV and driver "
          "SIGKILL")


if __name__ == "__main__":
    main()
