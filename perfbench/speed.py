"""Host-speed normalisation of the benchmark's timings.

The benchmark runs on shared virtual machines whose speed moves in steps,
in two ways.  The hypervisor takes the virtual CPUs away for a share of
the time ("steal", counted in ``/proc/stat``), and the CPU time a vCPU does
get runs slower or faster with what the neighbours do: the same
interpreter work can take 1.8x as long from one second to the next.  A
raw wall time then measures the neighbours as much as the program.  So
while a run times anything, a ``SIGALRM`` interval timer fires every
``INTERVAL_S`` in the main thread, and its handler records

* the machine's cumulative steal and busy ticks (``/proc/stat``), and
* with ``probe=True``, how long a fixed probe took: a few hundred
  interpreted function calls and integer operations.  It reads no table,
  so where the process's memory happens to lie hardly changes its speed,
  and it allocates no container, so it never triggers the cyclic garbage
  collector.

A time measured over ``[t0, t1]`` is reported in *reference seconds*: the
raw seconds (with the probe, less the time the handler took inside the
interval), times ``1 - steal``, the share of busy vCPU time the
hypervisor took in the interval widened by ``WINDOW_S`` on each side;
and, with the probe,
times ``REFERENCE_PROBE_S / probe``, with ``probe`` the trimmed mean of the
probe times sampled in that widened interval.  A change to the program
moves the raw time and neither correction, so it shows in full; a slow
stretch of the host moves both and cancels.

The probe fits a workload whose timed work runs in the sampling thread
itself.  A thread that mostly waits wakes up cold for each sample while
the work runs in other processes, so such a workload samples steal only.
(Bursts of warm probes between its passes were tried instead; over six
paired runs they widened the daemon workload's spread from 4-6% to
13-21%.)  Without :func:`start`, :func:`scaled` returns raw seconds.
Child processes do not inherit the timer (interval timers are cleared on
``fork``), and the program installs no ``SIGALRM`` handler of its own.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List

__all__ = ["start", "stop", "scaled", "seconds_since"]

INTERVAL_S = 0.01
WINDOW_S = 0.25
#: Probe time at reference speed (about its median on a 2-vCPU Xeon VM).
REFERENCE_PROBE_S = 60e-6
#: Share of probe samples dropped at each end before averaging.
TRIM = 0.1

#: Per sample: start time, probe duration (0 without the probe), the
#: whole handler's duration, and cumulative steal and busy ticks.
_starts: List[float] = []
_probe: List[float] = []
_cost: List[float] = []
_steal: List[int] = []
_busy: List[int] = []
_with_probe = False
_previous = None
_started = False


def _step(x: int) -> int:
    return (x * 31 + 7) & 0xFFFF


def _probe_work() -> int:
    acc = 0
    for i in range(400):
        acc = _step(acc) ^ (i & 7)
    return acc


def _ticks():
    """Machine-wide (steal, busy) ticks; busy counts every tick a vCPU
    ran or wanted to run (all but idle and iowait)."""
    try:
        with open("/proc/stat", "rb") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields) - fields[3] - fields[4]


def _on_alarm(signum, frame) -> None:
    t0 = time.perf_counter()
    if _with_probe:
        _probe_work()
    probe = time.perf_counter() - t0
    steal, busy = _ticks()
    _starts.append(t0)
    _probe.append(probe)
    _steal.append(steal)
    _busy.append(busy)
    _cost.append(time.perf_counter() - t0)


def start(probe: bool = True) -> None:
    """Begin sampling (main thread only)."""
    global _previous, _started, _with_probe
    _started, _with_probe = True, probe
    _previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    if _previous is not None:
        signal.signal(signal.SIGALRM, _previous)


def _trimmed_mean(values: List[float]) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    kept = values[cut:len(values) - cut] or values
    return sum(kept) / len(kept)


def scaled(t0: float, t1: float, seconds: float = None,
           cpu: bool = False) -> float:
    """``seconds`` (default ``t1 - t0``) measured over ``[t0, t1]``, in
    reference seconds; ``cpu`` marks CPU seconds, which hold no steal.
    With under two samples near the interval, the run's samples so far
    stand in.  Raw seconds if sampling never started."""
    if seconds is None:
        seconds = t1 - t0
    if not _started:
        return seconds
    if not _starts:
        raise RuntimeError("no host-speed sample: the timer never fired")
    # With the probe, the handler ran inside the timed work's own thread.
    own = sum(_cost[bisect.bisect_left(_starts, t0):
                    bisect.bisect_right(_starts, t1)]) if _with_probe else 0.0
    lo = bisect.bisect_left(_starts, t0 - WINDOW_S)
    hi = bisect.bisect_right(_starts, t1 + WINDOW_S)
    if hi - lo < 2:
        lo, hi = 0, len(_starts)
    factor = 1.0
    busy = _busy[hi - 1] - _busy[lo]
    if busy > 0 and not cpu:
        factor -= (_steal[hi - 1] - _steal[lo]) / busy
    if _with_probe:
        factor *= REFERENCE_PROBE_S / _trimmed_mean(_probe[lo:hi])
    return max(seconds - own, 0.0) * factor


def seconds_since(t0: float) -> float:
    """Reference seconds from ``t0`` until now."""
    return scaled(t0, time.perf_counter())
