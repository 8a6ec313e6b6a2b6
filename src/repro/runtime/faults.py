"""Deterministic fault injection for the solver runtime.

Named probe points sit on the hot paths of the decision procedure:

``bdd.apply``
    after a binary BDD apply computes (and memoizes) its result node;
``product.expand``
    when the lazy product discovers a new reached tuple;
``emptiness.fixpoint``
    when the emptiness/witness fixpoint pops a tuple off its frontier.

A probe is *armed* with :func:`arm` by name plus an Nth-hit count; when
the probe fires it either raises :class:`InjectedFault` (``action=
"raise"``) or substitutes a corrupted value (``action="corrupt"``) that
is guaranteed to crash deterministically on first use — never to flow
onward as a plausible-but-wrong result.  Tests use this to prove that
every injected failure surfaces as a typed
:class:`~repro.runtime.errors.ReproError` and that the degradation
ladder still reaches a sound verdict through a lower rung.

Probes are compiled out of the hot path when nothing is armed: call
sites guard on the module-level ``ARMED`` flag, so the steady-state cost
is one attribute read per probe site.

For CI, ``REPRO_FAULT="probe:hit[:action]"`` (comma-separated for
several) can be parsed with :func:`install_from_env`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .errors import SolverInternalError

__all__ = [
    "PROBES",
    "SOLVER_PROBES",
    "SERVICE_PROBES",
    "ARMED",
    "InjectedFault",
    "FaultSpec",
    "arm",
    "disarm_all",
    "active",
    "fire",
    "install_from_env",
]

#: Probes on the in-process decision procedure's hot paths.
SOLVER_PROBES = ("bdd.apply", "product.expand", "emptiness.fixpoint")

#: Probes on the service layer.  ``worker-abort`` is the non-cooperative
#: one: it sits in :mod:`repro.service.worker` and, when armed, a
#: sandboxed child answers it by dying on SIGSEGV mid-solve (no frame,
#: no cleanup) instead of raising — the crash analogue of the in-process
#: probes, used to test the supervisor/batch recovery paths.  The other
#: three sit in the solve daemon (DESIGN.md §11): ``queue-full`` forces
#: the admission queue to reject as if saturated, ``cache-row-corrupt``
#: substitutes a corrupted row payload on a shared-cache read (the
#: checksum must catch it and quarantine the row), and
#: ``drain-interrupt`` aborts a graceful drain mid-way (the shared cache
#: must still be consistent afterwards).
SERVICE_PROBES = (
    "worker-abort",
    "queue-full",
    "cache-row-corrupt",
    "drain-interrupt",
)

#: Every probe point compiled into the runtime.
PROBES = SOLVER_PROBES + SERVICE_PROBES

#: Fast flag checked at probe sites; true iff any probe is armed.
ARMED = False

_ACTIONS = ("raise", "corrupt")


class InjectedFault(SolverInternalError):
    """Raised by an armed probe with ``action="raise"``."""


@dataclass
class FaultSpec:
    """One armed probe: fire on the *hit*-th traversal, once."""

    probe: str
    hit: int = 1
    action: str = "raise"
    hits_seen: int = field(default=0, compare=False)
    fired: bool = field(default=False, compare=False)


_active: Dict[str, FaultSpec] = {}


def _refresh_armed() -> None:
    global ARMED
    ARMED = bool(_active)


def arm(probe: str, hit: int = 1, action: str = "raise") -> FaultSpec:
    """Arm *probe* to fire on its *hit*-th traversal with *action*."""
    if probe not in PROBES:
        raise ValueError(f"unknown fault probe {probe!r}; known: {PROBES}")
    if action not in _ACTIONS:
        raise ValueError(f"unknown fault action {action!r}; known: {_ACTIONS}")
    if hit < 1:
        raise ValueError("hit count must be >= 1")
    spec = FaultSpec(probe=probe, hit=hit, action=action)
    _active[probe] = spec
    _refresh_armed()
    return spec


def disarm_all() -> None:
    """Disarm every probe."""
    _active.clear()
    _refresh_armed()


def active() -> List[FaultSpec]:
    """The currently armed specs (armed order not guaranteed)."""
    return list(_active.values())


def _corrupted(probe: str, value):
    """A corrupted stand-in for *value* that crashes on first use.

    The corruption is engineered so the value can never silently flip a
    verdict: it either trips a type/index error the moment downstream
    code touches it, or is structurally unusable.
    """
    if probe == "bdd.apply":
        # An out-of-range node index: any dereference of the node table
        # (further applies, pick_cube, evaluate) raises IndexError.
        return 1 << 62
    if probe == "product.expand":
        # A tuple with an unhashable component: membership tests against
        # the reached-state table raise TypeError immediately.
        if isinstance(value, tuple) and value:
            return tuple(value[:-1]) + ([],)
        return ([],)
    if probe == "cache-row-corrupt":
        # Valid JSON that can never checksum against its row: the shared
        # cache must quarantine it and report a miss, never serve it.
        return '{"injected": "cache-row-corrupt"}'
    # emptiness.fixpoint (and the remaining service probes, which are
    # only meaningful with action="raise"): the fixpoint loop subscripts
    # popped tuples, so None raises TypeError on first use.
    return None


def fire(probe: str, value=None):
    """Probe point: pass *value* through unless *probe* is due to fire.

    Call sites must guard on ``ARMED`` so this function is never invoked
    in the steady state.
    """
    spec = _active.get(probe)
    if spec is None or spec.fired:
        return value
    spec.hits_seen += 1
    if spec.hits_seen < spec.hit:
        return value
    spec.fired = True
    if spec.action == "raise":
        raise InjectedFault(
            f"injected fault at probe {probe!r} (hit {spec.hit})",
            phase=probe,
            counters={"hit": spec.hit},
        )
    return _corrupted(probe, value)


def install_from_env(env: Optional[Dict[str, str]] = None) -> List[FaultSpec]:
    """Arm probes from ``REPRO_FAULT="probe:hit[:action][,probe:hit…]"``.

    Returns the list of armed specs (empty when the variable is unset).
    """
    raw = (env if env is not None else os.environ).get("REPRO_FAULT", "").strip()
    if not raw:
        return []
    specs = []
    for chunk in raw.split(","):
        parts = chunk.strip().split(":")
        if not parts or not parts[0]:
            continue
        probe = parts[0]
        hit = int(parts[1]) if len(parts) > 1 and parts[1] else 1
        action = parts[2] if len(parts) > 2 and parts[2] else "raise"
        specs.append(arm(probe, hit=hit, action=action))
    return specs
