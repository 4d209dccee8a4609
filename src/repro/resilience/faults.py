"""Deterministic fault injection for the kill-and-resume drill.

Crash-recovery code is only trustworthy if the crashes it recovers from are
reproducible.  This module gives the engine *named fault sites* — the
instrumented points where a real process death would hurt (a cache append
mid-record, an engine call, a surrogate refit, a snapshot write) — and
:class:`FaultPlan`\\ s that kill exactly one site at exactly one
occurrence.

Sites self-register at import of the instrumented module
(:func:`register_fault_site`), and :func:`fault_point` is near-free when no
plan is armed: one module-global ``is None`` test.  Arming is scoped with
the :func:`inject` context manager; the triggered :class:`InjectedFault`
propagates out of the engine like any crash would, leaving on-disk state
exactly as a ``kill -9`` at that instant could (the persistent cache store
even writes a genuine torn half-record first, see
:mod:`repro.resilience.store`).

The drill (``python -m repro.resilience drill``) iterates every registered
site, interrupts a bench case there, resumes from the latest snapshot, and
byte-diffs the resumed trajectory against the uninterrupted oracle.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from repro.obs import event

#: Registration order of the fault sites (stable: import order is fixed by
#: the package graph, and the drill iterates this tuple).
_SITES: Tuple[str, ...] = ()

_ACTIVE: Optional["FaultPlan"] = None


class InjectedFault(RuntimeError):
    """The planned fault: raised by :func:`fault_point` at the match."""

    def __init__(self, site: str, occurrence: int) -> None:
        super().__init__(f"injected fault at {site!r} (occurrence {occurrence})")
        self.site = site
        self.occurrence = occurrence


def register_fault_site(name: str) -> str:
    """Declare a named fault site (idempotent); returns the name.

    Called at module scope next to the instrumented code, so importing the
    engine is what populates :func:`registered_fault_sites`.
    """
    global _SITES
    if not name:
        raise ValueError("fault site name must be non-empty")
    if name not in _SITES:
        _SITES = _SITES + (name,)
    return name


def registered_fault_sites() -> Tuple[str, ...]:
    """All registered site names, in registration order."""
    return _SITES


class FaultPlan:
    """Kill at one ``site``, on its ``occurrence``-th execution.

    Occurrence counting is per plan and per site: every
    :func:`fault_point` pass increments the armed plan's counter for that
    site, and the plan fires exactly once, when its own site reaches its
    occurrence.  Two runs armed with equal plans over a deterministic
    engine die at the same instruction.
    """

    def __init__(self, site: str, occurrence: int = 1) -> None:
        if occurrence < 1:
            raise ValueError("occurrence must be at least 1")
        self.site = site
        self.occurrence = int(occurrence)
        self.counts: Dict[str, int] = {}
        self.fired = False

    def __repr__(self) -> str:
        status = "fired" if self.fired else "armed"
        return f"FaultPlan({self.site!r}, occurrence={self.occurrence}, {status})"


def fault_point(site: str) -> None:
    """Count one pass through ``site``; raise if the armed plan matches."""
    plan = _ACTIVE
    if plan is None:
        return
    count = plan.counts.get(site, 0) + 1
    plan.counts[site] = count
    if not plan.fired and site == plan.site and count == plan.occurrence:
        plan.fired = True
        event("resilience.fault", site=site, occurrence=count)
        raise InjectedFault(site, count)


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of the block (one plan at a time)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a fault plan is already armed")
    if plan.site not in _SITES:
        raise ValueError(
            f"unknown fault site {plan.site!r}; registered: {', '.join(_SITES)}"
        )
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None
