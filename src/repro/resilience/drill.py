"""Kill-and-resume drill: crash a campaign at every fault site, resume, diff.

The drill is the end-to-end proof behind the crash-safety story.  For each
bench case it first runs an uninterrupted **oracle** campaign and
fingerprints it (per-seed trajectories, best-vector bytes, evaluation
accounting, cache-content digest — the same
:func:`repro.analysis.determinism.fingerprint_outcome` bytes the
determinism auditor gates on).  Then, for every registered fault site and
each requested occurrence, it arms a deterministic
:class:`~repro.resilience.faults.FaultPlan`, runs a campaign with
checkpointing *and* a persistent evaluation-cache store until the injected
fault kills it, builds a fresh campaign over the same on-disk state —
repairing the cache store's torn tail where the fault left one — resumes
from the latest snapshot into the same checkpoint directory (so the
resumed run truncates the cache journal back to that snapshot's watermark
and keeps checkpointing into it), and byte-diffs the finished run against
the oracle.

What "byte-identical" means per scenario:

* When the crashed run had completed at least one checkpoint, the resumed
  run replays the snapshot's rounds against the journaled cache content and
  takes the snapshot's hit/miss accounting, so the entire fingerprint must
  match the oracle.
* When the fault struck before the first checkpoint, the resumed run
  cold-starts against the persistent store's surviving pairs — its
  trajectories, best vectors and final cache digest must still match the
  oracle bit for bit, but its hit/miss counters legitimately differ (disk
  pairs hit where the oracle computed), so those are excluded from the
  comparison for that scenario only.

A plan whose site is never reached (e.g. ``optimizer.refit`` under a
surrogate-free optimizer) completes normally and is compared directly —
reported as unfired, still required to match.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.resilience.faults import (
    FaultPlan,
    InjectedFault,
    inject,
    registered_fault_sites,
)

#: Counter fields that legitimately differ when a run cold-starts against
#: a warm persistent store instead of restoring a snapshot.
_COUNTER_FIELDS = ("engine_calls", "cache_hits", "cache_misses")


@dataclass(frozen=True)
class DrillOutcome:
    """One (case, site, occurrence) kill-and-resume scenario's verdict."""

    case: str
    site: str
    occurrence: int
    #: Whether the armed fault actually fired (its site was reached).
    fired: bool
    #: Round the resumed campaign replayed up to (``None``: cold-started).
    resumed_from_round: Optional[int]
    #: Bytes the cache store trimmed repairing a torn tail on reopen.
    repaired_bytes: int
    identical: bool
    #: Pointer to the first differing field when the diff failed.
    divergence: Optional[str] = None

    def format(self) -> str:
        status = "OK  " if self.identical else "DIFF"
        if not self.fired:
            how = "site never reached, ran to completion"
        elif self.resumed_from_round is not None:
            how = f"fired, resumed from round {self.resumed_from_round}"
        else:
            how = "fired before first checkpoint, cold-started on the store"
        if self.repaired_bytes:
            how += f", repaired {self.repaired_bytes} B torn tail"
        line = f"{status} {self.site} x{self.occurrence}: {how}"
        if self.divergence:
            line += f"\n       first divergence: {self.divergence}"
        return line


@dataclass(frozen=True)
class DrillReport:
    """All scenarios of a drill run."""

    suite: str
    seeds: Tuple[int, ...]
    occurrences: Tuple[int, ...]
    outcomes: Tuple[DrillOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(outcome.identical for outcome in self.outcomes)

    @property
    def fired_count(self) -> int:
        return sum(outcome.fired for outcome in self.outcomes)

    def format(self) -> str:
        lines = [
            f"kill-and-resume drill: suite {self.suite!r}, seeds "
            f"{list(self.seeds)}, occurrences {list(self.occurrences)}, "
            f"sites {list(registered_fault_sites())}"
        ]
        by_case: Dict[str, List[DrillOutcome]] = {}
        for outcome in self.outcomes:
            by_case.setdefault(outcome.case, []).append(outcome)
        for case, outcomes in by_case.items():
            lines.append(f"{case}:")
            lines.extend("  " + outcome.format() for outcome in outcomes)
        verdict = (
            f"all {len(self.outcomes)} resumed runs byte-identical to the "
            f"oracle ({self.fired_count} faults fired)"
            if self.ok
            else "RESUME DIVERGENCE DETECTED"
        )
        lines.append(verdict)
        return "\n".join(lines)


def _strip_counters(fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    """The fingerprint minus the campaign's cache accounting."""
    return {k: v for k, v in fingerprint.items() if k not in _COUNTER_FIELDS}


def _compare(
    oracle: Dict[str, Any], resumed: Dict[str, Any], full: bool
) -> Tuple[bool, Optional[str]]:
    from repro.analysis.determinism import _first_divergence

    left, right = (
        (oracle, resumed) if full else (_strip_counters(oracle), _strip_counters(resumed))
    )
    left_bytes = json.dumps(left, sort_keys=True).encode("utf-8")
    right_bytes = json.dumps(right, sort_keys=True).encode("utf-8")
    if left_bytes == right_bytes:
        return True, None
    return False, _first_divergence(left, right)


def drill_case(
    case: Any,
    seeds: Sequence[int],
    occurrences: Sequence[int],
    workdir: str,
) -> List[DrillOutcome]:
    """Run every (site, occurrence) kill-and-resume scenario for one case."""
    # Imported lazily (with the bench/search stack) so repro.resilience's
    # leaf modules stay importable without it.
    from repro.analysis.determinism import fingerprint_outcome

    seeds = [int(seed) for seed in seeds]
    oracle_campaign = case.build_campaign(seeds)
    oracle_outcome = oracle_campaign.run()
    oracle = fingerprint_outcome(
        oracle_outcome, oracle_campaign.cache.state_digest(), seeds
    )
    outcomes: List[DrillOutcome] = []
    for site in registered_fault_sites():
        for occurrence in occurrences:
            scenario = f"{site.replace('.', '-')}-occ{occurrence}"
            scenario_dir = os.path.join(workdir, case.slug, scenario)
            checkpoint_dir = os.path.join(scenario_dir, "checkpoints")
            cache_path = os.path.join(scenario_dir, "cache.evc")
            # Every scenario starts from an empty directory: a snapshot or
            # store left by an earlier run of the same scenario would be
            # resumed against a journal this run rewrites.
            shutil.rmtree(scenario_dir, ignore_errors=True)
            os.makedirs(scenario_dir)
            plan = FaultPlan(site, occurrence=occurrence)
            campaign = case.build_campaign(seeds, cache_path=cache_path)
            outcome = None
            try:
                with inject(plan):
                    outcome = campaign.run(checkpoint_dir=checkpoint_dir)
            except InjectedFault:
                pass
            finally:
                campaign.close()
            repaired_bytes = 0
            if plan.fired:
                resumed = case.build_campaign(seeds, cache_path=cache_path)
                repaired_bytes = resumed.cache.repaired_bytes
                try:
                    outcome = resumed.run(
                        checkpoint_dir=checkpoint_dir, resume_from=checkpoint_dir
                    )
                    digest = resumed.cache.state_digest()
                finally:
                    resumed.close()
            else:
                digest = campaign.cache.state_digest()
            fingerprint = fingerprint_outcome(outcome, digest, seeds)
            # Resuming from a snapshot carries the cache content and
            # accounting exactly, so those scenarios must match the oracle in
            # full; a
            # cold-start against the surviving store hits pairs the oracle
            # computed, so only its counters are excused.
            full = not plan.fired or outcome.resumed_from_round is not None
            identical, divergence = _compare(oracle, fingerprint, full)
            outcomes.append(
                DrillOutcome(
                    case=case.name,
                    site=site,
                    occurrence=occurrence,
                    fired=plan.fired,
                    resumed_from_round=outcome.resumed_from_round,
                    repaired_bytes=repaired_bytes,
                    identical=identical,
                    divergence=divergence,
                )
            )
    return outcomes


def drill_suite(
    suite: str = "drill",
    seeds: Sequence[int] = (0,),
    occurrences: Sequence[int] = (1, 3),
    workdir: str = "drill-workdir",
) -> DrillReport:
    """Drill every case of a bench suite; see :class:`DrillReport`."""
    from repro.bench.registry import get_suite

    outcomes: List[DrillOutcome] = []
    for case in get_suite(suite):
        outcomes.extend(drill_case(case, seeds, occurrences, workdir))
    return DrillReport(
        suite=suite,
        seeds=tuple(int(seed) for seed in seeds),
        occurrences=tuple(int(occurrence) for occurrence in occurrences),
        outcomes=tuple(outcomes),
    )
