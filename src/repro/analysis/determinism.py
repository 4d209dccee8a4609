"""Determinism auditor: double-run bench cases and byte-diff everything.

Four PRs in a row shipped hand-written "bit-identical trajectory" locks;
this module turns them into one reusable gate.  For every case of a bench
suite the auditor builds the same multi-seed
:class:`~repro.search.campaign.Campaign` the benchmark harness runs, runs
it **twice in-process**, and compares byte-level fingerprints of everything
except wall time: the per-seed trajectories (winning sizing, evaluation
counts, phase counts, failing corners, the raw ``best_vector`` bytes), the
campaign's evaluation accounting (rounds, engine calls, cache hits/misses),
and a digest of the full :class:`~repro.search.eval_cache.EvaluationCache`
content — every ``(corner, row-key, metric-row)`` triple, bit for bit.

Any nondeterminism anywhere in the stack — an unseeded RNG, dict-ordering
dependence, an uninitialised buffer read, a mutated cached array — shows up
as a fingerprint mismatch.  Contracts (``repro.analysis.contracts``) are
enabled for the audited runs by default, so shape violations and aliasing
mutations fault loudly instead of corrupting the comparison.

**Resume-parity mode** (``--resume-parity``) swaps the second run for a
kill-and-resume one: the first run checkpoints every round
(:meth:`Campaign.run` with ``keep_history=True``), the second starts a
fresh campaign and resumes it from the mid-run snapshot.  The same
byte-diff then proves a resumed campaign is bit-identical to the
uninterrupted one — including the cache content digest *and* the hit/miss
accounting, which the resume's replay and the snapshot's counters carry
exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.contracts import contracts

#: ``ProgressiveResult.to_dict`` keys that measure wall time, not behaviour.
_TIMING_FIELDS = ("refit_seconds",)


def fingerprint_outcome(
    outcome: Any, cache_digest: str, seeds: Sequence[int]
) -> Dict[str, Any]:
    """Deterministic fingerprint of a :class:`CampaignResult`.

    Everything behavioural, nothing timed: per-seed trajectories (with the
    raw ``best_vector`` bytes hashed), campaign-wide evaluation accounting,
    and the full cache-content digest.  Shared by the double-run auditor
    and the resilience drill so "bit-identical" means the same bytes in
    both gates.  ``resumed_from_round`` is deliberately absent — it is the
    one field a resumed run legitimately differs on.
    """
    per_seed: List[Dict[str, Any]] = []
    for seed, result in zip(seeds, outcome.results):
        record = result.to_dict()
        for field in _TIMING_FIELDS:
            record.pop(field, None)
        record["seed"] = int(seed)
        record["best_vector_sha256"] = hashlib.sha256(
            result.best_vector.tobytes()
        ).hexdigest()
        per_seed.append(record)
    return {
        "per_seed": per_seed,
        "rounds": outcome.rounds,
        "engine_calls": outcome.engine_calls,
        "cache_hits": outcome.cache_hits,
        "cache_misses": outcome.cache_misses,
        "refit_rounds": outcome.refit_rounds,
        "batched_kernel_calls": outcome.batched_kernel_calls,
        "cache_sha256": cache_digest,
    }


def _run_fingerprint(
    case: Any,
    seeds: Sequence[int],
    optimizer: Optional[str],
    checkpoint_dir: Optional[str] = None,
    keep_history: bool = False,
    resume_from: Optional[str] = None,
) -> Tuple[Dict[str, Any], int]:
    """Run one bench case once; returns (fingerprint, rounds run)."""
    campaign = case.build_campaign(seeds, optimizer=optimizer)
    outcome = campaign.run(
        checkpoint_dir=checkpoint_dir,
        keep_history=keep_history,
        resume_from=resume_from,
    )
    digest = campaign.cache.state_digest()
    return fingerprint_outcome(outcome, digest, seeds), outcome.rounds


def _first_divergence(first: Any, second: Any, path: str = "$") -> str:
    """Human-readable pointer to the first differing leaf of two payloads."""
    if type(first) is not type(second):
        return f"{path}: type {type(first).__name__} vs {type(second).__name__}"
    if isinstance(first, dict):
        for key in first:
            if key not in second:
                return f"{path}.{key}: missing in second run"
            if first[key] != second[key]:
                return _first_divergence(first[key], second[key], f"{path}.{key}")
        return f"{path}: second run has extra keys"
    if isinstance(first, list):
        if len(first) != len(second):
            return f"{path}: length {len(first)} vs {len(second)}"
        for index, (a, b) in enumerate(zip(first, second)):
            if a != b:
                return _first_divergence(a, b, f"{path}[{index}]")
    return f"{path}: {first!r} vs {second!r}"


@dataclass(frozen=True)
class CaseAudit:
    """Double-run comparison of one bench case."""

    name: str
    identical: bool
    fingerprint_sha256: str
    #: Pointer to the first differing field when the runs diverged.
    divergence: Optional[str] = None

    def format(self) -> str:
        status = "OK  " if self.identical else "DIFF"
        line = f"{status} {self.name}  fingerprint {self.fingerprint_sha256[:16]}"
        if self.divergence:
            line += f"\n     first divergence: {self.divergence}"
        return line


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a suite-level determinism audit."""

    suite: str
    seeds: Tuple[int, ...]
    cases: Tuple[CaseAudit, ...]
    #: ``"double-run"`` or ``"resume-parity"`` (what the two compared runs
    #: were).
    mode: str = "double-run"

    @property
    def ok(self) -> bool:
        return all(case.identical for case in self.cases)

    def format(self) -> str:
        comparison = {
            "double-run": "double-run byte-diff",
            "resume-parity": "uninterrupted vs mid-run-resumed byte-diff",
        }.get(self.mode, self.mode)
        lines = [
            f"determinism audit: suite {self.suite!r}, seeds {list(self.seeds)}, "
            f"{comparison}"
        ]
        lines.extend(case.format() for case in self.cases)
        verdict = "all runs byte-identical" if self.ok else "NONDETERMINISM DETECTED"
        lines.append(verdict)
        return "\n".join(lines)


def audit_case(
    case: Any,
    seeds: Sequence[int],
    optimizer: Optional[str] = None,
    with_contracts: bool = True,
    resume_parity: bool = False,
) -> CaseAudit:
    """Run one case twice and byte-compare the fingerprints.

    With ``resume_parity`` the second run resumes a fresh campaign from
    the first run's mid-round snapshot instead of starting cold, turning
    the same byte-diff into the checkpoint/resume correctness gate.
    """
    seeds = [int(seed) for seed in seeds]
    with contracts(with_contracts):
        if resume_parity:
            with tempfile.TemporaryDirectory(prefix="repro-audit-") as ckpt_dir:
                first, rounds = _run_fingerprint(
                    case, seeds, optimizer, checkpoint_dir=ckpt_dir, keep_history=True
                )
                mid = max(1, rounds // 2)
                second, _ = _run_fingerprint(
                    case,
                    seeds,
                    optimizer,
                    resume_from=os.path.join(ckpt_dir, f"round-{mid:05d}.snapshot"),
                )
        else:
            first, _ = _run_fingerprint(case, seeds, optimizer)
            second, _ = _run_fingerprint(case, seeds, optimizer)
    first_bytes = json.dumps(first, sort_keys=True).encode("utf-8")
    second_bytes = json.dumps(second, sort_keys=True).encode("utf-8")
    identical = first_bytes == second_bytes
    return CaseAudit(
        name=case.name,
        identical=identical,
        fingerprint_sha256=hashlib.sha256(first_bytes).hexdigest(),
        divergence=None if identical else _first_divergence(first, second),
    )


def audit_suite(
    suite: str = "tiny",
    seeds: Sequence[int] = (0, 1, 2),
    optimizer: Optional[str] = None,
    with_contracts: bool = True,
    resume_parity: bool = False,
) -> AuditReport:
    """Audit every case of a bench suite; see :class:`AuditReport`."""
    from repro.bench.registry import get_suite

    return AuditReport(
        suite=suite,
        seeds=tuple(int(seed) for seed in seeds),
        cases=tuple(
            audit_case(
                case,
                seeds,
                optimizer=optimizer,
                with_contracts=with_contracts,
                resume_parity=resume_parity,
            )
            for case in get_suite(suite)
        ),
        mode="resume-parity" if resume_parity else "double-run",
    )
