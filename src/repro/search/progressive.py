"""Progressive PVT-corner hardening (Section IV-E of the paper).

Verifying every candidate sizing at every sign-off corner multiplies the
evaluation cost by the corner count.  The paper's strategy: size at the
*hardest* corner first (by the severity heuristic), then verify the result
across the full grid and fold only the corners that actually fail back into
the active constraint set, re-searching with worst-case margins until either
every corner passes or the phase budget runs out.  Here phase 0 starts at
the hardest corner plus the far corner of the opposite (high-supply/cold)
failure regime (:func:`~repro.circuits.pvt.initial_corners`), which the
hardest corner's winners would otherwise fail in a second phase.

Since the ask/tell redesign the schedule itself lives in
:class:`~repro.search.campaign.Campaign` (as a per-seed state machine, so
many seeds can share vectorized evaluation rounds); this module keeps the
configuration and result types.

The corner axis stays *tensorized*: every multi-corner evaluation is a
single :meth:`~repro.circuits.topologies.base.SizingProblem.evaluate_corners`
call routed through a cross-phase
:class:`~repro.search.eval_cache.EvaluationCache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.circuits.pvt import PVTCondition
from repro.search.optimizer import available_optimizers
from repro.search.spec import Spec, Specification
from repro.search.trust_region import SearchResult, TrustRegionConfig


@dataclass
class ProgressiveConfig:
    """Configuration of the progressive multi-corner loop.

    Bundles the per-phase optimizer hyper-parameters with the knobs that
    belong to the corner-hardening loop itself.  ``optimizer`` names the
    registered search strategy each phase runs (``"trust_region"`` default;
    ``"random"`` and ``"cross_entropy"`` are the built-in baselines).
    """

    trust_region: TrustRegionConfig = field(default_factory=TrustRegionConfig)
    max_phases: int = 4
    optimizer: str = "trust_region"

    def __post_init__(self) -> None:
        if self.optimizer not in available_optimizers():
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}; "
                f"available: {', '.join(available_optimizers())}"
            )


@dataclass
class CornerReport:
    """Verification outcome of one PVT corner."""

    condition: PVTCondition
    metrics: Dict[str, float]
    satisfied: bool


@dataclass
class ProgressiveResult:
    """Outcome of the progressive multi-corner search."""

    best_sizing: Dict[str, float]
    best_vector: np.ndarray
    solved_all_corners: bool
    evaluations: int
    corner_reports: List[CornerReport] = field(default_factory=list)
    phase_results: List[SearchResult] = field(default_factory=list)
    active_corners: List[PVTCondition] = field(default_factory=list)
    #: Wall time inside the true corner evaluator, across all phases and
    #: verifications (the ``eval_seconds`` the benchmark records).  Under a
    #: multi-seed campaign a shared stacked pass's engine time is split
    #: across the seeds proportionally to each seed's fresh (cache-missing)
    #: pairs, so the per-seed values sum to the campaign-wide total on
    #: :class:`~repro.search.campaign.CampaignResult`.
    eval_seconds: float = 0.0
    #: Cross-phase evaluation-cache counters, per ``(row, corner)`` pair —
    #: exact per seed (a shared pass's pairs decompose exactly by who
    #: requested them), summing to the campaign totals.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Invocations of the wrapped corner evaluator serving this search.  A
    #: stacked pass shared by several seeds books one call to **every**
    #: seed it computed fresh pairs for, so per-seed values can sum to more
    #: than the campaign-wide counter.
    engine_calls: int = 0

    def failing_corners(self) -> List[PVTCondition]:
        return [report.condition for report in self.corner_reports if not report.satisfied]

    @property
    def refit_seconds(self) -> float:
        """Total surrogate-refit wall time across all phases."""
        return sum(result.refit_seconds for result in self.phase_results)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable summary (used by the ``repro.bench`` artifacts).

        ``solved`` is :attr:`solved_all_corners` (a progressive search is
        solved only when every sign-off corner passes); per-phase details
        are summarised to the phase count — use :attr:`phase_results` and
        :meth:`SearchResult.to_dict` for the full per-phase story.
        """
        return {
            "solved": bool(self.solved_all_corners),
            "evaluations": int(self.evaluations),
            "phases": len(self.phase_results),
            "restarts": sum(result.restarts for result in self.phase_results),
            "best_sizing": {k: float(v) for k, v in self.best_sizing.items()},
            "failing_corners": [c.name for c in self.failing_corners()],
            "refit_seconds": float(self.refit_seconds),
            "eval_seconds": float(self.eval_seconds),
            "cache_hits": int(self.cache_hits),
            "cache_misses": int(self.cache_misses),
            "engine_calls": int(self.engine_calls),
        }


def _corner_metric_names(metric_names: Sequence[str], corner: PVTCondition) -> List[str]:
    return [f"{name}@{corner.name}" for name in metric_names]


def _stacked_specification(
    specs: Sequence[Spec], metric_names: Sequence[str], corners: Sequence[PVTCondition]
) -> Specification:
    """Replicate the specs across corners over a concatenated metric vector."""
    stacked_names: List[str] = []
    stacked_specs: List[Spec] = []
    for corner in corners:
        names = _corner_metric_names(metric_names, corner)
        stacked_names.extend(names)
        for spec in specs:
            stacked_specs.append(
                Spec(
                    metric=f"{spec.metric}@{corner.name}",
                    sense=spec.sense,
                    bound=spec.bound,
                    scale=spec.scale,
                )
            )
    return Specification(stacked_specs, stacked_names)
