"""Surrogate-assisted trust-region sizing search (Algorithm 1 + Section IV-E).

Layered since the ask/tell redesign: optimizers (``DatasetOptimizer``
subclasses — ``TrustRegionSearch``, ``RandomSearch``, ``CrossEntropySearch``)
own the proposal side; the ``Campaign`` driver owns evaluation and training
(budget, the cross-phase ``EvaluationCache``, multi-seed vectorized corner
passes, batched surrogate refits);
``size_problem`` is the single-seed entry point and ``build_campaign`` the
multi-seed one.  Every setting travels in one ``ProgressiveConfig`` (whose
``trust_region`` is a ``TrustRegionConfig``: seed and evaluation budget);
the trust region's batch, candidate pool, surrogate size, epochs, radius
schedule and optimiser settings are constants of
``repro.search.trust_region``, not options.
"""

from repro.search.campaign import Campaign, CampaignResult, EvaluationHandle
from repro.search.eval_cache import CornerEvaluator, EvaluationCache
from repro.search.optimizer import (
    CrossEntropySearch,
    DatasetOptimizer,
    Incumbent,
    IterationRecord,
    RandomSearch,
    SearchResult,
    TrustRegionConfig,
    available_optimizers,
    get_optimizer,
    register_optimizer,
)
from repro.search.progressive import (
    CornerReport,
    ProgressiveConfig,
    ProgressiveResult,
)
from repro.search.sizing import build_campaign, size_problem
from repro.search.spec import Spec, Specification
from repro.search.trust_region import TrustRegionSearch

__all__ = [
    "Campaign",
    "CampaignResult",
    "CornerEvaluator",
    "CornerReport",
    "CrossEntropySearch",
    "DatasetOptimizer",
    "EvaluationCache",
    "EvaluationHandle",
    "Incumbent",
    "IterationRecord",
    "ProgressiveConfig",
    "ProgressiveResult",
    "RandomSearch",
    "SearchResult",
    "Spec",
    "Specification",
    "TrustRegionConfig",
    "TrustRegionSearch",
    "available_optimizers",
    "build_campaign",
    "get_optimizer",
    "register_optimizer",
    "size_problem",
]
