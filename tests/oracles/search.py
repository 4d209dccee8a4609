"""The pre-refactor monolithic trust-region loop, the ask/tell parity oracle.

Before the ask/tell redesign, the trust-region search loop was written in
select-evaluate-append steps over an evaluator the optimizer held.  The
oracle loop :func:`run_trust_region` still is; it passes the evaluator in.
A Campaign-driven ask/tell search must reproduce it row for row.
"""

from typing import List, Optional

import numpy as np

from repro.nn.fused import fit_batched
from repro.search import trust_region
from repro.search.optimizer import FEASIBLE_TOL, IterationRecord


def evaluate_new(
    optimizer, evaluator, candidates: np.ndarray, limit: Optional[int] = None
) -> int:
    """Select-evaluate-append in one step; returns how many rows ran.

    The composition of ``_select_new`` and ``_append`` around ``evaluator``,
    which maps ``(count, dim)`` sizings to ``(count, n_metrics)``.
    """
    rows, _ = optimizer._select_new(candidates, limit)
    if rows.shape[0] == 0:
        return 0
    metrics = np.atleast_2d(np.asarray(evaluator(rows), dtype=np.float64))
    optimizer._append(rows, metrics)
    return int(rows.shape[0])


def run_trust_region(search, evaluator) -> List[IterationRecord]:
    """Run the historical closed loop on a fresh ``TrustRegionSearch``.

    A transcription of the pre-ask/tell ``run()`` body — Monte-Carlo seed,
    initial refit, trust-region iterations with ranked proposals,
    Monte-Carlo fallback, conditional refit, radius adaptation — driving the
    primitives the ask/tell optimizer uses (:func:`evaluate_new`,
    ``_refit_surrogate``, ``_scheduled_refit``, ``take_refit_job``,
    ``_fit_output_layer``, ``_rank_candidates``).  The refit primitives
    queue a full refit, so each iteration first trains the job the last
    refit queued, before it draws anything; the initial fit is then
    finished with the closed-form output-layer solve.  The sizes are read
    from the :mod:`repro.search.trust_region` constants when it runs.
    """
    config = search.config
    seed_points = search.design_space.sample(search.rng, trust_region.SEED_SAMPLES)
    if search._initial_points is not None:
        seed_points = np.vstack([search._initial_points, seed_points])
    evaluate_new(search, evaluator, seed_points, limit=config.max_evaluations)

    radius = trust_region.INITIAL_RADIUS
    history = []
    initial_fit = search._scores[search._best] < FEASIBLE_TOL
    if initial_fit:
        search._refit_surrogate(epochs=trust_region.INITIAL_EPOCHS)

    while (
        search._scores[search._best] < FEASIBLE_TOL
        and search._count < config.max_evaluations
    ):
        job = search.take_refit_job()
        if job is not None:
            fit_batched([job])
        if initial_fit:
            initial_fit = False
            search._fit_output_layer()
        center = search._X[search._best]
        space = search.design_space
        candidates = space.grid_values(
            space.sample_ball_index(search.rng, center, radius, trust_region.CANDIDATE_POOL)
        )
        batch_size = trust_region.BATCH_SIZE
        order = search._rank_candidates(space.to_unit(candidates), keep=4 * batch_size)
        previous = search._scores[search._best]
        step = min(batch_size, config.max_evaluations - search._count)
        added = evaluate_new(search, evaluator, candidates[order], limit=step)
        if added == 0:
            added = evaluate_new(
                search,
                evaluator,
                search.design_space.sample(search.rng, batch_size),
                limit=step,
            )
            if added == 0:
                break
        improved = search._scores[search._best] > previous + 1e-12
        will_continue = (
            search._scores[search._best] < FEASIBLE_TOL
            and search._count < config.max_evaluations
        )
        if will_continue:
            search._scheduled_refit()
        if improved:
            radius = min(radius * trust_region.EXPAND, trust_region.MAX_RADIUS)
        else:
            radius = max(radius * trust_region.SHRINK, trust_region.MIN_RADIUS)
        history.append(
            IterationRecord(
                evaluations=search._count,
                radius=radius,
                best_score=float(search._scores[search._best]),
                improved=bool(improved),
            )
        )
    return history
