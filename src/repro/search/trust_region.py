"""Surrogate-assisted trust-region search (Algorithm 1 of the paper).

The agent alternates between

1. *Monte-Carlo exploration* — uniform sampling of ``SEED_SAMPLES`` rows
   of the gridded design space to seed the dataset, and as the fallback
   batch when every candidate of the trust region has already been
   evaluated;
2. *surrogate refit* — an on-the-fly MLP (the "SPICE approximator" of
   Eq. 3) refit on all evaluated sizings after every tell.  A *full* refit
   is a warm-started Adam pass (the Adam moments persist across refits);
   it runs on the Monte-Carlo seed and then whenever the dataset has grown
   to ``REFIT_GROWTH`` times its size at the last full refit.  Every other
   refit keeps the learned hidden features and solves the linear output
   layer in closed form (the neural-linear surrogate of DNGO, Snoek et
   al., ICML 2015), and so does the *finish* of the initial fit: the first
   ask after the seed's Adam fit has trained solves its output layer;
3. *trust-region proposal* — a candidate pool sampled inside the L-infinity
   ball of Eq. (5) around the incumbent, ranked by the surrogate's predicted
   constraint-satisfaction score, with only the top few candidates sent to
   the (expensive) true evaluator;
4. *radius adaptation* — the trust region expands after an improving step
   and shrinks otherwise, in the classic trust-region fashion;
5. *stall restart* — after ``STALL_PATIENCE`` consecutive non-improving
   tells with the radius already at ``MIN_RADIUS``, the next ask ranks a
   fresh Monte-Carlo batch with the surrogate, re-centres the ball on the
   top-ranked row and resets the radius to ``INITIAL_RADIUS`` (the restart
   rule of TuRBO, Eriksson et al., NeurIPS 2019).  The dataset and the
   surrogate are kept; from then on the centre and the radius follow the
   *local* incumbent, the best row since the restart, while the global
   incumbent still decides when the search is done and what it returns.
   A seed that never stalls never restarts and draws nothing extra.

Since the ask/tell redesign the algorithm is expressed on the
:class:`~repro.search.optimizer.DatasetOptimizer` protocol: :meth:`ask` runs
the proposal side (Monte-Carlo seeding, trust-region sampling, surrogate
ranking, grid snapping, dedup, budget clamping) and :meth:`tell` the update
side (dataset append, surrogate refit, radius adaptation).  Evaluation
lives in the one driver, :class:`~repro.search.campaign.Campaign`.  The
split is **bit-identical** to the historical monolithic loop — same RNG
draw order, same refit schedule, same trajectories — and is locked by the
parity tests against the pre-refactor oracle.

A full refit has one path: ``tell`` queues it, and the Campaign pops it
with :meth:`TrustRegionSearch.take_refit_job` and trains every member's job
in one batched dispatch at the end of the round.  ``ask`` refuses to run
while a job is queued, so no loop can rank with a stale surrogate.  The
closed-form refits run inside ``tell``, apart from the initial fit's
finish, which runs at the top of the next ``ask`` — the first point every
driver reaches with the trained job.

The search has no checkpoint format of its own: its state (dataset,
radius, stall counter, surrogate weights and Adam moments) is a
deterministic function of the rows it was told, so a resumed Campaign
rebuilds it by replaying its rounds against the checkpointed cache.

Hot-path notes (this is the inner loop of every benchmark case): the
evaluated-point dataset (amortized-doubling buffers, hash-set dedup,
incremental incumbent) lives in the shared
:class:`~repro.search.optimizer.DatasetOptimizer` base; candidate ranking
uses ``np.argpartition`` to keep ranking cost O(pool); the surrogate is
the fused NumPy MLP (:mod:`repro.nn.fused`), trained by the stacked
kernel of :func:`~repro.nn.fused.fit_batched` and step-for-step
bit-identical to the autodiff reference the tests keep (locked by
``tests/test_fused.py``).  The network trains and predicts in float32; the
refit job's inputs and targets are cast once in
:meth:`TrustRegionSearch.take_refit_job`, predictions come back as float64,
and the output scaler, margins, ranking, design-space rows and cache keys
stay float64.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.design_space import DesignSpace
from repro.obs import event, profiled
from repro.resilience.faults import fault_point, register_fault_site
from repro.nn.fused import DTYPE, FusedAdam, FusedFitJob, FusedMLP
from repro.nn.scalers import StandardScaler
from repro.analysis.contracts import contract
from repro.search.optimizer import (
    DatasetOptimizer,
    IterationRecord,
    SearchResult,
    TrustRegionConfig,
    register_optimizer,
    tell_precondition,
)
from repro.search.spec import Specification

__all__ = [
    "IterationRecord",
    "SearchResult",
    "TrustRegionSearch",
]

#: Kill-and-resume drill site: a crash inside a surrogate refit loses the
#: half-updated Adam moments, which the resume's replay retrains exactly.
SITE_REFIT = register_fault_site("optimizer.refit")

#: Rows of the Monte-Carlo seed stage (line 1 of Algorithm 1), before any
#: warm-start points.  Every seed row is simulated at each phase-0 corner,
#: and most seeds solve in phase 0, so the seed is a large share of a
#: search's simulations.  With the closed-form finish of the initial fit,
#: 24 rows instead of 48 cut the simulations of every nominal and
#: ``corners`` bench case by 10-40% over seeds 192-255, at the same
#: success; 16 rows saved less.  The baselines keep their own 48-row first
#: draw (:data:`~repro.search.optimizer.BASELINE_SEED_SAMPLES`).
SEED_SAMPLES = 24

#: Rows per trust-region iteration (lines 5-7 of Algorithm 1): the
#: surrogate's ``4 * BATCH_SIZE`` top-ranked candidates are deduplicated
#: down to ``BATCH_SIZE`` new rows.
BATCH_SIZE = 8

#: Candidates drawn inside the trust region per iteration, and the
#: Monte-Carlo batch a stall restart ranks.
CANDIDATE_POOL = 512

#: Hidden-layer widths of the surrogate MLP.
SURROGATE_HIDDEN = (48, 48)

#: Adam epochs of the initial fit on the Monte-Carlo seed, and of every
#: later full refit (:data:`REFIT_GROWTH` decides which refits are full).
INITIAL_EPOCHS = 120
REFIT_EPOCHS = 25

#: Consecutive non-improving tells at ``MIN_RADIUS`` before the trust region
#: restarts around a surrogate-ranked Monte-Carlo sample.  With 8,
#: folded_cascode/nominal/nine seeds 0-127 solve 128/128 on 23,288
#: simulations (8 seeds restart); without restarts 123/128 on 38,116.  No
#: smoke-suite seed from 0 to 15 stalls, so those keep their trajectories.
STALL_PATIENCE = 8

#: A post-seed refit is a full Adam refit only once the dataset has grown to
#: this multiple of its row count at the last full refit (the 120-epoch
#: initial fit counts as one); every other post-seed refit is the closed-form
#: output-layer solve.  On the smoke suite's trust-region cases at seeds
#: 0-63 this needs 37,380 simulations and 63,700 Adam steps against 40,471
#: and 95,620 for a full refit on every tell, at the same median of 72
#: evaluations to feasible.
REFIT_GROWTH = 1.15

#: Ridge penalty of the closed-form output-layer refit, on the standardized
#: targets.
OUTPUT_RIDGE = 1e-2


#: Trust-region radius schedule of Eq. (5), in unit-cube coordinates: the
#: radius starts (and restarts) at ``INITIAL_RADIUS``, is multiplied by
#: ``EXPAND`` after an improving tell and by ``SHRINK`` otherwise, and stays
#: within ``[MIN_RADIUS, MAX_RADIUS]``.
INITIAL_RADIUS = 0.25
MIN_RADIUS = 0.02
MAX_RADIUS = 0.5
EXPAND = 1.6
SHRINK = 0.5

#: Adam step size of the full surrogate refits.
LEARNING_RATE = 3e-3

#: Minibatch size of the full surrogate refits.  The refit cost is dominated
#: by per-step dispatch overhead (the matrices are tiny), so fewer, larger
#: batches are strictly cheaper; 64 was chosen by measuring the smoke suite —
#: identical success rates and evaluations-to-feasible within noise of 32, at
#: roughly half the refit wall time.
SURROGATE_BATCH_SIZE = 64


class TrustRegionSearch(DatasetOptimizer):
    """Algorithm 1: surrogate-assisted trust-region CSP search.

    Parameters
    ----------
    design_space:
        The gridded CSP domain.
    specification:
        The constraints to satisfy; its ``metric_names`` must match the
        columns of the metrics ``tell`` receives.
    config:
        The run's seed and evaluation budget; the seed makes runs
        reproducible.  Every other setting is a module constant.
    initial_points:
        Optional extra sizings (natural units) evaluated up-front — used by
        the progressive PVT loop to warm-start later phases from the best
        sizing of an earlier phase.
    """

    def __init__(
        self,
        design_space: DesignSpace,
        specification: Specification,
        config: Optional[TrustRegionConfig] = None,
        initial_points: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(
            design_space,
            specification,
            config=config or TrustRegionConfig(),
            initial_points=initial_points,
        )
        # Ask/tell phase tracking: the first ask is the Monte-Carlo seed
        # stage, the first tell processes it (initial surrogate fit), and
        # the next ask finishes that fit (closed-form output layer).
        self._seeded = False
        self._iterating = False
        self._finish_pending = False
        self._radius = INITIAL_RADIUS
        # Stall-restart state.  The local incumbent (index of the best row
        # since the last restart, -1 before any such row) centres the ball
        # and drives the radius; until the first restart it is the global
        # incumbent.  Between a restart and the first tell after it, the
        # ball is centred on ``_restart_center`` instead.
        self._local = -1
        self._restart_center: Optional[np.ndarray] = None
        self._stall = 0
        self._restart_pending = False
        # Surrogate state persists across refits (warm-started Adam).
        self._surrogate: Optional[FusedMLP] = None
        self._optimizer: Optional[FusedAdam] = None
        self._output_scaler: Optional[StandardScaler] = None
        # Dataset row count at the last full (Adam) refit; it decides which
        # later refits are full (REFIT_GROWTH).
        self._full_refit_rows = 0
        # A full refit queued by tell(): the Campaign pops it via
        # take_refit_job() at the end of the round and trains it.
        self._pending_refit_epochs: Optional[int] = None

    # ------------------------------------------------------------------
    def take_refit_job(self) -> Optional[FusedFitJob]:
        """Pop the full refit the last ``tell`` queued as a fit job, or
        ``None``.

        Runs the refit bookkeeping (fault site, refit counter, lazy
        surrogate build) at pop time, and casts the unit inputs and scaled
        targets to the surrogate's float32 :data:`~repro.nn.fused.DTYPE`
        once, here, so every trainer gets the same arrays.  A
        :class:`~repro.search.campaign.Campaign` pops every member's job at
        the end of the round and trains them together, before any member
        asks again (:meth:`ask` refuses to run while a job is queued).
        Queuing cannot shift a trajectory: the full refit is the only RNG
        consumer of a refit, the closed-form refit draws nothing and always
        follows the training of any earlier full refit, and the next RNG use
        is the next ``ask``, which comes only after the job has trained — so
        the draw order and the surrogate bits do not depend on which
        dispatch trains it.
        """
        if self._pending_refit_epochs is None:
            return None
        epochs = self._pending_refit_epochs
        self._pending_refit_epochs = None
        fault_point(SITE_REFIT)
        self.refit_count += 1
        metrics = self._M[: self._count]
        self._ensure_surrogate(metrics)
        return FusedFitJob(
            model=self._surrogate,
            adam=self._optimizer,
            inputs=self._U[: self._count].astype(DTYPE),
            targets=self._output_scaler.transform(metrics).astype(DTYPE),
            epochs=epochs,
            batch_size=SURROGATE_BATCH_SIZE,
            rng=self.rng,
        )

    def _refit_surrogate(self, epochs: int) -> None:
        """Queue a full Adam refit (see :meth:`take_refit_job`)."""
        self._full_refit_rows = self._count
        self._pending_refit_epochs = epochs

    def _scheduled_refit(self) -> None:
        """A post-seed refit: a full refit when there is no surrogate yet or
        the dataset has grown ``REFIT_GROWTH``-fold since the last full
        refit, the closed-form output-layer solve otherwise."""
        if self._surrogate is None or self._count >= REFIT_GROWTH * self._full_refit_rows:
            self._refit_surrogate(epochs=REFIT_EPOCHS)
        else:
            self._fit_output_layer()

    def _fit_output_layer(self) -> None:
        """The closed-form refit: one ridge solve for the output layer."""
        fault_point(SITE_REFIT)
        self.refit_count += 1
        metrics = self._M[: self._count]
        with profiled("trust_region.refit", epochs=0, rows=self._count) as timer:
            self._surrogate.fit_output_layer(
                self._U[: self._count], self._output_scaler.transform(metrics), OUTPUT_RIDGE
            )
        self.refit_seconds += timer.seconds

    def _build_surrogate(self) -> Tuple[FusedMLP, FusedAdam]:
        """A fresh surrogate and its Adam, initialised from the config seed.

        The network's Xavier weights are drawn from a generator seeded with
        ``seed + 1``, apart from the search's own RNG stream.
        """
        surrogate = FusedMLP(
            self.design_space.dimension,
            SURROGATE_HIDDEN,
            len(self.specification.metric_names),
            rng=np.random.default_rng(self.config.seed + 1),
        )
        return surrogate, FusedAdam(surrogate, lr=LEARNING_RATE)

    def _ensure_surrogate(self, metrics: np.ndarray) -> None:
        """Lazily build the surrogate, its optimizer and the output scaler."""
        if self._surrogate is not None:
            return
        self._surrogate, self._optimizer = self._build_surrogate()
        # The output scaler is fitted once on the Monte-Carlo seed and
        # then frozen: retargeting it every refit would silently shift
        # the regression problem under the persistent Adam moments.
        self._output_scaler = StandardScaler().fit(metrics)

    def _rank_candidates(self, unit: np.ndarray, keep: int) -> np.ndarray:
        """Indices of the predicted-best ``keep`` candidates, best first.

        ``unit`` holds the candidates' unit-cube coordinates, the
        surrogate's inputs; the samplers read them off the design space's
        grid table (:meth:`~repro.core.design_space.DesignSpace.grid_units`).

        The satisfaction score saturates at 0 for every predicted-feasible
        candidate, so inside a converged trust region large parts of the
        pool tie exactly.  Ranking is therefore lexicographic: the clipped
        score first, the *worst* predicted margin as the tie-break — among
        candidates predicted feasible, prefer the one most robustly so
        (maximin), instead of an arbitrary sort-order accident.

        ``np.argpartition`` pre-selects by score so the bulk of the pool is
        never fully sorted; when score ties straddle the partition boundary
        the slice is widened to *all* boundary-tied candidates before the
        tie-break, so the maximin choice is taken over every candidate
        with an equal claim, not an arbitrary partition accident.
        """
        predicted = self._surrogate.predict(unit)
        metrics = self._output_scaler.inverse_transform(predicted)
        margins = self.specification.margins(metrics)
        scores = np.minimum(margins, 0.0).sum(axis=1)
        worst = margins.min(axis=1)
        if keep < scores.shape[0]:
            top = np.argpartition(scores, -keep)[-keep:]
            threshold = scores[top].min()
            tied = np.flatnonzero(scores >= threshold)
            if tied.size > keep:
                top = tied
        else:
            top = np.arange(scores.shape[0])
        # lexsort is ascending on the last key first: negate both keys to
        # get score-descending with worst-margin-descending tie-breaks.
        return top[np.lexsort((-worst[top], -scores[top]))][:keep]

    # -- ask/tell protocol ---------------------------------------------
    def ask(self) -> np.ndarray:
        """Next batch: Monte-Carlo seed first, trust-region proposals after.

        Line 1-3 of Algorithm 1 on the first call (uniform exploration,
        warm-start points placed first so they always make the cut); lines
        5-7 afterwards (L-infinity ball around the incumbent, surrogate
        ranking with maximin tie-breaks, duplicates replaced by the next
        best-ranked candidates).  When the whole region is already
        evaluated the ask falls back to Monte-Carlo exploration so the
        budget is never wasted; an empty batch means even that is
        exhausted.  A full refit the last ``tell`` queued must have been
        popped and trained first (the Campaign does so at the end of every
        round); asking before that would rank with a stale surrogate, so it
        raises ``RuntimeError``.  The first ask after the initial fit
        finishes it: the output layer is solved in closed form on the seed
        rows (:meth:`_fit_output_layer`, which draws no RNG) before anything
        is ranked.
        """
        config = self.config
        if self._pending_refit_epochs is not None:
            raise RuntimeError(
                "cannot ask with a queued refit still pending; "
                "pop it with take_refit_job() and train it first"
            )
        if self._done:
            return self._empty_batch()
        if self._finish_pending:
            self._finish_pending = False
            self._fit_output_layer()
        if not self._seeded:
            self._seeded = True
            seed_points = self.design_space.sample(self.rng, SEED_SAMPLES)
            if self._initial_points is not None:
                seed_points = np.vstack([self._initial_points, seed_points])
            rows, _ = self._select_new(seed_points, limit=config.max_evaluations)
            if rows.shape[0] == 0:
                self._done = True
            return rows
        if self._restart_pending:
            self._restart()
        center = self._X[self._local] if self._local >= 0 else self._restart_center
        space = self.design_space
        index = space.sample_ball_index(self.rng, center, self._radius, CANDIDATE_POOL)
        order = self._rank_candidates(space.grid_units(index), keep=4 * BATCH_SIZE)
        # The final iteration may have less budget left than a full batch;
        # never propose past max_evaluations.
        step = min(BATCH_SIZE, config.max_evaluations - self._count)
        rows, _ = self._select_new(space.grid_values(index[order]), limit=step)
        if rows.shape[0] == 0:
            rows, _ = self._select_new(space.sample(self.rng, BATCH_SIZE), limit=step)
            if rows.shape[0] == 0:
                self._done = True
        return rows

    def _restart(self) -> None:
        """Re-centre on the surrogate's pick of a fresh Monte-Carlo batch."""
        space = self.design_space
        pool = space.sample_index(self.rng, CANDIDATE_POOL)
        top = self._rank_candidates(space.grid_units(pool), keep=1)
        # ``seed`` is the optimizer's own RNG seed (a campaign member's seed
        # plus its phase); the enclosing ask span carries the stack's seeds.
        event(
            "trust_region.restart",
            seed=self.config.seed,
            evaluations=self._count,
            local_best=float(self._scores[self._local]),
            restart=1 + sum(record.restarted for record in self._history),
        )
        self._restart_center = space.grid_values(pool[top[0]])
        self._local = -1
        self._radius = INITIAL_RADIUS
        self._stall = 0
        self._restart_pending = False

    @contract(pre=tell_precondition)
    def tell(self, samples: np.ndarray, metrics: np.ndarray) -> None:
        """Fold evaluated metrics back in: dataset, surrogate, radius.

        The first tell processes the Monte-Carlo seed (initial surrogate
        fit, line 4, finished in closed form by the next ask); later tells run line 8-10 — a refit, but only when
        another iteration will actually consume it (a refit after the
        deciding batch would train a surrogate nobody queries, and the RNG
        draws it would consume are equally dead, so skipping cannot shift a
        trajectory) — then the trust-region radius update and the history
        record.  :meth:`_scheduled_refit` picks a full Adam refit with
        persistent moments or the closed-form output-layer solve.
        Improvement is judged against the local incumbent; a non-improving tell that
        arrives with the radius already at ``MIN_RADIUS`` counts towards
        ``STALL_PATIENCE``, and reaching it flags a restart for the next
        ``ask`` (an improving tell resets the count).  The local incumbent
        follows the dataset's own rule — the block's best row, taken only on
        a strictly better score — so before the first restart it *is* the
        global incumbent.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        metrics = np.atleast_2d(np.asarray(metrics, dtype=np.float64))
        restarted = self._local < 0
        previous = self._scores[self._local] if self._local >= 0 else -np.inf
        block_best = self._append(samples, metrics)
        if self._local < 0 or self._scores[block_best] > previous:
            self._local = block_best
        improved = bool(self._scores[self._local] > previous + 1e-12)
        if not self._iterating:
            self._iterating = True
            self._radius = INITIAL_RADIUS
            self._update_done()
            # Only worth fitting a surrogate when a search will actually run.
            if not self._done:
                self._refit_surrogate(epochs=INITIAL_EPOCHS)
                self._finish_pending = True
            return
        self._update_done()
        if not self._done:
            self._scheduled_refit()
        if improved:
            self._stall = 0
            self._radius = min(self._radius * EXPAND, MAX_RADIUS)
        else:
            if self._radius <= MIN_RADIUS:
                self._stall += 1
            self._radius = max(self._radius * SHRINK, MIN_RADIUS)
        self._restart_pending = self._stall >= STALL_PATIENCE
        self._history.append(
            IterationRecord(
                evaluations=self._count,
                radius=self._radius,
                best_score=float(self._scores[self._best]),
                improved=improved,
                restarted=restarted,
            )
        )


register_optimizer("trust_region", TrustRegionSearch)
