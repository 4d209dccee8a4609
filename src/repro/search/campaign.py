"""The Campaign driver: the one loop that runs every ask/tell optimizer.

The ask/tell redesign splits the search stack into two halves.  Optimizers
(:mod:`repro.search.optimizer`) own the *proposal* side — what to evaluate
next — and never evaluate or train anything themselves.  The
:class:`Campaign` owns the *evaluation* side:

* the true corner evaluator (the handle's one evaluator, e.g. a topology's
  :meth:`~repro.circuits.topologies.base.SizingProblem.evaluate_corners`),
  wrapped in the cross-phase
  :class:`~repro.search.eval_cache.EvaluationCache`;
* campaign-wide evaluation accounting (``eval_seconds``, engine calls,
  cache hits/misses); a seed's own cost is its ``simulations``;
* the progressive PVT corner-hardening schedule of Section IV-E, run as a
  per-seed state machine (size at the hardest corner and the far corner of
  the opposite failure regime, verify over the full grid, fold failing
  corners back in);
* **multi-seed vectorized execution**: each round the Campaign asks every
  live seed's optimizer, one
  :meth:`~repro.search.optimizer.DatasetOptimizer.ask_stack` call per
  optimizer class, groups the requests by corner set, stacks each group
  into a single :func:`evaluate_corners` tensor pass (the rows' keys from
  the asks ride along into the cache), and tells each group's search
  members through one
  :meth:`~repro.search.optimizer.DatasetOptimizer.tell_stack` call per
  optimizer class on that block.  The surrogate-free baselines share the
  snap, key, ``to_unit`` and score work of a whole stack in those calls;
  the trust region asks and tells each seed in turn.  Per ``(row,
  corner)`` pair the stacked evaluator is bit-identical however the pass
  is batched, and each seed's ask and tell equal its one-member stack, so
  trajectories never depend on how many seeds share a round — the
  multi-seed path is bit-exact versus running the seeds sequentially
  (locked by tests) and computes no extra ``(row, corner)`` pairs; it
  just issues far fewer, larger evaluator and bookkeeping calls;
* **batched surrogate refits**: a trust-region ``tell`` queues its full
  refit; at the end of the round the Campaign pops every member's job and
  trains the jobs of one geometry through a single
  :func:`~repro.nn.fused.fit_batched` dispatch, bit-identical per seed to
  training each job alone.  This is the only place a full refit trains;
* **checkpoint and resume by replay**: a checkpoint journals the cache
  pairs the round added and snapshots only what a replay cannot
  recompute (identity, round count, the cache's counters).  A resume
  restores the cache from the journal and re-runs the snapshot's rounds
  through the ordinary loop: the search is deterministic, so every
  replayed pass is an all-hit cache read and no optimizer serializes any
  state.  The resume skips every simulation, not the surrogate training
  of the replayed rounds.

:func:`repro.search.sizing.size_problem` runs a single-seed Campaign and
reproduces the pre-redesign behaviour bit-exactly at a fixed seed/config.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Type

import numpy as np

from repro.analysis.contracts import ArraySpec, contract
from repro.circuits.pvt import (
    PVTCondition,
    initial_corners,
    nine_corner_grid,
    rank_by_severity,
)
from repro.core.design_space import DesignSpace, row_keys
from repro.nn.fused import FusedFitJob, fit_batched, fit_job_signature
from repro.obs import event, profiled
from repro.resilience.faults import fault_point, register_fault_site
from repro.resilience.snapshot import SnapshotError, load_snapshot, save_snapshot
from repro.search.eval_cache import CornerEvaluator, EvaluationCache
from repro.search.optimizer import DatasetOptimizer, get_optimizer
from repro.search.progressive import (
    CornerReport,
    ProgressiveConfig,
    ProgressiveResult,
    _stacked_specification,
)
from repro.search.spec import Spec, Specification
from repro.search.trust_region import TrustRegionConfig

#: Kill-and-resume drill site: dying after the journal fsync but before the
#: snapshot replace leaves journal frames no snapshot references yet; the
#: resume ignores them and truncates them away.
SITE_SNAPSHOT_JOURNAL = register_fault_site("snapshot.journal")

#: Kill-and-resume drill site: dying *before* the atomic snapshot write
#: leaves the previous round's snapshot intact (that, not a half-written
#: file, is the worst case the atomic writer permits).
SITE_SNAPSHOT_WRITE = register_fault_site("snapshot.write")

#: Snapshot filename the resume path looks for in a checkpoint directory.
LATEST_SNAPSHOT = "latest.snapshot"

#: The evaluation-cache journal every snapshot in a checkpoint directory
#: references by watermark.
CACHE_JOURNAL = "cache.journal"


@dataclass(frozen=True)
class EvaluationHandle:
    """Everything a :class:`Campaign` needs to evaluate one workload.

    Produced by
    :meth:`~repro.circuits.topologies.base.SizingProblem.evaluation_handle`;
    tests and third-party problems can also build one directly around any
    evaluator honouring the corner-tensor contract.

    Attributes
    ----------
    design_space:
        The gridded CSP domain shared by every optimizer of the campaign.
    metric_names:
        Single-corner metric layout (columns of the evaluator output).
    corner_evaluator:
        Vectorized ``(samples, corners) -> (n_corners, count, n_metrics)``
        evaluator — the handle's one evaluation path.
    """

    design_space: DesignSpace
    metric_names: Tuple[str, ...]
    corner_evaluator: CornerEvaluator


@dataclass
class CampaignResult:
    """Outcome of a (possibly multi-seed) campaign, plus eval accounting."""

    #: One :class:`ProgressiveResult` per seed, in ``seeds`` order.
    results: List[ProgressiveResult]
    seeds: List[int]
    #: Number of lockstep evaluation rounds the campaign ran.
    rounds: int
    #: Invocations of the wrapped corner evaluator (the "fewer, larger
    #: calls" the multi-seed tensor batching is about).
    engine_calls: int
    #: Wall time inside the true corner evaluator, campaign-wide.
    eval_seconds: float
    #: Cross-phase evaluation-cache counters, per ``(row, corner)`` pair.
    cache_hits: int
    cache_misses: int
    #: Round the campaign resumed from (``None`` for an uninterrupted run).
    #: ``rounds`` still counts from the resumed round, matching the oracle.
    resumed_from_round: Optional[int] = None
    #: Lockstep rounds in which at least one surrogate refit ran.
    refit_rounds: int = 0
    #: Stacked multi-seed training dispatches (single-job refits don't
    #: count).
    batched_kernel_calls: int = 0

    @property
    def solved_fraction(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.solved_all_corners for r in self.results) / len(self.results)


def _receive_precondition(arguments) -> Optional[str]:
    """Contract: a received block is the verification of the phase winner,
    one row at every ranked corner."""
    member = arguments["self"]
    block = arguments["block"]
    if member._state != "verify":
        return f"receive() in state {member._state!r}, not 'verify'"
    expected = (len(member.ranked), 1, len(member.metric_names))
    if block.shape != expected:
        return f"metric block shape {block.shape}, expected {expected}"
    return None


class _Request(NamedTuple):
    """One member's evaluation request of a round: its rows, their
    :func:`~repro.core.design_space.row_keys`, and the corners to evaluate
    them at (a search batch at the active set, or the phase winner at every
    ranked corner)."""

    member: "_ProgressiveMember"
    rows: np.ndarray
    keys: List[bytes]
    corners: List[PVTCondition]


class _ProgressiveMember:
    """One seed's progressive corner-hardening search, as a state machine.

    Mirrors the historical sequential loop exactly — phase optimizer at the
    active corner set, full-grid verification of the phase winner, fold the
    worst new failing corner, repeat — but exposes it one evaluation request
    at a time so the Campaign can batch requests across seeds.
    """

    def __init__(
        self,
        seed: int,
        design_space: DesignSpace,
        specs: Sequence[Spec],
        metric_names: Sequence[str],
        ranked: Sequence[PVTCondition],
        trust_config: TrustRegionConfig,
        optimizer_name: str,
        max_phases: int,
        specifications: Dict[Tuple[PVTCondition, ...], Specification],
    ) -> None:
        self.seed = seed
        self.design_space = design_space
        self.specs = list(specs)
        self.metric_names = list(metric_names)
        self.ranked = list(ranked)
        self.config = (
            replace(trust_config, seed=seed) if trust_config.seed != seed else trust_config
        )
        self.optimizer_name = optimizer_name
        self.optimizer_cls = get_optimizer(optimizer_name)
        self.max_phases = max_phases
        # The paper's cost metric: distinct (row, corner) pairs this seed's
        # own requests named, verification included.  Counted from the
        # requests, not from cache freshness, so it does not depend on
        # which seeds share the campaign (or on a warm cache), and a
        # replayed round recounts it exactly.  A phase's rows are new to
        # its optimizer, so only rows of earlier phases can repeat a pair:
        # those are kept as grid codes, with the corner count they were
        # simulated at.
        self.simulations = 0
        self._simulated: List[Tuple[np.ndarray, int]] = []
        self._single_spec = Specification(self.specs, self.metric_names)

        self.active: List[PVTCondition] = initial_corners(self.ranked)
        self.phase = 0
        self.total_evaluations = 0
        self.phase_results: List = []
        self.solved_all = False
        self.finished = False
        self.warm_start: Optional[np.ndarray] = None
        self.best_vector: Optional[np.ndarray] = None
        # The last verification: the winner's metrics at every ranked
        # corner and their verdicts, kept until a report is read.
        self._verified: Optional[Tuple[np.ndarray, List[bool]]] = None
        self._state = "search"
        self._specifications = specifications
        self.optimizer = self._build_optimizer()

    def _build_optimizer(self) -> DatasetOptimizer:
        # Members at one active set share its specification, so a stacked
        # tell scores their rows in one pass.
        active = tuple(self.active)
        specification = self._specifications.get(active)
        if specification is None:
            specification = self._specifications[active] = _stacked_specification(
                self.specs, self.metric_names, self.active
            )
        # dataclasses.replace keeps working if the config ever gains
        # non-init or derived fields, where reconstructing from __dict__
        # would silently break.
        phase_config = replace(self.config, seed=self.config.seed + self.phase)
        return self.optimizer_cls(
            self.design_space,
            specification,
            config=phase_config,
            initial_points=self.warm_start,
        )

    def _count_phase(self) -> List[Tuple[np.ndarray, int]]:
        """Add the finished phase's simulations: its told rows at the active
        corners and its winner at every corner, less the pairs an earlier
        phase already simulated.  Each phase's corners extend the last
        one's, so a row's simulated pairs are its first corners.  Returns
        the simulated rows a next phase must not count again."""
        space = self.design_space
        rows = np.vstack([self.optimizer.evaluated_rows, self.best_vector])
        codes = np.ravel_multi_index(
            space.grid_index(rows).T, [parameter.grid_points for parameter in space]
        )
        widths = np.full(codes.shape[0], len(self.active))
        widths[-1] = len(self.ranked)
        # The winner is also one of the told rows.
        before = np.zeros_like(widths)
        before[-1] = len(self.active)
        for simulated, width in self._simulated:  # sorted, never empty
            index = np.searchsorted(simulated, codes).clip(max=simulated.size - 1)
            np.maximum(before, np.where(simulated[index] == codes, width, 0), out=before)
        self.simulations += int(np.maximum(widths - before, 0).sum())
        return self._simulated + [
            (np.sort(codes[:-1]), len(self.active)),
            (codes[-1:].copy(), len(self.ranked)),
        ]

    @property
    def asking(self) -> Optional[DatasetOptimizer]:
        """The optimizer to ask this round, or ``None`` when the member's
        next request is no search batch."""
        if self.finished or self._state != "search" or self.optimizer.is_done:
            return None
        return self.optimizer

    @property
    def verifying(self) -> bool:
        """True while the member's request is the phase winner's verification."""
        return self._state == "verify"

    def request(
        self, asked: Optional[Tuple[np.ndarray, List[bytes]]]
    ) -> Optional[_Request]:
        """The member's request this round, or ``None`` when finished.

        ``asked`` is its optimizer's ``(rows, keys)`` answer, or ``None``
        when :attr:`asking` was ``None``.  Rows make a search request; no
        rows end the phase, and the request verifies its winner over the
        full grid.
        """
        if self.finished:
            return None
        if self._state != "search":
            raise RuntimeError(f"member in unexpected state {self._state!r}")
        if asked is not None and asked[0].shape[0]:
            return _Request(self, asked[0], asked[1], self.active)
        # Phase over: collect its result, verify over the full grid.
        result = self.optimizer.result()
        self.phase_results.append(result)
        self.total_evaluations += result.evaluations
        self.best_vector = result.best_vector
        self.warm_start = self.best_vector[np.newaxis, :]
        self._state = "verify"
        event(
            "campaign.verify",
            seed=self.seed,
            phase=self.phase,
            evaluations=result.evaluations,
        )
        return _Request(self, self.warm_start, row_keys(self.warm_start), self.ranked)

    @contract(args={"block": ArraySpec(None, None, None)}, pre=_receive_precondition)
    def receive(self, block: np.ndarray) -> None:
        """Consume the verification block ``(n_corners, 1, n_metrics)`` of
        the phase winner: finish, or fold a failing corner into the next
        phase."""
        simulated = self._count_phase()
        rows = np.array(block[:, 0, :])
        verdicts = self._single_spec.satisfied(rows).tolist()
        self._verified = (rows, verdicts)
        failing = [corner for corner, ok in zip(self.ranked, verdicts) if not ok]
        if not failing:
            self.solved_all = True
            self.finished = True
            event("campaign.solved", seed=self.seed, phase=self.phase)
            return
        # Fold the worst *new* failing corner into the active set (frozen
        # dataclass identity, not the rounded display name).
        active_set = set(self.active)
        new_failures = [corner for corner in failing if corner not in active_set]
        if not new_failures:
            # The search itself could not satisfy the active set; more
            # phases would re-run the same problem.
            self.finished = True
            event(
                "campaign.finished",
                seed=self.seed,
                phase=self.phase,
                reason="no-new-failing-corner",
            )
            return
        if self.phase == self.max_phases - 1:
            # No further phase will run, so don't report a corner that was
            # never actually folded into a searched constraint set.
            self.finished = True
            event(
                "campaign.finished",
                seed=self.seed,
                phase=self.phase,
                reason="max-phases",
            )
            return
        self._simulated = simulated
        self.active = self.active + [new_failures[0]]
        self.phase += 1
        self._state = "search"
        event(
            "campaign.phase",
            seed=self.seed,
            phase=self.phase,
            folded_corner=new_failures[0].name,
            active_corners=len(self.active),
        )
        self.optimizer = self._build_optimizer()

    @property
    def corner_reports(self) -> List[CornerReport]:
        """The last verification's verdict at every ranked corner (empty
        before the first), built when read."""
        if self._verified is None:
            return []
        rows, verdicts = self._verified
        return [
            CornerReport(
                condition=corner,
                metrics=dict(zip(self.metric_names, values)),
                satisfied=ok,
            )
            for corner, values, ok in zip(self.ranked, rows.tolist(), verdicts)
        ]

    def build_result(self) -> ProgressiveResult:
        return ProgressiveResult(
            best_sizing=self.design_space.to_dict(self.best_vector),
            best_vector=self.best_vector,
            solved_all_corners=self.solved_all,
            evaluations=self.total_evaluations,
            corner_reports=self.corner_reports,
            phase_results=self.phase_results,
            active_corners=self.active,
            simulations=self.simulations,
        )


def _stacked_metrics(block: np.ndarray) -> np.ndarray:
    """A ``(n_corners, count, n_metrics)`` block in the corner-major column
    layout of the stacked specification: for each sizing row, corner 0's
    metrics first, then corner 1's, and so on."""
    corners, count, n_metrics = block.shape
    return block.transpose(1, 0, 2).reshape(count, corners * n_metrics)


def _stack_tags(members: Sequence[_ProgressiveMember]) -> Dict[str, object]:
    """Span tags of work done for a stack of members: every member's
    ``seeds``, plus the ``seed`` and ``phase`` of a lone member, whose span
    books its time to that seed (a shared one has no single seed)."""
    tags: Dict[str, object] = {"seeds": [member.seed for member in members]}
    if len(members) == 1:
        tags.update(seed=members[0].seed, phase=members[0].phase)
    return tags


def _corner_keys(corners: Sequence[PVTCondition]) -> List[Tuple[str, float, float]]:
    """Corners as plain tuples, for a snapshot's identity block."""
    return [(c.process, c.voltage_factor, c.temperature_c) for c in corners]


class Campaign:
    """Drive one or many seeds of a sizing search over shared evaluation.

    Parameters
    ----------
    handle:
        The workload's :class:`EvaluationHandle` (design space, metric
        names, corner evaluator).
    specs:
        Constraints that must hold at every sign-off corner.
    corners:
        Sign-off grid; defaults to :func:`nine_corner_grid`.
    config:
        The :class:`~repro.search.progressive.ProgressiveConfig`; ``None``
        means the defaults.  Its ``optimizer`` field names the registered
        search strategy, and its ``trust_region`` config is shared by every
        phase.
    seeds:
        RNG seeds, one independent progressive search each; defaults to the
        config's seed.  All seeds share one :class:`EvaluationCache`, and
        each lockstep round feeds the live seeds' pending batches through
        one stacked evaluator call per distinct corner set.
    cache_path:
        Optional persistent evaluation-cache store: computed pairs are
        appended there and preloaded on construction, so a resumed or
        repeated campaign over the same workload warm-starts across
        processes (see ``EvaluationCache(persist_path=...)``).
    """

    def __init__(
        self,
        handle: EvaluationHandle,
        specs: Sequence[Spec],
        corners: Optional[Sequence[PVTCondition]] = None,
        config: Optional[ProgressiveConfig] = None,
        seeds: Optional[Sequence[int]] = None,
        cache_path: Optional[str] = None,
    ) -> None:
        self.handle = handle
        self.progressive = config if config is not None else ProgressiveConfig()
        if self.progressive.max_phases < 1:
            raise ValueError("max_phases must be at least 1")
        trust = self.progressive.trust_region
        self.ranked = rank_by_severity(
            list(corners) if corners is not None else nine_corner_grid()
        )
        self.seeds = [int(s) for s in seeds] if seeds is not None else [trust.seed]
        if not self.seeds:
            raise ValueError("a campaign needs at least one seed")
        self.cache = EvaluationCache(
            handle.corner_evaluator,
            handle.design_space.dimension,
            len(handle.metric_names),
            persist_path=cache_path,
        )
        # One stacked specification per active corner set, shared by the
        # members searching it.
        specifications: Dict[Tuple[PVTCondition, ...], Specification] = {}
        # ``None`` once close() released the seeds.
        self._members: Optional[List[_ProgressiveMember]] = [
            _ProgressiveMember(
                seed=seed,
                design_space=handle.design_space,
                specs=specs,
                metric_names=handle.metric_names,
                ranked=self.ranked,
                trust_config=trust,
                optimizer_name=self.progressive.optimizer,
                max_phases=self.progressive.max_phases,
                specifications=specifications,
            )
            for seed in self.seeds
        ]
        self.rounds = 0
        self.refit_rounds = 0
        self.batched_kernel_calls = 0

    def _run_group(self, grouped: List[_Request]) -> None:
        """One stacked tensor pass for the requests sharing a corner set.

        Every request group, lone or shared, takes this path: one
        :meth:`EvaluationCache.evaluate` call on the stacked rows and their
        keys, so every requested ``(row, corner)`` pair is booked exactly
        once.  A verifying member receives its own row slice of the block;
        the search members' rows are told through one
        :meth:`~repro.search.optimizer.DatasetOptimizer.tell_stack` call per
        optimizer class, on the block in the stacked specification's
        corner-major layout.  The cache keeps the campaign-wide counters; a
        seed's own cost is its ``simulations``.
        """
        cache = self.cache
        corners = grouped[0].corners
        hits, misses = cache.hits, cache.misses
        with profiled(
            "campaign.pass",
            members=len(grouped),
            corners=len(corners),
            **_stack_tags([request.member for request in grouped]),
        ) as timer:
            # One stack per round is the whole point — it buys a single
            # large evaluator call.
            # analysis: allow(hot-loop-alloc) intentional per-round stack
            samples = np.vstack([request.rows for request in grouped])
            keys = [key for request in grouped for key in request.keys]
            block = cache.evaluate(samples, corners, keys=keys)
            timer.annotate(hits=cache.hits - hits, misses=cache.misses - misses)
        told: "OrderedDict[Type[DatasetOptimizer], List[Tuple[_ProgressiveMember, int, int]]]" = (
            OrderedDict()
        )
        start = 0
        for request in grouped:
            member, stop = request.member, start + request.rows.shape[0]
            if member.verifying:
                member.receive(block[:, start:stop, :])
            else:
                told.setdefault(type(member.optimizer), []).append((member, start, stop))
            start = stop
        if not told:
            return
        metrics = _stacked_metrics(block)
        for cls, spans in told.items():
            members = [member for member, _, _ in spans]
            counts = [stop - start for _, start, stop in spans]
            if sum(counts) == samples.shape[0]:
                rows, told_metrics, told_keys = samples, metrics, keys
            else:
                # Verification rows, or another class's, sit between these:
                # one gather per optimizer class of such a group.
                # analysis: allow(hot-loop-alloc) one index per class, not per row
                index = np.concatenate([np.arange(start, stop) for _, start, stop in spans])
                rows, told_metrics, told_keys = (
                    samples[index], metrics[index], [keys[i] for i in index]
                )
            with profiled("optimizer.tell", rows=int(sum(counts)), **_stack_tags(members)):
                cls.tell_stack(
                    [member.optimizer for member in members],
                    rows,
                    told_metrics,
                    counts,
                    told_keys,
                )

    # -- batched surrogate refit ---------------------------------------
    def _flush_refits(self) -> None:
        """Collect and dispatch every member's queued refit for this round.

        Jobs are grouped by :func:`fit_job_signature` (members in different
        phases have different surrogate output widths), and each group
        trains through one :func:`fit_batched` dispatch.  The per-seed bits
        equal those of training each job alone, so batching is invisible to
        trajectories — only to the wall clock.  Every member asks again only
        after this flush, as
        :meth:`~repro.search.trust_region.TrustRegionSearch.ask` requires.
        """
        groups: "OrderedDict[tuple, List[Tuple[_ProgressiveMember, FusedFitJob]]]" = (
            OrderedDict()
        )
        for member in self._members:
            job = member.optimizer.take_refit_job()
            if job is not None:
                groups.setdefault(fit_job_signature(job), []).append((member, job))
        for grouped in groups.values():
            self._run_refits(grouped)

    def _run_refits(self, grouped: List[Tuple[_ProgressiveMember, FusedFitJob]]) -> None:
        """One training dispatch for same-signature refit jobs.

        The dispatch wall time is attributed back to the members
        proportionally to each job's training volume (epochs x rows), so
        the per-seed ``refit_seconds`` sum to the campaign-wide cost, and a
        lone job books all of it.  Only dispatches of more than one job
        count as batched kernel calls.
        """
        jobs = [job for _, job in grouped]
        weights = [job.epochs * int(job.inputs.shape[0]) for job in jobs]
        with profiled(
            "campaign.refit",
            n_seeds=len(jobs),
            rows=sum(int(job.inputs.shape[0]) for job in jobs),
        ) as timer:
            fit_batched(jobs)
        if len(jobs) > 1:
            self.batched_kernel_calls += 1
        total = sum(weights)
        for (member, _), weight in zip(grouped, weights):
            member.optimizer.refit_seconds += (
                timer.seconds * (weight / total) if total else 0.0
            )

    # -- checkpoint/resume ---------------------------------------------
    def _identity(self) -> Dict[str, object]:
        """What a snapshot must agree on with the campaign it loads into."""
        return {
            "seeds": list(self.seeds),
            "config": repr(self.progressive),
            "dimension": self.handle.design_space.dimension,
            "metric_names": list(self.handle.metric_names),
            "corners": _corner_keys(self.ranked),
            "initial_corners": _corner_keys(initial_corners(self.ranked)),
        }

    def state_dict(self) -> Dict[str, object]:
        """The campaign at a round boundary: what replay cannot recompute.

        The identity block pins everything a replay assumes about the
        campaign it runs in — seeds, corner grid, phase-0 start set,
        workload shape, and the full config (via its dataclass ``repr``,
        which covers every hyper-parameter); :meth:`load_state_dict`
        refuses a mismatch with a :class:`SnapshotError` instead of
        replaying a silently different search.  Beside it: the round count
        and the cache block — its counters (a replay reads every pair from
        the cache, so it cannot recount the misses) and a reference to the
        checkpoint journal by watermark, so the cache must have been
        journaled up to date (:meth:`EvaluationCache.checkpoint_state`).
        Each seed's ``simulations`` is counted from its requests, so the
        replay recounts it exactly.
        """
        return {
            "identity": self._identity(),
            "rounds": self.rounds,
            "cache": self.cache.checkpoint_state(),
        }

    def load_state_dict(self, state: Dict[str, object], journal_path: str) -> None:
        """Bring a freshly built campaign to :meth:`state_dict`'s round by replay.

        The cache is restored from the journal at ``journal_path`` up to
        the snapshot's watermark, then rounds 1..N run through the ordinary
        loop.  The search is deterministic, so every replayed pass is an
        all-hit cache read and every surrogate retrains through the same
        :func:`fit_batched` dispatches, bit for bit.  A replayed round
        writes no checkpoint, and one that needs the engine raises
        :class:`SnapshotError`: its pairs are missing from the journal.
        Finally the cache counters the replay's hits moved are set to the
        snapshot's.
        """
        identity = state["identity"]
        expected = self._identity()
        for field in expected:
            if identity.get(field) != expected[field]:
                raise SnapshotError(
                    f"snapshot identity mismatch on {field!r}: snapshot has "
                    f"{identity.get(field)!r}, this campaign has {expected[field]!r}"
                )
        cache = self.cache
        cache.restore_checkpoint(state["cache"], journal_path)
        rounds = state["rounds"]

        def refuse(samples: np.ndarray, corners: Sequence[PVTCondition]) -> np.ndarray:
            raise SnapshotError(
                f"replaying round {self.rounds} needs pairs the cache journal "
                "does not hold: the snapshot's watermark is from an earlier "
                "round than its round count"
            )

        engine, cache.corner_evaluator = cache.corner_evaluator, refuse
        try:
            with profiled("campaign.replay", rounds=rounds):
                while self.rounds < rounds and self._round():
                    pass
        finally:
            cache.corner_evaluator = engine
        if self.rounds != rounds:
            raise SnapshotError(
                f"snapshot counts {rounds} rounds, but its replay finished "
                f"after {self.rounds}"
            )
        cache.restore_counters(state["cache"]["counters"])

    def close(self) -> None:
        """End the campaign: close its cache and release its seeds.

        The cache flushes and closes its persistent store and checkpoint
        journal, then drops every cached pair (:meth:`EvaluationCache.close`),
        and the campaign drops its members: each seed's optimizer, dataset,
        surrogate and simulated grid codes.  The :class:`CampaignResult`
        :meth:`run` returned stays whole, and the cache's counters and the
        campaign's round counts stay readable.  :meth:`run` on a closed
        campaign raises :class:`RuntimeError`, as do the cache's content
        readers.  A second ``close`` does nothing.
        """
        self.cache.close()
        self._members = None

    @staticmethod
    def _resolve_snapshot(resume_from: str) -> Optional[str]:
        """Map ``resume_from`` to a snapshot file, or ``None`` to cold-start.

        A directory resolves to its ``latest.snapshot`` — missing means no
        checkpoint was ever completed, which after a very early crash is
        the legitimate resume answer: start over.  An explicit file path
        must exist (a typo should not silently cold-start a long campaign).
        """
        if os.path.isdir(resume_from):
            path = os.path.join(resume_from, LATEST_SNAPSHOT)
            return path if os.path.exists(path) else None
        if not os.path.exists(resume_from):
            raise FileNotFoundError(f"snapshot {resume_from!r} does not exist")
        return resume_from

    def _write_checkpoint(self, checkpoint_dir: str, keep_history: bool) -> None:
        fault_point(SITE_SNAPSHOT_WRITE)
        # The journal's new cache pairs are durable before any snapshot
        # names its watermark.
        with profiled("campaign.checkpoint.journal", round=self.rounds):
            self.cache.sync_journal()
        fault_point(SITE_SNAPSHOT_JOURNAL)
        history = (
            (os.path.join(checkpoint_dir, f"round-{self.rounds:05d}.snapshot"),)
            if keep_history
            else ()
        )
        with profiled("campaign.checkpoint.snapshot", round=self.rounds):
            save_snapshot(
                os.path.join(checkpoint_dir, LATEST_SNAPSHOT), self.state_dict(), history
            )
        event("resilience.checkpoint", round=self.rounds, dir=checkpoint_dir)

    def _round(self) -> bool:
        """Run one lockstep round; ``False`` when no member has a request left."""
        members = self._members
        # Every searching member of one optimizer class is asked in one
        # stacked call, then each member makes its request from its answer,
        # in member order.
        asking: "OrderedDict[Type[DatasetOptimizer], List[int]]" = OrderedDict()
        for index, member in enumerate(members):
            optimizer = member.asking
            if optimizer is not None:
                asking.setdefault(type(optimizer), []).append(index)
        answers: Dict[int, Tuple[np.ndarray, List[bytes]]] = {}
        for cls, indices in asking.items():
            stack = [members[index] for index in indices]
            with profiled(
                "optimizer.ask", optimizer=self.progressive.optimizer, **_stack_tags(stack)
            ):
                answers.update(
                    zip(indices, cls.ask_stack([member.optimizer for member in stack]))
                )
        requests: List[_Request] = []
        for index, member in enumerate(members):
            request = member.request(answers.get(index))
            if request is not None:
                requests.append(request)
        if not requests:
            return False
        self.rounds += 1
        # Requests are grouped by their exact corner set, and each group
        # rides one stacked tensor pass.  Grouping (rather than evaluating
        # everything at the union of all corner sets) keeps the computed
        # (row, corner) pairs exactly what the members asked for — a seed
        # verifying over the full grid never drags other seeds' search
        # batches through corners they don't need.  Per (row, corner) the
        # stacked engine is bit-identical however the pass is batched, so
        # the scatter serves exact values.
        groups: "OrderedDict[Tuple[PVTCondition, ...], List[_Request]]" = OrderedDict()
        for request in requests:
            groups.setdefault(tuple(request.corners), []).append(request)
        # Refit-round detection must survive phase transitions: a receive()
        # may rebuild a member's optimizer, so keep a reference to the
        # object whose counter we snapshotted.
        refits_before = [
            (member.optimizer, member.optimizer.refit_count) for member in members
        ]
        with profiled(
            "campaign.round",
            round=self.rounds,
            requests=len(requests),
            groups=len(groups),
        ):
            for grouped in groups.values():
                self._run_group(grouped)
            # End of round: train every queued refit, so the next round's
            # asks rank with trained surrogates.
            self._flush_refits()
        if any(optimizer.refit_count > count for optimizer, count in refits_before):
            self.refit_rounds += 1
        return True

    def run(
        self,
        checkpoint_dir: Optional[str] = None,
        resume_from: Optional[str] = None,
        keep_history: bool = False,
    ) -> CampaignResult:
        """Run all seeds to completion in lockstep evaluation rounds.

        Parameters
        ----------
        checkpoint_dir:
            When given, the campaign is checkpointed after every round: the
            cache pairs added since the previous checkpoint go to
            ``<dir>/cache.journal`` in one write and one fsync, then the
            small rest (:meth:`state_dict`) is written atomically as
            ``<dir>/latest.snapshot``, referencing the journal by
            watermark.  Resuming from the same directory continues its
            journal; any other directory gets a new one.
        resume_from:
            A snapshot file, or a checkpoint directory whose
            ``latest.snapshot`` is used; the ``cache.journal`` next to the
            snapshot supplies the cache content.  Before the first new
            round the campaign replays the snapshot's rounds against that
            content (:meth:`load_state_dict`); the continued run is
            bit-identical to the uninterrupted one — trajectories, best
            vectors, cache content *and* cache accounting (locked by the
            determinism auditor's resume-parity mode and the resilience
            drill).  A directory without a snapshot (the run died before
            the first checkpoint) cold-starts.
        keep_history:
            Also keep one ``round-NNNNN.snapshot`` per checkpoint instead
            of only the latest (used by resume-parity audits); each
            references its own prefix of the one journal.
        """
        if self._members is None:
            raise RuntimeError("the campaign is closed: close() released its seeds")
        if checkpoint_dir is not None:
            # Created before the first round, not at the first write: a run
            # that dies before any checkpoint leaves an *empty* directory,
            # which resume_from correctly reads as "cold-start" instead of
            # mistaking it for a mistyped snapshot path.
            os.makedirs(checkpoint_dir, exist_ok=True)
        snapshot_path = self._resolve_snapshot(resume_from) if resume_from is not None else None
        resumed_from_round: Optional[int] = None
        cache = self.cache
        with profiled(
            "campaign.run",
            seeds=len(self._members),
            optimizer=self.progressive.optimizer,
            corners=len(self.ranked),
        ):
            if snapshot_path is not None:
                self.load_state_dict(
                    load_snapshot(snapshot_path),
                    os.path.join(os.path.dirname(snapshot_path), CACHE_JOURNAL),
                )
                resumed_from_round = self.rounds
                event(
                    "resilience.resume",
                    round=self.rounds,
                    replayed_rounds=self.rounds,
                    snapshot=snapshot_path,
                )
            journal = (
                cache.open_journal(os.path.join(checkpoint_dir, CACHE_JOURNAL))
                if checkpoint_dir is not None
                else nullcontext()
            )
            with journal:
                while self._round():
                    if checkpoint_dir is not None:
                        self._write_checkpoint(checkpoint_dir, keep_history)
        results = [member.build_result() for member in self._members]
        return CampaignResult(
            results=results,
            seeds=list(self.seeds),
            rounds=self.rounds,
            engine_calls=cache.engine_calls,
            eval_seconds=cache.eval_seconds,
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            resumed_from_round=resumed_from_round,
            refit_rounds=self.refit_rounds,
            batched_kernel_calls=self.batched_kernel_calls,
        )
