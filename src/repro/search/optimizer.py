"""The ask/tell optimizer base class and the cheap baseline optimizers.

Every search strategy in :mod:`repro.search` subclasses
:class:`DatasetOptimizer` and speaks its ask/tell protocol; one driver,
:class:`~repro.search.campaign.Campaign`, owns the evaluation side (the true
evaluator, the budget accounting, the vectorized corner passes many seeds
share, the batched surrogate refits).  :class:`DatasetOptimizer` states the
contract and holds the shared machinery: the amortized-doubling dataset of
evaluated points with hash-set dedup, incremental scoring and incumbent
tracking (the hot path carried over from the trust-region overhaul).
Optimizers serialize nothing: a resumed Campaign rebuilds them by replaying
its rounds.

The Campaign asks and tells a whole stack of seeds at once, through the
class-level entry points :meth:`DatasetOptimizer.ask_stack` and
:meth:`DatasetOptimizer.tell_stack`.  Their default implementation loops
over the instance ``ask()``/``tell()``, so the trust region and any user
optimizer need nothing more.  The surrogate-free baselines
(:class:`BaselineSearch`) override them: one grid snap and one row-key pass
over every seed's draw, one ``to_unit`` and one score over every told row.
Each seed keeps its own generator, dataset and bookkeeping, so a seed's
trajectory does not depend on the stack it ran in; its instance
``ask()``/``tell()`` are the one-member stack.

Two cheap baselines prove the protocol generalizes beyond Algorithm 1:
:class:`RandomSearch` (pure Monte-Carlo) and :class:`CrossEntropySearch`
(a (mu, lambda) cross-entropy sampler in the unit cube).  Both reuse
:class:`~repro.search.trust_region.TrustRegionConfig` for their common knobs
(``seed``, ``batch_size``, ``max_evaluations``) so the
benchmark registry can swap optimizers without a parallel config zoo.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type

import numpy as np

from repro.analysis.contracts import contract
from repro.core.design_space import DesignSpace, row_keys
from repro.search.spec import FEASIBLE_TOL, Specification

#: Draws per Monte-Carlo ``ask`` while every drawn row collides with an
#: already evaluated grid point (tiny design spaces near exhaustion).
MAX_REDRAWS = 8

#: Rows of the baselines' first, uniform draw.  The trust region seeds with
#: its own :data:`~repro.search.trust_region.SEED_SAMPLES`.
BASELINE_SEED_SAMPLES = 48


def tell_precondition(arguments) -> Optional[str]:
    """Contract shared by every ``tell``: one metric row per sizing row, and
    every told row new to the dataset.

    The row-count check runs only once both arguments are 2-D arrays —
    ``tell`` legitimately coerces 1-D convenience inputs itself.  The
    novelty check (a caller telling a row twice would silently duplicate it
    in the dataset) is one set lookup per row against the optimizer's
    dedup keys.
    """
    samples = arguments["samples"]
    metrics = arguments["metrics"]
    if (
        isinstance(samples, np.ndarray)
        and isinstance(metrics, np.ndarray)
        and samples.ndim == 2
        and metrics.ndim == 2
        and samples.shape[0] != metrics.shape[0]
    ):
        return (
            f"told {metrics.shape[0]} metric rows for {samples.shape[0]} sizings"
        )
    keys = row_keys(np.atleast_2d(np.asarray(samples, dtype=np.float64)))
    if not arguments["self"]._seen.isdisjoint(keys):
        return "told a row that is already in the dataset"
    if len(set(keys)) < len(keys):
        return "told the same row more than once in one block"
    return None


def ask_stack_precondition(arguments) -> Optional[str]:
    """Contract of a stacked ``ask_stack``: the optimizers share one design
    space, and none of them is done."""
    optimizers = arguments["optimizers"]
    if any(optimizer.design_space is not optimizers[0].design_space for optimizer in optimizers):
        return "the stacked optimizers do not share one design space"
    if any(optimizer.is_done for optimizer in optimizers):
        return "asked a stack holding a done optimizer"
    return None


def tell_stack_precondition(arguments) -> Optional[str]:
    """Contract of a stacked ``tell_stack``: the optimizers share one
    design space and specification, the counts cover the rows, the keys
    are the rows' own, and each optimizer's slice passes
    :func:`tell_precondition`."""
    samples, metrics = arguments["samples"], arguments["metrics"]
    counts, keys = list(arguments["counts"]), arguments["keys"]
    optimizers = arguments["optimizers"]
    first = optimizers[0]
    if any(
        optimizer.design_space is not first.design_space
        or optimizer.specification is not first.specification
        for optimizer in optimizers
    ):
        return "the stacked optimizers do not share one design space and specification"
    if metrics.shape[0] != samples.shape[0]:
        return f"told {metrics.shape[0]} metric rows for {samples.shape[0]} sizings"
    if len(counts) != len(optimizers) or sum(counts) != samples.shape[0]:
        return f"counts {counts} do not split {samples.shape[0]} rows among {len(optimizers)}"
    if list(keys) != row_keys(samples):
        return "the keys are not the told rows' keys"
    for optimizer, (start, stop) in zip(optimizers, _spans(counts)):
        message = tell_precondition(
            {"self": optimizer, "samples": samples[start:stop], "metrics": metrics[start:stop]}
        )
        if message:
            return message
    return None


@dataclass
class IterationRecord:
    """One optimizer iteration, for diagnostics and tests."""

    evaluations: int
    radius: float
    best_score: float
    improved: bool
    #: The batch of this iteration was proposed around a fresh restart
    #: centre (see :class:`~repro.search.trust_region.TrustRegionSearch`).
    restarted: bool = False


@dataclass
class SearchResult:
    """Outcome of one optimizer run (any strategy, not just trust-region)."""

    best_sizing: Dict[str, float]
    best_vector: np.ndarray
    best_metrics: Dict[str, float]
    best_score: float
    solved: bool
    evaluations: int
    history: List[IterationRecord] = field(default_factory=list)
    #: Wall time spent refitting a surrogate, for benchmark accounting
    #: (zero for surrogate-free optimizers).
    refit_seconds: float = 0.0

    @property
    def restarts(self) -> int:
        """Trust-region stall restarts this run performed."""
        return sum(record.restarted for record in self.history)

    def __repr__(self) -> str:
        status = "solved" if self.solved else "unsolved"
        return (
            f"SearchResult({status}, score={self.best_score:.4g}, "
            f"evaluations={self.evaluations})"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable summary (used by the ``repro.bench`` artifacts)."""
        return {
            "solved": bool(self.solved),
            "evaluations": int(self.evaluations),
            "iterations": len(self.history),
            "restarts": self.restarts,
            "best_score": float(self.best_score),
            "best_sizing": {k: float(v) for k, v in self.best_sizing.items()},
            "best_metrics": {k: float(v) for k, v in self.best_metrics.items()},
            "refit_seconds": float(self.refit_seconds),
        }


@dataclass(frozen=True)
class Incumbent:
    """The best evaluated point so far: vector, raw metrics, score."""

    vector: np.ndarray
    metrics: np.ndarray
    score: float


class DatasetOptimizer(ABC):
    """The base class of every ask/tell optimizer, and its dataset machinery.

    The contract a :class:`~repro.search.campaign.Campaign` drives:

    * ``ask()`` returns a ``(count, dim)`` array of *new* sizings — snapped
      to the design grid, not previously evaluated by this optimizer, and
      never exceeding the remaining evaluation budget.  An empty array means
      the optimizer has nothing left to propose (``is_done`` is then True).
    * ``tell(samples, metrics)`` must be called exactly once per non-empty
      ``ask()``, with the same rows ``ask`` returned and their true metrics.
    * ``take_refit_job()`` hands over the surrogate refit the last ``tell``
      queued, if any; the driver trains it before the next ``ask``.
    * ``is_done`` is True once the spec is met, the budget is exhausted, or
      the strategy has no further proposals.

    The Campaign drives that contract a stack at a time: each round it
    calls the class-level :meth:`ask_stack` once on every live seed whose
    optimizer is of one class, and each request group's
    :meth:`tell_stack` once on its members' rows.  The defaults loop over
    the instance ``ask()``/``tell()``, so a subclass that implements only
    those (the trust region, a user strategy) runs unchanged; a subclass
    may override the pair to share work across the stack, as long as each
    member's result equals its own one-member stack bit for bit.

    Subclasses implement :meth:`ask` and may extend :meth:`tell`; the
    registry (:func:`get_optimizer`) builds any of them with the shared
    constructor signature below.

    The base maintains the evaluated-point dataset in amortized-doubling
    buffers — natural-unit rows, unit-cube rows, metrics and satisfaction
    scores are appended in blocks, never rebuilt, and only new rows are
    scored; the incumbent is tracked incrementally.  Every evaluated row's
    bit-exact byte key lives in a persistent ``set``, so dedup decides each
    candidate's novelty with one hash lookup and no proposal is ever
    evaluated twice.

    Parameters
    ----------
    design_space:
        The gridded CSP domain.
    specification:
        The constraints to satisfy; its ``metric_names`` must match the
        columns of the metrics ``tell`` receives.
    config:
        Hyper-parameters (a
        :class:`~repro.search.trust_region.TrustRegionConfig`); concrete
        optimizers document which fields they read.
    initial_points:
        Optional extra sizings (natural units) proposed ahead of the first
        sampled batch — used by the progressive PVT loop to warm-start later
        phases from the best sizing of an earlier phase.
    """

    def __init__(
        self,
        design_space: DesignSpace,
        specification: Specification,
        config=None,
        initial_points: Optional[np.ndarray] = None,
    ) -> None:
        # Imported here: trust_region defines the shared config dataclass
        # and imports this module for the base class.
        from repro.search.trust_region import TrustRegionConfig

        self.design_space = design_space
        self.specification = specification
        self.config = config or TrustRegionConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self._initial_points = (
            np.atleast_2d(np.asarray(initial_points, dtype=np.float64))
            if initial_points is not None
            else None
        )
        dim = design_space.dimension
        self._capacity = 0
        self._count = 0
        self._X = np.empty((0, dim))
        self._U = np.empty((0, dim))
        self._M = np.empty((0, len(specification.metric_names)))
        self._scores = np.empty(0)
        #: :func:`~repro.core.design_space.row_keys` of every evaluated row.
        self._seen: Set[bytes] = set()
        # Index of the incumbent (earliest row attaining the best score,
        # matching np.argmax tie-breaking on the full score array).
        self._best = -1
        self._history: List[IterationRecord] = []
        self._done = False
        #: Wall time spent in surrogate refits (stays zero for the
        #: surrogate-free baselines).
        self.refit_seconds: float = 0.0
        #: Surrogate refits started, for the bench
        #: accounting; stays zero for the surrogate-free baselines.
        self.refit_count: int = 0

    # -- dataset hot path ----------------------------------------------
    @property
    def evaluations(self) -> int:
        return self._count

    @property
    def evaluated_rows(self) -> np.ndarray:
        """Every told sizing, in evaluation order (a view of the dataset)."""
        return self._X[: self._count]

    def _ensure_capacity(self, extra: int) -> None:
        needed = self._count + extra
        if needed <= self._capacity:
            return
        capacity = max(self._capacity, 64)
        while capacity < needed:
            capacity *= 2
        for name in ("_X", "_U", "_M", "_scores"):
            old = getattr(self, name)
            shape = (capacity,) + old.shape[1:]
            grown = np.empty(shape, dtype=old.dtype)
            grown[: self._count] = old[: self._count]
            setattr(self, name, grown)
        self._capacity = capacity

    def _select_new(
        self, candidates: np.ndarray, limit: Optional[int] = None
    ) -> Tuple[np.ndarray, List[bytes]]:
        """Snap, dedup and clamp a candidate block; return (rows, keys).

        One pass in candidate order keeps a row only if it is the first
        occurrence of its key in the block and its key is not in the
        dataset's set, stopping once ``limit`` rows are kept.  No evaluation
        happens here — this is the selection half of ``ask``.
        """
        snapped = self.design_space.snap(np.atleast_2d(candidates))
        return self._pick_new(snapped, row_keys(snapped), limit)

    def _pick_new(
        self, snapped: np.ndarray, keys: List[bytes], limit: Optional[int]
    ) -> Tuple[np.ndarray, List[bytes]]:
        """:meth:`_select_new` of an already snapped block and its keys."""
        # Key -> the index of one of its rows, in first-occurrence order;
        # rows with equal keys are equal bit for bit.
        where = dict(zip(keys, range(len(keys))))
        seen = self._seen
        new = [key for key in where if key not in seen][:limit]
        return snapped[[where[key] for key in new]], new

    def _append(self, rows: np.ndarray, metrics: np.ndarray) -> int:
        """Append an evaluated block, scoring and ranking only the new rows.

        Returns the dataset index of the block's best row (its earliest
        argmax); the incumbent moves there only on a strictly better score.
        """
        return self._store(
            rows,
            self.design_space.to_unit(rows),
            metrics,
            self.specification.score(metrics),
            row_keys(rows),
        )

    def _store(
        self,
        rows: np.ndarray,
        units: np.ndarray,
        metrics: np.ndarray,
        scores: np.ndarray,
        keys: List[bytes],
    ) -> int:
        """:meth:`_append` of a block whose unit rows, scores and keys are
        already computed."""
        added = rows.shape[0]
        self._ensure_capacity(added)
        start, stop = self._count, self._count + added
        self._X[start:stop] = rows
        self._U[start:stop] = units
        self._M[start:stop] = metrics
        self._seen.update(keys)
        self._scores[start:stop] = scores
        self._count = stop
        block_best = start + int(np.argmax(scores))
        if self._best < 0 or self._scores[block_best] > self._scores[self._best]:
            self._best = block_best
        return block_best

    # -- protocol ------------------------------------------------------
    @abstractmethod
    def ask(self) -> np.ndarray:
        """Next batch of new, grid-snapped sizings to evaluate."""

    @classmethod
    def ask_stack(
        cls, optimizers: Sequence["DatasetOptimizer"]
    ) -> List[Tuple[np.ndarray, List[bytes]]]:
        """Ask every optimizer of a stack once: ``(rows, row keys)`` each.

        The optimizers are instances of ``cls``, none of them done.  The
        default is each one's :meth:`ask`, in order, with the
        :func:`~repro.core.design_space.row_keys` of its rows; the keys
        travel with the request into the evaluation cache and the tell.
        """
        asked = []
        for optimizer in optimizers:
            rows = optimizer.ask()
            asked.append((rows, row_keys(rows)))
        return asked

    @classmethod
    def tell_stack(
        cls,
        optimizers: Sequence["DatasetOptimizer"],
        samples: np.ndarray,
        metrics: np.ndarray,
        counts: Sequence[int],
        keys: List[bytes],
    ) -> None:
        """Tell every optimizer of a stack its rows of one metric block.

        ``samples``/``metrics`` hold the optimizers' told rows back to
        back, ``counts`` how many are each one's, and ``keys`` the rows'
        :func:`~repro.core.design_space.row_keys`.  The default is each
        one's :meth:`tell` on its own slice, in order.
        """
        for optimizer, (start, stop) in zip(optimizers, _spans(counts)):
            optimizer.tell(samples[start:stop], metrics[start:stop])

    def take_refit_job(self):
        """Pop the refit the last ``tell`` queued as a
        :class:`repro.nn.fused.FusedFitJob`, or ``None`` when nothing is
        queued.  The Campaign pops every member's job after each round and
        trains them together; surrogate-free strategies never queue."""
        return None

    @property
    def is_done(self) -> bool:
        """True once another ``ask`` would serve no purpose."""
        return self._done

    @property
    def best(self) -> Optional[Incumbent]:
        """The incumbent so far (``None`` before the first ``tell``)."""
        if self._best < 0:
            return None
        return Incumbent(
            vector=self._X[self._best].copy(),
            metrics=self._M[self._best].copy(),
            score=float(self._scores[self._best]),
        )

    def _budget_left(self) -> int:
        return max(int(self.config.max_evaluations) - self._count, 0)

    def _update_done(self) -> None:
        """Done once the incumbent is feasible or the budget is spent."""
        self._done = not (
            self._scores[self._best] < FEASIBLE_TOL
            and self._count < self.config.max_evaluations
        )

    def _empty_batch(self) -> np.ndarray:
        return np.empty((0, self.design_space.dimension))

    @contract(pre=tell_precondition)
    def tell(self, samples: np.ndarray, metrics: np.ndarray) -> None:
        """Default tell: append, refresh the incumbent, record history."""
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        metrics = np.atleast_2d(np.asarray(metrics, dtype=np.float64))
        previous = self._best_score()
        self._append(samples, metrics)
        self._record_tell(previous)

    def _best_score(self) -> float:
        """The incumbent's score, ``-inf`` before the first tell."""
        return self._scores[self._best] if self._best >= 0 else -np.inf

    def _record_tell(self, previous: float) -> None:
        """The default tell's bookkeeping once the block is appended:
        ``is_done`` and the history record, improved against ``previous``."""
        improved = self._scores[self._best] > previous + 1e-12
        self._update_done()
        self._history.append(
            IterationRecord(
                evaluations=self._count,
                radius=0.0,
                best_score=float(self._scores[self._best]),
                improved=bool(improved),
            )
        )

    def result(self) -> SearchResult:
        if self._best < 0:
            raise RuntimeError("no evaluations yet; call ask/tell first")
        best = self._best
        best_vector = self._X[best].copy()
        best_metrics = self._M[best].copy()
        return SearchResult(
            best_sizing=self.design_space.to_dict(best_vector),
            best_vector=best_vector,
            best_metrics={
                name: float(value)
                for name, value in zip(self.specification.metric_names, best_metrics)
            },
            best_score=float(self._scores[best]),
            solved=bool(self.specification.satisfied(best_metrics[np.newaxis, :])[0]),
            evaluations=self._count,
            history=self._history,
            refit_seconds=self.refit_seconds,
        )


class BaselineSearch(DatasetOptimizer):
    """The surrogate-free baselines' Monte-Carlo ask and stacked ask/tell.

    Every ask is one draw of unit-cube points from the optimizer's own
    generator (:meth:`_draw_unit`), mapped to natural units and snapped to
    the grid; a phase's warm-start points lead its first draw.  Nothing is
    evaluated before the first draw, so it always yields new rows; a later
    draw whose rows were all evaluated already is redrawn, up to
    :data:`MAX_REDRAWS` draws in all, and then the optimizer is done.

    The stacked members share one design space, and a told stack one
    specification (a Campaign's request group does).  :meth:`ask_stack`
    draws for every member in turn, then maps, snaps and keys the stacked
    draws in one pass each; each member dedups and clamps its own slice,
    and the members whose slice held only evaluated rows draw again,
    stacked.  :meth:`tell_stack` maps and scores the told rows in one pass
    each; each member then stores its own slice and keeps its own
    incumbent, ``is_done`` and history.  Every pass is elementwise or per
    row, so each member's rows, keys and scores equal its one-member
    stack's, and the instance :meth:`ask`/:meth:`tell` are that stack.
    """

    @abstractmethod
    def _draw_unit(self, first: bool) -> np.ndarray:
        """The next draw as ``(count, dim)`` unit-cube points; ``first``
        holds for the draw before any evaluation."""

    @classmethod
    def _update_stack(
        cls,
        optimizers: Sequence["BaselineSearch"],
        units: np.ndarray,
        scores: np.ndarray,
        counts: Sequence[int],
    ) -> None:
        """What the strategy learns from a told stack beyond the dataset:
        ``units``/``scores`` are the told rows' unit rows and scores, split
        by ``counts``.  Nothing by default."""

    def ask(self) -> np.ndarray:
        if self._done:
            return self._empty_batch()
        return type(self).ask_stack([self])[0][0]

    def tell(self, samples: np.ndarray, metrics: np.ndarray) -> None:
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        metrics = np.atleast_2d(np.asarray(metrics, dtype=np.float64))
        type(self).tell_stack(
            [self], samples, metrics, [samples.shape[0]], row_keys(samples)
        )

    @classmethod
    @contract(pre=ask_stack_precondition)
    def ask_stack(
        cls, optimizers: Sequence["BaselineSearch"]
    ) -> List[Tuple[np.ndarray, List[bytes]]]:
        asked: List[Optional[Tuple[np.ndarray, List[bytes]]]] = [None] * len(optimizers)
        pending = list(range(len(optimizers)))
        for _ in range(MAX_REDRAWS):
            picks = cls._draw_stack([optimizers[index] for index in pending])
            for index, pick in zip(pending, picks):
                if pick[0].shape[0]:
                    asked[index] = pick
            pending = [index for index in pending if asked[index] is None]
            if not pending:
                break
        for index in pending:
            optimizers[index]._done = True
            asked[index] = (optimizers[index]._empty_batch(), [])
        return asked

    @staticmethod
    def _draw_stack(
        optimizers: Sequence["BaselineSearch"],
    ) -> List[Tuple[np.ndarray, List[bytes]]]:
        """One draw per member: each member's new rows and their keys."""
        space = optimizers[0].design_space
        firsts = [optimizer._count == 0 for optimizer in optimizers]
        # Each member draws from its own generator, in stack order.
        draws = [
            optimizer._draw_unit(first) for optimizer, first in zip(optimizers, firsts)
        ]
        snapped = space.snap(space.from_unit(np.vstack(draws)))
        keys = row_keys(snapped)
        picks = []
        for optimizer, first, (start, stop) in zip(
            optimizers, firsts, _spans([draw.shape[0] for draw in draws])
        ):
            rows, own_keys = snapped[start:stop], keys[start:stop]
            if first and optimizer._initial_points is not None:
                lead = space.snap(optimizer._initial_points)
                rows = np.vstack([lead, rows])
                own_keys = row_keys(lead) + own_keys
            picks.append(optimizer._pick_new(rows, own_keys, optimizer._budget_left()))
        return picks

    @classmethod
    @contract(pre=tell_stack_precondition)
    def tell_stack(
        cls,
        optimizers: Sequence["BaselineSearch"],
        samples: np.ndarray,
        metrics: np.ndarray,
        counts: Sequence[int],
        keys: List[bytes],
    ) -> None:
        units = optimizers[0].design_space.to_unit(samples)
        scores = optimizers[0].specification.score(metrics)
        for optimizer, (start, stop) in zip(optimizers, _spans(counts)):
            previous = optimizer._best_score()
            optimizer._store(
                samples[start:stop],
                units[start:stop],
                metrics[start:stop],
                scores[start:stop],
                keys[start:stop],
            )
            optimizer._record_tell(previous)
        cls._update_stack(optimizers, units, scores, counts)


class RandomSearch(BaselineSearch):
    """Pure Monte-Carlo baseline: uniform sampling of the gridded space.

    Draws :data:`BASELINE_SEED_SAMPLES` rows first, then ``batch_size``
    rows per ask, and reads ``seed`` and ``max_evaluations`` from the
    shared config.  Exists to calibrate how much the surrogate-guided trust
    region actually buys on a workload — and to prove the ask/tell protocol
    is not shaped around Algorithm 1.
    """

    def _draw_unit(self, first: bool) -> np.ndarray:
        count = BASELINE_SEED_SAMPLES if first else self.config.batch_size
        return self.rng.random((count, self.design_space.dimension))


class CrossEntropySearch(BaselineSearch):
    """(mu, lambda) cross-entropy baseline in the unit cube.

    Each generation samples ``lambda = 4 * batch_size`` candidates from an
    axis-aligned Gaussian in the unit cube, then refits the Gaussian on the
    ``mu = batch_size`` elite (best satisfaction score) of the generation
    with exponential smoothing.  The first generation is uniform
    (:data:`BASELINE_SEED_SAMPLES` Monte-Carlo draws),
    so the distribution starts where the data is.  A standard-deviation
    floor keeps late generations exploring instead of collapsing onto a
    point of the grid.
    """

    #: Exponential smoothing toward the elite statistics.
    SMOOTHING = 0.7
    #: Per-axis standard-deviation floor in unit-cube coordinates.
    STD_FLOOR = 0.02

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None

    def _draw_unit(self, first: bool) -> np.ndarray:
        dim = self.design_space.dimension
        if self._mean is None:
            count = BASELINE_SEED_SAMPLES if first else self._lambda()
            return self.rng.random((count, dim))
        return self._mean + self._std * self.rng.standard_normal((self._lambda(), dim))

    def _lambda(self) -> int:
        return 4 * self.config.batch_size

    @classmethod
    def _update_stack(cls, optimizers, units, scores, counts) -> None:
        """Refit each member's sampling distribution on its generation's elite.

        The members whose generations and elites have equal sizes share one
        ``(members, rows, dim)`` gather, stable argsort and mean/std
        reduction along the rows; each member's slice of it is its own
        generation's statistics, bit for bit.
        """
        spans = list(_spans(counts))
        groups: Dict[Tuple[int, int], List[int]] = {}
        for index, (optimizer, count) in enumerate(zip(optimizers, counts)):
            mu = min(optimizer.config.batch_size, count)
            groups.setdefault((count, mu), []).append(index)
        alpha = cls.SMOOTHING
        for (count, mu), members in groups.items():
            starts = np.array([spans[index][0] for index in members])
            rows = starts[:, np.newaxis] + np.arange(count)
            order = np.argsort(-scores[rows], axis=1, kind="stable")[:, :mu]
            elite = np.take_along_axis(units[rows], order[:, :, np.newaxis], axis=1)
            means = elite.mean(axis=1)
            stds = np.maximum(elite.std(axis=1), cls.STD_FLOOR)
            for index, mean, std in zip(members, means, stds):
                optimizer = optimizers[index]
                if optimizer._mean is None:
                    optimizer._mean, optimizer._std = mean, std
                else:
                    optimizer._mean = alpha * mean + (1.0 - alpha) * optimizer._mean
                    optimizer._std = alpha * std + (1.0 - alpha) * optimizer._std


def _spans(counts: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """``(start, stop)`` of each of ``counts`` consecutive slices."""
    start = 0
    for count in counts:
        yield start, start + count
        start += count


# ----------------------------------------------------------------------
# Optimizer registry (mirrors the topology registry): the benchmark
# harness and the Campaign build optimizers by name.

_OPTIMIZERS: Dict[str, Type[DatasetOptimizer]] = {}


def register_optimizer(name: str, cls: Type[DatasetOptimizer]) -> Type[DatasetOptimizer]:
    """Register an optimizer class under a stable name."""
    if not name:
        raise ValueError("optimizer name must be non-empty")
    if name in _OPTIMIZERS and _OPTIMIZERS[name] is not cls:
        raise ValueError(f"optimizer {name!r} already registered")
    _OPTIMIZERS[name] = cls
    return cls


def available_optimizers() -> Tuple[str, ...]:
    """Names of all registered optimizers, sorted."""
    return tuple(sorted(_OPTIMIZERS))


def get_optimizer(name: str) -> Type[DatasetOptimizer]:
    """Look up an optimizer class by registry name.

    Raises
    ------
    KeyError
        If the optimizer is unknown; the message lists the available names.
    """
    try:
        return _OPTIMIZERS[name]
    except KeyError:
        raise KeyError(
            f"unknown optimizer {name!r}; available: {', '.join(available_optimizers())}"
        ) from None


register_optimizer("random", RandomSearch)
register_optimizer("cross_entropy", CrossEntropySearch)
# "trust_region" registers itself in repro.search.trust_region (which
# imports this module for the base class).
