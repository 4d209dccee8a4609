"""The ask/tell optimizer base class and the cheap baseline optimizers.

Every search strategy in :mod:`repro.search` subclasses
:class:`DatasetOptimizer` and speaks its ask/tell protocol; one driver,
:class:`~repro.search.campaign.Campaign`, owns the evaluation side (the true
evaluator, the budget accounting, the vectorized corner passes many seeds
share, the batched surrogate refits).  :class:`DatasetOptimizer` states the
contract and holds the shared machinery: the amortized-doubling dataset of
evaluated points with hash-set dedup, incremental scoring and incumbent
tracking (the hot path carried over from the trust-region overhaul), plus
the Monte-Carlo ask loop of the baselines.  Optimizers serialize nothing: a
resumed Campaign rebuilds them by replaying its rounds.

Two cheap baselines prove the protocol generalizes beyond Algorithm 1:
:class:`RandomSearch` (pure Monte-Carlo) and :class:`CrossEntropySearch`
(a (mu, lambda) cross-entropy sampler in the unit cube).  Both reuse
:class:`~repro.search.trust_region.TrustRegionConfig` for their common knobs
(``seed``, ``initial_samples``, ``batch_size``, ``max_evaluations``) so the
benchmark registry can swap optimizers without a parallel config zoo.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple, Type

import numpy as np

from repro.analysis.contracts import contract
from repro.core.design_space import DesignSpace, row_keys
from repro.search.spec import FEASIBLE_TOL, Specification

#: Draws per Monte-Carlo ``ask`` while every drawn row collides with an
#: already evaluated grid point (tiny design spaces near exhaustion).
MAX_REDRAWS = 8


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
        seen = self._seen
        # Key -> candidate index of its first occurrence, in candidate order.
        picked: Dict[bytes, int] = {}
        for index, key in enumerate(row_keys(snapped)):
            if len(picked) == limit:
                break
            if key not in seen:
                picked.setdefault(key, index)
        return snapped[list(picked.values())], list(picked)

    def _append(self, rows: np.ndarray, metrics: np.ndarray) -> int:
        """Append an evaluated block, scoring and ranking only the new rows.

        Returns the dataset index of the block's best row (its earliest
        argmax); the incumbent moves there only on a strictly better score.
        """
        added = rows.shape[0]
        self._ensure_capacity(added)
        start, stop = self._count, self._count + added
        self._X[start:stop] = rows
        self._U[start:stop] = self.design_space.to_unit(rows)
        self._M[start:stop] = metrics
        self._seen.update(row_keys(rows))
        scores = self.specification.score(metrics)
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
        previous = self._scores[self._best] if self._best >= 0 else -np.inf
        self._append(samples, metrics)
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

    def _ask_drawn(self, draw: Callable[[bool], np.ndarray]) -> np.ndarray:
        """The baselines' Monte-Carlo ask: the new rows of a ``draw(first)``.

        ``first`` holds for the draw before any evaluation, which the
        initial points lead; nothing is evaluated yet, so that draw always
        yields new rows.  A later draw whose rows were all evaluated
        already is redrawn, up to :data:`MAX_REDRAWS` times, and then the
        optimizer is done.
        """
        if self._done:
            return self._empty_batch()
        limit = self._budget_left()
        for _ in range(MAX_REDRAWS):
            first = self._count == 0
            points = draw(first)
            if first and self._initial_points is not None:
                points = np.vstack([self._initial_points, points])
            rows, _ = self._select_new(points, limit=limit)
            if rows.shape[0]:
                return rows
        self._done = True
        return self._empty_batch()

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


class RandomSearch(DatasetOptimizer):
    """Pure Monte-Carlo baseline: uniform sampling of the gridded space.

    Reads ``seed``, ``initial_samples`` (first batch), ``batch_size`` (every
    later batch) and ``max_evaluations`` from the shared config.  Exists to
    calibrate how much the surrogate-guided trust region actually buys on a
    workload — and to prove the ask/tell protocol is not shaped around
    Algorithm 1.
    """

    def ask(self) -> np.ndarray:
        config = self.config
        return self._ask_drawn(
            lambda first: self.design_space.sample(
                self.rng, config.initial_samples if first else config.batch_size
            )
        )


class CrossEntropySearch(DatasetOptimizer):
    """(mu, lambda) cross-entropy baseline in the unit cube.

    Each generation samples ``lambda = 4 * batch_size`` candidates from an
    axis-aligned Gaussian in the unit cube, then refits the Gaussian on the
    ``mu = batch_size`` elite (best satisfaction score) of the generation
    with exponential smoothing.  The first generation is uniform (the same
    Monte-Carlo seeding the trust region uses, ``initial_samples`` draws),
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

    def _draw(self, first: bool) -> np.ndarray:
        if self._mean is None:
            return self.design_space.sample(
                self.rng, self.config.initial_samples if first else self._lambda()
            )
        unit = self._mean + self._std * self.rng.standard_normal(
            (self._lambda(), self.design_space.dimension)
        )
        return self.design_space.from_unit(np.clip(unit, 0.0, 1.0))

    def _lambda(self) -> int:
        return 4 * self.config.batch_size

    def ask(self) -> np.ndarray:
        return self._ask_drawn(self._draw)

    def tell(self, samples: np.ndarray, metrics: np.ndarray) -> None:
        start = self._count
        super().tell(samples, metrics)
        # Refit the sampling distribution on this generation's elite.
        units = self._U[start: self._count]
        scores = self._scores[start: self._count]
        mu = min(self.config.batch_size, units.shape[0])
        elite = units[np.argsort(-scores, kind="stable")[:mu]]
        mean = elite.mean(axis=0)
        std = np.maximum(elite.std(axis=0), self.STD_FLOOR)
        if self._mean is None:
            self._mean, self._std = mean, std
        else:
            alpha = self.SMOOTHING
            self._mean = alpha * mean + (1.0 - alpha) * self._mean
            self._std = alpha * std + (1.0 - alpha) * self._std


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
