"""The :class:`SizingProblem` interface and the topology registry.

The paper's agent is a *general* constraint-satisfaction sizer: nothing in
Algorithm 1 is specific to the two-stage Miller opamp it is demonstrated on.
This module makes that genericity concrete.  A :class:`SizingProblem` bundles
everything the search stack needs from a workload:

* a gridded :class:`~repro.core.design_space.DesignSpace` (the CSP domain),
* a vectorized ``(count, dim) -> (count, n_metrics)`` ``evaluate_batch``
  (the "SPICE" the surrogate approximates),
* metric names binding the output columns to :class:`~repro.search.spec.Spec`
  constraints,
* a ``default_specs()`` tier ladder (``smoke`` < ``nominal`` < ``stretch``)
  so benchmarks can dial difficulty without hand-tuning bounds per topology.

Every problem is PVT-aware by construction: the constructor derates the
technology card through :meth:`~repro.circuits.pvt.PVTCondition.apply`, the
same path the progressive corner-hardening loop uses.

The PVT corner is also a *tensor axis*: :meth:`SizingProblem.evaluate_corners`
returns a ``(n_corners, count, n_metrics)`` block for a whole corner grid in
one call.  Topologies that set ``supports_stacked_corners`` evaluate the grid
as a single NumPy broadcast over a stacked technology card
(:meth:`~repro.circuits.pvt.PVTCondition.apply_stack`); everything else falls
back to :meth:`SizingProblem.evaluate_corners_looped`, the per-corner Python
loop that doubles as the parity oracle — the two paths are bit-identical.

Concrete topologies register themselves with :func:`register_topology`, and
the benchmark suite enumerates them through :func:`available_topologies`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.analysis.contracts import ArraySpec, SeqLen, contract
from repro.circuits.process import TechnologyCard, get_technology
from repro.circuits.pvt import NOMINAL, PVTCondition
from repro.core.design_space import DesignSpace
from repro.obs import span
from repro.search.spec import Spec

SizingLike = Union[Mapping[str, float], Sequence[float], np.ndarray]


def _metric_axis_check(arguments, result) -> Optional[str]:
    """Contract post-condition: the last axis is the problem's metric layout."""
    expected = len(arguments["self"].METRIC_NAMES)
    if result.shape[-1] != expected:
        return f"metric axis has {result.shape[-1]} columns, expected {expected}"
    return None


def batch_evaluator_contract(fn):
    """Contract for a topology's vectorized ``evaluate_batch``.

    Asserts the ``(count, len(METRIC_NAMES))`` output contract (the input is
    left to ``validated_batch``, which legitimately coerces 1-D sizings).
    Concrete topologies decorate their ``evaluate_batch`` with this so every
    workload in the zoo carries the same runtime check.
    """
    return contract(returns=ArraySpec(None, None), check=_metric_axis_check)(fn)


def _corner_block_check(arguments, result) -> Optional[str]:
    """Contract post-condition shared by both corner-tensor evaluators."""
    message = _metric_axis_check(arguments, result)
    if message:
        return message
    if result.ndim == 3 and result.shape[1] < 1:
        return "corner block has an empty sample axis"
    return None

#: Canonical tier order of every ``default_specs()`` ladder, easiest first.
SPEC_TIERS: Tuple[str, ...] = ("smoke", "nominal", "stretch")

#: The shared measurement layout of every amplifier topology in the zoo.
#: Using one layout across topologies lets the benchmark harness and the
#: progressive PVT loop treat all workloads uniformly.
AMPLIFIER_METRIC_NAMES: Tuple[str, ...] = (
    "dc_gain_db",
    "ugbw_hz",
    "phase_margin_deg",
    "power_w",
    "slew_v_per_s",
)


class SizingProblem(ABC):
    """One analog sizing workload: design space, evaluator, specs.

    Subclasses define the class attributes ``name`` (registry key),
    ``VARIABLE_NAMES`` (sizing-vector layout) and ``METRIC_NAMES`` (output
    columns of :meth:`evaluate_batch`), plus the abstract methods below.

    Parameters
    ----------
    technology:
        Technology node name or a :class:`TechnologyCard`.
    condition:
        PVT corner; the card is derated once at construction.
    load_cap:
        External load capacitance at the output, in farads.
    """

    #: Registry key, e.g. ``"two_stage_opamp"``.
    name: str = ""
    #: Order of the sizing variables in vector form.
    VARIABLE_NAMES: Tuple[str, ...] = ()
    #: Order of the measurements returned by the batch evaluator.
    METRIC_NAMES: Tuple[str, ...] = ()
    #: Whether :meth:`evaluate_corners` may use the stacked-card fast path.
    #: Topologies opt in by accepting ``card``/``temperature_c`` overrides in
    #: their ``_small_signal_parts`` and providing ``_metrics_from_parts``;
    #: anything else transparently falls back to the per-corner loop.
    supports_stacked_corners: bool = False

    def __init__(
        self,
        technology: Union[str, TechnologyCard] = "bsim45",
        condition: PVTCondition = NOMINAL,
        load_cap: float = 2e-12,
    ) -> None:
        card = get_technology(technology) if isinstance(technology, str) else technology
        #: The un-derated node card; corner evaluation derates it per corner.
        self.base_card = card
        self.condition = condition
        self.card = condition.apply(card)
        self.load_cap = float(load_cap)

    # -- abstract workload definition ----------------------------------
    @abstractmethod
    def design_space(self) -> DesignSpace:
        """The gridded CSP domain over :attr:`VARIABLE_NAMES`."""

    @abstractmethod
    def evaluate_batch(self, samples: np.ndarray) -> np.ndarray:
        """Closed-form metrics for a ``(count, dim)`` array of sizings.

        Returns an array of shape ``(count, len(METRIC_NAMES))`` computed in
        a single vectorized pass — no per-sample Python loop.
        """

    @abstractmethod
    def default_specs(self) -> Dict[str, Tuple[Spec, ...]]:
        """Spec tier ladder keyed by :data:`SPEC_TIERS` names.

        ``smoke`` must be solvable in a few hundred evaluations at the
        hardest sign-off corner (the CI budget); ``nominal`` is the headline
        experiment; ``stretch`` is allowed to need the progressive loop's
        full budget.
        """

    # -- shared machinery ----------------------------------------------
    @property
    def dimension(self) -> int:
        return len(self.VARIABLE_NAMES)

    def to_vector(self, sizing: SizingLike) -> np.ndarray:
        """Coerce a mapping or sequence into the canonical sizing vector."""
        if isinstance(sizing, Mapping):
            return np.array([float(sizing[name]) for name in self.VARIABLE_NAMES])
        vector = np.asarray(sizing, dtype=np.float64)
        if vector.shape != (self.dimension,):
            raise ValueError(
                f"expected a sizing vector of length {self.dimension}, got {vector.shape}"
            )
        return vector

    @contract(returns=ArraySpec(None, None))
    def validated_batch(self, samples: np.ndarray) -> np.ndarray:
        """Coerce to ``(count, dim)`` float64 and check the column count."""
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        if samples.shape[1] != self.dimension:
            raise ValueError(
                f"expected samples of shape (count, {self.dimension}), got {samples.shape}"
            )
        return samples

    def evaluate(self, sizing: SizingLike) -> Dict[str, float]:
        """Metrics of a single sizing, via the same vectorized path."""
        row = self.evaluate_batch(self.to_vector(sizing)[np.newaxis, :])[0]
        return {name: float(value) for name, value in zip(self.METRIC_NAMES, row)}

    # -- corner tensor axis --------------------------------------------
    def for_condition(self, condition: PVTCondition) -> "SizingProblem":
        """A sibling problem derated to another corner (same node and load)."""
        return type(self)(self.base_card, condition, self.load_cap)

    def evaluation_handle(self):
        """Everything the Campaign driver needs to evaluate this problem.

        Bundles the design space, the metric layout and the
        :meth:`evaluate_corners` tensor evaluator into an
        :class:`~repro.search.campaign.EvaluationHandle`, so the search
        stack never has to know topology internals.
        """
        # Imported lazily: the search stack imports repro.search.spec from
        # this module's package, so a module-level import would be heavy at
        # best and fragile to reorder.
        from repro.search.campaign import EvaluationHandle

        return EvaluationHandle(
            design_space=self.design_space(),
            metric_names=tuple(self.METRIC_NAMES),
            corner_evaluator=self.evaluate_corners,
        )

    @contract(
        args={"corners": SeqLen("c")},
        returns=ArraySpec("c", None, None),
        check=_corner_block_check,
    )
    @span("topology.evaluate_corners", self_tags={"topology": "name"})
    def evaluate_corners(
        self, samples: np.ndarray, corners: Sequence[PVTCondition]
    ) -> np.ndarray:
        """Metrics over the whole corner grid in one pass.

        Returns a ``(n_corners, len(samples), len(METRIC_NAMES))`` block.
        When the topology supports stacked corners the grid is evaluated as
        a single broadcast — the corner axis rides the same closed-form
        NumPy expressions as the batch axis — and is bit-identical to
        :meth:`evaluate_corners_looped` (enforced by the parity tests).
        """
        samples = self.validated_batch(samples)
        corners = list(corners)
        if not corners:
            raise ValueError("evaluate_corners needs at least one PVT corner")
        if not self.supports_stacked_corners:
            return self.evaluate_corners_looped(samples, corners)
        card = PVTCondition.apply_stack(corners, self.base_card)
        temperatures = np.array(
            [corner.temperature_c for corner in corners], dtype=np.float64
        )[:, np.newaxis]
        parts = self._small_signal_parts(samples, card=card, temperature_c=temperatures)
        metrics = self._metrics_from_parts(parts)
        # Corner-degenerate grids (e.g. a single corner) can collapse the
        # leading axis; restore the contract shape without touching values.
        shape = (len(corners), samples.shape[0], len(self.METRIC_NAMES))
        if metrics.shape != shape:
            metrics = np.ascontiguousarray(np.broadcast_to(metrics, shape))
        return metrics

    @contract(
        args={"corners": SeqLen("c")},
        returns=ArraySpec("c", None, None),
        check=_corner_block_check,
    )
    @span("topology.evaluate_corners_looped", self_tags={"topology": "name"})
    def evaluate_corners_looped(
        self, samples: np.ndarray, corners: Sequence[PVTCondition]
    ) -> np.ndarray:
        """Per-corner Python loop over :meth:`evaluate_batch` — the oracle.

        Same ``(n_corners, count, n_metrics)`` contract as
        :meth:`evaluate_corners`; kept as the reference implementation the
        stacked path is checked against, and as the fallback for topologies
        without stacked support.
        """
        samples = self.validated_batch(samples)
        corners = list(corners)
        if not corners:
            raise ValueError("evaluate_corners_looped needs at least one PVT corner")
        return np.stack(
            [self.for_condition(corner).evaluate_batch(samples) for corner in corners],
            axis=0,
        )

    def _small_signal_parts(
        self, samples: np.ndarray, card=None, temperature_c=None
    ) -> Dict[str, np.ndarray]:
        """Small-signal quantities hook of the stacked corner engine.

        Stacked-corner topologies compute their device-level quantities here
        from an optional card/temperature override (arrays of shape
        ``(n_corners, 1)`` for the corner axis, or ``None`` for the
        problem's own derated card).
        """
        raise NotImplementedError(
            f"topology {self.name!r} does not implement the stacked corner engine"
        )

    def _metrics_from_parts(self, parts: Dict[str, np.ndarray]) -> np.ndarray:
        """Metric assembly hook: parts -> ``(..., len(METRIC_NAMES))``."""
        raise NotImplementedError(
            f"topology {self.name!r} does not implement the stacked corner engine"
        )

    @staticmethod
    def _stack_metrics(*columns: np.ndarray) -> np.ndarray:
        """Broadcast metric columns to a common shape, stacked on a new last
        axis — ``(count, n)`` for a batch, ``(n_corners, count, n)`` when a
        corner axis is present.  Corner-invariant columns (e.g. a slew rate
        set purely by sizing) broadcast up without recomputation."""
        return np.stack(np.broadcast_arrays(*columns), axis=-1)


# ----------------------------------------------------------------------
# Topology registry (mirrors repro.circuits.process.register_technology).

_TOPOLOGIES: Dict[str, Type[SizingProblem]] = {}


def register_topology(cls: Type[SizingProblem]) -> Type[SizingProblem]:
    """Class decorator adding a :class:`SizingProblem` to the registry."""
    if not cls.name:
        raise ValueError(f"topology class {cls.__name__} must set a non-empty 'name'")
    if cls.name in _TOPOLOGIES and _TOPOLOGIES[cls.name] is not cls:
        raise ValueError(f"topology {cls.name!r} already registered")
    _TOPOLOGIES[cls.name] = cls
    return cls


def available_topologies() -> Tuple[str, ...]:
    """Names of all registered topologies, sorted."""
    return tuple(sorted(_TOPOLOGIES))


def get_topology(name: str) -> Type[SizingProblem]:
    """Look up a topology class by registry name.

    Raises
    ------
    KeyError
        If the topology is unknown; the message lists the available names.
    """
    try:
        return _TOPOLOGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown topology {name!r}; available: {', '.join(available_topologies())}"
        ) from None
