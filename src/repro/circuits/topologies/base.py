"""The :class:`SizingProblem` interface and the topology registry.

The paper's agent is a *general* constraint-satisfaction sizer: nothing in
Algorithm 1 is specific to the two-stage Miller opamp it is demonstrated on.
This module makes that genericity concrete.  A :class:`SizingProblem` bundles
everything the search stack needs from a workload:

* a gridded :class:`~repro.core.design_space.DesignSpace` (the CSP domain),
* a vectorized ``(count, dim) -> (count, n_metrics)`` ``evaluate_batch``
  (the "SPICE" the surrogate approximates), built from the two hooks below,
* metric names binding the output columns to :class:`~repro.search.spec.Spec`
  constraints,
* a ``default_specs()`` tier ladder (``smoke`` < ``nominal`` < ``stretch``)
  so benchmarks can dial difficulty without hand-tuning bounds per topology.

Every problem is PVT-aware by construction: the constructor derates the
technology card through :meth:`~repro.circuits.pvt.PVTCondition.apply`, the
same path the progressive corner-hardening loop uses.

A topology is two hooks: ``_small_signal_parts`` turns sizings into
device-level quantities under a technology card and temperature, and
``_metrics_from_parts`` turns those into metric columns.  The base class
writes both evaluators once on top of them.
:meth:`SizingProblem.evaluate_batch` runs the hooks on the problem's own
derated card, and :meth:`SizingProblem.evaluate_corners` returns a
``(n_corners, count, n_metrics)`` block for a whole corner grid in one
call, by running the same hooks as a single NumPy broadcast over a stacked
technology card (:meth:`~repro.circuits.pvt.PVTCondition.apply_stack`),
built once per corner tuple and kept on the problem.
The tests lock that broadcast bit for bit against a per-corner loop over
derated siblings.

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


def _corner_block_check(arguments, result) -> Optional[str]:
    """Contract post-condition of the corner-tensor evaluator."""
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
    columns of :meth:`evaluate_batch`), plus the abstract methods below:
    the design space, the spec ladder and the two evaluation hooks.

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
        # Per corner tuple: the stacked card and the (n_corners, 1)
        # temperature column :meth:`evaluate_corners` evaluates it at.
        self._corner_cards: Dict[
            Tuple[PVTCondition, ...], Tuple[TechnologyCard, np.ndarray]
        ] = {}

    # -- abstract workload definition ----------------------------------
    @abstractmethod
    def design_space(self) -> DesignSpace:
        """The gridded CSP domain over :attr:`VARIABLE_NAMES`."""

    @abstractmethod
    def _small_signal_parts(
        self, samples: np.ndarray, card: TechnologyCard, temperature_c
    ) -> Dict[str, np.ndarray]:
        """Vectorized device-level quantities for ``(count, dim)`` sizings.

        ``card``/``temperature_c`` are the problem's derated card and corner
        temperature for :meth:`evaluate_batch`; :meth:`evaluate_corners`
        passes a stacked card and a ``(n_corners, 1)`` temperature column
        instead, and every quantity broadcasts to ``(n_corners, count)``.
        """

    @abstractmethod
    def _metrics_from_parts(self, parts: Dict[str, np.ndarray]) -> np.ndarray:
        """Closed-form metrics from the parts: ``(..., len(METRIC_NAMES))``."""

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

    @contract(returns=ArraySpec(None, None), check=_metric_axis_check)
    def evaluate_batch(self, samples: np.ndarray) -> np.ndarray:
        """Closed-form metrics for a ``(count, dim)`` array of sizings.

        Returns an array of shape ``(count, len(METRIC_NAMES))`` computed in
        a single vectorized pass — no per-sample Python loop.
        """
        samples = self.validated_batch(samples)
        return self._metrics_from_parts(
            self._small_signal_parts(samples, self.card, self.condition.temperature_c)
        )

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
        The grid is evaluated as a single broadcast — the corner axis rides
        the same closed-form NumPy expressions as the batch axis — and each
        corner row is bit-identical to :meth:`evaluate_batch` on the sibling
        problem derated to that corner (enforced by the parity tests).
        """
        samples = self.validated_batch(samples)
        corners = list(corners)
        if not corners:
            raise ValueError("evaluate_corners needs at least one PVT corner")
        card, temperatures = self._stacked_card(tuple(corners))
        parts = self._small_signal_parts(samples, card, temperatures)
        metrics = self._metrics_from_parts(parts)
        # Corner-degenerate grids (e.g. a single corner) can collapse the
        # leading axis; restore the corner and sample axes without touching
        # values (the metric axis is the contract's to check).
        shape = (len(corners), samples.shape[0]) + metrics.shape[-1:]
        if metrics.shape != shape:
            metrics = np.ascontiguousarray(np.broadcast_to(metrics, shape))
        return metrics

    def _stacked_card(
        self, corners: Tuple[PVTCondition, ...]
    ) -> Tuple[TechnologyCard, np.ndarray]:
        """The base card derated to ``corners`` and their temperature
        column, built once per corner tuple; both are read-only."""
        stacked = self._corner_cards.get(corners)
        if stacked is None:
            temperatures = np.array(
                [corner.temperature_c for corner in corners], dtype=np.float64
            )[:, np.newaxis]
            temperatures.flags.writeable = False
            stacked = self._corner_cards[corners] = (
                PVTCondition.apply_stack(corners, self.base_card),
                temperatures,
            )
        return stacked

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
