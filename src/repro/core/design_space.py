"""Design-space description: sizing variables, ranges and grids.

The CSP of the paper (Eq. 2) is defined over a finite set of sizing variables
``X`` with per-variable domains ``D_i``.  :class:`Parameter` describes one
variable (a transistor width, a capacitor value, a bias current, ...) with an
inclusive range and a grid resolution; :class:`DesignSpace` bundles them and
provides the operations every agent needs:

* uniform random sampling (the Monte-Carlo exploration of Algorithm 1),
* conversion to/from the normalised unit cube (where the surrogate network
  and the trust-region radius live),
* snapping to the discrete grid (what a designer would actually draw),
* sampling inside an L-infinity ball (the trust region, Eq. 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Parameter:
    """One sizing variable.

    Attributes
    ----------
    name:
        Variable name, e.g. ``"w1"`` or ``"cc"``.
    low, high:
        Inclusive bounds in the variable's natural unit.
    grid_points:
        Number of grid values between ``low`` and ``high`` (inclusive); this
        is what defines the finite CSP domain size quoted in the paper
        (e.g. "design space size of 1e14").
    log_scale:
        If True, the grid and the unit-cube mapping are logarithmic, which is
        the natural choice for capacitances and currents spanning decades.
    unit:
        Documentation-only unit string.
    """

    name: str
    low: float
    high: float
    grid_points: int = 64
    log_scale: bool = False
    unit: str = ""

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise ValueError(f"parameter {self.name!r}: low must be < high")
        if self.grid_points < 2:
            raise ValueError(f"parameter {self.name!r}: grid_points must be >= 2")
        if self.log_scale and self.low <= 0:
            raise ValueError(f"parameter {self.name!r}: log scale requires positive bounds")

    # -- unit-cube mapping ------------------------------------------------
    def to_unit(self, value: float) -> float:
        """Map a natural value into [0, 1]."""
        if self.log_scale:
            return (math.log(value) - math.log(self.low)) / (
                math.log(self.high) - math.log(self.low)
            )
        return (value - self.low) / (self.high - self.low)

    def from_unit(self, unit_value: float) -> float:
        """Map a unit-cube coordinate back to the natural range."""
        unit_value = min(max(unit_value, 0.0), 1.0)
        if self.log_scale:
            return math.exp(
                math.log(self.low) + unit_value * (math.log(self.high) - math.log(self.low))
            )
        return self.low + unit_value * (self.high - self.low)

    def snap(self, value: float) -> float:
        """Snap a natural value to the nearest grid value."""
        unit = self.to_unit(min(max(value, self.low), self.high))
        step = 1.0 / (self.grid_points - 1)
        snapped_unit = round(unit / step) * step
        return self.from_unit(snapped_unit)


class DesignSpace:
    """An ordered collection of :class:`Parameter` objects."""

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        if not parameters:
            raise ValueError("a design space needs at least one parameter")
        names = [parameter.name for parameter in parameters]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        self.parameters: Tuple[Parameter, ...] = tuple(parameters)
        self._by_name: Dict[str, Parameter] = {p.name: p for p in parameters}
        # Cached per-parameter arrays so unit-cube mapping, snapping and
        # sampling vectorize over whole (count, dimension) sample batches.
        self._lows = np.array([p.low for p in self.parameters])
        self._highs = np.array([p.high for p in self.parameters])
        self._log_mask = np.array([p.log_scale for p in self.parameters])
        self._grid_steps = np.array([1.0 / (p.grid_points - 1) for p in self.parameters])
        safe_lows = np.where(self._log_mask, self._lows, 1.0)
        safe_highs = np.where(self._log_mask, self._highs, 1.0)
        self._log_lows = np.log(safe_lows)
        self._log_spans = np.log(safe_highs) - self._log_lows
        self._spans = self._highs - self._lows
        # to_unit's log denominator: the log span, or 1 on linear columns.
        self._log_divisors = np.where(self._log_mask, self._log_spans, 1.0)

    # -- basic protocol ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.parameters)

    def __iter__(self):
        return iter(self.parameters)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Parameter:
        return self._by_name[name]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(parameter.name for parameter in self.parameters)

    @property
    def dimension(self) -> int:
        return len(self.parameters)

    def size(self) -> float:
        """Total number of grid combinations (the CSP domain size)."""
        total = 1.0
        for parameter in self.parameters:
            total *= parameter.grid_points
        return total

    def log10_size(self) -> float:
        """log10 of the grid size; the paper quotes sizes as 1e14, 1e29, ..."""
        return float(sum(math.log10(p.grid_points) for p in self.parameters))

    # -- vector <-> dict --------------------------------------------------
    def to_dict(self, vector: Sequence[float]) -> Dict[str, float]:
        """Convert a natural-unit vector into a name -> value mapping."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dimension,):
            raise ValueError(f"expected vector of length {self.dimension}, got {vector.shape}")
        return {name: float(value) for name, value in zip(self.names, vector)}

    def to_vector(self, values: Mapping[str, float]) -> np.ndarray:
        """Convert a name -> value mapping into a natural-unit vector."""
        missing = [name for name in self.names if name not in values]
        if missing:
            raise KeyError(f"missing parameters: {missing}")
        return np.array([float(values[name]) for name in self.names])

    # -- unit-cube mapping --------------------------------------------------
    # All mapping helpers accept either a single vector of shape ``(dim,)``
    # or a batch of shape ``(count, dim)`` and vectorize column-wise; this is
    # the fast path the batch circuit evaluator and the trust-region sampler
    # rely on.
    def to_unit(self, vector: Sequence[float]) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64)
        if np.any((vector <= 0.0) & self._log_mask):
            raise ValueError("non-positive value for a log-scale parameter")
        safe = np.where(self._log_mask, np.maximum(vector, 1e-300), 1.0)
        linear = (vector - self._lows) / self._spans
        logarithmic = (np.log(safe) - self._log_lows) / self._log_divisors
        return np.where(self._log_mask, logarithmic, linear)

    def from_unit(self, unit_vector: Sequence[float]) -> np.ndarray:
        unit_vector = np.clip(np.asarray(unit_vector, dtype=np.float64), 0.0, 1.0)
        linear = self._lows + unit_vector * self._spans
        logarithmic = np.exp(self._log_lows + unit_vector * self._log_spans)
        return np.where(self._log_mask, logarithmic, linear)

    def clip(self, vector: Sequence[float]) -> np.ndarray:
        """Clamp a natural-unit vector into the box."""
        vector = np.asarray(vector, dtype=np.float64)
        return np.clip(vector, self._lows, self._highs)

    def snap(self, vector: Sequence[float]) -> np.ndarray:
        """Snap every coordinate to its grid."""
        unit = self.to_unit(self.clip(vector))
        snapped_unit = np.round(unit / self._grid_steps) * self._grid_steps
        return self.from_unit(snapped_unit)

    def contains(self, vector: Sequence[float]) -> bool:
        """True when the vector lies inside the box (inclusive)."""
        vector = np.asarray(vector, dtype=np.float64)
        return bool(
            np.all(vector >= self._lows - 1e-12) and np.all(vector <= self._highs + 1e-12)
        )

    # -- sampling ------------------------------------------------------------
    def sample(self, rng: np.random.Generator, count: int = 1, snap: bool = True) -> np.ndarray:
        """Uniform random samples in the unit cube mapped to natural units.

        Returns an array of shape ``(count, dimension)``.
        """
        unit = rng.random((count, self.dimension))
        samples = self.from_unit(unit)
        if snap:
            samples = self.snap(samples)
        return samples

    def sample_ball(
        self,
        rng: np.random.Generator,
        center: Sequence[float],
        radius: float,
        count: int,
        snap: bool = True,
    ) -> np.ndarray:
        """Uniform samples inside an L-infinity ball of the unit cube.

        This realises the trust region ``D_TR = {X : ||X - X_i|| <= delta_r}``
        of Eq. (5); the norm is taken in the normalised unit cube so the
        radius has a consistent meaning across heterogeneous variables.
        """
        center_unit = self.to_unit(np.asarray(center, dtype=np.float64))
        offsets = rng.uniform(-radius, radius, size=(count, self.dimension))
        unit_points = np.clip(center_unit + offsets, 0.0, 1.0)
        samples = self.from_unit(unit_points)
        if snap:
            samples = self.snap(samples)
        return samples


def row_keys(block: np.ndarray) -> List[bytes]:
    """Bit-exact identity of each row of a 2-D float64 block.

    The block is exported with one ``tobytes`` and sliced per row, so each
    key is exact (no rounding) and hashable, which NumPy void scalars are
    not in NumPy 2.  The optimizers' dedup set and the evaluation cache
    both key rows this way.
    """
    block = np.ascontiguousarray(block)
    data = block.tobytes()
    width = block.shape[1] * block.itemsize
    return [data[i * width : (i + 1) * width] for i in range(block.shape[0])]
