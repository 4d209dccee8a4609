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

Every parameter is a finite grid, so a snapped point is a vector of grid
indices: :class:`DesignSpace` tabulates the natural value and the unit
coordinate of every grid index once, and snapping or sampling looks them
up instead of mapping back through ``exp``/``log``.
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
    """An ordered collection of :class:`Parameter` objects.

    Besides the per-parameter arrays that vectorise the unit-cube mapping
    over ``(count, dimension)`` batches, the constructor builds two grid
    tables: for every parameter and grid index ``k``, the natural value
    ``from_unit(k * step)`` and its unit coordinate ``to_unit`` of that
    value.  :meth:`grid_index` maps a point to its nearest grid indices
    (clip, :meth:`to_unit`, divide by the step, round half to even), and
    :meth:`grid_values` / :meth:`grid_units` gather from the tables, so a
    snapped value equals mapping the rounded unit coordinate back, bit for
    bit, without the second ``exp``.
    """

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
        # The unit-cube mapping's per-column offset and scale: low and span
        # on linear columns, log(low) and log span on log-scale ones, so
        # unit = (x - offset) / scale with x the value or its log.
        log_lows = np.log(np.where(self._log_mask, self._lows, 1.0))
        log_spans = np.log(np.where(self._log_mask, self._highs, 1.0)) - log_lows
        self._unit_lows = np.where(self._log_mask, log_lows, self._lows)
        self._unit_spans = np.where(self._log_mask, log_spans, self._highs - self._lows)
        # Grid tables, one row per parameter, padded to the largest grid by
        # repeating its last point; index k of parameter j sits at flat
        # position j * width + k (_grid_offsets[j] + k).
        width = max(p.grid_points for p in self.parameters)
        last = np.array([p.grid_points - 1 for p in self.parameters])
        grid_units = np.minimum(np.arange(width)[:, None], last) * self._grid_steps
        values = self.from_unit(grid_units)
        self._grid_values = np.ascontiguousarray(values.T).ravel()
        self._grid_units = np.ascontiguousarray(self.to_unit(values).T).ravel()
        self._grid_offsets = np.arange(self.dimension) * width

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
        return self._to_unit_in_place(np.array(vector, dtype=np.float64))

    def _to_unit_in_place(self, unit: np.ndarray) -> np.ndarray:
        """:meth:`to_unit` of the natural values ``unit`` holds, written over them."""
        if np.any(unit <= 0.0, where=self._log_mask):
            raise ValueError("non-positive value for a log-scale parameter")
        np.log(unit, out=unit, where=self._log_mask)
        unit -= self._unit_lows
        unit /= self._unit_spans
        return unit

    def from_unit(self, unit_vector: Sequence[float]) -> np.ndarray:
        values = np.maximum(np.asarray(unit_vector, dtype=np.float64), 0.0)
        np.minimum(values, 1.0, out=values)
        values *= self._unit_spans
        values += self._unit_lows
        np.exp(values, out=values, where=self._log_mask)
        return values

    def clip(self, vector: Sequence[float]) -> np.ndarray:
        """Clamp a natural-unit vector into the box."""
        clipped = np.maximum(np.asarray(vector, dtype=np.float64), self._lows)
        return np.minimum(clipped, self._highs, out=clipped)

    # -- the grid -------------------------------------------------------------
    def grid_index(self, vector: Sequence[float]) -> np.ndarray:
        """The nearest grid index of every coordinate, as integers."""
        unit = self._to_unit_in_place(self.clip(vector))
        unit /= self._grid_steps
        return np.rint(unit, out=unit).astype(np.intp)

    def grid_values(self, index: np.ndarray) -> np.ndarray:
        """The natural values at grid indices from :meth:`grid_index`."""
        return self._grid_values.take(index + self._grid_offsets)

    def grid_units(self, index: np.ndarray) -> np.ndarray:
        """The unit coordinates (:meth:`to_unit`) of :meth:`grid_values`."""
        return self._grid_units.take(index + self._grid_offsets)

    def snap(self, vector: Sequence[float]) -> np.ndarray:
        """Snap every coordinate to its grid."""
        return self.grid_values(self.grid_index(vector))

    def contains(self, vector: Sequence[float]) -> bool:
        """True when the vector lies inside the box (inclusive)."""
        vector = np.asarray(vector, dtype=np.float64)
        return bool(
            np.all(vector >= self._lows - 1e-12) and np.all(vector <= self._highs + 1e-12)
        )

    # -- sampling ------------------------------------------------------------
    def sample_index(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """Grid indices of uniform random points of the unit cube.

        Returns an integer array of shape ``(count, dimension)``; the draw
        is ``from_unit(rng.random((count, dimension)))``, snapped.
        """
        return self.grid_index(self.from_unit(rng.random((count, self.dimension))))

    def sample(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """Uniform random samples in the unit cube mapped to natural units
        and snapped to the grid.

        Returns an array of shape ``(count, dimension)``.
        """
        return self.grid_values(self.sample_index(rng, count))

    def sample_ball_index(
        self,
        rng: np.random.Generator,
        center: Sequence[float],
        radius: float,
        count: int,
    ) -> np.ndarray:
        """Grid indices of uniform samples inside an L-infinity ball of the
        unit cube.

        This realises the trust region ``D_TR = {X : ||X - X_i|| <= delta_r}``
        of Eq. (5); the norm is taken in the normalised unit cube so the
        radius has a consistent meaning across heterogeneous variables.
        """
        center_unit = self.to_unit(np.asarray(center, dtype=np.float64))
        offsets = rng.uniform(-radius, radius, size=(count, self.dimension))
        # from_unit clips the offset points into the unit cube.
        return self.grid_index(self.from_unit(center_unit + offsets))


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
