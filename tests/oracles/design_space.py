"""Reference unit-cube mapping and snap: the two-pass forms.

:class:`repro.core.design_space.DesignSpace` takes ``log``/``exp`` on its
log-scale columns only and snaps through a table of grid values.  The
functions here are the forms it replaced: each mapping evaluates the linear
and the logarithmic formula on every column and picks one with
``np.where``, and ``snap`` rounds the unit coordinate to the grid and maps
it back with :func:`from_unit`, a second ``exp`` pass.  They read nothing
but the space's :class:`~repro.core.design_space.Parameter` list, and the
space's mappings must equal them bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.design_space import DesignSpace


class _Columns:
    """Per-parameter arrays, with 1.0 standing in for a linear column's
    log bounds so the log branch stays finite everywhere."""

    def __init__(self, space: DesignSpace) -> None:
        parameters = space.parameters
        self.lows = np.array([p.low for p in parameters])
        self.highs = np.array([p.high for p in parameters])
        self.log_mask = np.array([p.log_scale for p in parameters])
        self.grid_steps = np.array([1.0 / (p.grid_points - 1) for p in parameters])
        safe_lows = np.where(self.log_mask, self.lows, 1.0)
        safe_highs = np.where(self.log_mask, self.highs, 1.0)
        self.log_lows = np.log(safe_lows)
        self.log_spans = np.log(safe_highs) - self.log_lows
        self.spans = self.highs - self.lows
        self.log_divisors = np.where(self.log_mask, self.log_spans, 1.0)


def to_unit(space: DesignSpace, vector: Sequence[float]) -> np.ndarray:
    columns = _Columns(space)
    vector = np.asarray(vector, dtype=np.float64)
    if np.any((vector <= 0.0) & columns.log_mask):
        raise ValueError("non-positive value for a log-scale parameter")
    safe = np.where(columns.log_mask, np.maximum(vector, 1e-300), 1.0)
    linear = (vector - columns.lows) / columns.spans
    logarithmic = (np.log(safe) - columns.log_lows) / columns.log_divisors
    return np.where(columns.log_mask, logarithmic, linear)


def from_unit(space: DesignSpace, unit_vector: Sequence[float]) -> np.ndarray:
    columns = _Columns(space)
    unit_vector = np.clip(np.asarray(unit_vector, dtype=np.float64), 0.0, 1.0)
    linear = columns.lows + unit_vector * columns.spans
    logarithmic = np.exp(columns.log_lows + unit_vector * columns.log_spans)
    return np.where(columns.log_mask, logarithmic, linear)


def snap(space: DesignSpace, vector: Sequence[float]) -> np.ndarray:
    columns = _Columns(space)
    clipped = np.clip(np.asarray(vector, dtype=np.float64), columns.lows, columns.highs)
    unit = to_unit(space, clipped)
    snapped_unit = np.round(unit / columns.grid_steps) * columns.grid_steps
    return from_unit(space, snapped_unit)
