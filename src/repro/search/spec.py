"""Constraint-satisfaction specifications (the CSP of Eq. 2).

A sizing task in the paper is not an optimization of a single figure of
merit but a *constraint satisfaction problem*: find any sizing whose
measurements meet every spec.  :class:`Spec` is one inequality constraint on
a named measurement; :class:`Specification` binds a set of them to a metric
vector layout and turns raw measurements into normalized margins and a
scalar satisfaction score the search can hill-climb.

The score convention: each spec contributes ``min(margin, 0)`` with the
margin normalized by the spec's scale, so the score is 0 exactly when every
constraint holds and grows more negative with the total violation.  This is
the standard penalty shaping for surrogate-assisted CSP search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

#: Feasibility tolerance: a margin (or a satisfaction score) this close to
#: zero counts as met, so float round-off never burns budget.  Shared by
#: :meth:`Specification.satisfied`, :meth:`Specification.report` and the
#: optimizers' stopping rule.
FEASIBLE_TOL = -1e-9


@dataclass(frozen=True)
class Spec:
    """One inequality constraint on a named measurement.

    Attributes
    ----------
    metric:
        Name of the measurement this spec constrains.
    sense:
        ``">="`` (the measurement must reach the bound) or ``"<="``.
    bound:
        The constraint bound in the measurement's natural unit.
    scale:
        Normalization for the margin; defaults to ``|bound|`` so margins are
        comparable across heterogeneous units (dB vs hertz vs watts).  Must
        be finite and positive: a negative scale would invert the
        constraint, and a zero one makes the margin infinite (or NaN at the
        bound).
    """

    metric: str
    sense: str
    bound: float
    scale: Optional[float] = None

    def __post_init__(self) -> None:
        if self.sense not in (">=", "<="):
            raise ValueError(f"sense must be '>=' or '<=', got {self.sense!r}")
        if not math.isfinite(self.bound):
            raise ValueError(f"spec {self.metric!r}: bound must be finite, got {self.bound!r}")
        if self.scale is not None and not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(
                f"spec {self.metric!r}: scale must be finite and positive, got {self.scale!r}"
            )

    @property
    def normalizer(self) -> float:
        if self.scale is not None:
            return float(self.scale)
        return max(abs(self.bound), 1e-30)

    def margin(self, value):
        """Normalized signed margin; positive (or zero) means satisfied.

        The per-spec reference for :meth:`Specification.margins`, which
        computes every spec's column at once and must match it bit for bit.
        """
        value = np.asarray(value, dtype=np.float64)
        if self.sense == ">=":
            raw = value - self.bound
        else:
            raw = self.bound - value
        return raw / self.normalizer

    def __str__(self) -> str:
        return f"{self.metric} {self.sense} {self.bound:g}"


class Specification:
    """A set of specs bound to a concrete metric-vector layout."""

    def __init__(self, specs: Sequence[Spec], metric_names: Sequence[str]) -> None:
        if not specs:
            raise ValueError("a specification needs at least one spec")
        self.metric_names: Tuple[str, ...] = tuple(metric_names)
        index: Dict[str, int] = {name: i for i, name in enumerate(self.metric_names)}
        missing = [spec.metric for spec in specs if spec.metric not in index]
        if missing:
            raise KeyError(f"specs reference unknown metrics: {missing}")
        self.specs: Tuple[Spec, ...] = tuple(specs)
        # Per-spec arrays, so margins are one gather plus one select over
        # the whole (count, n_specs) block instead of a loop over specs.
        self._columns = np.array([index[spec.metric] for spec in specs])
        self._at_least = np.array([spec.sense == ">=" for spec in specs])
        self._bounds = np.array([spec.bound for spec in specs], dtype=np.float64)
        self._normalizers = np.array([spec.normalizer for spec in specs], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.specs)

    def margins(self, metrics: np.ndarray) -> np.ndarray:
        """Normalized margins, shape ``(count, n_specs)``, C-contiguous.

        Bit-identical to stacking each :meth:`Spec.margin` column.  The
        select keeps the ``bound - value`` subtraction of a ``<=`` spec
        (rather than negating ``value - bound``), so a value exactly at its
        bound gives ``+0.0`` under either sense.  The gather is ``take``, not
        fancy indexing, which can return a column-major block: the row sums
        of :meth:`score` would then add in a different order.
        """
        metrics = np.atleast_2d(np.asarray(metrics, dtype=np.float64))
        values = metrics.take(self._columns, axis=1)
        bounds = self._bounds
        return np.where(self._at_least, values - bounds, bounds - values) / self._normalizers

    def score(self, metrics: np.ndarray) -> np.ndarray:
        """Scalar satisfaction score per row: 0 iff feasible, else negative."""
        return np.minimum(self.margins(metrics), 0.0).sum(axis=1)

    def satisfied(self, metrics: np.ndarray) -> np.ndarray:
        """Boolean feasibility per row (tolerant to float round-off)."""
        return np.all(self.margins(metrics) >= FEASIBLE_TOL, axis=1)

    def report(self, metrics: np.ndarray) -> str:
        """Human-readable pass/fail table for a single metric vector."""
        metrics = np.atleast_2d(np.asarray(metrics, dtype=np.float64))
        margins = self.margins(metrics)[0]
        lines = []
        for spec, column, margin in zip(self.specs, self._columns, margins):
            status = "PASS" if margin >= FEASIBLE_TOL else "FAIL"
            lines.append(f"  [{status}] {spec} (measured {metrics[0, column]:.4g})")
        return "\n".join(lines)
