"""Corner oracle: the PVT grid evaluated one corner at a time.

:meth:`~repro.circuits.topologies.base.SizingProblem.evaluate_corners`
evaluates a whole corner grid as one NumPy broadcast over a stacked
technology card.  The reference here derates a sibling problem to each
corner through the scalar :meth:`~repro.circuits.pvt.PVTCondition.apply`
(:meth:`~repro.circuits.topologies.base.SizingProblem.for_condition`) and
stacks the per-corner ``evaluate_batch`` blocks; the two must agree bit for
bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.circuits.pvt import PVTCondition
from repro.circuits.topologies.base import SizingProblem


def evaluate_corners_looped(
    problem: SizingProblem, samples: np.ndarray, corners: Sequence[PVTCondition]
) -> np.ndarray:
    """``(n_corners, count, n_metrics)`` block, one Python pass per corner."""
    samples = problem.validated_batch(samples)
    corners = list(corners)
    if not corners:
        raise ValueError("evaluate_corners_looped needs at least one PVT corner")
    return np.stack(
        [problem.for_condition(corner).evaluate_batch(samples) for corner in corners],
        axis=0,
    )
