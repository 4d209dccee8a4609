"""The building block of the pre-refactor monolithic search loop.

Before the ask/tell redesign, the trust-region search loop was written in
select-evaluate-append steps over an evaluator the optimizer held.  The
parity oracle loop in the tests still is; it passes the evaluator in.
"""

from typing import Optional

import numpy as np


def evaluate_new(
    optimizer, evaluator, candidates: np.ndarray, limit: Optional[int] = None
) -> int:
    """Select-evaluate-append in one step; returns how many rows ran.

    The composition of ``_select_new`` and ``_append`` around ``evaluator``,
    which maps ``(count, dim)`` sizings to ``(count, n_metrics)``.
    """
    rows, _ = optimizer._select_new(candidates, limit)
    if rows.shape[0] == 0:
        return 0
    metrics = np.atleast_2d(np.asarray(evaluator(rows), dtype=np.float64))
    optimizer._append(rows, metrics)
    return int(rows.shape[0])
