"""The building block of the pre-refactor monolithic search loop.

Before the ask/tell redesign, ``TrustRegionSearch.run()`` was written in
select-evaluate-append steps over the optimizer's own evaluator.  The parity
oracle loop in the tests still is.
"""

from typing import Optional

import numpy as np


def evaluate_new(optimizer, candidates: np.ndarray, limit: Optional[int] = None) -> int:
    """Select-evaluate-append in one step; returns how many rows ran.

    The composition of ``_select_new`` and ``_append`` around the
    optimizer's own ``evaluator``.
    """
    rows, _ = optimizer._select_new(candidates, limit)
    if rows.shape[0] == 0:
        return 0
    metrics = np.atleast_2d(np.asarray(optimizer.evaluator(rows), dtype=np.float64))
    optimizer._append(rows, metrics)
    return int(rows.shape[0])
