"""Feature scaling for the surrogate's targets.

The surrogate network is trained on the fly from a handful of SPICE samples,
so robust output normalisation matters much more than architecture.  The
z-score scaler below tolerates degenerate (constant) columns and validates
the feature dimension on every transform — NumPy broadcasting would
otherwise happily "normalise" an array with the wrong column count into
garbage.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def _validated_2d(data: np.ndarray, fitted_features: int, operation: str) -> np.ndarray:
    """Coerce to (count, features) float64 and check the column count."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if data.shape[1] != fitted_features:
        raise ValueError(
            f"{operation} expects {fitted_features} feature column(s), "
            f"got array of shape {data.shape}"
        )
    return data


class StandardScaler:
    """Per-column z-score normalisation with constant-column protection."""

    def __init__(self) -> None:
        self.mean_: Optional[np.ndarray] = None
        self.std_: Optional[np.ndarray] = None

    def fit(self, data: np.ndarray) -> "StandardScaler":
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        self.mean_ = data.mean(axis=0)
        std = data.std(axis=0)
        std[std < 1e-12] = 1.0
        self.std_ = std
        return self

    def transform(self, data: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.std_ is None:
            raise RuntimeError("scaler must be fitted before transform")
        return (_validated_2d(data, len(self.mean_), "transform") - self.mean_) / self.std_

    def inverse_transform(self, data: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.std_ is None:
            raise RuntimeError("scaler must be fitted before inverse_transform")
        return _validated_2d(data, len(self.mean_), "inverse_transform") * self.std_ + self.mean_
