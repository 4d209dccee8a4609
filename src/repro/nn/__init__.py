"""The surrogate the trust-region search trains: a fused NumPy MLP, its Adam
and the batched multi-seed refit, plus the z-score scaler of its targets."""

from repro.nn.fused import (
    BatchedFusedAdam,
    BatchedFusedMLP,
    FusedAdam,
    FusedFitJob,
    FusedMLP,
    fit_batched,
    fit_job_signature,
)
from repro.nn.scalers import StandardScaler

__all__ = [
    "BatchedFusedAdam",
    "BatchedFusedMLP",
    "FusedAdam",
    "FusedFitJob",
    "FusedMLP",
    "fit_batched",
    "fit_job_signature",
    "StandardScaler",
]
