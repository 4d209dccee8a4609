"""NumPy neural-network library used by the surrogate and the RL baselines."""

from repro.nn.fused import (
    BatchedFusedAdam,
    BatchedFusedMLP,
    FusedAdam,
    FusedFitJob,
    FusedMLP,
    fit_batched,
    fit_job_signature,
)
from repro.nn.losses import huber_loss, mae_loss, mse_loss
from repro.nn.modules import MLP, Activation, Linear, Module, Sequential
from repro.nn.optim import SGD, Adam, Optimizer, clip_grad_norm
from repro.nn.scalers import MinMaxScaler, StandardScaler
from repro.nn.training import TrainingHistory, iterate_minibatches, train_regressor

__all__ = [
    "BatchedFusedAdam",
    "BatchedFusedMLP",
    "FusedAdam",
    "FusedFitJob",
    "FusedMLP",
    "fit_batched",
    "fit_job_signature",
    "MLP",
    "Activation",
    "Linear",
    "Module",
    "Sequential",
    "SGD",
    "Adam",
    "Optimizer",
    "clip_grad_norm",
    "MinMaxScaler",
    "StandardScaler",
    "TrainingHistory",
    "iterate_minibatches",
    "train_regressor",
    "mse_loss",
    "mae_loss",
    "huber_loss",
]
