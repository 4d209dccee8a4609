"""Mini-batch supervised training loop for MLP regressors.

The paper (Section IV-B) trains the SPICE approximator with plain supervised
learning, one gradient pass per search iteration (Algorithm 1, line 8).  The
:func:`train_regressor` helper below supports both that incremental mode and
the full multi-epoch fit used when the trust-region region is (re)entered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.autodiff import Tensor
from repro.nn.fused import FusedAdam, FusedMLP
from repro.nn.losses import mse_loss
from repro.nn.modules import MLP
from repro.nn.optim import Adam, Optimizer
from repro.nn.seeding import resolve_rng

@dataclass
class TrainingHistory:
    """Loss trace of a fit; useful for convergence diagnostics and tests."""

    losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    @property
    def initial_loss(self) -> float:
        return self.losses[0] if self.losses else float("nan")

    def improved(self) -> bool:
        """True when the loss decreased over the fit."""
        return bool(self.losses) and self.final_loss <= self.initial_loss


def iterate_minibatches(
    inputs: np.ndarray,
    targets: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
):
    """Yield shuffled (input, target) mini-batches."""
    count = inputs.shape[0]
    order = rng.permutation(count)
    for start in range(0, count, batch_size):
        index = order[start : start + batch_size]
        yield inputs[index], targets[index]


def train_regressor(
    model: Union[MLP, FusedMLP],
    inputs: np.ndarray,
    targets: np.ndarray,
    epochs: int = 100,
    batch_size: int = 32,
    lr: float = 1e-3,
    optimizer: Optional[Union[Optimizer, FusedAdam]] = None,
    rng: Optional[np.random.Generator] = None,
    l2: float = 0.0,
    seed: Optional[int] = None,
) -> TrainingHistory:
    """Fit ``model`` to map ``inputs`` to ``targets`` with MSE.

    Parameters
    ----------
    model:
        The MLP to train in-place.  A :class:`FusedMLP` trains with the
        hand-derived NumPy fast path, an autodiff :class:`MLP` with the
        Tensor graph (the reference oracle).
    inputs, targets:
        2-D arrays of shape ``(n_samples, n_features)`` / ``(n_samples, n_outputs)``.
    epochs, batch_size, lr:
        Usual training hyper-parameters.
    optimizer:
        Optional pre-built optimizer (so the agent can keep Adam moments
        across incremental refits).  Must match the model: a
        :class:`FusedAdam` for a :class:`FusedMLP`, an autodiff
        :class:`Adam`/:class:`Optimizer` for an :class:`MLP`.
    rng, seed:
        Minibatch-shuffling RNG: pass a Generator to share a stream, or a
        seed to build one.  With neither, the fixed library default seed is
        used (:mod:`repro.nn.seeding`) — never OS entropy, so a fit is
        reproducible even when the caller forgets to thread an rng.
    l2:
        Weight decay strength.

    Both training loops consume the same minibatch RNG stream and perform
    bit-identical floating-point updates, so an :class:`MLP` and its
    :meth:`FusedMLP.from_module` twin end at the same weights.
    """
    rng = resolve_rng(rng, seed)
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if inputs.shape[0] != targets.shape[0]:
        raise ValueError("inputs and targets must have the same number of rows")
    history = TrainingHistory()

    if isinstance(model, FusedMLP):
        if optimizer is None:
            optimizer = FusedAdam(model, lr=lr, weight_decay=l2)
        elif not isinstance(optimizer, FusedAdam):
            raise ValueError("a FusedMLP requires a FusedAdam optimizer")
        history.losses.extend(model.fit(inputs, targets, epochs, batch_size, optimizer, rng))
        return history

    if optimizer is None:
        optimizer = Adam(model.parameters(), lr=lr, weight_decay=l2)
    elif isinstance(optimizer, FusedAdam):
        raise ValueError("an autodiff MLP requires an autodiff optimizer, got FusedAdam")
    for _ in range(epochs):
        epoch_losses = []
        for batch_x, batch_y in iterate_minibatches(inputs, targets, batch_size, rng):
            optimizer.zero_grad()
            prediction = model(Tensor(batch_x))
            loss = mse_loss(prediction, Tensor(batch_y))
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        history.losses.append(float(np.mean(epoch_losses)))
    return history
