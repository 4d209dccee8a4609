"""Surrogate network: training convergence, optimizer-state persistence and
the target scaler."""

import numpy as np
import pytest

from repro.nn import FusedAdam, FusedMLP, StandardScaler
from repro.nn.fused import DTYPE


def test_regressor_fits_smooth_function():
    rng = np.random.default_rng(0)
    inputs = rng.uniform(-1.0, 1.0, size=(256, 2))
    targets = np.stack(
        [np.sin(2.0 * inputs[:, 0]), inputs[:, 0] * inputs[:, 1]], axis=1
    )
    model = FusedMLP(2, (32, 32), 2, rng=rng)
    losses = model.fit(
        inputs.astype(DTYPE), targets.astype(DTYPE), 150, 32, FusedAdam(model, lr=3e-3), rng
    )
    assert losses[-1] <= losses[0]
    assert losses[-1] < 0.01


def test_incremental_refit_with_persistent_adam():
    """The search loop refits with a shared optimizer; moments must persist."""
    rng = np.random.default_rng(1)
    inputs = rng.uniform(-1.0, 1.0, size=(128, 2))
    targets = inputs.sum(axis=1, keepdims=True).astype(DTYPE)
    inputs = inputs.astype(DTYPE)
    model = FusedMLP(2, (16,), 1, rng=rng)
    optimizer = FusedAdam(model, lr=1e-2)
    losses = []
    for _ in range(6):
        losses.append(model.fit(inputs, targets, 20, 32, optimizer, rng)[-1])
    assert losses[-1] < losses[0]
    assert optimizer._t > 0  # moments actually advanced across refits


def test_state_dict_round_trip():
    rng = np.random.default_rng(2)
    model = FusedMLP(3, (8,), 2, rng=rng)
    clone = FusedMLP(3, (8,), 2, rng=np.random.default_rng(3))
    clone.load_state_dict(model.state_dict())
    x = rng.normal(size=(5, 3))
    np.testing.assert_allclose(model.predict(x), clone.predict(x))


def test_standard_scaler_round_trip():
    rng = np.random.default_rng(4)
    data = rng.normal(loc=5.0, scale=3.0, size=(64, 4))
    scaler = StandardScaler().fit(data)
    np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(data)), data)
    constant = np.ones((10, 2))
    np.testing.assert_allclose(StandardScaler().fit(constant).transform(constant), 0.0)


def test_scalers_reject_wrong_feature_count():
    """Broadcasting used to 'normalise' mismatched arrays into garbage."""
    rng = np.random.default_rng(5)
    data = rng.normal(size=(32, 4))
    scaler = StandardScaler().fit(data)
    for bad in (rng.normal(size=(8, 3)), rng.normal(size=(8, 5)), rng.normal(size=4 * 8)):
        with pytest.raises(ValueError):
            scaler.transform(bad)
        with pytest.raises(ValueError):
            scaler.inverse_transform(bad)
    # The fitted width still passes, including a single flat vector.
    assert scaler.transform(data).shape == data.shape
    assert scaler.transform(data[0]).shape == (1, 4)


def test_unfitted_scalers_raise():
    scaler = StandardScaler()
    with pytest.raises(RuntimeError):
        scaler.transform(np.ones((2, 2)))
    with pytest.raises(RuntimeError):
        scaler.inverse_transform(np.ones((2, 2)))
