"""The reference MSE loss's gradient against finite differences."""

import numpy as np

from oracles.autodiff import Tensor
from oracles.nn import mse_loss

from test_autodiff import numeric_grad

RNG = np.random.default_rng(7)


def loss_grad(loss, prediction, target):
    pred = Tensor(prediction, requires_grad=True)
    loss(pred, Tensor(target)).backward()
    return pred.grad


class TestFiniteDifference:
    def test_mse_matches_fd(self):
        prediction = RNG.normal(size=(5, 3))
        target = RNG.normal(size=(5, 3))
        grad = loss_grad(mse_loss, prediction, target)
        expected = numeric_grad(
            lambda x: float(mse_loss(Tensor(x), Tensor(target)).data), prediction
        )
        np.testing.assert_allclose(grad, expected, rtol=1e-5, atol=1e-7)
