"""Finite-difference gradient checks for every Tensor operation."""

import numpy as np
import pytest

from oracles.autodiff import Tensor, concatenate, stack, where

RNG = np.random.default_rng(12345)
EPS = 1e-6


def numeric_grad(func, value):
    """Central-difference gradient of scalar-valued ``func`` at ``value``."""
    value = np.asarray(value, dtype=np.float64)
    grad = np.zeros_like(value)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + EPS
        upper = func(value.copy())
        flat[i] = original - EPS
        lower = func(value.copy())
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2.0 * EPS)
    return grad


def check_unary(op, data, tol=1e-5):
    tensor = Tensor(data, requires_grad=True)
    out = op(tensor)
    out.sum().backward()
    expected = numeric_grad(lambda x: float(op(Tensor(x)).data.sum()), np.asarray(data, float))
    np.testing.assert_allclose(tensor.grad, expected, rtol=tol, atol=tol)


def check_binary(op, a_data, b_data, tol=1e-5):
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    op(a, b).sum().backward()
    expected_a = numeric_grad(
        lambda x: float(op(Tensor(x), Tensor(b_data)).data.sum()), np.asarray(a_data, float)
    )
    expected_b = numeric_grad(
        lambda x: float(op(Tensor(a_data), Tensor(x)).data.sum()), np.asarray(b_data, float)
    )
    np.testing.assert_allclose(a.grad, expected_a, rtol=tol, atol=tol)
    np.testing.assert_allclose(b.grad, expected_b, rtol=tol, atol=tol)


class TestElementwise:
    def test_add(self):
        check_binary(lambda a, b: a + b, RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4)))

    def test_add_broadcast(self):
        check_binary(lambda a, b: a + b, RNG.normal(size=(3, 4)), RNG.normal(size=(4,)))

    def test_mul(self):
        check_binary(lambda a, b: a * b, RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4)))

    def test_mul_broadcast(self):
        check_binary(lambda a, b: a * b, RNG.normal(size=(2, 3)), RNG.normal(size=(1, 3)))

    def test_sub(self):
        check_binary(lambda a, b: a - b, RNG.normal(size=(5,)), RNG.normal(size=(5,)))

    def test_div(self):
        check_binary(
            lambda a, b: a / b,
            RNG.normal(size=(4,)),
            RNG.uniform(0.5, 2.0, size=(4,)),
        )

    def test_pow(self):
        check_unary(lambda t: t ** 3.0, RNG.uniform(0.5, 2.0, size=(3, 3)))

    def test_neg(self):
        check_unary(lambda t: -t, RNG.normal(size=(4,)))

    def test_abs(self):
        check_unary(lambda t: t.abs(), RNG.normal(size=(3, 4)) + 0.1)

    def test_abs_zero_is_finite(self):
        tensor = Tensor(np.array([0.0, -1.5, 2.0]), requires_grad=True)
        tensor.abs().sum().backward()
        assert np.all(np.isfinite(tensor.grad))
        np.testing.assert_allclose(tensor.grad, [0.0, -1.0, 1.0])

    def test_dunder_abs(self):
        tensor = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
        np.testing.assert_allclose(abs(tensor).data, [2.0, 3.0])


class TestLinearAlgebra:
    def test_matmul_2d(self):
        check_binary(lambda a, b: a @ b, RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2)))

    def test_matmul_vector(self):
        check_binary(lambda a, b: a @ b, RNG.normal(size=(4,)), RNG.normal(size=(4, 2)))

    def test_transpose(self):
        weights = RNG.normal(size=(4, 3))
        check_unary(lambda t: t.T * Tensor(weights), RNG.normal(size=(3, 4)))

    def test_reshape(self):
        check_unary(lambda t: t.reshape(6) * Tensor(np.arange(6.0)), RNG.normal(size=(2, 3)))

    def test_getitem(self):
        check_unary(lambda t: t[1] * Tensor(np.arange(4.0)), RNG.normal(size=(3, 4)))


class TestReductions:
    def test_sum(self):
        check_unary(lambda t: t.sum(), RNG.normal(size=(3, 4)))

    def test_sum_axis(self):
        check_unary(lambda t: (t.sum(axis=0) * Tensor(np.arange(4.0))), RNG.normal(size=(3, 4)))

    def test_mean(self):
        check_unary(lambda t: t.mean(), RNG.normal(size=(3, 4)))

    def test_max(self):
        # Distinct values so the argmax is stable under the FD perturbation.
        data = np.array([[1.0, 5.0, 2.0], [7.0, 0.5, 3.0]])
        check_unary(lambda t: t.max(), data)

    def test_max_axis(self):
        data = np.array([[1.0, 5.0, 2.0], [7.0, 0.5, 3.0]])
        check_unary(lambda t: (t.max(axis=1) * Tensor(np.array([2.0, 3.0]))), data)


class TestNonlinearities:
    def test_exp(self):
        check_unary(lambda t: t.exp(), RNG.normal(size=(3, 3)))

    def test_log(self):
        check_unary(lambda t: t.log(), RNG.uniform(0.5, 2.0, size=(3, 3)))

    def test_tanh(self):
        check_unary(lambda t: t.tanh(), RNG.normal(size=(3, 3)))

    def test_relu(self):
        check_unary(lambda t: t.relu(), RNG.normal(size=(3, 3)) + 0.1)

    def test_sigmoid(self):
        check_unary(lambda t: t.sigmoid(), RNG.normal(size=(3, 3)))

    def test_clip(self):
        check_unary(lambda t: t.clip(-0.5, 0.5), RNG.normal(size=(8,)) * 2.0 + 0.05)

    def test_log_softmax(self):
        weights = RNG.normal(size=(2, 4))
        check_unary(lambda t: (t.log_softmax() * Tensor(weights)), RNG.normal(size=(2, 4)))

    def test_softmax(self):
        weights = RNG.normal(size=(2, 4))
        check_unary(lambda t: (t.softmax() * Tensor(weights)), RNG.normal(size=(2, 4)))


class TestCombinators:
    def test_concatenate(self):
        a_data, b_data = RNG.normal(size=(2, 3)), RNG.normal(size=(4, 3))
        weights = RNG.normal(size=(6, 3))
        check_binary(lambda a, b: concatenate([a, b]) * Tensor(weights), a_data, b_data)

    def test_stack(self):
        a_data, b_data = RNG.normal(size=(3,)), RNG.normal(size=(3,))
        weights = RNG.normal(size=(2, 3))
        check_binary(lambda a, b: stack([a, b]) * Tensor(weights), a_data, b_data)

    def test_where(self):
        condition = np.array([True, False, True, False])
        check_binary(
            lambda a, b: where(condition, a, b),
            RNG.normal(size=(4,)),
            RNG.normal(size=(4,)),
        )


class TestBackwardMechanics:
    def test_deep_graph_no_recursion_error(self):
        """The incremental refit loop builds graphs >> recursion limit."""
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(5000):
            y = y * 1.0001
        y.backward()
        assert np.isfinite(x.grad)
        np.testing.assert_allclose(x.grad, 1.0001 ** 5000, rtol=1e-9)

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(3), requires_grad=True).backward()

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(2.0, requires_grad=True)
        (x * x + x).backward()
        np.testing.assert_allclose(x.grad, 5.0)
