"""Fused NumPy training backend: parity with the autodiff reference oracle.

The contract of :mod:`repro.nn.fused` is stronger than "numerically close":
given the same minibatch stream, the fused backend produces *bit-identical*
losses, gradients and post-Adam weights to the Tensor-graph path.  These
tests pin that contract step by step, plus the module round-trips, how
:func:`train_regressor` picks its training loop from the model's type, and
whole searches run on the autodiff oracle (reachable only from tests, via
the ``oracles`` fixture).
"""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import MLP, Adam, FusedAdam, FusedMLP, train_regressor
from repro.nn.losses import mse_loss


def flat_params(model: MLP) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in model.parameters()])


def flat_grads(model: MLP) -> np.ndarray:
    return np.concatenate([p.grad.ravel() for p in model.parameters()])


def make_pair(in_features=4, hidden=(16, 16), out_features=3, seed=7, **kwargs):
    """An autodiff MLP and its fused twin with identical weights."""
    model = MLP(in_features, hidden, out_features, rng=np.random.default_rng(seed), **kwargs)
    return model, FusedMLP.from_module(model)


def regression_data(count=96, in_features=4, out_features=3, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1.0, 1.0, size=(count, in_features))
    targets = rng.normal(size=(count, out_features))
    return inputs, targets


class TestPerStepParity:
    """Identical minibatch order -> identical losses, gradients, weights."""

    @pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
    def test_loss_grad_and_adam_step_bitwise(self, activation):
        model, fused = make_pair(activation=activation)
        adam = Adam(model.parameters(), lr=3e-3)
        fused_adam = FusedAdam(fused, lr=3e-3)
        inputs, targets = regression_data()
        rng = np.random.default_rng(11)
        for _ in range(30):
            index = rng.permutation(inputs.shape[0])[:32]
            batch_x, batch_y = inputs[index], targets[index]

            adam.zero_grad()
            loss = mse_loss(model(Tensor(batch_x)), Tensor(batch_y))
            loss.backward()
            reference_grad = flat_grads(model)
            adam.step()

            fused_loss, fused_grad = fused.loss_and_grad(batch_x, batch_y)
            fused_grad = fused_grad.copy()  # the buffer is reused
            fused_adam.step(fused_grad)

            assert loss.item() == fused_loss
            np.testing.assert_array_equal(reference_grad, fused_grad)
            np.testing.assert_array_equal(flat_params(model), fused.theta)

    def test_weight_decay_parity(self):
        model, fused = make_pair()
        adam = Adam(model.parameters(), lr=1e-2, weight_decay=1e-3)
        fused_adam = FusedAdam(fused, lr=1e-2, weight_decay=1e-3)
        inputs, targets = regression_data(count=32)
        for _ in range(10):
            adam.zero_grad()
            loss = mse_loss(model(Tensor(inputs)), Tensor(targets))
            loss.backward()
            adam.step()
            _, grad = fused.loss_and_grad(inputs, targets)
            fused_adam.step(grad)
        np.testing.assert_array_equal(flat_params(model), fused.theta)

    def test_train_regressor_backends_identical(self):
        """Full training runs through both backends end at the same weights."""
        model, fused = make_pair()
        inputs, targets = regression_data()
        history_autodiff = train_regressor(
            model, inputs, targets, epochs=12, batch_size=32, lr=3e-3,
            rng=np.random.default_rng(3),
        )
        history_fused = train_regressor(
            fused, inputs, targets, epochs=12, batch_size=32, lr=3e-3,
            rng=np.random.default_rng(3),
        )
        assert history_autodiff.losses == history_fused.losses
        np.testing.assert_array_equal(flat_params(model), fused.theta)

    def test_predict_parity(self):
        model, fused = make_pair()
        x = np.random.default_rng(2).normal(size=(17, 4))
        np.testing.assert_array_equal(model.predict(x), fused.predict(x))


class TestModuleInterop:
    def test_constructor_matches_module_init(self):
        """Same seeded generator -> bit-identical initial weights."""
        module = MLP(5, (24, 24), 2, rng=np.random.default_rng(13))
        fused = FusedMLP(5, (24, 24), 2, rng=np.random.default_rng(13))
        np.testing.assert_array_equal(flat_params(module), fused.theta)

    def test_from_module_to_module_round_trip(self):
        module, fused = make_pair()
        restored = fused.to_module()
        x = np.random.default_rng(4).normal(size=(9, 4))
        np.testing.assert_array_equal(module.predict(x), restored.predict(x))

    def test_to_module_into_existing(self):
        module, fused = make_pair()
        fused.theta += 0.25  # diverge, then write back
        fused.to_module(module)
        np.testing.assert_array_equal(flat_params(module), fused.theta)

    def test_from_module_copies_weights(self):
        module, fused = make_pair()
        before = fused.theta.copy()
        module.parameters()[0].data += 1.0
        np.testing.assert_array_equal(fused.theta, before)

    def test_state_dict_interop_both_ways(self):
        module, fused = make_pair()
        clone = MLP(4, (16, 16), 3, rng=np.random.default_rng(99))
        clone.load_state_dict(fused.state_dict())
        np.testing.assert_array_equal(flat_params(clone), fused.theta)
        fused_clone = FusedMLP(4, (16, 16), 3, rng=np.random.default_rng(98))
        fused_clone.load_state_dict(module.state_dict())
        np.testing.assert_array_equal(fused_clone.theta, fused.theta)

    def test_load_state_dict_validates(self):
        _, fused = make_pair()
        state = fused.state_dict()
        with pytest.raises(ValueError):
            fused.load_state_dict({k: v for k, v in list(state.items())[:-1]})
        bad = dict(state)
        bad["param_0"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            fused.load_state_dict(bad)

    def test_rejects_non_linear_activation_stacks(self):
        class Odd(MLP):
            pass

        odd = Odd(3, (4,), 1)
        odd.body.layers.append(object())
        with pytest.raises(TypeError):
            FusedMLP.from_module(odd)


class TestBackendKnob:
    """The model's type picks the training loop; there is no backend knob."""

    def test_unknown_backend_rejected(self):
        model, _ = make_pair()
        inputs, targets = regression_data(count=8)
        with pytest.raises(TypeError, match="backend"):
            train_regressor(model, inputs, targets, epochs=1, backend="fused")

    def test_fused_backend_rejects_autodiff_optimizer(self):
        _, fused = make_pair()
        inputs, targets = regression_data(count=8)
        model, _ = make_pair()
        with pytest.raises(ValueError, match="FusedAdam"):
            train_regressor(
                fused, inputs, targets, epochs=1, optimizer=Adam(model.parameters())
            )

    def test_autodiff_backend_rejects_fused_optimizer(self):
        model, fused = make_pair()
        inputs, targets = regression_data(count=8)
        with pytest.raises(ValueError, match="FusedAdam"):
            train_regressor(model, inputs, targets, epochs=1, optimizer=FusedAdam(fused))


class TestSearchLevelParity:
    """The autodiff oracle must reproduce every fused search trajectory."""

    def make_search(self):
        from repro.core.design_space import DesignSpace, Parameter
        from repro.search import Spec, Specification, TrustRegionConfig, TrustRegionSearch

        def evaluator(samples):
            samples = np.atleast_2d(samples)
            x, y = samples[:, 0], samples[:, 1]
            a = 1.0 - (x - 0.7) ** 2 - (y - 0.3) ** 2
            b = (x - 0.7) ** 2 + (y - 0.3) ** 2
            return np.stack([a, b], axis=1)

        space = DesignSpace(
            [Parameter("x", 0.0, 1.0, grid_points=101),
             Parameter("y", 0.0, 1.0, grid_points=101)]
        )
        spec = Specification([Spec("a", ">=", 0.99), Spec("b", "<=", 0.01)], ["a", "b"])
        config = TrustRegionConfig(
            seed=0, initial_samples=24, batch_size=6, candidate_pool=128,
            max_evaluations=300, surrogate_hidden=(24, 24),
            initial_epochs=60, refit_epochs=15,
        )
        return TrustRegionSearch(evaluator, space, spec, config)

    def test_toy_csp_trajectories_identical(self, oracles):
        fused = self.make_search().run()
        oracles.autodiff_surrogate()
        autodiff = self.make_search().run()
        assert isinstance(self.make_search()._build_surrogate()[0], MLP)
        assert fused.evaluations == autodiff.evaluations
        assert fused.best_score == autodiff.best_score
        np.testing.assert_array_equal(fused.best_vector, autodiff.best_vector)
        assert len(fused.history) == len(autodiff.history)

    def test_two_stage_demo_seed0_backend_parity(self, oracles):
        """The demo reaches the same sizing on the autodiff oracle."""
        from repro.search.opamp_demo import DEFAULT_SPECS
        from repro.search.sizing import size_problem

        fused = size_problem("two_stage_opamp", specs=DEFAULT_SPECS, seed=0)
        oracles.autodiff_surrogate()
        autodiff = size_problem("two_stage_opamp", specs=DEFAULT_SPECS, seed=0)
        assert fused.solved_all_corners and autodiff.solved_all_corners
        assert fused.evaluations == autodiff.evaluations
        np.testing.assert_array_equal(fused.best_vector, autodiff.best_vector)
        # The fast path must actually be faster on the identical trajectory.
        assert fused.refit_seconds < autodiff.refit_seconds
