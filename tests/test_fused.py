"""Fused NumPy surrogate: parity with the autodiff reference oracle.

The contract of :mod:`repro.nn.fused` is stronger than "numerically close":
given the same minibatch stream, the fused network produces *bit-identical*
losses, gradients and post-Adam weights to the Tensor-graph oracle
(:mod:`oracles.nn`).  These tests pin that contract step by step, plus the
constructor's own weight draws, the ``state_dict`` interchange, and whole
searches run on the autodiff oracle (via the ``oracles`` fixture).
"""

import numpy as np
import pytest

from oracles.autodiff import Tensor
from oracles.nn import MLP, Adam, mse_loss
from repro.circuits import available_topologies, get_topology
from repro.nn import FusedAdam, FusedMLP
from repro.nn.fused import fit_batched, ridge_output_weights
from repro.search import TrustRegionConfig


def flat_params(model: MLP) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in model.parameters()])


def flat_grads(model: MLP) -> np.ndarray:
    return np.concatenate([p.grad.ravel() for p in model.parameters()])


def make_pair(in_features=4, hidden=(16, 16), out_features=3, seed=7):
    """A fused MLP and its autodiff twin, loaded from its ``state_dict``."""
    fused = FusedMLP(in_features, hidden, out_features, rng=np.random.default_rng(seed))
    model = MLP(in_features, hidden, out_features)
    model.load_state_dict(fused.state_dict())
    return model, fused


def regression_data(count=96, in_features=4, out_features=3, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1.0, 1.0, size=(count, in_features))
    targets = rng.normal(size=(count, out_features))
    return inputs, targets


class TestPerStepParity:
    """Identical minibatch order -> identical losses, gradients, weights."""

    def test_loss_grad_and_adam_step_bitwise(self):
        model, fused = make_pair()
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

    def test_train_regressor_backends_identical(self):
        """Full training runs through both loops end at the same weights."""
        model, fused = make_pair()
        inputs, targets = regression_data()
        losses_autodiff = model.fit(
            inputs, targets, 12, 32, Adam(model.parameters(), lr=3e-3),
            np.random.default_rng(3),
        )
        losses_fused = fused.fit(
            inputs, targets, 12, 32, FusedAdam(fused, lr=3e-3), np.random.default_rng(3)
        )
        assert losses_autodiff == losses_fused
        np.testing.assert_array_equal(flat_params(model), fused.theta)

    def test_predict_parity(self):
        model, fused = make_pair()
        x = np.random.default_rng(2).normal(size=(17, 4))
        np.testing.assert_array_equal(model.predict(x), fused.predict(x))


class TestModuleInterop:
    @pytest.mark.parametrize("seed", [0, 13])
    @pytest.mark.parametrize("topology", available_topologies())
    def test_constructor_matches_module_init(self, topology, seed):
        """Same seeded generator -> bit-identical initial weights, for the
        surrogate of every topology at the default hidden widths."""
        cls = get_topology(topology)
        shape = (len(cls.VARIABLE_NAMES), TrustRegionConfig().surrogate_hidden,
                 len(cls.METRIC_NAMES))
        module = MLP(*shape, rng=np.random.default_rng(seed))
        fused = FusedMLP(*shape, rng=np.random.default_rng(seed))
        np.testing.assert_array_equal(flat_params(module), fused.theta)

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


def hidden_features(fused: FusedMLP, inputs: np.ndarray) -> np.ndarray:
    """The last hidden layer's activations, layer by layer."""
    h = inputs
    for weight, bias in zip(fused._weights[:-1], fused._biases[:-1]):
        h = np.tanh(h @ weight + bias)
    return h


def augmented_lstsq(features, targets, l2):
    """Ridge weights as the least-squares fit of ``[Φ; √λ·I] W = [Y; 0]``."""
    design = np.hstack([features, np.ones((features.shape[0], 1))])
    width = design.shape[1]
    stacked = np.vstack([design, np.sqrt(l2) * np.eye(width)])
    padded = np.vstack([targets, np.zeros((width, targets.shape[1]))])
    return np.linalg.lstsq(stacked, padded, rcond=None)[0]


class TestFitOutputLayer:
    """The closed-form output-layer refit: exact, local and side-effect free."""

    L2 = 1e-2

    def trained(self, count=96):
        """A surrogate-shaped net after some Adam steps (non-zero moments)."""
        _, fused = make_pair(in_features=6, hidden=(48, 48), out_features=5, seed=3)
        adam = FusedAdam(fused, lr=3e-3)
        inputs, targets = regression_data(count=count, in_features=6, out_features=5)
        fused.fit(inputs, targets, epochs=3, batch_size=32, optimizer=adam,
                  rng=np.random.default_rng(0))
        return fused, adam, inputs, targets

    @pytest.mark.parametrize("count", [96, 400])
    def test_weights_match_lstsq_on_augmented_system(self, count):
        fused, _, inputs, targets = self.trained(count)
        fused.fit_output_layer(inputs, targets, self.L2)
        expected = augmented_lstsq(hidden_features(fused, inputs), targets, self.L2)
        solved = np.vstack([fused._weights[-1], fused._biases[-1]])
        np.testing.assert_allclose(solved, expected, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("count", [49, 12])
    def test_solvable_with_no_more_rows_than_features(self, count):
        """The 49-row Monte-Carlo seed against 48 features plus the bias."""
        fused, _, inputs, targets = self.trained()
        inputs, targets = inputs[:count], targets[:count]
        fused.fit_output_layer(inputs, targets, self.L2)
        solved = np.vstack([fused._weights[-1], fused._biases[-1]])
        assert np.all(np.isfinite(solved))
        expected = augmented_lstsq(hidden_features(fused, inputs), targets, self.L2)
        np.testing.assert_allclose(solved, expected, rtol=0.0, atol=1e-10)

    def test_hidden_layers_and_adam_untouched(self):
        fused, adam, inputs, targets = self.trained()
        before = fused.theta.copy()
        moments = adam.state_dict()
        fused.fit_output_layer(inputs, targets, self.L2)
        hidden = slice(0, fused.theta.size - fused._weights[-1].size - fused._biases[-1].size)
        np.testing.assert_array_equal(fused.theta[hidden], before[hidden])
        assert not np.array_equal(fused.theta[hidden.stop:], before[hidden.stop:])
        after = adam.state_dict()
        np.testing.assert_array_equal(after["m"], moments["m"])
        np.testing.assert_array_equal(after["v"], moments["v"])
        assert after["t"] == moments["t"]

    def test_search_refit_draws_no_rng(self):
        """Inside a search, the closed-form refit moves only the output
        layer: the RNG, the hidden layers and Adam's state stay put."""
        from repro.core.design_space import DesignSpace, Parameter
        from repro.search import Spec, Specification, TrustRegionConfig, TrustRegionSearch

        space = DesignSpace([Parameter("x", 0.0, 1.0, grid_points=101)])
        spec = Specification([Spec("a", ">=", 10.0)], ["a"])  # unsatisfiable
        config = TrustRegionConfig(seed=0, initial_samples=16, surrogate_hidden=(8, 8),
                                   initial_epochs=4)
        search = TrustRegionSearch(None, space, spec, config)
        rows = search.ask()
        search.tell(rows, np.sin(7.0 * rows))
        fit_batched([search.take_refit_job()])  # the queued initial fit
        rng_state = search.rng.bit_generator.state
        theta = search._surrogate.theta.copy()
        adam = search._optimizer.state_dict()
        search._fit_output_layer()
        assert search.rng.bit_generator.state == rng_state
        surrogate = search._surrogate
        head = theta.size - surrogate._weights[-1].size - surrogate._biases[-1].size
        np.testing.assert_array_equal(search._surrogate.theta[:head], theta[:head])
        assert not np.array_equal(search._surrogate.theta[head:], theta[head:])
        after = search._optimizer.state_dict()
        np.testing.assert_array_equal(after["m"], adam["m"])
        np.testing.assert_array_equal(after["v"], adam["v"])
        assert after["t"] == adam["t"] > 0

    def test_autodiff_oracle_step_bitwise(self):
        """The oracle's closed-form step lands on the fused weights exactly."""
        model, fused = make_pair(in_features=6, hidden=(48, 48), out_features=5, seed=3)
        inputs, targets = regression_data(count=64, in_features=6, out_features=5)
        fused.fit_output_layer(inputs, targets, self.L2)
        model.fit_output_layer(inputs, targets, self.L2)
        np.testing.assert_array_equal(flat_params(model), fused.theta)
        np.testing.assert_array_equal(
            np.vstack([fused._weights[-1], fused._biases[-1]]),
            ridge_output_weights(hidden_features(fused, inputs), targets, self.L2),
        )


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

    def test_batched_campaign_seeds_0_to_2(self, oracles, monkeypatch):
        """Multi-seed campaigns whose refits share dispatches reach the same
        fingerprint on the autodiff oracle, trained one job at a time."""
        from repro.analysis.determinism import fingerprint_outcome
        from repro.bench.registry import BenchCase

        case, seeds = BenchCase("ota_5t", "nominal", "hardest"), [0, 1, 2]

        def fingerprint():
            campaign = case.build_campaign(seeds)
            outcome = campaign.run()
            return fingerprint_outcome(outcome, campaign.cache.state_digest(), seeds)

        fused = fingerprint()
        oracles.autodiff_surrogate()
        oracle_fit = MLP.fit
        fits = []

        def counted(model, *args):
            fits.append(args[2])
            return oracle_fit(model, *args)

        monkeypatch.setattr(MLP, "fit", counted)
        assert fused["batched_kernel_calls"] > 0
        assert fingerprint() == fused
        assert len(fits) > len(seeds)

    def test_two_stage_demo_seed0_backend_parity(self, oracles, monkeypatch):
        """The demo reaches the same sizing on the autodiff oracle, through
        closed-form output-layer refits as well as full ones."""
        from repro.search.opamp_demo import DEFAULT_SPECS
        from repro.search.sizing import size_problem

        fused = size_problem("two_stage_opamp", specs=DEFAULT_SPECS, seed=0)
        oracles.autodiff_surrogate()
        closed_form = MLP.fit_output_layer
        calls = []

        def counted(model, *args):
            calls.append(args[0].shape[0])
            closed_form(model, *args)

        monkeypatch.setattr(MLP, "fit_output_layer", counted)
        autodiff = size_problem("two_stage_opamp", specs=DEFAULT_SPECS, seed=0)
        assert calls
        assert fused.solved_all_corners and autodiff.solved_all_corners
        assert fused.evaluations == autodiff.evaluations
        np.testing.assert_array_equal(fused.best_vector, autodiff.best_vector)
        # The fast path must actually be faster on the identical trajectory.
        assert fused.refit_seconds < autodiff.refit_seconds
