"""Fused NumPy surrogate: parity with the autodiff reference oracle.

The contract of :mod:`repro.nn.fused` is stronger than "numerically close":
given the same minibatch stream, the fused network produces *bit-identical*
losses, gradients and post-Adam weights to the Tensor-graph oracle
(:mod:`oracles.nn`), both in float32.  These tests pin that contract step
by step, plus the constructor's own weight draws, the ``state_dict``
interchange, the dtype of every buffer, and whole searches run on the
autodiff oracle (via the ``oracles`` fixture).
"""

import numpy as np
import pytest

from conftest import run_in_campaign
from oracles.autodiff import Tensor
from oracles.nn import MLP, Adam, mse_loss
from repro.circuits import available_topologies, get_topology
from repro.nn import BatchedFusedAdam, BatchedFusedMLP, FusedAdam, FusedMLP
from repro.nn import fused as fused_module
from repro.nn.fused import DTYPE, FusedFitJob, fit_batched, ridge_output_weights
from repro.search import TrustRegionConfig, TrustRegionSearch, trust_region


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
    """Training data in the network's dtype, as a search's refit job has it."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1.0, 1.0, size=(count, in_features))
    targets = rng.normal(size=(count, out_features))
    return inputs.astype(DTYPE), targets.astype(DTYPE)


class TestPerStepParity:
    """Identical minibatch order -> identical losses, gradients, weights."""

    def test_loss_grad_and_adam_step_bitwise(self):
        """Every seed of the stacked kernel steps exactly as its own
        autodiff twin, at one seed and at three: loss, gradient row and
        parameters on every step."""
        for n_seeds in (1, 3):
            self.check_stacked_steps(n_seeds)

    @staticmethod
    def check_stacked_steps(n_seeds):
        """Each seed has its own weights, data and minibatch draws, and
        starts at its own Adam step count, so each takes its own bias
        correction."""
        pairs = [make_pair(seed=7 + seed) for seed in range(n_seeds)]
        models = [model for model, _ in pairs]
        fused = [fused for _, fused in pairs]
        adams = [Adam(model.parameters(), lr=3e-3) for model in models]
        fused_adams = [FusedAdam(model, lr=3e-3) for model in fused]
        for seed, (adam, fused_adam) in enumerate(zip(adams, fused_adams)):
            adam._t = fused_adam._t = 5 * seed
        stacked = BatchedFusedMLP(fused[0], n_seeds)
        stacked.gather(fused)
        stacked_adam = BatchedFusedAdam(stacked, lr=3e-3)
        stacked_adam.gather(fused_adams)
        data = [regression_data(seed=seed) for seed in range(n_seeds)]
        rng = np.random.default_rng(11)
        for _ in range(30):
            indices = [rng.permutation(inputs.shape[0])[:32] for inputs, _ in data]
            batches = [(inputs[index], targets[index])
                       for (inputs, targets), index in zip(data, indices)]

            losses = stacked.loss_and_grad(np.stack([x for x, _ in batches]),
                                           np.stack([y for _, y in batches]))
            grads = stacked._grad.copy()  # the buffer is reused
            stacked_adam.step(stacked._grad)

            for seed, (batch_x, batch_y) in enumerate(batches):
                model, adam = models[seed], adams[seed]
                adam.zero_grad()
                loss = mse_loss(model(Tensor(batch_x)), Tensor(batch_y))
                loss.backward()
                reference_grad = flat_grads(model)
                adam.step()

                assert loss.item() == float(losses[seed])
                np.testing.assert_array_equal(reference_grad, grads[seed])
                np.testing.assert_array_equal(flat_params(model), stacked.theta[seed])

        stacked.scatter(fused)
        stacked_adam.scatter(fused_adams)
        for model, adam, fused_model, fused_adam in zip(models, adams, fused, fused_adams):
            # Parameters, m, v and t, each back on its own model.
            for ours, theirs in zip(surrogate_state(fused_model, fused_adam),
                                    surrogate_state(model, adam)):
                np.testing.assert_array_equal(ours, theirs)

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
        shape = (len(cls.VARIABLE_NAMES), trust_region.SURROGATE_HIDDEN, len(cls.METRIC_NAMES))
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
    """The last hidden layer's activations, layer by layer, upcast to
    float64 for the ridge solve."""
    h = inputs.astype(DTYPE)
    for weight, bias in zip(fused._weights[:-1], fused._biases[:-1]):
        h = np.tanh(h @ weight + bias)
    return h.astype(np.float64)


def augmented_lstsq(features, targets, l2):
    """Ridge weights as the least-squares fit of ``[Φ; √λ·I] W = [Y; 0]``."""
    design = np.hstack([features, np.ones((features.shape[0], 1))])
    width = design.shape[1]
    stacked = np.vstack([design, np.sqrt(l2) * np.eye(width)])
    padded = np.vstack([targets, np.zeros((width, targets.shape[1]))])
    return np.linalg.lstsq(stacked, padded, rcond=None)[0]


def seeded_search(search_sizes) -> TrustRegionSearch:
    """A search on an unsatisfiable spec, told its Monte-Carlo seed: the
    initial fit is queued.  ``search_sizes`` is the test's fixture."""
    from repro.core.design_space import DesignSpace, Parameter
    from repro.search import Spec, Specification

    space = DesignSpace([Parameter("x", 0.0, 1.0, grid_points=101)])
    spec = Specification([Spec("a", ">=", 10.0)], ["a"])  # unsatisfiable
    search_sizes(surrogate_hidden=(8, 8), initial_epochs=4)
    search = TrustRegionSearch(space, spec, TrustRegionConfig(seed=0))
    rows = search.ask()
    search.tell(rows, np.sin(7.0 * rows))
    return search


def output_layer(fused: FusedMLP) -> np.ndarray:
    """The output layer's weights with its bias as the last row."""
    return np.vstack([fused._weights[-1], fused._biases[-1]])


class TestFitOutputLayer:
    """The closed-form output-layer refit: exact, local and side-effect free.

    The ridge solve runs in float64 and is checked against an independent
    least-squares solve; the float32 layer must hold exactly its rounding.
    """

    L2 = 1e-2

    def trained(self, count=96):
        """A surrogate-shaped net after some Adam steps (non-zero moments)."""
        _, fused = make_pair(in_features=6, hidden=(48, 48), out_features=5, seed=3)
        adam = FusedAdam(fused, lr=3e-3)
        inputs, targets = regression_data(count=count, in_features=6, out_features=5)
        fused.fit(inputs, targets, epochs=3, batch_size=32, optimizer=adam,
                  rng=np.random.default_rng(0))
        return fused, adam, inputs, targets

    def check_solution(self, fused, inputs, targets):
        features = hidden_features(fused, inputs)
        solution = ridge_output_weights(features, targets, self.L2)
        expected = augmented_lstsq(features, targets, self.L2)
        np.testing.assert_allclose(solution, expected, rtol=0.0, atol=1e-10)
        np.testing.assert_array_equal(output_layer(fused), solution.astype(DTYPE))

    @pytest.mark.parametrize("count", [96, 400])
    def test_weights_match_lstsq_on_augmented_system(self, count):
        fused, _, inputs, targets = self.trained(count)
        fused.fit_output_layer(inputs, targets, self.L2)
        self.check_solution(fused, inputs, targets)

    @pytest.mark.parametrize("count", [49, 24, 12])
    def test_solvable_with_no_more_rows_than_features(self, count):
        """Against 48 features plus the bias: 49 rows, and fewer, like the
        24-row Monte-Carlo seed the initial fit's finish solves on."""
        fused, _, inputs, targets = self.trained()
        inputs, targets = inputs[:count], targets[:count]
        fused.fit_output_layer(inputs, targets, self.L2)
        assert np.all(np.isfinite(output_layer(fused)))
        self.check_solution(fused, inputs, targets)

    def test_hidden_layers_and_adam_untouched(self):
        fused, adam, inputs, targets = self.trained()
        before = fused.theta.copy()
        moments = (adam._m.copy(), adam._v.copy(), adam._t)
        fused.fit_output_layer(inputs, targets, self.L2)
        hidden = slice(0, fused.theta.size - fused._weights[-1].size - fused._biases[-1].size)
        np.testing.assert_array_equal(fused.theta[hidden], before[hidden])
        assert not np.array_equal(fused.theta[hidden.stop:], before[hidden.stop:])
        np.testing.assert_array_equal(adam._m, moments[0])
        np.testing.assert_array_equal(adam._v, moments[1])
        assert adam._t == moments[2]

    def test_search_refit_draws_no_rng(self, search_sizes):
        """Inside a search, the closed-form refit moves only the output
        layer: the RNG, the hidden layers and Adam's state stay put."""
        search = seeded_search(search_sizes)
        fit_batched([search.take_refit_job()])  # the queued initial fit
        rng_state = search.rng.bit_generator.state
        theta = search._surrogate.theta.copy()
        adam = search._optimizer
        moments = (adam._m.copy(), adam._v.copy(), adam._t)
        search._fit_output_layer()
        assert search.rng.bit_generator.state == rng_state
        surrogate = search._surrogate
        head = theta.size - surrogate._weights[-1].size - surrogate._biases[-1].size
        np.testing.assert_array_equal(search._surrogate.theta[:head], theta[:head])
        assert not np.array_equal(search._surrogate.theta[head:], theta[head:])
        np.testing.assert_array_equal(adam._m, moments[0])
        np.testing.assert_array_equal(adam._v, moments[1])
        assert adam._t == moments[2] > 0

    def test_first_ask_finishes_the_initial_fit_in_closed_form(self, search_sizes):
        """After the initial Adam fit trains, the next ask solves the output
        layer by ridge on the seed rows before it ranks anything."""
        search = seeded_search(search_sizes)
        fit_batched([search.take_refit_job()])  # the queued initial fit
        count = search.evaluations
        assert search.refit_count == 1
        search.ask()
        assert search.refit_count == 2
        surrogate = search._surrogate
        expected = ridge_output_weights(
            hidden_features(surrogate, search._U[:count]),
            search._output_scaler.transform(search._M[:count]),
            trust_region.OUTPUT_RIDGE,
        )
        np.testing.assert_array_equal(output_layer(surrogate), expected.astype(DTYPE))

    def test_initial_fit_finish_draws_no_rng(self, search_sizes):
        """The finish changes what the ask ranks with, never what it draws."""
        finished, unfinished = seeded_search(search_sizes), seeded_search(search_sizes)
        for search in (finished, unfinished):
            fit_batched([search.take_refit_job()])
        unfinished._finish_pending = False
        finished.ask()
        unfinished.ask()
        assert finished.rng.bit_generator.state == unfinished.rng.bit_generator.state
        assert not np.array_equal(
            output_layer(finished._surrogate), output_layer(unfinished._surrogate)
        )

    def test_autodiff_oracle_step_bitwise(self):
        """The oracle's closed-form step lands on the fused weights exactly."""
        model, fused = make_pair(in_features=6, hidden=(48, 48), out_features=5, seed=3)
        inputs, targets = regression_data(count=64, in_features=6, out_features=5)
        fused.fit_output_layer(inputs, targets, self.L2)
        model.fit_output_layer(inputs, targets, self.L2)
        np.testing.assert_array_equal(flat_params(model), fused.theta)
        np.testing.assert_array_equal(
            output_layer(fused),
            ridge_output_weights(hidden_features(fused, inputs), targets, self.L2).astype(DTYPE),
        )


def record_kernel_dtypes(monkeypatch) -> set:
    """Collect the dtype of every array the stacked kernel steps with."""
    seen = set()
    step = fused_module.BatchedFusedMLP.loss_and_grad
    adam_step = fused_module.BatchedFusedAdam.step

    def recording_step(batched, inputs, targets):
        losses = step(batched, inputs, targets)
        scratch = [a for rows in batched._scratch.values() for g in rows for a in g]
        seen.update(a.dtype for a in [inputs, targets, batched.theta, batched._grad,
                                       losses, *scratch])
        return losses

    def recording_adam_step(adam, grad):
        adam_step(adam, grad)
        seen.update(a.dtype for a in [adam._m, adam._v, adam._s1, adam._s2,
                                       adam._bc1, adam._bc2])

    monkeypatch.setattr(fused_module.BatchedFusedMLP, "loss_and_grad", recording_step)
    monkeypatch.setattr(fused_module.BatchedFusedAdam, "step", recording_adam_step)
    return seen


class TestDtypes:
    """The network's buffers stay float32 through every entry point, and
    predictions leave as float64."""

    @staticmethod
    def assert_model_dtypes(model, adam):
        buffers = [model.theta, adam._m, adam._v]
        assert {array.dtype for array in buffers} == {np.dtype(DTYPE)}

    def test_fit_output_layer_and_load_state_dict_keep_float32(self, monkeypatch):
        seen = record_kernel_dtypes(monkeypatch)
        _, fused = make_pair(in_features=6, hidden=(48, 48), out_features=5, seed=3)
        adam = FusedAdam(fused, lr=3e-3)
        inputs, targets = regression_data(count=64, in_features=6, out_features=5)
        fused.fit(inputs, targets, 2, 16, adam, np.random.default_rng(0))
        assert seen == {np.dtype(DTYPE)}
        self.assert_model_dtypes(fused, adam)
        # float64 arrays in, as the search passes them: rounded on the way in.
        fused.fit_output_layer(inputs.astype(np.float64), targets.astype(np.float64), 1e-2)
        fused.load_state_dict(
            {key: value.astype(np.float64) for key, value in fused.state_dict().items()}
        )
        self.assert_model_dtypes(fused, adam)
        prediction = fused.predict(inputs.astype(np.float64))
        assert prediction.dtype == np.float64
        np.testing.assert_array_equal(prediction, fused.predict(inputs))

    def test_fit_batched_buckets_and_lone_jobs_keep_float32(self, monkeypatch):
        seen = record_kernel_dtypes(monkeypatch)
        jobs = []
        for seed, count in ((0, 40), (1, 40), (2, 33)):  # one bucket, one lone job
            model = FusedMLP(4, (8, 8), 3, rng=np.random.default_rng(seed))
            inputs, targets = regression_data(count=count, seed=seed)
            jobs.append(FusedFitJob(model, FusedAdam(model, lr=3e-3),
                                    inputs.astype(np.float64), targets.astype(np.float64),
                                    3, 16, np.random.default_rng(seed)))
        fit_batched(jobs)
        assert seen == {np.dtype(DTYPE)}
        for job in jobs:
            self.assert_model_dtypes(job.model, job.adam)

    def test_search_refit_job_carries_float32(self, monkeypatch, search_sizes):
        seen = record_kernel_dtypes(monkeypatch)
        search = seeded_search(search_sizes)
        job = search.take_refit_job()
        assert job.inputs.dtype == job.targets.dtype == np.dtype(DTYPE)
        fit_batched([job])
        assert seen == {np.dtype(DTYPE)}
        self.assert_model_dtypes(search._surrogate, search._optimizer)
        search._fit_output_layer()
        self.assert_model_dtypes(search._surrogate, search._optimizer)


def capture_surrogates(monkeypatch):
    """Record every (model, optimizer) pair the trust regions build."""
    built = []
    original = TrustRegionSearch._build_surrogate

    def build(search):
        pair = original(search)
        built.append(pair)
        return pair

    monkeypatch.setattr(TrustRegionSearch, "_build_surrogate", build)
    return built


def surrogate_state(model, adam):
    """Flat parameters, Adam moments and step count of either backend."""
    if isinstance(model, FusedMLP):
        return model.theta.copy(), adam._m.copy(), adam._v.copy(), adam._t
    return (
        flat_params(model),
        np.concatenate([m.ravel() for m in adam._m]),
        np.concatenate([v.ravel() for v in adam._v]),
        adam._t,
    )


def record_calls(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name``; each call appends its positional arguments."""
    original = getattr(owner, name)
    calls = []

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def assert_same_surrogates(fused_states, autodiff_states):
    """Bitwise, dtype included, for every surrogate built in build order."""
    assert len(fused_states) == len(autodiff_states) > 0
    for fused_state, autodiff_state in zip(fused_states, autodiff_states):
        *fused_arrays, fused_t = fused_state
        *autodiff_arrays, autodiff_t = autodiff_state
        for fused_array, autodiff_array in zip(fused_arrays, autodiff_arrays):
            assert fused_array.dtype == autodiff_array.dtype == np.dtype(DTYPE)
            np.testing.assert_array_equal(fused_array, autodiff_array)
        assert fused_t == autodiff_t > 0


class TestSearchLevelParity:
    """The autodiff oracle must reproduce every fused search trajectory."""

    @staticmethod
    def run_search(search_sizes):
        """The toy CSP through a one-seed campaign; returns the phase
        optimizer."""
        from repro.core.design_space import DesignSpace, Parameter
        from repro.search import Spec, Specification, TrustRegionConfig

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
        # A target disc of radius 0.02: the 24-row Monte-Carlo seed misses
        # it, so the search refits (full and closed-form) before it solves.
        spec = Specification([Spec("a", ">=", 0.9996), Spec("b", "<=", 0.0004)], ["a", "b"])
        search_sizes(
            batch_size=6, candidate_pool=128, surrogate_hidden=(24, 24),
            initial_epochs=60, refit_epochs=15,
        )
        config = TrustRegionConfig(seed=0, max_evaluations=300)
        return run_in_campaign(evaluator, space, spec, config)

    def test_toy_csp_trajectories_identical(self, oracles, monkeypatch, search_sizes):
        """A one-seed campaign, whose refits each train as a one-job
        dispatch, reaches the same rows and surrogate bits on the oracle."""
        built = capture_surrogates(monkeypatch)
        search = self.run_search(search_sizes)
        fused = search.result()
        fused_states = [surrogate_state(*pair) for pair in built]
        oracles.autodiff_surrogate()
        built = capture_surrogates(monkeypatch)
        fits = record_calls(monkeypatch, MLP, "fit")
        closed_form = record_calls(monkeypatch, MLP, "fit_output_layer")
        oracle_search = self.run_search(search_sizes)
        autodiff = oracle_search.result()
        assert oracle_search.refit_count == search.refit_count > len(fits) > 0
        assert closed_form
        assert all(isinstance(model, MLP) for model, _ in built)
        assert fused.evaluations == autodiff.evaluations
        assert fused.best_score == autodiff.best_score
        np.testing.assert_array_equal(fused.best_vector, autodiff.best_vector)
        assert len(fused.history) == len(autodiff.history)
        assert_same_surrogates(fused_states, [surrogate_state(*pair) for pair in built])

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

        built = capture_surrogates(monkeypatch)
        fused = fingerprint()
        fused_states = [surrogate_state(*pair) for pair in built]
        oracles.autodiff_surrogate()
        built = capture_surrogates(monkeypatch)
        fits = record_calls(monkeypatch, MLP, "fit")
        assert fused["batched_kernel_calls"] > 0
        assert fingerprint() == fused
        assert len(fits) > len(seeds)
        assert all(isinstance(model, MLP) for model, _ in built)
        assert_same_surrogates(fused_states, [surrogate_state(*pair) for pair in built])

    def test_two_stage_demo_seed0_backend_parity(self, oracles, monkeypatch):
        """The demo reaches the same sizing on the autodiff oracle, through
        closed-form output-layer refits as well as full ones."""
        from repro.search.opamp_demo import DEFAULT_SPECS
        from repro.search.sizing import size_problem

        built = capture_surrogates(monkeypatch)
        fused = size_problem("two_stage_opamp", specs=DEFAULT_SPECS, seed=0)
        fused_states = [surrogate_state(*pair) for pair in built]
        oracles.autodiff_surrogate()
        built = capture_surrogates(monkeypatch)
        calls = record_calls(monkeypatch, MLP, "fit_output_layer")
        autodiff = size_problem("two_stage_opamp", specs=DEFAULT_SPECS, seed=0)
        assert calls
        assert fused.solved_all_corners and autodiff.solved_all_corners
        assert fused.evaluations == autodiff.evaluations
        np.testing.assert_array_equal(fused.best_vector, autodiff.best_vector)
        assert all(isinstance(model, MLP) for model, _ in built)
        assert_same_surrogates(fused_states, [surrogate_state(*pair) for pair in built])
        # The fast path must actually be faster on the identical trajectory.
        assert fused.refit_seconds < autodiff.refit_seconds
