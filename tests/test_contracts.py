"""Runtime contracts: free when off, strict when on, trajectory-neutral.

Covers the :func:`repro.analysis.contract` decorator mechanics (shape/dtype
specs with symbolic dimensions, argument freezing, pre/post hooks), the
read-only hardening of :class:`EvaluationCache` results (unconditional — a
caller mutating a hit in place must fault, not corrupt the shared cache),
deterministic RNG resolution, and the lock that matters most: enabling
contracts changes *nothing* about a search trajectory.
"""

import numpy as np
import pytest

from repro.analysis import (
    ArraySpec,
    ContractViolation,
    SeqLen,
    contract,
    contracts,
    contracts_enabled,
    hot_path,
    set_contracts,
)
from repro.circuits.pvt import nine_corner_grid
from repro.circuits.topologies import SizingProblem
from oracles.nn import DEFAULT_SEED, MLP, Linear, resolve_rng
from repro.core.design_space import DesignSpace, Parameter
from repro.search import (
    EvaluationCache,
    ProgressiveConfig,
    Spec,
    Specification,
    TrustRegionConfig,
    get_optimizer,
)
from repro.search.sizing import size_problem


@pytest.fixture
def checking():
    """Run the test with contracts enabled, restoring prior state."""
    with contracts(True):
        yield


class TestToggle:
    def test_context_manager_scopes_and_restores(self):
        before = contracts_enabled()
        with contracts(True):
            assert contracts_enabled()
            with contracts(False):
                assert not contracts_enabled()
            assert contracts_enabled()
        assert contracts_enabled() == before

    def test_set_contracts_returns_previous_state(self):
        previous = set_contracts(True)
        try:
            assert set_contracts(True) is True
        finally:
            set_contracts(previous)

    def test_disabled_wrapper_is_a_no_op(self):
        @contract(args={"x": ArraySpec(2, 2)})
        def f(x):
            return x

        with contracts(False):
            # Wrong everything: not even an ndarray.  Must sail through.
            assert f("not an array") == "not an array"

    def test_hot_path_marker_is_inert(self):
        @hot_path
        def f(x):
            return x + 1

        assert f(1) == 2
        assert f.__hot_path__ is True


class TestArraySpec:
    @staticmethod
    def make(spec):
        @contract(args={"x": spec})
        def f(x):
            return x

        return f

    def test_rejects_non_array(self, checking):
        with pytest.raises(ContractViolation, match="expected an ndarray"):
            self.make(ArraySpec(None))([1.0, 2.0])

    def test_rejects_wrong_dtype(self, checking):
        with pytest.raises(ContractViolation, match="dtype"):
            self.make(ArraySpec(None))(np.zeros(3, dtype=np.float32))

    def test_dtype_none_skips_dtype(self, checking):
        f = self.make(ArraySpec(None, dtype=None))
        assert f(np.zeros(3, dtype=np.int64)).dtype == np.int64

    def test_rejects_wrong_ndim(self, checking):
        with pytest.raises(ContractViolation, match="axes"):
            self.make(ArraySpec(None, None))(np.zeros(3))

    def test_rejects_wrong_fixed_dim(self, checking):
        with pytest.raises(ContractViolation, match="axis 1"):
            self.make(ArraySpec(None, 4))(np.zeros((2, 3)))

    def test_accepts_matching_array(self, checking):
        value = np.zeros((2, 4))
        assert self.make(ArraySpec(None, 4))(value) is value

    def test_symbolic_dims_must_agree_across_arguments(self, checking):
        @contract(args={"a": ArraySpec("n", None), "b": ArraySpec("n", None)})
        def f(a, b):
            return a

        f(np.zeros((3, 1)), np.zeros((3, 5)))
        with pytest.raises(ContractViolation, match="'n'"):
            f(np.zeros((3, 1)), np.zeros((4, 5)))

    def test_return_value_validated_against_argument_bindings(self, checking):
        @contract(args={"corners": SeqLen("c")}, returns=ArraySpec("c", None, None))
        def f(samples, corners):
            return np.zeros((len(corners) + 1, 2, 3))

        with pytest.raises(ContractViolation, match="return value"):
            f(np.zeros((2, 3)), [1, 2])

    def test_seqlen_rejects_unsized(self, checking):
        @contract(args={"corners": SeqLen("c")})
        def f(corners):
            return corners

        with pytest.raises(ContractViolation, match="sized sequence"):
            f(iter([1, 2]))


class TestFrozenArguments:
    def test_mutation_inside_the_call_faults(self, checking):
        @contract(frozen=("x",))
        def f(x):
            x[0] = 99.0

        value = np.zeros(3)
        with pytest.raises(ValueError, match="read-only"):
            f(value)
        # Writeability restored even though the call raised.
        assert value.flags.writeable
        value[0] = 1.0

    def test_writeability_restored_after_clean_call(self, checking):
        @contract(frozen=("x",))
        def f(x):
            return x.sum()

        value = np.arange(3.0)
        assert f(value) == 3.0
        assert value.flags.writeable

    def test_already_readonly_input_stays_readonly(self, checking):
        @contract(frozen=("x",))
        def f(x):
            return x

        value = np.zeros(3)
        value.flags.writeable = False
        f(value)
        assert not value.flags.writeable

    def test_freeze_result(self, checking):
        @contract(freeze_result=True)
        def f():
            return np.zeros(3)

        result = f()
        with pytest.raises(ValueError, match="read-only"):
            result[0] = 1.0


class TestHooks:
    def test_pre_hook_sees_bound_arguments(self, checking):
        @contract(pre=lambda a: None if a["n"] > 0 else f"n must be positive, got {a['n']}")
        def f(n=0):
            return n

        assert f(n=2) == 2
        with pytest.raises(ContractViolation, match="n must be positive, got 0"):
            f()

    def test_check_hook_sees_result(self, checking):
        @contract(check=lambda a, r: None if r >= a["x"] else "shrank")
        def f(x):
            return x - 1

        with pytest.raises(ContractViolation, match="shrank"):
            f(1)

    def test_unknown_parameter_rejected_at_decoration_time(self):
        with pytest.raises(TypeError, match="unknown parameters: typo"):

            @contract(args={"typo": ArraySpec(None)})
            def f(x):
                return x


class TestTellNovelty:
    """A told row must be new to the optimizer's dataset."""

    @staticmethod
    def make_optimizer(name):
        space = DesignSpace(
            [Parameter(name, 0.0, 1.0, grid_points=11) for name in ("x", "y")]
        )
        spec = Specification([Spec("s", ">=", 5.0)], ["s"])
        return get_optimizer(name)(space, spec, TrustRegionConfig(seed=0))

    @pytest.mark.parametrize("name", ["random", "cross_entropy", "trust_region"])
    def test_double_tell_raises(self, checking, name):
        optimizer = self.make_optimizer(name)
        rows = optimizer.ask()
        metrics = rows.sum(axis=1, keepdims=True)
        optimizer.tell(rows, metrics)
        with pytest.raises(ContractViolation, match="already in the dataset"):
            optimizer.tell(rows, metrics)

    def test_repeated_row_in_one_tell_raises(self, checking):
        optimizer = self.make_optimizer("random")
        rows = optimizer.ask()
        doubled = np.vstack([rows, rows[:1]])
        with pytest.raises(ContractViolation, match="more than once"):
            optimizer.tell(doubled, doubled.sum(axis=1, keepdims=True))

    def test_fresh_tells_pass(self, checking):
        optimizer = self.make_optimizer("random")
        for _ in range(3):
            rows = optimizer.ask()
            optimizer.tell(rows, rows.sum(axis=1, keepdims=True))
        assert optimizer.evaluations == len(optimizer._seen)


class TestCacheReadOnly:
    """Satellite (b): cache results are immutable, contracts on or off."""

    @staticmethod
    def make_cache():
        def corner_evaluator(samples, corners):
            samples = np.atleast_2d(samples)
            base = samples.sum(axis=1)
            return np.stack(
                [base[:, np.newaxis] + i for i in range(len(corners))], axis=0
            )

        return EvaluationCache(corner_evaluator, dimension=3, n_metrics=1)

    def test_mutating_a_result_faults_instead_of_corrupting(self):
        cache = self.make_cache()
        corners = nine_corner_grid()[:2]
        samples = np.arange(6.0).reshape(2, 3)
        with contracts(False):  # hardening must hold even with contracts off
            block = cache.evaluate(samples, corners)
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0, 0] = -1.0
            # The cached rows survived the attempted mutation bit for bit.
            again = cache.evaluate(samples, corners)
        np.testing.assert_array_equal(block, again)
        assert cache.hits == 4

    def test_hit_served_blocks_are_also_readonly(self):
        cache = self.make_cache()
        corners = nine_corner_grid()[:1]
        samples = np.zeros((1, 3))
        cache.evaluate(samples, corners)
        hit = cache.evaluate(samples, corners)
        with pytest.raises(ValueError, match="read-only"):
            hit[0, 0, 0] = -1.0

    def test_state_digest_is_content_addressed(self):
        first, second = self.make_cache(), self.make_cache()
        corners = nine_corner_grid()[:2]
        samples = np.arange(6.0).reshape(2, 3)
        first.evaluate(samples, corners)
        # Same content in a different insertion order digests equal.
        second.evaluate(samples[1:], corners)
        second.evaluate(samples, corners)
        assert first.state_digest() == second.state_digest()
        second.evaluate(np.full((1, 3), 7.0), corners)
        assert first.state_digest() != second.state_digest()

    def test_contract_rejects_mismatched_block(self, checking):
        def bad_evaluator(samples, corners):
            return np.zeros((len(corners) + 1, np.atleast_2d(samples).shape[0], 1))

        cache = EvaluationCache(bad_evaluator, dimension=3, n_metrics=1)
        with pytest.raises((ContractViolation, ValueError)):
            cache.evaluate(np.zeros((1, 3)), nine_corner_grid()[:2])


class OneColumnShort(SizingProblem):
    """A toy topology whose metric assembly drops a column."""

    name = "one_column_short"
    VARIABLE_NAMES = ("x",)
    METRIC_NAMES = ("a", "b")

    def design_space(self):
        return DesignSpace([Parameter("x", 0.0, 1.0, grid_points=11)])

    def default_specs(self):
        return {}

    def _small_signal_parts(self, samples, card, temperature_c):
        return {"gm": card.kp_n * samples[:, 0], "temperature": temperature_c}

    def _metrics_from_parts(self, parts):
        return self._stack_metrics(parts["gm"] * parts["temperature"])


class TestTopologyHooks:
    """A topology is its two hooks; both evaluators are the base class's."""

    @pytest.mark.parametrize("hook", ["_small_signal_parts", "_metrics_from_parts"])
    def test_topology_without_a_hook_cannot_be_built(self, hook):
        members = {
            key: value
            for key, value in vars(OneColumnShort).items()
            if not key.startswith("__") and key != hook
        }
        incomplete = type("Incomplete", (SizingProblem,), members)
        with pytest.raises(TypeError, match=hook):
            incomplete()

    def test_wrong_metric_count_violates_both_evaluators(self, checking):
        problem = OneColumnShort()
        samples = np.linspace(0.0, 1.0, 4)[:, np.newaxis]
        with pytest.raises(ContractViolation, match="metric axis has 1 columns"):
            problem.evaluate_batch(samples)
        with pytest.raises(ContractViolation, match="metric axis has 1 columns"):
            problem.evaluate_corners(samples, nine_corner_grid()[:3])


class TestSeeding:
    """Satellite (a): no code path falls back to OS entropy."""

    def test_rng_and_seed_together_rejected(self):
        with pytest.raises(ValueError, match="both"):
            resolve_rng(np.random.default_rng(0), seed=1)

    def test_explicit_rng_wins(self):
        rng = np.random.default_rng(123)
        assert resolve_rng(rng) is rng

    def test_seed_builds_matching_generator(self):
        a = resolve_rng(seed=7).standard_normal(4)
        b = np.random.default_rng(7).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_default_is_fixed_seed_not_entropy(self):
        a = resolve_rng().standard_normal(4)
        b = np.random.default_rng(DEFAULT_SEED).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_default_constructed_modules_are_reproducible(self):
        first, second = Linear(3, 2), Linear(3, 2)
        np.testing.assert_array_equal(first.weight.data, second.weight.data)
        first, second = MLP(3, [4], 1), MLP(3, [4], 1)
        for a, b in zip(first.parameters(), second.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_seed_kwarg_reaches_the_initializer(self):
        a, b = Linear(3, 2, seed=5), Linear(3, 2, seed=5)
        c = Linear(3, 2, seed=6)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
        assert not np.array_equal(a.weight.data, c.weight.data)


class TestTrajectoryNeutrality:
    """Contracts observe; they must never steer the search."""

    def test_sizing_run_is_bit_identical_with_contracts_on(self):
        config = ProgressiveConfig(TrustRegionConfig(seed=0, max_evaluations=120))
        with contracts(False):
            off = size_problem("ota_5t", tier="smoke", config=config)
        with contracts(True):
            on = size_problem("ota_5t", tier="smoke", config=config)
        assert off.best_vector.tobytes() == on.best_vector.tobytes()
        assert off.evaluations == on.evaluations
        assert off.best_sizing == on.best_sizing
