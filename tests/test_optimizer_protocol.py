"""Ask/tell protocol: oracle parity, baselines, Campaign, serialization.

The heart of this file is the *pre-refactor oracle*: the historical
monolithic trust-region loop (as it shipped before the ask/tell redesign),
re-expressed over the primitives both versions share
(``oracles.search.evaluate_new``, ``_refit_surrogate``,
``_scheduled_refit``, ``take_refit_job``, ``_rank_candidates``).  The
ask/tell optimizer driven by a one-corner Campaign must reproduce it step
for step — same evaluated rows in the same order, same history, same
incumbent — across every registered topology.
"""

import json

import numpy as np
import pytest

from conftest import run_in_campaign
from oracles.search import evaluate_new
from repro.circuits.pvt import NOMINAL, hardest_condition, nine_corner_grid
from repro.circuits.topologies import available_topologies, get_topology
from repro.core.design_space import DesignSpace, Parameter
from repro.nn.fused import fit_batched
from repro.search import (
    Campaign,
    CrossEntropySearch,
    EvaluationHandle,
    ProgressiveConfig,
    RandomSearch,
    Spec,
    Specification,
    TrustRegionConfig,
    TrustRegionSearch,
    available_optimizers,
    build_campaign,
    get_optimizer,
    register_optimizer,
    size_problem,
)
from repro.search import trust_region
from repro.search.optimizer import FEASIBLE_TOL, IterationRecord


# ----------------------------------------------------------------------
# The pre-refactor oracle: the monolithic Algorithm-1 loop of PR 1-4.


def oracle_run(search, evaluator):
    """Run the historical closed loop on a fresh TrustRegionSearch.

    This is a faithful transcription of the pre-ask/tell ``run()`` body —
    Monte-Carlo seed, initial refit, trust-region iterations with ranked
    proposals, Monte-Carlo fallback, conditional refit, radius adaptation —
    driving the same internals the refactored optimizer uses.  The refit
    primitives queue a full refit, so each iteration first trains the job
    the last refit queued, before it draws anything.
    """
    config = search.config
    seed_points = search.design_space.sample(search.rng, config.initial_samples)
    if search._initial_points is not None:
        seed_points = np.vstack([search._initial_points, seed_points])
    evaluate_new(search, evaluator, seed_points, limit=config.max_evaluations)

    radius = trust_region.INITIAL_RADIUS
    history = []
    if search._scores[search._best] < FEASIBLE_TOL:
        search._refit_surrogate(epochs=config.initial_epochs)

    while (
        search._scores[search._best] < FEASIBLE_TOL
        and search._count < config.max_evaluations
    ):
        job = search.take_refit_job()
        if job is not None:
            fit_batched([job])
        center = search._X[search._best]
        space = search.design_space
        candidates = space.grid_values(
            space.sample_ball_index(search.rng, center, radius, config.candidate_pool)
        )
        order = search._rank_candidates(space.to_unit(candidates), keep=4 * config.batch_size)
        previous = search._scores[search._best]
        step = min(config.batch_size, config.max_evaluations - search._count)
        added = evaluate_new(search, evaluator, candidates[order], limit=step)
        if added == 0:
            added = evaluate_new(
                search,
                evaluator,
                search.design_space.sample(search.rng, config.batch_size),
                limit=step,
            )
            if added == 0:
                break
        improved = search._scores[search._best] > previous + 1e-12
        will_continue = (
            search._scores[search._best] < FEASIBLE_TOL
            and search._count < config.max_evaluations
        )
        if will_continue:
            search._scheduled_refit()
        if improved:
            radius = min(radius * trust_region.EXPAND, trust_region.MAX_RADIUS)
        else:
            radius = max(radius * trust_region.SHRINK, trust_region.MIN_RADIUS)
        history.append(
            IterationRecord(
                evaluations=search._count,
                radius=radius,
                best_score=float(search._scores[search._best]),
                improved=bool(improved),
            )
        )
    return history


def toy_evaluator(samples):
    """Two metrics shaped so feasibility needs x near (0.7, 0.3)."""
    samples = np.atleast_2d(samples)
    x, y = samples[:, 0], samples[:, 1]
    metric_a = 1.0 - (x - 0.7) ** 2 - (y - 0.3) ** 2
    metric_b = (x - 0.7) ** 2 + (y - 0.3) ** 2
    return np.stack([metric_a, metric_b], axis=1)


def toy_space():
    return DesignSpace(
        [
            Parameter("x", 0.0, 1.0, grid_points=101),
            Parameter("y", 0.0, 1.0, grid_points=101),
        ]
    )


def toy_spec(feasible=True):
    if feasible:
        return Specification(
            [Spec("a", ">=", 0.99), Spec("b", "<=", 0.01)], ["a", "b"]
        )
    return Specification([Spec("a", ">=", 10.0)], ["a", "b"])  # unsatisfiable


def train_queued(search):
    """What the Campaign does after every round: pop the queued refit, if
    any, and train it."""
    job = search.take_refit_job()
    if job is not None:
        fit_batched([job])


class TestQueuedRefit:
    """``tell`` queues a full refit; ``ask`` refuses to run until the
    driver has popped and trained it."""

    @staticmethod
    def config(**overrides):
        return TrustRegionConfig(
            **{
                "seed": 1, "initial_samples": 12, "batch_size": 5, "candidate_pool": 32,
                "max_evaluations": 200, "surrogate_hidden": (8,),
                "initial_epochs": 10, "refit_epochs": 5, **overrides,
            }
        )

    def make_search(self):
        return TrustRegionSearch(toy_space(), toy_spec(False), self.config())

    def test_bare_ask_tell_loop_matches_run(self):
        """A hand-written loop that trains each queued job before the next
        ask reproduces the Campaign-driven run bit for bit."""
        reference = run_in_campaign(toy_evaluator, toy_space(), toy_spec(False), self.config())
        result = reference.result()
        bare = self.make_search()
        while not bare.is_done:
            rows = bare.ask()
            if rows.shape[0] == 0:
                break
            bare.tell(rows, toy_evaluator(rows))
            train_queued(bare)
        np.testing.assert_array_equal(
            bare._X[: bare.evaluations], reference._X[: reference.evaluations]
        )
        np.testing.assert_array_equal(
            bare._M[: bare.evaluations], reference._M[: reference.evaluations]
        )
        assert bare.result().history == result.history
        assert any(record.restarted for record in result.history)
        assert bare.refit_count == reference.refit_count > 0
        np.testing.assert_array_equal(bare._surrogate.theta, reference._surrogate.theta)
        np.testing.assert_array_equal(bare._optimizer._m, reference._optimizer._m)
        assert bare._optimizer._t == reference._optimizer._t > 0
        assert bare.rng.bit_generator.state == reference.rng.bit_generator.state

    def test_ask_with_a_queued_refit_raises(self):
        search = self.make_search()
        rows = search.ask()
        search.tell(rows, toy_evaluator(rows))
        state = search.rng.bit_generator.state
        with pytest.raises(RuntimeError, match=r"cannot ask with a queued refit"):
            search.ask()
        assert search.rng.bit_generator.state == state  # nothing was drawn
        train_queued(search)
        assert search.ask().shape[0] > 0

    def test_no_initial_fit_once_the_seed_spent_the_budget(self):
        search = run_in_campaign(
            toy_evaluator, toy_space(), toy_spec(False),
            self.config(initial_samples=48, max_evaluations=40),
        )
        assert search.result().evaluations == 40
        assert search.refit_count == 0
        assert search._surrogate is None
        assert search.take_refit_job() is None


class TestTrajectoryLockVsOracle:
    """Campaign-driven ask/tell search == pre-refactor monolithic loop,
    bitwise."""

    def assert_same_trajectory(
        self, evaluator, space, spec, config, initial_points=None
    ):
        new = run_in_campaign(evaluator, space, spec, config, initial_points=initial_points)
        result = new.result()
        old = TrustRegionSearch(space, spec, config, initial_points=initial_points)
        oracle_history = oracle_run(old, evaluator)
        # Step-for-step: every evaluated row, in evaluation order.
        assert new._count == old._count
        np.testing.assert_array_equal(new._X[: new._count], old._X[: old._count])
        np.testing.assert_array_equal(new._M[: new._count], old._M[: old._count])
        assert new._best == old._best
        assert result.history == oracle_history
        np.testing.assert_array_equal(result.best_vector, old._X[old._best])
        assert result.evaluations == old._count

    @pytest.mark.parametrize("topology", sorted(available_topologies()))
    def test_all_topologies_at_hardest_corner(self, topology):
        problem_cls = get_topology(topology)
        problem = problem_cls(condition=hardest_condition(nine_corner_grid()))
        spec = Specification(problem.default_specs()["smoke"], problem.METRIC_NAMES)
        config = TrustRegionConfig(seed=0, max_evaluations=150)
        self.assert_same_trajectory(
            problem.evaluate_batch, problem.design_space(), spec, config
        )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_toy_csp(self, seed):
        config = TrustRegionConfig(
            seed=seed, initial_samples=24, batch_size=6, candidate_pool=128,
            max_evaluations=200, surrogate_hidden=(24, 24),
            initial_epochs=60, refit_epochs=15,
        )
        self.assert_same_trajectory(toy_evaluator, toy_space(), toy_spec(), config)

    def test_unsatisfiable_exhausts_budget_identically(self):
        """Locks the fallback-sampling and budget-clamp paths too."""
        config = TrustRegionConfig(
            seed=1, initial_samples=12, batch_size=5, candidate_pool=32,
            max_evaluations=60, surrogate_hidden=(8,),
            initial_epochs=10, refit_epochs=5,
        )
        space = DesignSpace(
            [Parameter("x", 0.0, 1.0, grid_points=21),
             Parameter("y", 0.0, 1.0, grid_points=21)]
        )
        self.assert_same_trajectory(toy_evaluator, space, toy_spec(False), config)

    def test_warm_start_points_identical(self):
        config = TrustRegionConfig(
            seed=2, initial_samples=16, batch_size=4, candidate_pool=64,
            max_evaluations=80, surrogate_hidden=(16,),
            initial_epochs=20, refit_epochs=8,
        )
        warm = np.array([[0.5, 0.5], [0.7, 0.3]])
        self.assert_same_trajectory(
            toy_evaluator, toy_space(), toy_spec(), config, initial_points=warm
        )


class TestAskTellProtocol:
    def make(self, cls=TrustRegionSearch, feasible=True, **config_kwargs):
        defaults = dict(
            seed=0, initial_samples=16, batch_size=4, candidate_pool=64,
            max_evaluations=120, surrogate_hidden=(16,),
            initial_epochs=20, refit_epochs=8,
        )
        defaults.update(config_kwargs)
        return cls(toy_space(), toy_spec(feasible), TrustRegionConfig(**defaults))

    @pytest.mark.parametrize(
        "cls", [TrustRegionSearch, RandomSearch, CrossEntropySearch]
    )
    def test_ask_returns_new_on_grid_rows_within_budget(self, cls):
        opt = self.make(cls, feasible=False, max_evaluations=30)
        space = opt.design_space
        seen = set()
        while not opt.is_done:
            rows = opt.ask()
            if rows.shape[0] == 0:
                break
            assert rows.shape[0] <= 30 - opt.evaluations
            np.testing.assert_allclose(space.snap(rows), rows, rtol=1e-12)
            for row in rows:
                key = row.tobytes()
                assert key not in seen  # never proposes a repeat
                seen.add(key)
            opt.tell(rows, toy_evaluator(rows))
            train_queued(opt)
        assert opt.evaluations <= 30

    @pytest.mark.parametrize(
        "cls", [TrustRegionSearch, RandomSearch, CrossEntropySearch]
    )
    def test_best_and_is_done(self, cls):
        opt = self.make(cls)
        assert opt.best is None and not opt.is_done
        rows = opt.ask()
        opt.tell(rows, toy_evaluator(rows))
        train_queued(opt)
        incumbent = opt.best
        assert incumbent is not None
        assert incumbent.vector.shape == (2,)
        assert incumbent.score == opt.specification.score(
            incumbent.metrics[np.newaxis, :]
        )[0]
        # Feeding a feasible point ends the search.
        driven = self.make(cls)
        while not driven.is_done:
            batch = driven.ask()
            if batch.shape[0] == 0:
                break
            driven.tell(batch, toy_evaluator(batch))
            train_queued(driven)
        assert driven.is_done
        result = driven.result()
        assert result.solved == (result.best_score >= FEASIBLE_TOL)

    def test_result_before_any_tell_raises(self):
        opt = TrustRegionSearch(toy_space(), toy_spec(), TrustRegionConfig())
        with pytest.raises(RuntimeError, match="no evaluations"):
            opt.result()


class TestBaselines:
    def config(self, **kwargs):
        defaults = dict(seed=0, initial_samples=32, batch_size=8, max_evaluations=400)
        defaults.update(kwargs)
        return TrustRegionConfig(**defaults)

    def test_random_search_solves_easy_csp(self):
        spec = Specification(
            [Spec("a", ">=", 0.9), Spec("b", "<=", 0.1)], ["a", "b"]
        )
        result = run_in_campaign(
            toy_evaluator, toy_space(), spec, self.config(), optimizer="random"
        ).result()
        assert result.solved
        assert result.evaluations <= 400
        assert result.refit_seconds == 0.0

    def test_cross_entropy_solves_toy_csp(self):
        result = run_in_campaign(
            toy_evaluator, toy_space(), toy_spec(), self.config(max_evaluations=600),
            optimizer="cross_entropy",
        ).result()
        assert result.solved
        assert abs(result.best_sizing["x"] - 0.7) < 0.1
        assert abs(result.best_sizing["y"] - 0.3) < 0.1

    @pytest.mark.parametrize(
        "name", ["random", "cross_entropy"], ids=["RandomSearch", "CrossEntropySearch"]
    )
    def test_reproducible_and_budgeted(self, name):
        config = self.config(seed=7, max_evaluations=100)
        spec = toy_spec(feasible=False)
        first, second = (
            run_in_campaign(toy_evaluator, toy_space(), spec, config, optimizer=name).result()
            for _ in range(2)
        )
        np.testing.assert_array_equal(first.best_vector, second.best_vector)
        assert first.evaluations == second.evaluations == 100
        assert not first.solved

    def test_baselines_terminate_on_tiny_exhausted_grid(self):
        space = DesignSpace([Parameter("x", 0.0, 1.0, grid_points=5)])
        spec = Specification([Spec("a", ">=", 10.0)], ["a"])  # unsatisfiable

        def evaluator(samples):
            return np.atleast_2d(samples)[:, :1] * 0.0

        for name in ("random", "cross_entropy"):
            result = run_in_campaign(
                evaluator, space, spec, self.config(max_evaluations=50), optimizer=name
            ).result()
            assert result.evaluations <= 5  # the whole grid


class TestOptimizerRegistry:
    def test_builtin_optimizers_registered(self):
        assert {"trust_region", "random", "cross_entropy"} <= set(
            available_optimizers()
        )
        assert get_optimizer("trust_region") is TrustRegionSearch
        assert get_optimizer("random") is RandomSearch

    def test_unknown_optimizer_lists_available(self):
        with pytest.raises(KeyError, match="trust_region"):
            get_optimizer("gradient_descent")

    def test_reregistration_conflicts_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_optimizer("random", CrossEntropySearch)
        # Same class under the same name is an idempotent no-op.
        assert register_optimizer("random", RandomSearch) is RandomSearch

    def test_progressive_config_validates_optimizer(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            ProgressiveConfig(optimizer="gradient_descent")


class TestCampaignParity:
    """Multi-seed vectorized execution is bitwise-identical per seed."""

    TRUST = TrustRegionConfig(seed=0, max_evaluations=200)
    CONFIG = ProgressiveConfig(TRUST)

    def test_multi_seed_campaign_matches_sequential(self):
        seeds = [0, 1, 2]
        sequential = [
            size_problem("ota_5t", tier="smoke", config=self.CONFIG, seed=s)
            for s in seeds
        ]
        campaign = build_campaign(
            "ota_5t", tier="smoke", config=self.CONFIG, seeds=seeds
        ).run()
        assert campaign.seeds == seeds
        for expected, got in zip(sequential, campaign.results):
            np.testing.assert_array_equal(expected.best_vector, got.best_vector)
            assert expected.evaluations == got.evaluations
            assert expected.solved_all_corners == got.solved_all_corners
            assert len(expected.phase_results) == len(got.phase_results)
            # Corner verification is bit-exact too, not just the winner.
            assert [r.metrics for r in expected.corner_reports] == [
                r.metrics for r in got.corner_reports
            ]
            assert [r.satisfied for r in expected.corner_reports] == [
                r.satisfied for r in got.corner_reports
            ]
            # Every requested (row, corner) pair is booked exactly once,
            # whether its pass was shared or not.
            assert (
                expected.cache_hits + expected.cache_misses
                == got.cache_hits + got.cache_misses
            )

    def test_multi_seed_batches_fewer_engine_calls(self, monkeypatch):
        seeds = [0, 1, 2]
        sequential_calls = sum(
            size_problem(
                "ota_5t", tier="smoke", config=self.CONFIG, seed=s
            ).engine_calls
            for s in seeds
        )
        # (round, corner set, engine calls) of every stacked pass.
        passes = []
        run_group = Campaign._run_group

        def recording(driver, grouped):
            before = driver.cache.engine_calls
            run_group(driver, grouped)
            calls = driver.cache.engine_calls - before
            passes.append((driver.rounds, tuple(grouped[0][2]), calls))

        monkeypatch.setattr(Campaign, "_run_group", recording)
        campaign = build_campaign(
            "ota_5t", tier="smoke", config=self.CONFIG, seeds=seeds
        ).run()
        assert campaign.engine_calls < sequential_calls
        # At most one engine call per distinct corner set in a round.
        assert sum(calls for _, _, calls in passes) == campaign.engine_calls
        assert all(calls <= 1 for _, _, calls in passes)
        keys = [(round_, corners) for round_, corners, _ in passes]
        assert len(set(keys)) == len(keys)
        assert any(calls for _, corners, calls in passes if len(corners) > 1)

    def test_single_seed_campaign_keeps_sequential_accounting(self):
        result = size_problem("ota_5t", tier="smoke", config=self.CONFIG, seed=0)
        assert result.cache_misses > 0
        assert result.engine_calls > 0
        assert result.eval_seconds > 0.0

    def test_campaign_consumes_evaluation_handle(self):
        problem = get_topology("ota_5t")()
        handle = problem.evaluation_handle()
        assert isinstance(handle, EvaluationHandle)
        assert handle.metric_names == tuple(problem.METRIC_NAMES)
        campaign = Campaign(
            handle,
            problem.default_specs()["smoke"],
            corners=[NOMINAL],
            config=ProgressiveConfig(trust_region=self.TRUST, max_phases=1),
            seeds=[0],
        )
        outcome = campaign.run()
        direct = size_problem(
            "ota_5t", tier="smoke", corners=[NOMINAL],
            config=self.CONFIG, max_phases=1,
        )
        np.testing.assert_array_equal(
            outcome.results[0].best_vector, direct.best_vector
        )

    def test_campaign_with_baseline_optimizer(self):
        campaign = build_campaign(
            "ota_5t", tier="smoke", corners=[NOMINAL],
            config=ProgressiveConfig(self.TRUST, max_phases=1, optimizer="random"),
            seeds=[0, 1],
        ).run()
        assert all(r.solved_all_corners for r in campaign.results)
        assert campaign.results[0].refit_seconds == 0.0

    def test_multi_seed_computes_no_extra_pairs(self):
        """Grouped batching never evaluates (row, corner) pairs the
        sequential loop would not have — a verifying seed must not drag
        other seeds' search batches through the full grid."""
        seeds = [0, 1, 2]
        sequential_misses = sum(
            size_problem(
                "ota_5t", tier="smoke", config=self.CONFIG, seed=s
            ).cache_misses
            for s in seeds
        )
        campaign = build_campaign(
            "ota_5t", tier="smoke", config=self.CONFIG, seeds=seeds
        ).run()
        # <= not ==: rows shared across seeds (if any) dedup in the shared
        # cache, so the campaign can only compute fewer pairs, never more.
        assert campaign.cache_misses <= sequential_misses

    def test_campaign_rejects_degenerate_inputs(self):
        problem = get_topology("ota_5t")()
        handle = problem.evaluation_handle()
        specs = problem.default_specs()["smoke"]
        with pytest.raises(ValueError, match="at least one seed"):
            Campaign(handle, specs, seeds=[])
        with pytest.raises(ValueError, match="max_phases"):
            Campaign(
                handle, specs,
                config=ProgressiveConfig(max_phases=0), seeds=[0],
            )


class TestCustomOptimizerIntegration:
    """The README "write your own optimizer" path actually works end to end."""

    def test_registered_custom_optimizer_runs_in_campaign(self):
        from repro.search import DatasetOptimizer
        from repro.search.optimizer import _OPTIMIZERS

        class GridWalk(DatasetOptimizer):
            """Toy strategy: uniform draws, double batch each round."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._draw = self.config.batch_size

            def ask(self):
                if self.is_done:
                    return self._empty_batch()
                rows, _ = self._select_new(
                    self.design_space.sample(self.rng, self._draw),
                    limit=self._budget_left(),
                )
                self._draw *= 2
                if rows.shape[0] == 0:
                    self._done = True
                return rows

        register_optimizer("grid_walk", GridWalk)
        try:
            result = size_problem(
                "ota_5t", tier="smoke", corners=[NOMINAL],
                config=ProgressiveConfig(TrustRegionConfig(seed=0, max_evaluations=300)),
                optimizer="grid_walk", max_phases=1,
            )
            assert result.solved_all_corners
        finally:
            _OPTIMIZERS.pop("grid_walk", None)


class TestResultSerialization:
    def test_search_result_to_dict_round_trips_json(self):
        spec = Specification(
            [Spec("a", ">=", 0.9), Spec("b", "<=", 0.1)], ["a", "b"]
        )
        result = run_in_campaign(
            toy_evaluator, toy_space(), spec,
            TrustRegionConfig(seed=0, initial_samples=32, max_evaluations=200),
            optimizer="random",
        ).result()
        payload = result.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["solved"] is True
        assert payload["evaluations"] == result.evaluations
        assert payload["iterations"] == len(result.history)
        assert set(payload["best_sizing"]) == {"x", "y"}

    def test_progressive_result_to_dict_round_trips_json(self):
        result = size_problem(
            "ota_5t", tier="smoke", corners=[NOMINAL],
            config=ProgressiveConfig(TrustRegionConfig(seed=0, max_evaluations=200)),
            max_phases=1,
        )
        payload = result.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["solved"] == result.solved_all_corners
        assert payload["phases"] == len(result.phase_results)
        assert payload["failing_corners"] == [
            c.name for c in result.failing_corners()
        ]
        assert payload["engine_calls"] == result.engine_calls
