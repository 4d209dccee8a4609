"""Trust-region search: spec machinery, smoke CSP, and the opamp demo."""

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import FOLDING, run_in_campaign
from oracles.search import evaluate_new
from repro.bench.registry import get_suite
from repro.circuits.topologies.two_stage import METRIC_NAMES, TwoStageOpAmp
from repro.circuits.pvt import full_corner_grid, hardest_condition, nine_corner_grid
from repro.circuits.topologies import get_topology
from repro.core.design_space import DesignSpace, Parameter
from repro.obs import tracing
from repro.search import (
    ProgressiveConfig,
    Spec,
    Specification,
    TrustRegionConfig,
    TrustRegionSearch,
    build_campaign,
    size_problem,
)
from repro.search.opamp_demo import DEFAULT_SPECS
from repro.search.progressive import _stacked_specification


def _drill_campaign_run(**kwargs):
    (case,) = get_suite("drill")
    return case.build_campaign([0]).run(**kwargs)


#: Every retired setting, as (callable, keyword, the value it used to take):
#: the trust-region radius schedule and surrogate optimiser settings (module
#: constants of repro.search.trust_region), the checkpoint cadence (every
#: round), build_campaign's overrides (its config carries them) and the
#: tracing switch (tracing() always traces).
RETIRED_KEYWORDS = [
    *(
        pytest.param(TrustRegionConfig, keyword, value, id=f"TrustRegionConfig-{keyword}")
        for keyword, value in (
            ("initial_radius", 0.25),
            ("min_radius", 0.02),
            ("max_radius", 0.5),
            ("expand", 1.6),
            ("shrink", 0.5),
            ("learning_rate", 3e-3),
            ("surrogate_batch_size", 64),
        )
    ),
    pytest.param(_drill_campaign_run, "checkpoint_every", 2, id="Campaign.run-checkpoint_every"),
    pytest.param(
        partial(build_campaign, "ota_5t", tier="smoke"), "seed", 1, id="build_campaign-seed"
    ),
    pytest.param(tracing, "enabled", False, id="tracing-enabled"),
]


class TestSpecification:
    def test_margins_and_score(self):
        spec = Specification(
            [Spec("gain", ">=", 100.0), Spec("power", "<=", 2.0)], ["gain", "power"]
        )
        metrics = np.array([[120.0, 1.0], [90.0, 3.0]])
        margins = spec.margins(metrics)
        np.testing.assert_allclose(margins, [[0.2, 0.5], [-0.1, -0.5]])
        np.testing.assert_allclose(spec.score(metrics), [0.0, -0.6])
        np.testing.assert_array_equal(spec.satisfied(metrics), [True, False])

    def test_unknown_metric_rejected(self):
        with pytest.raises(KeyError):
            Specification([Spec("missing", ">=", 1.0)], ["gain"])

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            Spec("gain", ">", 1.0)

    def test_report_lists_failures(self):
        spec = Specification([Spec("gain", ">=", 100.0)], ["gain"])
        assert "FAIL" in spec.report(np.array([50.0]))
        assert "PASS" in spec.report(np.array([150.0]))

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("inf"), float("-inf"), float("nan")])
    def test_bad_scale_rejected(self, scale):
        # A negative scale would invert the constraint and a zero one would
        # fail a sizing sitting exactly at its bound (0 / 0 = nan).
        with pytest.raises(ValueError, match="scale"):
            Spec("gain", ">=", 1.0, scale=scale)

    @pytest.mark.parametrize("bound", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="bound"):
            Spec("gain", "<=", bound)


def reference_margins(specification, metrics):
    """The per-spec oracle: each :meth:`Spec.margin` column, stacked."""
    metrics = np.atleast_2d(np.asarray(metrics, dtype=np.float64))
    columns = [specification.metric_names.index(spec.metric) for spec in specification.specs]
    return np.stack(
        [spec.margin(metrics[:, column]) for spec, column in zip(specification.specs, columns)],
        axis=1,
    )


def assert_matches_reference(specification, metrics):
    """margins/score/satisfied byte-equal to the per-spec reference."""
    margins = reference_margins(specification, metrics)
    got = specification.margins(metrics)
    assert got.flags.c_contiguous
    assert got.shape == margins.shape
    assert got.tobytes() == margins.tobytes()
    score = np.minimum(margins, 0.0).sum(axis=1)
    assert specification.score(metrics).tobytes() == score.tobytes()
    satisfied = np.all(margins >= -1e-9, axis=1)
    assert specification.satisfied(metrics).tobytes() == satisfied.tobytes()


class TestSpecificationBitIdentity:
    """The array margins equal the per-spec reference bit for bit."""

    SPECS = [
        Spec("gain", ">=", 100.0),
        Spec("power", "<=", 2.0),
        Spec("ugbw", ">=", 3e7, scale=1e6),
        Spec("noise", "<=", 0.0),
        Spec("gain", "<=", 140),
    ]
    NAMES = ["power", "gain", "ugbw", "noise"]

    def test_many_rows_both_senses_custom_scale(self):
        specification = Specification(self.SPECS, self.NAMES)
        rng = np.random.default_rng(0)
        metrics = rng.normal(size=(257, 4)) * np.array([1.0, 50.0, 1e7, 1e-3])
        metrics += np.array([2.0, 110.0, 3e7, 0.0])
        assert_matches_reference(specification, metrics)

    def test_values_at_the_bound_give_positive_zero(self):
        specification = Specification(self.SPECS, self.NAMES)
        at_bound = np.array([[2.0, 100.0, 3e7, 0.0], [2.0, 140.0, 3e7, -0.0]])
        assert_matches_reference(specification, at_bound)
        margins = specification.margins(at_bound)
        # Every margin that is zero is +0.0, never -0.0, under either sense.
        zeros = margins[margins == 0.0]
        assert zeros.size >= 6
        assert not np.any(np.signbit(zeros))

    def test_one_row_and_vector_inputs(self):
        specification = Specification(self.SPECS, self.NAMES)
        row = np.array([1.5, 99.0, 2.9e7, 1e-4])
        assert_matches_reference(specification, row)
        assert_matches_reference(specification, row[np.newaxis, :])
        assert specification.margins(row).shape == (1, len(self.SPECS))

    def test_stacked_specification_over_full45(self):
        problem = get_topology("two_stage_opamp")("bsim45")
        specs = problem.default_specs()["nominal"]
        corners = full_corner_grid()
        specification = _stacked_specification(specs, problem.METRIC_NAMES, corners)
        assert len(specification) == len(specs) * len(corners)
        bounds = np.ones(len(specification.metric_names))
        for spec in specification.specs:
            bounds[specification.metric_names.index(spec.metric)] = spec.bound
        rng = np.random.default_rng(1)
        metrics = bounds * (1.0 + 0.2 * rng.standard_normal((64, bounds.size)))
        metrics[::7] = bounds  # rows sitting exactly on every bound
        assert_matches_reference(specification, metrics)
        assert_matches_reference(specification, metrics[3])


def quadratic_evaluator(samples):
    """Toy CSP: two metrics shaped so feasibility needs x near (0.7, 0.3)."""
    samples = np.atleast_2d(samples)
    x, y = samples[:, 0], samples[:, 1]
    metric_a = 1.0 - (x - 0.7) ** 2 - (y - 0.3) ** 2  # want >= 0.99
    metric_b = (x - 0.7) ** 2 + (y - 0.3) ** 2  # want <= 0.01
    return np.stack([metric_a, metric_b], axis=1)


class TestTrustRegionSearch:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("initial_epochs", 0),
            ("refit_epochs", 0),
            ("surrogate_hidden", (0,)),
            ("surrogate_hidden", (48, 0)),
        ],
    )
    def test_config_rejects_inconsistent_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrustRegionConfig(**{field: value})

    def run_search(self, seed=0, max_evaluations=300):
        space = DesignSpace(
            [Parameter("x", 0.0, 1.0, grid_points=101), Parameter("y", 0.0, 1.0, grid_points=101)]
        )
        spec = Specification(
            [Spec("a", ">=", 0.99), Spec("b", "<=", 0.01)], ["a", "b"]
        )
        config = TrustRegionConfig(
            seed=seed,
            initial_samples=24,
            batch_size=6,
            candidate_pool=128,
            max_evaluations=max_evaluations,
            surrogate_hidden=(24, 24),
            initial_epochs=60,
            refit_epochs=15,
        )
        return run_in_campaign(quadratic_evaluator, space, spec, config).result()

    def test_solves_toy_csp(self):
        result = self.run_search()
        assert result.solved
        assert result.evaluations <= 300
        assert abs(result.best_sizing["x"] - 0.7) < 0.1
        assert abs(result.best_sizing["y"] - 0.3) < 0.1

    def test_reproducible_under_fixed_seed(self):
        first = self.run_search(seed=3)
        second = self.run_search(seed=3)
        np.testing.assert_array_equal(first.best_vector, second.best_vector)
        assert first.evaluations == second.evaluations
        assert first.best_score == second.best_score

    def test_budget_is_respected(self):
        # An unsatisfiable spec must stop at the evaluation budget.
        space = DesignSpace([Parameter("x", 0.0, 1.0, grid_points=51)])
        spec = Specification([Spec("a", ">=", 10.0)], ["a"])

        def evaluator(samples):
            return np.atleast_2d(samples)[:, :1] * 0.0

        config = TrustRegionConfig(
            seed=0, initial_samples=10, batch_size=5, max_evaluations=40,
            candidate_pool=32, surrogate_hidden=(8,), initial_epochs=10, refit_epochs=5,
        )
        result = run_in_campaign(evaluator, space, spec, config).result()
        assert not result.solved
        assert result.evaluations <= 51  # cannot exceed the (finite) grid
        # The Monte-Carlo seed stage honours the budget as well.
        tight = TrustRegionConfig(
            seed=0, initial_samples=24, batch_size=5, max_evaluations=10,
            candidate_pool=32, surrogate_hidden=(8,), initial_epochs=10, refit_epochs=5,
        )
        clamped = run_in_campaign(evaluator, space, spec, tight).result()
        assert clamped.evaluations <= 10

    def test_budget_respected_when_batch_does_not_divide(self):
        """The last iteration must shrink its batch to the remaining budget."""
        space = DesignSpace(
            [Parameter("x", 0.0, 1.0, grid_points=101), Parameter("y", 0.0, 1.0, grid_points=101)]
        )
        spec = Specification([Spec("a", ">=", 10.0)], ["a", "b"])  # unsatisfiable
        config = TrustRegionConfig(
            seed=0, initial_samples=48, batch_size=8, max_evaluations=100,
            candidate_pool=64, surrogate_hidden=(8,), initial_epochs=10, refit_epochs=5,
        )
        result = run_in_campaign(quadratic_evaluator, space, spec, config).result()
        assert not result.solved
        assert result.evaluations == 100  # 48 + 6*8 + final clamped batch of 4

    def test_never_reevaluates_a_point(self):
        calls = []

        def counting_evaluator(samples):
            for row in np.atleast_2d(samples):
                calls.append(tuple(np.round(row, 12)))
            return quadratic_evaluator(samples)

        space = DesignSpace(
            [Parameter("x", 0.0, 1.0, grid_points=21), Parameter("y", 0.0, 1.0, grid_points=21)]
        )
        spec = Specification([Spec("a", ">=", 2.0)], ["a", "b"])  # unsatisfiable
        config = TrustRegionConfig(
            seed=1, initial_samples=12, batch_size=4, max_evaluations=80,
            candidate_pool=64, surrogate_hidden=(8,), initial_epochs=10, refit_epochs=5,
        )
        run_in_campaign(counting_evaluator, space, spec, config)
        assert len(calls) == len(set(calls))


class TestOpampSizingEndToEnd:
    """Acceptance: the agent meets the spec at the hardest PVT corner within
    a fixed budget, reproducibly under a fixed seed."""

    def run_hardest_corner(self, seed=0):
        condition = hardest_condition(nine_corner_grid())
        amp = TwoStageOpAmp(condition=condition)
        spec = Specification(DEFAULT_SPECS, METRIC_NAMES)
        config = TrustRegionConfig(seed=seed, max_evaluations=400)
        search = run_in_campaign(amp.evaluate_batch, amp.design_space(), spec, config)
        return search.result(), spec

    def test_solves_spec_at_hardest_corner(self):
        result, spec = self.run_hardest_corner()
        assert result.solved
        assert result.evaluations <= 400
        # The campaign names each metric ``<name>@<corner>``, in spec order.
        assert [name.split("@")[0] for name in result.best_metrics] == list(METRIC_NAMES)
        assert spec.satisfied(np.array([list(result.best_metrics.values())]))[0]

    def test_reproducible(self):
        first, _ = self.run_hardest_corner(seed=5)
        second, _ = self.run_hardest_corner(seed=5)
        np.testing.assert_array_equal(first.best_vector, second.best_vector)

    def test_solution_is_on_grid(self):
        result, _ = self.run_hardest_corner()
        amp = TwoStageOpAmp(condition=hardest_condition(nine_corner_grid()))
        space = amp.design_space()
        np.testing.assert_allclose(space.snap(result.best_vector), result.best_vector, rtol=1e-9)

    def test_progressive_pvt_demo(self):
        result = size_problem("two_stage_opamp", specs=DEFAULT_SPECS, seed=0)
        assert result.solved_all_corners
        assert len(result.corner_reports) == 9
        assert all(report.satisfied for report in result.corner_reports)
        # Sized at the hardest corner first (Section IV-E).
        hardest = hardest_condition(nine_corner_grid())
        assert result.active_corners[0].name == hardest.name


class TestResolveConfig:
    """How ``size_problem`` resolves its config: an explicit ``seed``,
    ``optimizer`` or ``max_phases`` wins, ``None`` defers, and nothing is
    copied when nothing changes."""

    @staticmethod
    def resolved(monkeypatch, **kwargs):
        """The config ``size_problem`` hands to its campaign."""
        from repro.search import sizing

        def campaign_of(topology, config, **_):
            return SimpleNamespace(run=lambda: SimpleNamespace(results=[config]))

        monkeypatch.setattr(sizing, "build_campaign", campaign_of)
        return size_problem("ota_5t", tier="smoke", **kwargs)

    def test_explicit_seed_overrides_config(self, monkeypatch):
        config = ProgressiveConfig(TrustRegionConfig(seed=3, max_evaluations=123))
        resolved = self.resolved(monkeypatch, config=config, seed=9)
        assert resolved.trust_region.seed == 9
        assert resolved.trust_region.max_evaluations == 123  # else preserved
        assert config.trust_region.seed == 3  # original untouched

    def test_none_seed_defers_to_config(self, monkeypatch):
        config = ProgressiveConfig(TrustRegionConfig(seed=3))
        assert self.resolved(monkeypatch, config=config, seed=None) is config
        assert self.resolved(monkeypatch, seed=None).trust_region.seed == 0
        assert self.resolved(monkeypatch, seed=5).trust_region.seed == 5

    def test_backend_override(self):
        """The training backend is not configurable at any layer."""
        with pytest.raises(TypeError, match="backend"):
            size_problem("ota_5t", tier="smoke", backend="autodiff")
        with pytest.raises(TypeError, match="backend"):
            ProgressiveConfig(backend="autodiff")

    def test_corner_engine_override(self):
        """The corner engine is not configurable: a Campaign picks it from
        its evaluation handle."""
        with pytest.raises(TypeError, match="corner_engine"):
            size_problem("ota_5t", tier="smoke", corner_engine="looped")
        with pytest.raises(TypeError, match="corner_engine"):
            ProgressiveConfig(corner_engine="looped")

    def test_optimizer_and_max_phases_overrides(self, monkeypatch):
        resolved = self.resolved(monkeypatch, optimizer="random", max_phases=2)
        assert resolved.optimizer == "random"
        assert resolved.max_phases == 2
        progressive = ProgressiveConfig(optimizer="cross_entropy", max_phases=3)
        kept = self.resolved(monkeypatch, config=progressive, optimizer=None, max_phases=None)
        assert kept is progressive

    def test_progressive_config_passthrough_keeps_trust_region(self, monkeypatch):
        trust = TrustRegionConfig(seed=7)
        progressive = ProgressiveConfig(trust_region=trust)
        resolved = self.resolved(monkeypatch, config=progressive, seed=8, optimizer="random")
        assert resolved.trust_region.seed == 8
        assert resolved.optimizer == "random"
        assert trust.seed == 7 and progressive.trust_region is trust


class TestDatasetHotPath:
    """The incremental dataset: vectorized dedup, order, incremental best."""

    def make_search(self, **config_kwargs):
        space = DesignSpace(
            [Parameter("x", 0.0, 1.0, grid_points=11), Parameter("y", 0.0, 1.0, grid_points=11)]
        )
        spec = Specification([Spec("a", ">=", 2.0)], ["a", "b"])
        return TrustRegionSearch(space, spec, TrustRegionConfig(**config_kwargs))

    def test_dedup_keeps_first_occurrence_in_candidate_order(self):
        search = self.make_search()
        block = np.array([
            [0.1, 0.1],
            [0.2, 0.2],
            [0.1, 0.1],  # duplicate of row 0
            [0.3, 0.3],
        ])
        added = evaluate_new(search, quadratic_evaluator, block)
        assert added == 3
        np.testing.assert_allclose(search._X[:3], [[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]])

    def test_dedup_limit_counts_only_fresh_rows(self):
        search = self.make_search()
        evaluate_new(search, quadratic_evaluator, np.array([[0.1, 0.1]]))
        block = np.array([
            [0.1, 0.1],  # already seen -> skipped, not counted
            [0.2, 0.2],
            [0.2, 0.2],  # in-block duplicate
            [0.3, 0.3],
            [0.4, 0.4],
        ])
        added = evaluate_new(search, quadratic_evaluator, block, limit=2)
        assert added == 2
        np.testing.assert_allclose(search._X[1:3], [[0.2, 0.2], [0.3, 0.3]])
        assert search.evaluations == 3

    def test_incremental_best_matches_full_argmax(self):
        search = self.make_search()
        rng = np.random.default_rng(0)
        for _ in range(6):
            evaluate_new(search, quadratic_evaluator, search.design_space.sample(rng, 7))
        scores = search._scores[: search._count]
        assert search._best == int(np.argmax(scores))

    def test_growable_arrays_preserve_data(self):
        search = self.make_search()
        rng = np.random.default_rng(1)
        seen_rows = []
        for _ in range(30):  # force several capacity doublings
            block = search.design_space.sample(rng, 9)
            before = search._count
            evaluate_new(search, quadratic_evaluator, block)
            seen_rows.append(search._X[before: search._count].copy())
        stacked = np.vstack(seen_rows)
        np.testing.assert_array_equal(search._X[: search._count], stacked)
        # Metrics stayed aligned with their input rows across reallocation.
        np.testing.assert_allclose(
            search._M[: search._count], quadratic_evaluator(stacked)
        )

    def test_unknown_backend_rejected(self):
        """The surrogate is always fused; the config has no backend field."""
        with pytest.raises(TypeError, match="backend"):
            TrustRegionConfig(backend="fused")

    @pytest.mark.parametrize("call, keyword, value", RETIRED_KEYWORDS)
    def test_retired_keyword_rejected(self, call, keyword, value):
        """Settings no caller varied are constants, not keywords."""
        with pytest.raises(TypeError, match=keyword):
            call(**{keyword: value})


class TestCampaignVerification:
    """Winner verification: every CornerReport against a per-corner oracle."""

    def test_corner_reports_match_per_corner_oracle(self):
        # One phase only, so the folding seeds end with failing corners next
        # to passing ones, and the reports carry both verdicts.
        corners = nine_corner_grid()
        case, folding = FOLDING["trust_region"]
        campaign = build_campaign(
            case.topology,
            tier=case.tier,
            corners=corners,
            config=ProgressiveConfig(max_phases=1),
            seeds=[0, *folding],
        )
        results = campaign.run().results
        verdicts = [report.satisfied for r in results for report in r.corner_reports]
        assert True in verdicts and False in verdicts
        assert not all(r.solved_all_corners for r in results)

        problem = get_topology("two_stage_opamp")("bsim45")
        names = problem.METRIC_NAMES
        oracle = Specification(problem.default_specs()["nominal"], names)
        for result in results:
            reported = [report.condition for report in result.corner_reports]
            assert sorted(reported, key=corners.index) == corners
            block = problem.evaluate_corners(result.best_vector[np.newaxis, :], reported)
            for report, metrics in zip(result.corner_reports, block[:, 0, :]):
                expected = bool(oracle.satisfied(metrics[np.newaxis, :])[0])
                assert type(report.satisfied) is bool
                assert report.satisfied == expected
                assert list(report.metrics) == list(names)
                assert all(type(value) is float for value in report.metrics.values())
                assert report.metrics == {n: float(v) for n, v in zip(names, metrics)}
