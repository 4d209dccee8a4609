"""Stacked baseline asks and tells: a seed's search does not see its stack.

The surrogate-free baselines ask and tell every seed of a round in one call
per optimizer class (:meth:`BaselineSearch.ask_stack`,
:meth:`BaselineSearch.tell_stack`).  Each test here runs one multi-seed
campaign, checks that the stacked path it is about actually ran — a
request group mixing verification and search, generations of unequal
size, a draw whose rows were all evaluated already, warm-started phases —
and compares every seed bit for bit with a campaign of that seed alone:
best-vector bytes, evaluations, phase results and histories, corner
reports, active corners and simulations.
"""

import pickle
from dataclasses import astuple

import numpy as np
import pytest

from conftest import one_corner_campaign
from repro.bench.registry import BenchCase
from repro.core.design_space import DesignSpace, Parameter, row_keys
from repro.search import Campaign, Spec, Specification, TrustRegionConfig
from repro.search import optimizer as optimizer_module
from repro.search.optimizer import BaselineSearch, CrossEntropySearch, RandomSearch

CLASSES = {"random": RandomSearch, "cross_entropy": CrossEntropySearch}

#: Per optimizer, a full-grid case whose seeds 0-7 fold corners into later,
#: warm-started phases (the cross-entropy seeds out of step with each other).
FOLDING_FULL45 = {
    "random": BenchCase("two_stage_opamp", "nominal", "full45", optimizer="random"),
    "cross_entropy": BenchCase("telescopic", "nominal", "full45", optimizer="cross_entropy"),
}

SEEDS = list(range(8))


def seed_record(result):
    """A seed's :class:`ProgressiveResult` as bytes, accounting left out."""
    phases = [
        (
            phase.best_vector.tobytes(),
            phase.best_metrics,
            phase.best_score,
            phase.solved,
            phase.evaluations,
            [astuple(record) for record in phase.history],
        )
        for phase in result.phase_results
    ]
    return pickle.dumps((
        result.best_vector.tobytes(),
        result.solved_all_corners,
        result.evaluations,
        result.simulations,
        result.active_corners,
        result.corner_reports,
        phases,
    ))


def run_records(campaign):
    try:
        return [seed_record(result) for result in campaign.run().results]
    finally:
        campaign.close()


def assert_seeds_match_alone(build, seeds):
    """``build(seeds)`` run as one campaign equals one campaign per seed."""
    stacked = run_records(build(seeds))
    alone = [run_records(build([seed]))[0] for seed in seeds]
    for seed, together, single in zip(seeds, stacked, alone):
        assert together == single, f"seed {seed} differs from its one-seed campaign"


def toy_space():
    """80 grid points: small enough that draws collide and grids exhaust."""
    return DesignSpace([
        Parameter("x", 0.0, 1.0, grid_points=4),
        Parameter("y", 0.0, 1.0, grid_points=4),
        Parameter("z", 1e-3, 1.0, grid_points=5, log_scale=True),
    ])


def toy_evaluator(samples):
    samples = np.atleast_2d(samples)
    return np.stack([samples.sum(axis=1), samples.prod(axis=1)], axis=1)


#: ``a >= 10`` is unreachable, so every seed spends its whole budget.
UNREACHABLE = Specification([Spec("a", ">=", 10.0)], ["a", "b"])


def toy_build(name, max_evaluations, search_sizes):
    """Campaigns of ``name`` on the toy grid with 4-row batches
    (``search_sizes`` is the test's fixture)."""
    search_sizes(batch_size=4)

    def build(seeds):
        config = TrustRegionConfig(seed=seeds[0], max_evaluations=max_evaluations)
        return one_corner_campaign(
            toy_evaluator, toy_space(), UNREACHABLE, config, optimizer=name, seeds=seeds
        )

    return build


@pytest.mark.parametrize("name", sorted(CLASSES))
class TestStackedMatchesAlone:
    def test_full45_phases_and_warm_starts(self, name, monkeypatch):
        """Eight full-grid seeds through folded, warm-started phases."""
        case = FOLDING_FULL45[name]
        asks = []
        original = CLASSES[name].ask_stack

        def recording(_, optimizers):
            # (stack size, warm-started first draws in it)
            asks.append((
                len(optimizers),
                sum(o._initial_points is not None and o.evaluations == 0 for o in optimizers),
            ))
            asked = original(optimizers)
            # The keys that travel with each member's rows are their own.
            assert all(keys == row_keys(rows) for rows, keys in asked)
            return asked

        with monkeypatch.context() as patch:
            patch.setattr(CLASSES[name], "ask_stack", classmethod(recording))
            records = run_records(case.build_campaign(SEEDS))
        # Some stack of several members held warm-started first draws.
        assert any(size > 1 and warm for size, warm in asks)
        alone = [run_records(case.build_campaign([seed]))[0] for seed in SEEDS]
        assert records == alone

    def test_ragged_generations_at_the_budget_tail(self, name, monkeypatch, search_sizes):
        """Dedup on a small grid and the budget clamp leave the members of
        one told stack with generations of different sizes."""
        tells = []
        original = CLASSES[name].tell_stack

        def recording(_, optimizers, samples, metrics, counts, keys):
            tells.append(list(counts))
            return original(optimizers, samples, metrics, counts, keys)

        build = toy_build(name, 70, search_sizes)
        with monkeypatch.context() as patch:
            patch.setattr(CLASSES[name], "tell_stack", classmethod(recording))
            run_records(build(SEEDS))
        assert any(len(counts) > 1 and len(set(counts)) > 1 for counts in tells)
        assert_seeds_match_alone(build, SEEDS)

    def test_a_stacked_draw_that_collides_entirely(self, name, monkeypatch, search_sizes):
        """With a budget past the grid's 80 points the seeds exhaust it: a
        member whose slice of a stacked draw held only evaluated rows draws
        again, stacked with the other such members, until new rows turn up
        or its :data:`MAX_REDRAWS` draws are spent and its search ends."""
        draws = []
        original = BaselineSearch._draw_stack

        def recording(optimizers):
            picks = original(optimizers)
            draws.append([rows.shape[0] for rows, _ in picks])
            return picks

        build = toy_build(name, 200, search_sizes)
        with monkeypatch.context() as patch:
            patch.setattr(BaselineSearch, "_draw_stack", staticmethod(recording))
            run_records(build(SEEDS))
        # Some stacked draws gave one member nothing new and another new
        # rows; some gave several members nothing.
        assert any(0 in rows and any(rows) for rows in draws)
        assert any(len(rows) > 1 and not any(rows) for rows in draws)
        assert_seeds_match_alone(build, SEEDS)

    def test_group_mixing_verification_and_search(self, name, monkeypatch):
        """At a single corner the verification of one seed's winner rides
        the same pass as other seeds' search batches."""
        case = BenchCase("two_stage_opamp", "smoke", "nominal", optimizer=name)
        mixed = []
        original = Campaign._run_group

        def recording(campaign, grouped):
            verifying = [request.member.verifying for request in grouped]
            mixed.append(any(verifying) and not all(verifying))
            return original(campaign, grouped)

        with monkeypatch.context() as patch:
            patch.setattr(Campaign, "_run_group", recording)
            run_records(case.build_campaign(SEEDS))
        assert any(mixed)
        assert_seeds_match_alone(case.build_campaign, SEEDS)


def reference_refit(optimizer, units, scores):
    """The per-member cross-entropy refit that one ``(members, rows, dim)``
    reduction replaced, as ``CrossEntropySearch.tell`` ran it alone."""
    mu = min(optimizer_module.BASELINE_BATCH_SIZE, units.shape[0])
    elite = units[np.argsort(-scores, kind="stable")[:mu]]
    mean = elite.mean(axis=0)
    std = np.maximum(elite.std(axis=0), CrossEntropySearch.STD_FLOOR)
    if optimizer._mean is None:
        return mean, std
    alpha = CrossEntropySearch.SMOOTHING
    return (
        alpha * mean + (1.0 - alpha) * optimizer._mean,
        alpha * std + (1.0 - alpha) * optimizer._std,
    )


def test_stacked_elite_refit_matches_the_per_member_reference():
    """Generations of equal and unequal sizes, and so elites of several
    sizes (the whole of a generation no larger than
    :data:`~repro.search.optimizer.BASELINE_BATCH_SIZE`, its best rows of a
    larger one), fresh and smoothed distributions: each member's mean and
    std equal its own refit's bit for bit."""
    rng = np.random.default_rng(5)
    optimizers = [
        CrossEntropySearch(toy_space(), UNREACHABLE, TrustRegionConfig(seed=seed))
        for seed in range(6)
    ]
    for _ in range(4):
        counts = [int(count) for count in rng.choice([2, 3, 6, 6, 8, 16], size=len(optimizers))]
        units = rng.random((sum(counts), 3))
        scores = -rng.random(sum(counts)).round(1)  # ties keep the stable order
        expected = []
        start = 0
        for optimizer, count in zip(optimizers, counts):
            expected.append(
                reference_refit(optimizer, units[start:start + count], scores[start:start + count])
            )
            start += count
        CrossEntropySearch._update_stack(optimizers, units, scores, counts)
        for optimizer, (mean, std) in zip(optimizers, expected):
            assert optimizer._mean.tobytes() == mean.tobytes()
            assert optimizer._std.tobytes() == std.tobytes()
