"""Trust-region stall restarts: the rule, its trajectory locks, its stats.

A trust region that sits at ``MIN_RADIUS`` for ``STALL_PATIENCE``
non-improving tells restarts around a surrogate-ranked Monte-Carlo sample.
Locked here:

* the rule itself on a small unsatisfiable problem;
* seeds that never stall keep their exact trajectories — seeds 0-2 of every
  smoke case still match the committed ``BENCH_smoke.json`` records;
* the :data:`conftest.RESTARTING` seeds restart and solve, bit-identically
  under batched and sequential refits;
* the bench statistics: Wilson intervals, seed counts, restart counts.
"""

import json
import os
from dataclasses import astuple

import numpy as np
import pytest

from conftest import RESTARTING, run_in_campaign
from repro.analysis.determinism import fingerprint_outcome
from repro.bench.runner import format_summary, run_suite, wilson_interval
from repro.core.design_space import DesignSpace, Parameter
from repro.search import Spec, Specification, TrustRegionConfig
from repro.search import trust_region

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def peak_evaluator(samples):
    """One metric peaking at (0.3, 0.6); the spec below can never meet it."""
    samples = np.atleast_2d(samples)
    x, y = samples[:, 0], samples[:, 1]
    return (1.0 - (x - 0.3) ** 2 - (y - 0.6) ** 2)[:, np.newaxis]


def run_search():
    """The unsatisfiable peak problem, run to its budget; returns the
    phase optimizer."""
    space = DesignSpace(
        [
            Parameter("x", 0.0, 1.0, grid_points=101),
            Parameter("y", 0.0, 1.0, grid_points=101),
        ]
    )
    spec = Specification([Spec("a", ">=", 10.0)], ["a"])
    config = TrustRegionConfig(
        seed=0,
        batch_size=4,
        candidate_pool=64,
        max_evaluations=240,
        surrogate_hidden=(8,),
        initial_epochs=6,
        refit_epochs=2,
    )
    return run_in_campaign(peak_evaluator, space, spec, config)


class TestRestartRule:
    @pytest.mark.parametrize("patience", [2, trust_region.STALL_PATIENCE])
    def test_restart_follows_patience_stalled_tells_at_min_radius(
        self, patience, monkeypatch
    ):
        monkeypatch.setattr(trust_region, "STALL_PATIENCE", patience)
        search = run_search()
        history = search.result().history
        floor = trust_region.MIN_RADIUS
        restarts = [i for i, record in enumerate(history) if record.restarted]
        assert restarts, "the unsatisfiable problem never stalled"
        for i in restarts:
            # The tell before the stalled window already left the radius
            # at the floor, and every tell of the window failed to improve.
            assert all(r.radius <= floor for r in history[i - patience - 1 : i])
            assert not any(r.improved for r in history[i - patience : i])
            # ...and the tell before the window did not count, so the
            # restart came as soon as the count reached the patience.
            before = history[i - patience - 1]
            assert before.improved or history[i - patience - 2].radius > floor
            # The first tell after a restart starts a fresh local incumbent.
            assert history[i].improved
            assert history[i].radius > floor
        assert search.result().restarts == len(restarts)

    def test_global_incumbent_survives_restarts(self):
        search = run_search()
        result = search.result()
        assert result.restarts > 0
        scores = [record.best_score for record in result.history]
        assert scores == sorted(scores)  # the returned best never regresses
        assert result.best_score == max(search._scores[: search._count])


class TestNeverStalledSeedsKeepTheirTrajectories:
    def test_committed_smoke_records_at_seeds_0_to_2(self):
        with open(os.path.join(REPO, "BENCH_smoke.json")) as handle:
            committed = json.load(handle)
        fresh = run_suite("smoke", seeds=[0, 1, 2])
        # ``simulations`` counts the seed's own pairs, so it matches although
        # the committed run shares its cache with seeds 3-15.
        fields = (
            "solved", "evaluations", "phases", "failing_corners", "best_sizing",
            "simulations",
        )
        for old_case, new_case in zip(committed["cases"], fresh["cases"]):
            assert old_case["name"] == new_case["name"]
            old_seeds = {record["seed"]: record for record in old_case["per_seed"]}
            for record in new_case["per_seed"]:
                old = old_seeds[record["seed"]]
                assert record["restarts"] == 0, (new_case["name"], record["seed"])
                assert {k: record[k] for k in fields} == {k: old[k] for k in fields}


def _fingerprint(seeds):
    campaign = RESTARTING[0].build_campaign(seeds)
    outcome = campaign.run()
    fingerprint = fingerprint_outcome(outcome, campaign.cache.state_digest(), seeds)
    histories = [
        [astuple(record) for phase in result.phase_results for record in phase.history]
        for result in outcome.results
    ]
    return fingerprint, histories


class TestTrappedSeeds:
    SEEDS = list(RESTARTING[1])

    @pytest.fixture(scope="class")
    def batched(self):
        return _fingerprint(self.SEEDS)

    def test_restarting_seeds_restart_and_solve(self, batched):
        fingerprint, _ = batched
        for record in fingerprint["per_seed"]:
            assert record["restarts"] >= 1, record["seed"]
            assert record["solved"], record["seed"]
            # Without restarts, trapped seeds burned ~1290 evaluations over
            # 4 phases.
            assert record["evaluations"] < 500

    def test_batched_and_sequential_refit_bit_identical(self, batched, oracles):
        oracles.sequential_refits()
        sequential = _fingerprint(self.SEEDS)
        batched_fingerprint, batched_histories = batched
        sequential_fingerprint, sequential_histories = sequential
        assert batched_fingerprint["batched_kernel_calls"] > 0
        assert batched_fingerprint == sequential_fingerprint
        assert batched_histories == sequential_histories


class TestBenchStatistics:
    def test_wilson_interval_known_values(self):
        low, high = wilson_interval(15, 16)
        assert low == pytest.approx(0.7167, abs=1e-4)
        assert high == pytest.approx(0.9889, abs=1e-4)
        low, high = wilson_interval(16, 16)
        assert low == pytest.approx(0.8064, abs=1e-4)
        assert high == 1.0
        low, high = wilson_interval(0, 4)
        assert low == 0.0 and 0.0 < high < 1.0
        assert wilson_interval(0, 0) is None

    def test_case_block_and_summary_carry_the_interval(self):
        payload = run_suite("tiny", seeds=[0, 1])
        (case,) = payload["cases"]
        assert case["n_seeds"] == 2
        low, high = wilson_interval(round(case["success_rate"] * 2), 2)
        assert case["success_ci95"] == [round(low, 4), round(high, 4)]
        assert all(record["restarts"] == 0 for record in case["per_seed"])
        assert f"[{low:.2f}, {high:.2f}]" in format_summary(payload)
