"""Batched-across-seeds surrogate refit: bitwise parity and accounting.

The batched refit path (``repro.nn.fused.fit_batched`` driven by the
campaign's end-of-round flush) claims *bit-identical* results versus
training each seed's queued refit on its own.  These tests hold it to that:
kernel-level locks compare per-epoch losses, parameters and Adam moments
with the autodiff oracle's (:mod:`oracles.nn`) per job, with
``==``/``array_equal`` (never ``allclose``), and campaign-level locks
byte-diff whole trajectories batched-vs-sequential (the sequential stand-in
is reached through the ``oracles`` fixture), through checkpoints, and under
the determinism auditor.
"""

import numpy as np
import pytest

from repro.analysis.determinism import audit_case, fingerprint_outcome
from repro.bench.registry import BenchCase, get_suite
from repro.nn import (
    BatchedFusedAdam,
    BatchedFusedMLP,
    FusedAdam,
    FusedFitJob,
    FusedMLP,
    fit_batched,
    fit_job_signature,
)
from oracles.nn import MLP, Adam
from repro.core.design_space import DesignSpace, Parameter
from repro.resilience import FaultPlan, InjectedFault, inject, load_snapshot
from repro.search import Spec, Specification, TrustRegionConfig, TrustRegionSearch
from repro.search import campaign as campaign_module
from repro.search.campaign import CACHE_JOURNAL, LATEST_SNAPSHOT
from repro.search.sizing import build_campaign


def make_model(seed, in_features=6, hidden=(24, 24), out_features=3, **kwargs):
    rng = np.random.default_rng(seed)
    model = FusedMLP(in_features, hidden, out_features, rng=rng, **kwargs)
    return model, FusedAdam(model, lr=3e-3)


def make_data(seed, count, in_features=6, out_features=3):
    rng = np.random.default_rng(100 + seed)
    inputs = rng.normal(size=(count, in_features))
    targets = rng.normal(size=(count, out_features))
    return inputs, targets


def make_job(seed, count, epochs=5, batch_size=16, **model_kwargs):
    """One (model, adam, data, rng) training job keyed by ``seed``.

    Called twice with the same seed it produces bit-identical twins, so
    one copy can train sequentially and the other through ``fit_batched``.
    """
    model, adam = make_model(seed, **model_kwargs)
    inputs, targets = make_data(
        seed, count, model.in_features, model.out_features
    )
    return FusedFitJob(
        model=model,
        adam=adam,
        inputs=inputs,
        targets=targets,
        epochs=epochs,
        batch_size=batch_size,
        rng=np.random.default_rng(1000 + seed),
    )


def run_sequentially(jobs):
    """The oracle: each job trained alone by the autodiff ``MLP.fit`` of
    :mod:`oracles.nn`, from the job's weights (through ``state_dict``) and
    a fresh reference Adam.  Returns ``(losses, model, adam)`` per job."""
    results = []
    for job in jobs:
        model = MLP(job.model.in_features, job.model.hidden, job.model.out_features)
        model.load_state_dict(job.model.state_dict())
        adam = Adam(model.parameters(), lr=job.adam.lr)
        losses = model.fit(job.inputs, job.targets, job.epochs, job.batch_size, adam, job.rng)
        results.append((losses, model, adam))
    return results


def assert_jobs_bit_identical(batched_jobs, oracle_results):
    """Each fused job's parameters, Adam moments and step count equal its
    oracle twin's."""
    for job, (_, model, adam) in zip(batched_jobs, oracle_results):
        np.testing.assert_array_equal(
            job.model.theta, np.concatenate([p.data.ravel() for p in model.parameters()])
        )
        np.testing.assert_array_equal(job.adam._m, np.concatenate([m.ravel() for m in adam._m]))
        np.testing.assert_array_equal(job.adam._v, np.concatenate([v.ravel() for v in adam._v]))
        assert job.adam._t == adam._t


def check_parity(specs):
    """Build twin job sets from ``specs``; the batched bits of every job
    must equal its oracle twin's."""
    batched_jobs = [make_job(*spec[:2], **spec[2]) for spec in specs]
    oracle_results = run_sequentially([make_job(*spec[:2], **spec[2]) for spec in specs])
    batched_losses = fit_batched(batched_jobs)
    # exact float equality
    assert batched_losses == [losses for losses, _, _ in oracle_results]
    assert_jobs_bit_identical(batched_jobs, oracle_results)


class TestKernelParity:
    """fit_batched vs each job trained alone by the autodiff oracle's
    ``MLP.fit``, bit for bit, at one job and at several."""

    def test_uniform_geometry(self):
        check_parity([(seed, 48, {}) for seed in range(4)])

    def test_ragged_counts_and_epochs_bucket(self):
        # Three distinct (rows, batch_size, epochs) buckets in one call.
        check_parity(
            [
                (0, 48, {"epochs": 5}),
                (1, 48, {"epochs": 5}),
                (2, 31, {"epochs": 5}),
                (3, 48, {"epochs": 9}),
            ]
        )

    def test_single_job_degenerates_cleanly(self):
        check_parity([(7, 40, {})])

    def test_zero_epoch_job_is_skipped(self):
        batched_jobs = [make_job(0, 48), make_job(1, 48, epochs=0)]
        before = batched_jobs[1].model.theta.copy()
        losses = fit_batched(batched_jobs)
        assert losses[1] == []
        np.testing.assert_array_equal(batched_jobs[1].model.theta, before)
        assert batched_jobs[1].adam._t == 0
        # ... and the trained sibling still matches its oracle twin.
        oracle = run_sequentially([make_job(0, 48)])
        assert losses[0] == oracle[0][0]
        assert_jobs_bit_identical(batched_jobs[:1], oracle)

    def test_mixed_batch_sizes(self):
        check_parity([(0, 48, {"batch_size": 16}), (1, 48, {"batch_size": 11})])

    def test_remainder_one_window(self):
        # 65 rows at batch 64: the last window is a single row (gemv path).
        check_parity([(0, 65, {"batch_size": 64}), (1, 65, {"batch_size": 64})])

    def test_single_row_dataset(self):
        check_parity([(0, 1, {"batch_size": 4}), (1, 1, {"batch_size": 4})])

    def test_campaign_like_geometry(self):
        # The shape the trust region actually refits: batch 64, epochs 25.
        check_parity(
            [(seed, 70, {"batch_size": 64, "epochs": 25}) for seed in range(3)]
        )

    def test_empty_job_list(self):
        assert fit_batched([]) == []

    def test_mixed_signature_rejected(self):
        small = make_job(0, 16)
        wide = make_job(1, 16, in_features=7)
        assert fit_job_signature(small) != fit_job_signature(wide)
        with pytest.raises(ValueError, match="fit_job_signature"):
            fit_batched([small, wide])

    def test_bad_geometry_rejected(self):
        job = make_job(0, 16)
        job.targets = job.targets[:-1]
        with pytest.raises(ValueError, match="rows"):
            fit_batched([job])
        bad = make_job(1, 16)
        bad.batch_size = 0
        with pytest.raises(ValueError, match="batch_size"):
            fit_batched([bad])


class TestGatherScatter:
    def test_round_trip_preserves_bits(self):
        models = [make_model(seed)[0] for seed in range(3)]
        originals = [model.theta.copy() for model in models]
        stacked = BatchedFusedMLP(models[0], 3)
        stacked.gather(models)
        stacked.scatter(models)
        for model, original in zip(models, originals):
            np.testing.assert_array_equal(model.theta, original)

    def test_gather_validates_count_and_architecture(self):
        model, _ = make_model(0)
        stacked = BatchedFusedMLP(model, 2)
        with pytest.raises(ValueError, match="expected 2 models"):
            stacked.gather([model])
        other, _ = make_model(1, hidden=(8,))
        with pytest.raises(ValueError, match="architecture"):
            stacked.gather([model, other])

    def test_adam_round_trip_preserves_moments_and_step(self):
        jobs = [make_job(seed, 24, epochs=3) for seed in range(2)]
        fit_batched(jobs)  # advance the moments past zero
        stacked = BatchedFusedMLP(jobs[0].model, 2)
        stacked.gather([job.model for job in jobs])
        adam = BatchedFusedAdam(stacked, lr=jobs[0].adam.lr)
        adam.gather([job.adam for job in jobs])
        snapshots = [
            (job.adam._m.copy(), job.adam._v.copy(), job.adam._t) for job in jobs
        ]
        adam.scatter([job.adam for job in jobs])
        for job, (m, v, t) in zip(jobs, snapshots):
            np.testing.assert_array_equal(job.adam._m, m)
            np.testing.assert_array_equal(job.adam._v, v)
            assert job.adam._t == t

    def test_bad_seed_count_rejected(self):
        model, _ = make_model(0)
        with pytest.raises(ValueError, match="n_seeds"):
            BatchedFusedMLP(model, 0)


#: Campaign workloads hard enough that the refit loop actually runs (the
#: Monte-Carlo seed does not solve them), one per topology — the
#: trajectory lock is vacuous on a case that never refits.
CAMPAIGN_CASES = [
    BenchCase(topology, "nominal", "hardest", max_evaluations=120, max_phases=1)
    for topology in ("two_stage_opamp", "ota_5t", "folded_cascode", "telescopic")
]


def _campaign_lock_state(case, seeds=(0, 1)):
    """Run one case; return (fingerprint, surrogate/Adam state, counters)."""
    campaign = case.build_campaign(seeds)
    outcome = campaign.run()
    fingerprint = fingerprint_outcome(outcome, campaign.cache.state_digest(), seeds)
    surrogates = []
    for member in campaign._members:
        optimizer = member.optimizer
        surrogates.append(
            (
                optimizer._surrogate.theta.copy(),
                optimizer._optimizer._m.copy(),
                optimizer._optimizer._v.copy(),
                optimizer._optimizer._t,
                optimizer.refit_count,
            )
        )
    return fingerprint, surrogates, outcome


class TestCampaignParity:
    """Whole-campaign batched-vs-sequential locks across the topology zoo."""

    @pytest.mark.parametrize("case", CAMPAIGN_CASES, ids=lambda c: c.topology)
    def test_trajectory_and_adam_moment_lock(self, case, oracles):
        batched_fp, batched_state, batched_outcome = _campaign_lock_state(case)
        oracles.sequential_refits()
        assert campaign_module.fit_batched is not fit_batched
        sequential_fp, sequential_state, sequential_outcome = _campaign_lock_state(case)
        assert batched_fp == sequential_fp
        for batched, sequential in zip(batched_state, sequential_state):
            b_theta, b_m, b_v, b_t, b_refits = batched
            s_theta, s_m, s_v, s_t, s_refits = sequential
            np.testing.assert_array_equal(b_theta, s_theta)
            np.testing.assert_array_equal(b_m, s_m)
            np.testing.assert_array_equal(b_v, s_v)
            assert b_t == s_t
            assert b_refits == s_refits and b_refits > 0
        assert batched_outcome.refit_rounds == sequential_outcome.refit_rounds > 0
        # Two live seeds sharing one round schedule must actually bucket;
        # the counter counts multi-job dispatches, whoever trains them.
        assert batched_outcome.batched_kernel_calls > 0
        assert sequential_outcome.batched_kernel_calls == batched_outcome.batched_kernel_calls


class TestSmokeSuiteRefitParity:
    """Batched vs sequential refits over the whole smoke suite, seeds 0-7."""

    SEEDS = list(range(8))

    @staticmethod
    def _fingerprints(seeds):
        fingerprints = []
        for case in get_suite("smoke"):
            campaign = case.build_campaign(seeds)
            outcome = campaign.run()
            fingerprint = fingerprint_outcome(
                outcome, campaign.cache.state_digest(), seeds
            )
            fingerprints.append((case.name, fingerprint))
        return fingerprints

    def test_every_case_and_seed_fingerprint_equal(self, oracles):
        batched = self._fingerprints(self.SEEDS)
        oracles.sequential_refits()
        sequential = self._fingerprints(self.SEEDS)
        for (name, batched_fp), (_, sequential_fp) in zip(batched, sequential):
            for batched_seed, sequential_seed in zip(
                batched_fp.pop("per_seed"), sequential_fp.pop("per_seed")
            ):
                assert batched_seed == sequential_seed, (name, batched_seed["seed"])
            assert batched_fp == sequential_fp, name


class TestDeferredRefitMechanics:
    @pytest.fixture(autouse=True)
    def small_search(self, search_sizes):
        search_sizes(
            batch_size=5, candidate_pool=32, surrogate_hidden=(8,), initial_epochs=6, refit_epochs=3,
        )

    def make_search(self):
        space = DesignSpace([Parameter("x", 0.0, 1.0, grid_points=51)])
        spec = Specification([Spec("a", ">=", 10.0)], ["a"])  # unsatisfiable

        def evaluator(samples):
            return np.atleast_2d(samples)[:, :1] * 0.0

        config = TrustRegionConfig(seed=0, max_evaluations=40)
        return TrustRegionSearch(space, spec, config), evaluator

    def drive_until_pending(self, search, evaluator):
        while search.take_refit_job() is None and not search.is_done:
            rows = search.ask()
            search.tell(rows, evaluator(rows))
            if search._pending_refit_epochs is not None:
                return
        pytest.fail("search never queued a refit")

    def test_take_refit_job_consumes_the_pending_refit(self):
        search, evaluator = self.make_search()
        self.drive_until_pending(search, evaluator)
        assert isinstance(search.take_refit_job(), FusedFitJob)
        assert search.take_refit_job() is None

    def test_fault_site_fires_in_batched_path(self):
        """The drill's optimizer.refit site must cover the queued path."""
        search, evaluator = self.make_search()
        self.drive_until_pending(search, evaluator)
        with inject(FaultPlan("optimizer.refit", occurrence=1)):
            with pytest.raises(InjectedFault):
                search.take_refit_job()


class TestCampaignAccounting:
    def test_refit_mode_validated(self):
        """There is no refit mode to select: campaigns always batch."""
        from repro.search.progressive import ProgressiveConfig

        with pytest.raises(TypeError, match="refit_mode"):
            ProgressiveConfig(refit_mode="sequential")
        with pytest.raises(TypeError, match="refit_mode"):
            build_campaign("ota_5t", tier="smoke", refit_mode="sequential")

    def test_refit_counters_survive_checkpoint_round_trip(self, tmp_path):
        (case,) = get_suite("drill")
        campaign = case.build_campaign([0, 1])
        outcome = campaign.run(checkpoint_dir=str(tmp_path))
        assert outcome.refit_rounds > 0 and outcome.batched_kernel_calls > 0
        state = load_snapshot(str(tmp_path / LATEST_SNAPSHOT))
        # Not stored: the replay counts them again.
        assert "refit" not in state
        fresh = case.build_campaign([0, 1])
        fresh.load_state_dict(state, str(tmp_path / CACHE_JOURNAL))
        assert fresh.refit_rounds == campaign.refit_rounds
        assert fresh.batched_kernel_calls == campaign.batched_kernel_calls

    def test_refit_seconds_attributed_to_members(self):
        (case,) = get_suite("drill")
        campaign = case.build_campaign([0, 1])
        campaign.run()
        for member in campaign._members:
            assert member.optimizer.refit_seconds > 0.0


class TestAuditorWithBatchedRefit:
    def test_determinism_double_run_green(self):
        (case,) = get_suite("drill")
        audit = audit_case(case, seeds=(0, 1))
        assert audit.identical, audit.divergence

    def test_checkpoint_resume_parity_green(self):
        (case,) = get_suite("drill")
        audit = audit_case(case, seeds=(0, 1), resume_parity=True)
        assert audit.identical, audit.divergence
