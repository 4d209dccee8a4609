"""Corner-tensorized evaluation engine: stacked cards, parity, cache, lock.

The corner engine's one hard promise is *bit-identity*: evaluating the whole
PVT grid as a single NumPy broadcast must produce exactly the floats the
per-corner Python loop of :func:`oracles.corners.evaluate_corners_looped`
produces — ``np.array_equal``, not ``allclose`` — so that loop (which the
``oracles.looped_corners()`` fixture puts on a campaign's evaluation handle)
can never disagree with a search trajectory.
Everything here enforces that promise at each layer: the stacked technology
card, the device helpers it broadcasts through, ``evaluate_corners`` on every
registered topology over the full 45-corner grid, the cross-phase
:class:`~repro.search.eval_cache.EvaluationCache`, and finally the
progressive loop end to end.
"""

import dataclasses

import numpy as np
import pytest

import repro.circuits.pvt as pvt_module
from conftest import FOLDING, run_in_campaign
from oracles.corners import evaluate_corners_looped
from repro.analysis.contracts import ContractViolation, contracts
from repro.circuits.devices import parasitic_capacitances, saturation_from_current
from repro.circuits.process import get_technology, stack_cards
from repro.circuits.pvt import (
    NOMINAL,
    PVTCondition,
    full_corner_grid,
    nine_corner_grid,
)
from repro.circuits.topologies import SizingProblem, available_topologies, get_topology
from repro.analysis.determinism import fingerprint_outcome
from repro.bench.registry import get_suite
from repro.search import EvaluationCache, ProgressiveConfig, TrustRegionConfig
from repro.search.sizing import build_campaign

ALL_TOPOLOGY_NAMES = sorted(available_topologies())


class TestStackedCards:
    def test_rows_bit_identical_to_scalar_apply(self):
        card = get_technology("bsim45")
        corners = full_corner_grid()
        stacked = PVTCondition.apply_stack(corners, card)
        for i, corner in enumerate(corners):
            derated = corner.apply(card)
            for field in ("vdd_nominal", "kp_n", "kp_p", "vth_n", "vth_p"):
                assert np.asarray(getattr(stacked, field))[i, 0] == getattr(
                    derated, field
                ), (corner.name, field)

    def test_corner_dependent_fields_are_columns(self):
        stacked = PVTCondition.apply_stack(nine_corner_grid(), get_technology("bsim22"))
        assert np.asarray(stacked.kp_n).shape == (9, 1)
        assert np.asarray(stacked.vdd_nominal).shape == (9, 1)
        # Corner-invariant fields stay scalar so they broadcast for free.
        assert np.isscalar(stacked.cox)
        assert np.isscalar(stacked.min_length)

    def test_single_corner_stack_collapses_to_the_derated_card(self):
        card = get_technology("n5")
        corner = PVTCondition("ss", 0.9, 125.0)
        stacked = PVTCondition.apply_stack([corner], card)
        assert stacked == corner.apply(card)

    def test_stacking_nothing_rejected(self):
        with pytest.raises(ValueError):
            stack_cards([])

    def test_stacking_mixed_nodes_rejected(self):
        with pytest.raises(ValueError, match="different nodes"):
            stack_cards([get_technology("bsim45"), get_technology("bsim22")])

    def test_thermal_voltage_broadcasts_over_temperature_columns(self):
        card = get_technology("bsim45")
        temperatures = np.array([[-40.0], [27.0], [125.0]])
        column = card.thermal_voltage(temperatures)
        assert column.shape == (3, 1)
        for row, temperature in zip(column, temperatures):
            assert row[0] == card.thermal_voltage(float(temperature[0]))


class TestCardMemo:
    """``evaluate_corners`` derates the base card once per corner tuple and
    keeps the stacked card, read-only, on the problem."""

    @staticmethod
    def evaluated(name="two_stage_opamp", corners=None):
        problem = get_topology(name)()
        corners = corners if corners is not None else full_corner_grid()
        samples = problem.design_space().sample(np.random.default_rng(0), 6)
        return problem, corners, samples, problem.evaluate_corners(samples, corners)

    def test_memoized_card_equals_a_fresh_stack(self):
        problem, corners, samples, _ = self.evaluated()
        card, temperatures = problem._corner_cards[tuple(corners)]
        fresh = stack_cards([corner.apply(problem.base_card) for corner in corners])
        for field in dataclasses.fields(card):
            mine, theirs = getattr(card, field.name), getattr(fresh, field.name)
            assert type(mine) is type(theirs), field.name
            np.testing.assert_array_equal(mine, theirs)
        np.testing.assert_array_equal(
            temperatures, [[corner.temperature_c] for corner in corners]
        )
        problem.evaluate_corners(samples, list(corners))
        assert problem._corner_cards[tuple(corners)][0] is card

    def test_columns_are_read_only(self):
        problem, corners, _, _ = self.evaluated()
        card, temperatures = problem._corner_cards[tuple(corners)]
        columns = [
            getattr(card, field.name)
            for field in dataclasses.fields(card)
            if isinstance(getattr(card, field.name), np.ndarray)
        ]
        assert len(columns) == 5
        for column in columns + [temperatures]:
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0, 0] = 0.0

    @pytest.mark.parametrize("name", ALL_TOPOLOGY_NAMES)
    def test_repeat_calls_return_bit_identical_blocks(self, name):
        problem, corners, samples, first = self.evaluated(name)
        again = problem.evaluate_corners(samples, corners)
        assert again.dtype == first.dtype and again.shape == first.shape
        assert again.tobytes() == first.tobytes()
        np.testing.assert_array_equal(first, evaluate_corners_looped(problem, samples, corners))

    def test_contracts_still_check_the_built_card(self, monkeypatch):
        problem = get_topology("two_stage_opamp")()
        corners = nine_corner_grid()
        good = stack_cards([corner.apply(problem.base_card) for corner in corners])
        bad = dataclasses.replace(good, kp_n=np.zeros((len(corners), 2)))
        monkeypatch.setattr(pvt_module, "stack_cards", lambda cards: bad)
        samples = problem.design_space().sample(np.random.default_rng(0), 2)
        with contracts(True), pytest.raises(ContractViolation, match="stacked field 'kp_n'"):
            problem.evaluate_corners(samples, corners)


class TestDeviceHelpersBroadcast:
    """The closed-form device math must accept a (n_corners, 1) corner axis."""

    def test_saturation_from_current_corner_axis(self):
        """Corner columns (scaled beta, per-corner vds/phi_t) x batch lam."""
        rng = np.random.default_rng(0)
        beta_batch = rng.uniform(1e-4, 1e-3, size=7)
        lam_batch = rng.uniform(0.05, 0.3, size=7)
        corner_scale = np.array([[0.88], [1.00], [1.12]])
        vds = np.array([[0.45], [0.50], [0.55]])
        phi_t = np.array([[0.020], [0.026], [0.034]])
        stacked = saturation_from_current(
            corner_scale * beta_batch, lam_batch, 50e-6, vds, phi_t
        )
        assert all(part.shape == (3, 7) for part in stacked)
        for i in range(3):
            row = saturation_from_current(
                float(corner_scale[i, 0]) * beta_batch, lam_batch, 50e-6,
                float(vds[i, 0]), float(phi_t[i, 0]),
            )
            for stacked_part, row_part in zip(stacked, row):
                np.testing.assert_array_equal(stacked_part[i], row_part)

    def test_parasitic_capacitances_corner_invariant(self):
        card = get_technology("bsim45")
        widths = np.linspace(1e-6, 5e-6, 4)
        lengths = np.linspace(1e-7, 5e-7, 4)
        cgs, cgd, cdb = parasitic_capacitances(card, widths, lengths)
        assert cgs.shape == cgd.shape == cdb.shape == (4,)


@pytest.mark.parametrize("name", ALL_TOPOLOGY_NAMES)
class TestEvaluateCornersParity:
    """The acceptance bar: stacked == looped, bitwise, 4 topologies x 45."""

    def test_bit_identical_on_full_grid(self, name):
        problem = get_topology(name)()
        corners = full_corner_grid()
        samples = problem.design_space().sample(np.random.default_rng(11), 128)
        stacked = problem.evaluate_corners(samples, corners)
        looped = evaluate_corners_looped(problem, samples, corners)
        assert stacked.shape == (45, 128, len(problem.METRIC_NAMES))
        assert np.array_equal(stacked, looped), f"{name}: engines diverge"

    def test_single_corner_matches_evaluate_batch(self, name):
        problem = get_topology(name)()
        samples = problem.design_space().sample(np.random.default_rng(12), 32)
        block = problem.evaluate_corners(samples, [problem.condition])
        assert np.array_equal(block[0], problem.evaluate_batch(samples))

    def test_corner_row_matches_derated_problem(self, name):
        """Each grid row equals a from-scratch problem at that corner."""
        problem = get_topology(name)()
        corners = nine_corner_grid()
        samples = problem.design_space().sample(np.random.default_rng(13), 16)
        block = problem.evaluate_corners(samples, corners)
        for i in (0, 4, 8):
            sibling = get_topology(name)(condition=corners[i])
            assert np.array_equal(block[i], sibling.evaluate_batch(samples))

    def test_empty_corner_list_rejected(self, name):
        problem = get_topology(name)()
        samples = problem.design_space().sample(np.random.default_rng(14), 2)
        with pytest.raises(ValueError):
            problem.evaluate_corners(samples, [])


class TestForCondition:
    def test_sibling_keeps_node_and_load(self):
        problem = get_topology("ota_5t")("bsim22", load_cap=3e-12)
        harsh = problem.for_condition(PVTCondition("ss", 0.9, 125.0))
        assert harsh.base_card == problem.base_card
        assert harsh.load_cap == problem.load_cap
        assert harsh.condition.name == "ss_0.90V_125C"


class TestEvaluationCache:
    @staticmethod
    def make_cache(counter):
        def corner_evaluator(samples, corners):
            counter.append(np.atleast_2d(samples).shape[0])
            samples = np.atleast_2d(samples)
            # Metric = row sum + corner index, distinct per (row, corner).
            base = samples.sum(axis=1)
            return np.stack(
                [base[:, np.newaxis] + i for i in range(len(corners))], axis=0
            )

        return EvaluationCache(corner_evaluator, dimension=3, n_metrics=1)

    def test_repeat_rows_hit_without_reevaluation(self):
        calls = []
        cache = self.make_cache(calls)
        corners = nine_corner_grid()[:2]
        samples = np.arange(12.0).reshape(4, 3)
        first = cache.evaluate(samples, corners)
        assert cache.misses == 8 and cache.hits == 0
        second = cache.evaluate(samples, corners)
        assert np.array_equal(first, second)
        assert cache.hits == 8 and cache.misses == 8
        assert calls == [4]  # the second call never reached the evaluator
        assert len(cache) == 8

    def test_partial_batches_only_evaluate_fresh_rows(self):
        calls = []
        cache = self.make_cache(calls)
        corners = nine_corner_grid()[:3]
        cache.evaluate(np.arange(6.0).reshape(2, 3), corners)
        mixed = np.vstack([np.arange(3.0), np.full(3, 99.0)])
        block = cache.evaluate(mixed, corners)
        assert calls == [2, 1]  # only the unseen row went out
        assert cache.hits == 3 and cache.misses == 9
        np.testing.assert_array_equal(block[:, 0, 0], [3.0, 4.0, 5.0])

    def test_new_corner_recomputes_the_row(self):
        calls = []
        cache = self.make_cache(calls)
        corners = nine_corner_grid()
        samples = np.arange(3.0).reshape(1, 3)
        cache.evaluate(samples, corners[:1])
        block = cache.evaluate(samples, corners[:2])
        # The row was only cached for corner 0, so it counts as fresh again.
        assert calls == [1, 1]
        assert block.shape == (2, 1, 1)
        assert cache.eval_seconds >= 0.0

    def test_keys_are_bit_exact(self):
        calls = []
        cache = self.make_cache(calls)
        corners = nine_corner_grid()[:1]
        cache.evaluate(np.array([[0.1, 0.2, 0.3]]), corners)
        # A row differing in the last bit must miss.
        perturbed = np.array([[np.nextafter(0.1, 1.0), 0.2, 0.3]])
        cache.evaluate(perturbed, corners)
        assert cache.misses == 2 and cache.hits == 0

    def test_empty_corner_list_rejected(self):
        cache = self.make_cache([])
        with pytest.raises(ValueError):
            cache.evaluate(np.zeros((1, 3)), [])

    def test_corners_sharing_a_display_name_do_not_collide(self):
        """PVTCondition.name rounds V/T for printing; the cache must key on
        the condition itself, never the lossy string."""
        near = PVTCondition("tt", 1.0, 27.0), PVTCondition("tt", 1.0, 27.4)
        assert near[0].name == near[1].name  # the trap

        def corner_evaluator(samples, corners):
            samples = np.atleast_2d(samples)
            return np.stack(
                [np.full((samples.shape[0], 1), c.temperature_c) for c in corners],
                axis=0,
            )

        cache = EvaluationCache(corner_evaluator, dimension=3, n_metrics=1)
        samples = np.zeros((1, 3))
        assert cache.evaluate(samples, [near[0]])[0, 0, 0] == 27.0
        assert cache.evaluate(samples, [near[1]])[0, 0, 0] == 27.4
        assert cache.misses == 2 and cache.hits == 0


class TestProgressiveTrajectoryLock:
    """Same seeds -> same trajectories, whichever corner engine runs."""

    QUICK = ProgressiveConfig(TrustRegionConfig(seed=0, max_evaluations=200))

    @pytest.mark.parametrize(
        "topology", ["ota_5t", "two_stage_opamp", "folded_cascode", "telescopic"]
    )
    def test_stacked_equals_looped_end_to_end(self, topology, oracles):
        """Each smoke case: a handle on the looped evaluator matches the
        default campaign bit for bit (trajectories, accounting, cache
        content)."""
        (case,) = [
            case
            for case in get_suite("smoke")
            if case.topology == topology and case.optimizer == "trust_region"
        ]
        seeds = [0, 1]
        runs = []
        for looped in (False, True):
            if looped:
                oracles.looped_corners()
            campaign = case.build_campaign(seeds)
            evaluator = campaign.handle.corner_evaluator
            if looped:
                assert evaluator.func is evaluate_corners_looped
            else:
                assert evaluator.__func__ is SizingProblem.evaluate_corners
            outcome = campaign.run()
            digest = campaign.cache.state_digest()
            runs.append((outcome, fingerprint_outcome(outcome, digest, seeds)))
        (stacked, stacked_fp), (looped, looped_fp) = runs
        assert stacked_fp == looped_fp
        for ours, theirs in zip(stacked.results, looped.results):
            for mine, other in zip(ours.corner_reports, theirs.corner_reports):
                assert mine.satisfied == other.satisfied
                assert mine.metrics == other.metrics

    def test_cache_and_eval_accounting_populated(self):
        # A folding seed needs a second phase, at three corners.
        case, (seed, _) = FOLDING["trust_region"]
        config = ProgressiveConfig(TrustRegionConfig(seed=seed, max_evaluations=200))
        outcome = build_campaign(
            case.topology, tier=case.tier, corners=case.corners(), config=config
        ).run()
        (result,) = outcome.results
        assert len(result.phase_results) == 2
        assert len(result.active_corners) == 3
        assert outcome.cache_misses > 0
        # The only reuse: phase 1 warm-starts from phase 0's winner, which
        # the full-grid verification already cached at all three active
        # corners.
        assert outcome.cache_hits == 3
        assert outcome.eval_seconds > 0.0


class TestRefitSkip:
    """The final surrogate refit (whose output nobody consumes) is skipped."""

    def test_no_refit_after_the_deciding_batch(self, monkeypatch, search_sizes):
        from repro.search.trust_region import TrustRegionSearch
        from repro.core.design_space import DesignSpace, Parameter
        from repro.search.spec import Spec, Specification

        def evaluator(samples):
            return np.atleast_2d(samples)[:, :1] * 0.0

        space = DesignSpace([Parameter("x", 0.0, 1.0, grid_points=201)])
        spec = Specification([Spec("a", ">=", 10.0)], ["a"])  # unsatisfiable
        search_sizes(
            batch_size=5, candidate_pool=32, surrogate_hidden=(8,), initial_epochs=5, refit_epochs=2,
        )
        config = TrustRegionConfig(seed=0, max_evaluations=30)
        refits = []
        original = TrustRegionSearch._refit_surrogate

        def counting(self, epochs):
            refits.append(self._count)
            return original(self, epochs)

        monkeypatch.setattr(TrustRegionSearch, "_refit_surrogate", counting)
        result = run_in_campaign(evaluator, space, spec, config).result()
        assert result.evaluations == 30
        # Refits: one on the Monte-Carlo seed, then one per iteration except
        # the budget-exhausting last one, whose refit nobody would consume.
        assert len(refits) == len(result.history)
        assert refits[-1] < config.max_evaluations
        assert config.max_evaluations not in refits

    def test_search_solved_by_seed_stage_never_fits(self, monkeypatch):
        from repro.search.trust_region import TrustRegionSearch
        from repro.core.design_space import DesignSpace, Parameter
        from repro.search.spec import Spec, Specification

        def evaluator(samples):
            return np.ones((np.atleast_2d(samples).shape[0], 1))

        space = DesignSpace([Parameter("x", 0.0, 1.0, grid_points=11)])
        spec = Specification([Spec("a", ">=", 0.5)], ["a"])
        calls = []
        monkeypatch.setattr(
            TrustRegionSearch,
            "_refit_surrogate",
            lambda self, epochs: calls.append(epochs),
        )
        result = run_in_campaign(
            evaluator, space, spec, TrustRegionConfig(seed=0)
        ).result()
        assert result.solved
        assert calls == []
