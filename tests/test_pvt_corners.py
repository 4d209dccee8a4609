"""Skewed process corners (fs/sf) and their effect on the topology zoo,
and phase 0's two-regime start set.

The tt/ff/ss corners are exercised by the search tests; these cover the
cross corners where NMOS and PMOS move in *opposite* directions, which is
exactly where a symmetric-derating bug would hide.
"""

import numpy as np
import pytest

from oracles.mna import mna_metrics
from repro.circuits.process import get_technology
from repro.circuits.pvt import (
    NOMINAL,
    PROCESS_CORNERS,
    PVTCondition,
    full_corner_grid,
    hardest_condition,
    initial_corners,
    nine_corner_grid,
    rank_by_severity,
)
from repro.circuits.topologies import FiveTransistorOTA, available_topologies, get_topology


class TestSkewedCornerDerating:
    def test_fs_speeds_nmos_and_slows_pmos(self):
        card = get_technology("bsim45")
        derated = PVTCondition("fs").apply(card)
        assert derated.kp_n > card.kp_n
        assert derated.kp_p < card.kp_p
        assert derated.vth_n < card.vth_n
        assert derated.vth_p > card.vth_p

    def test_sf_slows_nmos_and_speeds_pmos(self):
        card = get_technology("bsim45")
        derated = PVTCondition("sf").apply(card)
        assert derated.kp_n < card.kp_n
        assert derated.kp_p > card.kp_p
        assert derated.vth_n > card.vth_n
        assert derated.vth_p < card.vth_p

    def test_fs_and_sf_are_mirror_images(self):
        mob_n_fs, mob_p_fs, dvth_n_fs, dvth_p_fs = PROCESS_CORNERS["fs"]
        mob_n_sf, mob_p_sf, dvth_n_sf, dvth_p_sf = PROCESS_CORNERS["sf"]
        assert mob_n_fs == mob_p_sf and mob_p_fs == mob_n_sf
        assert dvth_n_fs == dvth_p_sf and dvth_p_fs == dvth_n_sf

    def test_skewed_corners_in_full_grid(self):
        processes = {condition.process for condition in full_corner_grid()}
        assert {"fs", "sf"} <= processes

    def test_skewed_severity_between_ff_and_ss(self):
        """Cross corners are harder than all-fast, easier than all-slow."""
        severity = {
            name: PVTCondition(name).severity() for name in ("ff", "fs", "sf", "ss")
        }
        assert severity["ff"] < severity["fs"] < severity["ss"]
        assert severity["ff"] < severity["sf"] < severity["ss"]

    def test_rank_by_severity_handles_skewed(self):
        corners = [PVTCondition(p) for p in ("tt", "fs", "sf", "ss", "ff")]
        ranked = rank_by_severity(corners)
        assert ranked[0].process == "ss"
        assert ranked[-1].process == "ff"


def _names(corners):
    return [corner.name for corner in corners]


class TestInitialCorners:
    def test_one_corner_stays_one_corner(self):
        hardest = hardest_condition(nine_corner_grid())
        assert initial_corners([NOMINAL]) == [NOMINAL]
        assert initial_corners([hardest]) == [hardest]

    def test_one_environment_point_starts_at_the_hardest_corner(self):
        # Process corners only: no supply/temperature span to cross.
        ranked = rank_by_severity([PVTCondition(p) for p in PROCESS_CORNERS])
        assert initial_corners(ranked) == [PVTCondition("ss")]

    @pytest.mark.parametrize("grid", [nine_corner_grid, full_corner_grid])
    def test_both_failure_regimes(self, grid):
        start = initial_corners(rank_by_severity(grid()))
        assert _names(start) == ["ss_0.90V_125C", "ss_1.10V_-40C"]
        assert start[0] == hardest_condition(grid())

    @pytest.mark.parametrize("grid", [nine_corner_grid, full_corner_grid])
    def test_independent_of_input_order(self, grid):
        corners = grid()
        expected = initial_corners(rank_by_severity(corners))
        rng = np.random.default_rng(0)
        for _ in range(8):
            shuffled = [corners[i] for i in rng.permutation(len(corners))]
            assert rank_by_severity(shuffled) == rank_by_severity(corners)
            assert initial_corners(rank_by_severity(shuffled)) == expected

    def test_equal_severity_corners_rank_the_same_in_any_order(self):
        # 1.00V and 1.10V carry no low-supply penalty, so the two hot
        # corners tie for hardest and the two cold ones tie too.  Listed
        # either way round, they rank the same, and phase 0 starts at the
        # same two corners (a different hardest corner would move the far
        # one).
        hot = [PVTCondition("ss", 1.0, 125.0), PVTCondition("ss", 1.1, 125.0)]
        cold = [PVTCondition("ss", 1.0, -40.0), PVTCondition("ss", 1.1, -40.0)]
        assert hot[0].severity() == hot[1].severity()
        assert cold[0].severity() == cold[1].severity()
        for grid in ([*hot, *cold], [*hot[::-1], *cold[::-1]]):
            ranked = rank_by_severity(grid)
            assert ranked == [*hot, *cold]
            assert hardest_condition(grid) == hot[0]
            assert initial_corners(ranked) == [hot[0], cold[1]]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            initial_corners([])


@pytest.mark.parametrize("name", ["fs", "sf"])
class TestTopologiesAtSkewedCorners:
    def test_all_topologies_finite(self, name):
        condition = PVTCondition(name, 0.9, 125.0)
        for topology in available_topologies():
            problem = get_topology(topology)(condition=condition)
            samples = problem.design_space().sample(np.random.default_rng(2), 200)
            metrics = problem.evaluate_batch(samples)
            assert np.all(np.isfinite(metrics)), f"{topology} non-finite at {name}"

    def test_mna_cross_check_holds(self, name):
        """Closed-form vs MNA agreement survives asymmetric derating."""
        condition = PVTCondition(name, 0.9, 125.0)
        for topology in available_topologies():
            problem = get_topology(topology)(condition=condition)
            space = problem.design_space()
            sizing = space.from_unit(np.full(space.dimension, 0.5))
            analytic = problem.evaluate(sizing)
            numeric = mna_metrics(problem, sizing)
            assert analytic["dc_gain_db"] == pytest.approx(
                numeric["dc_gain_db"], abs=0.1
            ), topology
            assert analytic["ugbw_hz"] == pytest.approx(numeric["ugbw_hz"], rel=0.05), topology
            assert analytic["phase_margin_deg"] == pytest.approx(
                numeric["phase_margin_deg"], abs=3.0
            ), topology


class TestSkewAsymmetry:
    def test_nmos_input_ota_prefers_fs_over_sf(self):
        """The 5T OTA's input gm is NMOS: fast-NMOS must beat fast-PMOS."""
        space = FiveTransistorOTA().design_space()
        sizing = space.from_unit(np.full(space.dimension, 0.5))
        fs = FiveTransistorOTA(condition=PVTCondition("fs")).evaluate(sizing)
        sf = FiveTransistorOTA(condition=PVTCondition("sf")).evaluate(sizing)
        assert fs["ugbw_hz"] > sf["ugbw_hz"]
