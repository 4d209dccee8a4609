"""Topology zoo: SizingProblem interface, registry, and per-topology physics."""

import numpy as np
import pytest

from oracles.mna import mna_metrics
from repro.circuits.pvt import NOMINAL, PVTCondition, hardest_condition, nine_corner_grid
from repro.circuits.topologies import (
    AMPLIFIER_METRIC_NAMES,
    SPEC_TIERS,
    FiveTransistorOTA,
    FoldedCascodeOTA,
    SizingProblem,
    TelescopicCascodeOTA,
    TwoStageOpAmp,
    available_topologies,
    get_topology,
    register_topology,
)

ALL_TOPOLOGIES = [FiveTransistorOTA, FoldedCascodeOTA, TelescopicCascodeOTA, TwoStageOpAmp]

HARSH = PVTCondition("ss", 0.9, 125.0)


def mid_space_sizing(problem):
    """The geometric centre of the design space, a well-behaved test point."""
    space = problem.design_space()
    return space.from_unit(np.full(space.dimension, 0.5))


class TestRegistry:
    def test_all_builtins_registered(self):
        names = available_topologies()
        assert set(names) >= {"two_stage_opamp", "ota_5t", "folded_cascode", "telescopic"}
        assert len(names) >= 4

    def test_get_topology_roundtrip(self):
        for cls in ALL_TOPOLOGIES:
            assert get_topology(cls.name) is cls

    def test_unknown_topology_lists_available(self):
        with pytest.raises(KeyError, match="two_stage_opamp"):
            get_topology("does_not_exist")

    def test_registering_unnamed_class_rejected(self):
        class Unnamed(FiveTransistorOTA):
            name = ""

        with pytest.raises(ValueError):
            register_topology(Unnamed)

    def test_name_collision_rejected(self):
        class Impostor(FiveTransistorOTA):
            name = "ota_5t"

        with pytest.raises(ValueError):
            register_topology(Impostor)


@pytest.mark.parametrize("cls", ALL_TOPOLOGIES, ids=lambda cls: cls.name)
class TestSizingProblemContract:
    def test_is_sizing_problem(self, cls):
        assert issubclass(cls, SizingProblem)

    def test_design_space_matches_variables(self, cls):
        problem = cls()
        space = problem.design_space()
        assert space.names == cls.VARIABLE_NAMES
        assert space.dimension == problem.dimension

    def test_metric_layout_is_shared(self, cls):
        assert cls.METRIC_NAMES == AMPLIFIER_METRIC_NAMES

    def test_batch_shape_and_finiteness(self, cls):
        problem = cls()
        samples = problem.design_space().sample(np.random.default_rng(7), 400)
        metrics = problem.evaluate_batch(samples)
        assert metrics.shape == (400, len(cls.METRIC_NAMES))
        assert np.all(np.isfinite(metrics))

    def test_batch_matches_scalar_path(self, cls):
        problem = cls()
        samples = problem.design_space().sample(np.random.default_rng(8), 16)
        batch = problem.evaluate_batch(samples)
        for k in (0, 5, 15):
            single = problem.evaluate(samples[k])
            np.testing.assert_allclose(
                batch[k], [single[name] for name in cls.METRIC_NAMES], rtol=1e-12
            )

    def test_rejects_bad_shapes(self, cls):
        problem = cls()
        with pytest.raises(ValueError):
            problem.evaluate(np.ones(problem.dimension + 1))
        with pytest.raises(ValueError):
            problem.evaluate_batch(np.ones((3, problem.dimension + 2)))

    def test_mapping_sizing_accepted(self, cls):
        problem = cls()
        vector = mid_space_sizing(problem)
        as_dict = dict(zip(cls.VARIABLE_NAMES, vector))
        np.testing.assert_allclose(problem.to_vector(as_dict), vector)
        assert problem.evaluate(as_dict) == problem.evaluate(vector)

    def test_spec_ladder_tiers(self, cls):
        ladder = cls().default_specs()
        assert set(ladder) == set(SPEC_TIERS)
        for specs in ladder.values():
            assert specs, "every tier needs at least one spec"
            for spec in specs:
                assert spec.metric in cls.METRIC_NAMES

    def test_harsh_corner_degrades_performance(self, cls):
        """Slow/hot/low-V must not beat nominal on gain or bandwidth."""
        sizing = mid_space_sizing(cls())
        nominal = cls(condition=NOMINAL).evaluate(sizing)
        harsh = cls(condition=HARSH).evaluate(sizing)
        assert harsh["dc_gain_db"] < nominal["dc_gain_db"]
        assert harsh["ugbw_hz"] < nominal["ugbw_hz"]

    def test_mna_cross_check_nominal_and_harsh(self, cls):
        """Closed-form gain/UGBW/PM agree with an MNA sweep of the netlist."""
        for condition in (NOMINAL, HARSH):
            problem = cls(condition=condition)
            sizing = mid_space_sizing(problem)
            analytic = problem.evaluate(sizing)
            numeric = mna_metrics(problem, sizing)
            assert analytic["dc_gain_db"] == pytest.approx(numeric["dc_gain_db"], abs=0.1)
            assert analytic["ugbw_hz"] == pytest.approx(numeric["ugbw_hz"], rel=0.05)
            assert analytic["phase_margin_deg"] == pytest.approx(
                numeric["phase_margin_deg"], abs=3.0
            )


class TestTopologyPhysics:
    """Spot checks tying each new topology to its defining trade-off."""

    def test_telescopic_outgains_five_transistor(self):
        """Cascoding must add orders of magnitude of output resistance."""
        ota = FiveTransistorOTA()
        telescopic = TelescopicCascodeOTA()
        gain_5t = ota.evaluate(mid_space_sizing(ota))["dc_gain_db"]
        gain_tele = telescopic.evaluate(mid_space_sizing(telescopic))["dc_gain_db"]
        assert gain_tele > gain_5t + 30.0

    def test_folded_cascode_pays_power_for_headroom(self):
        """At matched tail current the fold branch burns extra supply current."""
        folded = FoldedCascodeOTA()
        telescopic = TelescopicCascodeOTA()
        sizing_t = mid_space_sizing(telescopic)
        # Same tail current; the folded adds its cascode branch on top.
        sizing_f = dict(zip(FoldedCascodeOTA.VARIABLE_NAMES, [*sizing_t, sizing_t[-1]]))
        power_t = telescopic.evaluate(sizing_t)["power_w"]
        power_f = folded.evaluate(folded.to_vector(sizing_f))["power_w"]
        assert power_f > power_t

    def test_five_transistor_gain_is_single_stage(self):
        """No cascode, no second stage: gain stays below ~70 dB everywhere."""
        ota = FiveTransistorOTA()
        samples = ota.design_space().sample(np.random.default_rng(9), 1000)
        gains = ota.evaluate_batch(samples)[:, 0]
        assert np.max(gains) < 70.0

    def test_smoke_tier_feasible_at_hardest_corner(self):
        """Each topology's smoke tier must be satisfiable by plain sampling."""
        from repro.search.spec import Specification

        condition = hardest_condition(nine_corner_grid())
        for cls in ALL_TOPOLOGIES:
            problem = cls(condition=condition)
            specs = problem.default_specs()["smoke"]
            samples = problem.design_space().sample(np.random.default_rng(10), 4000)
            satisfied = Specification(specs, cls.METRIC_NAMES).satisfied(
                problem.evaluate_batch(samples)
            )
            assert satisfied.any(), f"{cls.name} smoke tier infeasible in 4000 samples"
