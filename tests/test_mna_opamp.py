"""MNA solver checks and the MNA-vs-analytical opamp cross-validation."""

import numpy as np
import pytest

from oracles.mna import (
    ACSweepResult,
    MNASolver,
    Netlist,
    logspace_frequencies,
    mna_metrics,
    unity_gain_metrics,
)
from repro.circuits.topologies.two_stage import METRIC_NAMES, VARIABLE_NAMES, TwoStageOpAmp
from repro.circuits.pvt import PVTCondition


def rc_lowpass(resistance=1e3, capacitance=1e-9):
    netlist = Netlist("rc")
    netlist.add_voltage_source("in", "0", 1.0)
    netlist.add_resistor("in", "out", resistance)
    netlist.add_capacitor("out", "0", capacitance)
    return netlist


class TestMNASolver:
    def test_rc_lowpass_matches_analytic(self):
        solver = MNASolver(rc_lowpass())
        frequencies = logspace_frequencies(1e2, 1e8, 120)
        result = solver.ac_sweep(frequencies)
        corner = 1.0 / (2.0 * np.pi * 1e3 * 1e-9)
        analytic = 1.0 / (1.0 + 1j * frequencies / corner)
        np.testing.assert_allclose(result.transfer("out"), analytic, rtol=1e-9)

    def test_batched_sweep_matches_single_solves(self):
        solver = MNASolver(rc_lowpass())
        frequencies = np.array([1e3, 1e5, 1e7])
        sweep = solver.ac_sweep(frequencies)
        for k, frequency in enumerate(frequencies):
            single = solver.solve_at(float(frequency))
            assert abs(single["out"] - sweep.node_voltages["out"][k]) < 1e-12

    def test_dc_divider(self):
        netlist = Netlist("divider")
        netlist.add_voltage_source("in", "0", 2.0)
        netlist.add_resistor("in", "mid", 1e3)
        netlist.add_resistor("mid", "0", 3e3)
        solution = MNASolver(netlist).solve_dc()
        assert solution["mid"] == pytest.approx(1.5, rel=1e-9)

    def test_netlist_mutation_is_picked_up(self):
        netlist = rc_lowpass()
        solver = MNASolver(netlist)
        before = solver.solve_dc()["out"]
        netlist.add_resistor("out", "0", 1e3)  # turn into a 2:1 divider
        after = solver.solve_dc()["out"]
        assert before == pytest.approx(1.0, rel=1e-6)
        assert after == pytest.approx(0.5, rel=1e-6)

    def test_vccs_inverting_gain(self):
        netlist = Netlist("cs-stage")
        netlist.add_voltage_source("in", "0", 1.0)
        netlist.add_vccs("out", "0", "in", "0", 1e-3)
        netlist.add_resistor("out", "0", 1e4)
        solution = MNASolver(netlist).solve_dc()
        assert solution["out"] == pytest.approx(-10.0, rel=1e-9)


class TestUnityGainMetrics:
    @staticmethod
    def synthetic_sweep(poles_hz, gain_db, frequencies=None, zero_rhp_hz=None):
        if frequencies is None:
            frequencies = logspace_frequencies(1e0, 1e12, 2000)
        response = np.full(len(frequencies), 10 ** (gain_db / 20.0), dtype=complex)
        s = 1j * frequencies
        for pole in poles_hz:
            response = response / (1.0 + s / pole)
        if zero_rhp_hz is not None:
            response = response * (1.0 - s / zero_rhp_hz)
        return ACSweepResult(frequencies=frequencies, node_voltages={"out": response})

    def test_single_pole_metrics(self):
        pole = 1e3
        result = self.synthetic_sweep([pole], 60.0)
        metrics = unity_gain_metrics(result, "out")
        assert metrics["dc_gain_db"] == pytest.approx(60.0, abs=0.01)
        assert metrics["ugbw_hz"] == pytest.approx(pole * 1000.0, rel=0.02)
        assert metrics["phase_margin_deg"] == pytest.approx(90.0, abs=1.0)

    def test_three_pole_margin_is_negative_but_in_range(self):
        result = self.synthetic_sweep([1e3, 1e3, 1e3], 80.0)
        metrics = unity_gain_metrics(result, "out")
        assert -180.0 < metrics["phase_margin_deg"] < 0.0

    def test_phase_margin_wraps_below_minus_180(self):
        """Five coincident poles accumulate ~-420 degrees at the crossover,
        i.e. a raw margin near -240; the seed reported that below -180
        instead of wrapping into the conventional range."""
        result = self.synthetic_sweep([1e3] * 5, 100.0)
        raw_margin = 180.0 + np.degrees(
            -5.0 * np.arctan(10.0)  # exact phase at the 0 dB crossing
        )
        assert raw_margin < -180.0  # the sweep really exercises the wrap
        metrics = unity_gain_metrics(result, "out")
        assert -180.0 < metrics["phase_margin_deg"] <= 180.0
        assert metrics["phase_margin_deg"] == pytest.approx(raw_margin + 360.0, abs=2.0)

    def test_never_crossing_returns_nan(self):
        result = self.synthetic_sweep([1e3], -10.0)
        metrics = unity_gain_metrics(result, "out")
        assert np.isnan(metrics["ugbw_hz"])


SIZING = dict(
    zip(VARIABLE_NAMES, [10e-6, 10e-6, 30e-6, 200e-9, 200e-9, 40e-6, 200e-6, 2e-12])
)


class TestOpampCrossCheck:
    def test_analytic_matches_mna(self):
        amp = TwoStageOpAmp()
        analytic = amp.evaluate(SIZING)
        numeric = mna_metrics(amp, SIZING)
        assert analytic["dc_gain_db"] == pytest.approx(numeric["dc_gain_db"], abs=0.1)
        assert analytic["ugbw_hz"] == pytest.approx(numeric["ugbw_hz"], rel=0.05)
        assert analytic["phase_margin_deg"] == pytest.approx(
            numeric["phase_margin_deg"], abs=3.0
        )

    def test_cross_check_holds_at_a_harsh_corner(self):
        amp = TwoStageOpAmp(condition=PVTCondition("ss", 0.9, 125.0))
        analytic = amp.evaluate(SIZING)
        numeric = mna_metrics(amp, SIZING)
        assert analytic["dc_gain_db"] == pytest.approx(numeric["dc_gain_db"], abs=0.1)
        assert analytic["ugbw_hz"] == pytest.approx(numeric["ugbw_hz"], rel=0.05)
        assert analytic["phase_margin_deg"] == pytest.approx(
            numeric["phase_margin_deg"], abs=3.0
        )

    def test_batch_matches_scalar_path(self):
        amp = TwoStageOpAmp()
        space = amp.design_space()
        samples = space.sample(np.random.default_rng(11), 32)
        batch = amp.evaluate_batch(samples)
        assert batch.shape == (32, len(METRIC_NAMES))
        for k in (0, 7, 31):
            single = amp.evaluate(samples[k])
            np.testing.assert_allclose(
                batch[k], [single[name] for name in METRIC_NAMES], rtol=1e-12
            )

    def test_metrics_all_finite_over_design_space(self):
        amp = TwoStageOpAmp()
        samples = amp.design_space().sample(np.random.default_rng(12), 500)
        metrics = amp.evaluate_batch(samples)
        assert np.all(np.isfinite(metrics))

    def test_corner_ordering_is_physical(self):
        """A slow/hot/low-V corner must not beat nominal on gain-bandwidth."""
        nominal = TwoStageOpAmp().evaluate(SIZING)
        harsh = TwoStageOpAmp(condition=PVTCondition("ss", 0.9, 125.0)).evaluate(SIZING)
        assert harsh["ugbw_hz"] < nominal["ugbw_hz"]
        assert harsh["dc_gain_db"] < nominal["dc_gain_db"]

    def test_rejects_bad_vector_shape(self):
        amp = TwoStageOpAmp()
        with pytest.raises(ValueError):
            amp.evaluate([1.0, 2.0])
        with pytest.raises(ValueError):
            amp.evaluate_batch(np.ones((3, 4)))
