"""Device-model continuity across the weak/strong inversion boundary."""

import numpy as np
import pytest

from oracles.devices import MOSFET, smooth_overdrive
from repro.circuits.devices import saturation_from_current
from repro.circuits.process import get_technology

CARD = get_technology("bsim45")


def make_device(device_type="nmos", width=2e-6, length=180e-9):
    return MOSFET(device_type, width, length, CARD)


class TestContinuityAtVovZero:
    @pytest.mark.parametrize("device_type", ["nmos", "pmos"])
    def test_ids_continuous_across_vov_zero(self, device_type):
        device = make_device(device_type)
        vth = device.vth
        # Straddle the boundary as tightly as float64 allows.
        below = device.operating_point(vth - 1e-12, 0.9).ids
        above = device.operating_point(vth + 1e-12, 0.9).ids
        assert abs(above - below) / max(below, 1e-30) < 1e-6

    @pytest.mark.parametrize("device_type", ["nmos", "pmos"])
    def test_gm_continuous_across_vov_zero(self, device_type):
        device = make_device(device_type)
        vth = device.vth
        below = device.operating_point(vth - 1e-12, 0.9).gm
        above = device.operating_point(vth + 1e-12, 0.9).gm
        assert abs(above - below) / max(below, 1e-30) < 1e-6

    def test_sweep_has_no_jumps(self):
        """Relative steps on a fine vgs grid stay proportional to the step."""
        device = make_device()
        vgs = np.linspace(device.vth - 0.15, device.vth + 0.15, 6001)
        ids = np.array([device.operating_point(v, 0.9).ids for v in vgs])
        relative_steps = np.abs(np.diff(ids)) / np.maximum(ids[:-1], 1e-30)
        # A discontinuity shows up as a step-size-independent jump; a smooth
        # exponential on a 50 uV grid moves < 0.2% per step.
        assert relative_steps.max() < 2e-3

    def test_ids_monotone_in_vgs(self):
        device = make_device()
        vgs = np.linspace(0.1, 1.5, 2001)
        ids = np.array([device.operating_point(v, 0.9).ids for v in vgs])
        assert np.all(np.diff(ids) > 0)

    def test_limits_match_square_law_and_exponential(self):
        device = make_device()
        phi_t = CARD.thermal_voltage(27.0)
        # Deep strong inversion approaches the square law.
        strong = device.operating_point(device.vth + 0.5, 1.5)
        square = 0.5 * device.beta * 0.5 ** 2 * (1.0 + device.channel_length_modulation * 1.5)
        assert strong.ids == pytest.approx(square, rel=0.05)
        # Deep weak inversion decays exponentially: one phi_t of gate drive
        # changes the current by e^(1/n).
        low = device.operating_point(device.vth - 0.35, 0.9).ids
        lower = device.operating_point(device.vth - 0.35 - phi_t, 0.9).ids
        assert low / lower == pytest.approx(np.exp(1.0 / 1.4), rel=1e-2)


class TestRegions:
    def test_region_labels(self):
        device = make_device()
        assert device.operating_point(device.vth - 0.1, 0.9).region == "subthreshold"
        assert device.operating_point(device.vth + 0.3, 0.9).region == "saturation"
        assert device.operating_point(device.vth + 0.5, 0.05).region == "triode"

    def test_validation(self):
        with pytest.raises(ValueError):
            MOSFET("nmos", 1e-9, 180e-9, CARD)  # below min width
        with pytest.raises(ValueError):
            MOSFET("nmos", 2e-6, 1e-9, CARD)  # below min length
        with pytest.raises(ValueError):
            MOSFET("njfet", 2e-6, 180e-9, CARD)  # unknown type


class TestBiasForCurrent:
    def test_round_trip_with_operating_point(self):
        """bias_for_current is the exact inverse of the smooth drain law."""
        device = make_device()
        for ids in (1e-7, 1e-6, 1e-5, 1e-4):
            op = device.bias_for_current(ids, 0.9)
            forward = device.operating_point(device.vth + op.vov, 0.9)
            assert forward.ids == pytest.approx(ids, rel=1e-9)
            assert forward.gm == pytest.approx(op.gm, rel=1e-9)
            assert forward.gds == pytest.approx(op.gds, rel=1e-9)

    def test_weak_inversion_gm_limit(self):
        """At tiny currents gm/id approaches 1/(n phi_t)."""
        device = make_device(width=100e-6)
        phi_t = CARD.thermal_voltage(27.0)
        op = device.bias_for_current(1e-9, 0.9)
        assert op.gm / op.ids == pytest.approx(1.0 / (1.4 * phi_t), rel=0.02)

    def test_rejects_nonpositive_current(self):
        with pytest.raises(ValueError):
            make_device().bias_for_current(0.0, 0.9)


class TestVectorizedHelpers:
    def test_smooth_overdrive_limits(self):
        two_n_phi_t = 0.0725
        assert smooth_overdrive(1.0, two_n_phi_t) == pytest.approx(1.0, rel=1e-5)
        assert smooth_overdrive(-1.0, two_n_phi_t) == pytest.approx(
            two_n_phi_t * np.exp(-1.0 / two_n_phi_t), rel=1e-5
        )
        # Vectorized call matches scalar calls.
        vov = np.linspace(-0.3, 0.3, 7)
        batch = smooth_overdrive(vov, two_n_phi_t)
        scalars = [smooth_overdrive(v, two_n_phi_t) for v in vov]
        np.testing.assert_allclose(batch, scalars)

    def test_saturation_from_current_matches_scalar_api(self):
        device = make_device()
        phi_t = CARD.thermal_voltage(27.0)
        currents = np.array([1e-7, 1e-6, 1e-5, 1e-4])
        veff, vov, gm, gds = saturation_from_current(
            device.beta, device.channel_length_modulation, currents, 0.9, phi_t
        )
        for i, ids in enumerate(currents):
            op = device.bias_for_current(float(ids), 0.9)
            assert op.gm == pytest.approx(float(gm[i]), rel=1e-12)
            assert op.vov == pytest.approx(float(vov[i]), rel=1e-9)
