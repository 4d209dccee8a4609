"""Telescopic cascode OTA: highest single-stage gain in the zoo.

An NMOS input pair (M1/M2) stacked under NMOS cascodes (M3/M4), loaded by a
PMOS cascode current source (M5-M8), all in one branch — the textbook
high-gain, low-swing single-stage amplifier.  Cascoding boosts the output
resistance to ``(gm ro) ro`` on both sides, so the DC gain reaches
``gm1 (gm ro^2 || gm ro^2)`` — 70-90 dB from a single stage — while the
signal path stays a simple cascade::

    A(s) = gm1 Rout / ((1 + s Ccasc / gmc)(1 + s Rout Cout))

The non-dominant pole sits at the NMOS cascode source (the input pair's
drain), where the impedance is ``1/gmc``.  No Miller capacitor is needed:
the load capacitor itself compensates the single high-impedance node, so
``slew = ibias / Cout`` and the phase margin *improves* with heavier loads.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.circuits.devices import parasitic_capacitances, saturation_from_current
from repro.circuits.topologies.base import (
    AMPLIFIER_METRIC_NAMES,
    SizingProblem,
    batch_evaluator_contract,
    register_topology,
)
from repro.core.design_space import DesignSpace, Parameter
from repro.search.spec import Spec


@register_topology
class TelescopicCascodeOTA(SizingProblem):
    """Closed-form evaluator for the telescopic cascode OTA."""

    name = "telescopic"
    VARIABLE_NAMES: Tuple[str, ...] = ("w1", "wc", "l1", "lc", "ibias")
    METRIC_NAMES: Tuple[str, ...] = AMPLIFIER_METRIC_NAMES
    supports_stacked_corners = True

    # ------------------------------------------------------------------
    def design_space(self) -> DesignSpace:
        card = self.card
        return DesignSpace(
            [
                Parameter("w1", 10 * card.min_width, 1000 * card.min_width, 64, True, "m"),
                Parameter("wc", 10 * card.min_width, 1000 * card.min_width, 64, True, "m"),
                Parameter("l1", 2 * card.min_length, 20 * card.min_length, 64, True, "m"),
                Parameter("lc", 2 * card.min_length, 20 * card.min_length, 64, True, "m"),
                Parameter("ibias", 2e-6, 400e-6, 64, True, "A"),
            ]
        )

    # ------------------------------------------------------------------
    def _small_signal_parts(
        self, samples: np.ndarray, card=None, temperature_c=None
    ) -> Dict[str, np.ndarray]:
        """Vectorized small-signal quantities for ``(count, dim)`` sizings.

        ``card``/``temperature_c`` default to this problem's derated corner;
        the stacked corner engine passes ``(n_corners, 1)`` columns instead,
        and every quantity broadcasts to ``(n_corners, count)``.
        """
        card = self.card if card is None else card
        if temperature_c is None:
            temperature_c = self.condition.temperature_c
        w1, wc, l1, lc, ibias = samples.T
        vds = 0.5 * card.vdd_nominal
        phi_t = card.thermal_voltage(temperature_c)

        lam_n1 = card.lambda_n * card.min_length / l1
        lam_nc = card.lambda_n * card.min_length / lc
        lam_pc = card.lambda_p * card.min_length / lc
        branch = 0.5 * ibias

        # Input pair, NMOS cascode, PMOS cascode and PMOS current source all
        # carry the same half-tail branch current.
        _, _, gm1, gds1 = saturation_from_current(card.kp_n * w1 / l1, lam_n1, branch, vds, phi_t)
        _, _, gmc_n, gds_cn = saturation_from_current(
            card.kp_n * wc / lc, lam_nc, branch, vds, phi_t
        )
        _, _, gmc_p, gds_cp = saturation_from_current(
            card.kp_p * wc / lc, lam_pc, branch, vds, phi_t
        )
        gds_src = gds_cp  # PMOS current source sized like the cascode

        cgs1, cgd1, cdb1 = parasitic_capacitances(card, w1, l1)
        cgs_c, cgd_c, cdb_c = parasitic_capacitances(card, wc, lc)

        # Cascoding multiplies the looking-in resistance by the cascode's
        # intrinsic gain on both the NMOS and PMOS side.
        r_down = gmc_n / (gds_cn * gds1)
        r_up = gmc_p / (gds_cp * gds_src)
        rout = r_down * r_up / (r_down + r_up)
        # Output sees both cascode drains plus the external load.
        cout = self.load_cap + 2.0 * (cdb_c + cgd_c)
        # NMOS cascode source node: input-pair drain plus the cascode source.
        c_casc = cdb1 + cgd1 + cgs_c
        return {
            "gm1": gm1,
            "gmc": gmc_n,
            "rout": rout,
            "cout": cout,
            "c_casc": c_casc,
            "ibias": ibias,
            "vdd": np.asarray(card.vdd_nominal, dtype=np.float64),
        }

    def _metrics_from_parts(self, p: Dict[str, np.ndarray]) -> np.ndarray:
        """Closed-form metrics from the small-signal parts, any batch shape."""
        gm1, gmc = p["gm1"], p["gmc"]
        rout, cout, c_casc = p["rout"], p["cout"], p["c_casc"]

        two_pi = 2.0 * np.pi
        a0 = gm1 * rout
        fp1 = 1.0 / (two_pi * rout * cout)
        fcasc = gmc / (two_pi * c_casc)
        fu = gm1 / (two_pi * cout)

        phase_margin = (
            180.0
            - np.degrees(np.arctan(fu / fp1))
            - np.degrees(np.arctan(fu / fcasc))
        )
        dc_gain_db = 20.0 * np.log10(a0)
        power = p["vdd"] * p["ibias"]
        slew = p["ibias"] / cout
        return self._stack_metrics(dc_gain_db, fu, phase_margin, power, slew)

    @batch_evaluator_contract
    def evaluate_batch(self, samples: np.ndarray) -> np.ndarray:
        samples = self.validated_batch(samples)
        return self._metrics_from_parts(self._small_signal_parts(samples))

    # ------------------------------------------------------------------
    def default_specs(self) -> Dict[str, Tuple[Spec, ...]]:
        # Bounds calibrated by uniform sampling at the hardest sign-off
        # corner (ss/0.9V/125C): smoke ~4e-2 of the space is feasible,
        # nominal ~1e-3, stretch ~3e-4.
        return {
            "smoke": (
                Spec("dc_gain_db", ">=", 95.0),
                Spec("ugbw_hz", ">=", 60e6),
                Spec("phase_margin_deg", ">=", 60.0),
                Spec("power_w", "<=", 300e-6),
                Spec("slew_v_per_s", ">=", 40e6),
            ),
            "nominal": (
                Spec("dc_gain_db", ">=", 100.0),
                Spec("ugbw_hz", ">=", 90e6),
                Spec("phase_margin_deg", ">=", 60.0),
                Spec("power_w", "<=", 250e-6),
                Spec("slew_v_per_s", ">=", 60e6),
            ),
            "stretch": (
                Spec("dc_gain_db", ">=", 102.0),
                Spec("ugbw_hz", ">=", 110e6),
                Spec("phase_margin_deg", ">=", 60.0),
                Spec("power_w", "<=", 300e-6),
                Spec("slew_v_per_s", ">=", 80e6),
            ),
        }
