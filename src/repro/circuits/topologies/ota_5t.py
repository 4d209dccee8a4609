"""Five-transistor OTA: the smallest workload in the topology zoo.

An NMOS differential pair (M1/M2) with a PMOS current-mirror load (M3/M4)
and a tail current source (M5).  Single high-impedance node at the output,
so the response is dominated by one pole, with the classic mirror pole/zero
doublet as the only other feature::

    A(s) = gm1 Rout (1 + s Cm / (2 gm3)) / ((1 + s Cm / gm3)(1 + s Rout Cout))

The M2 half of the input signal reaches the output directly while the M1
half is relayed through the mirror; the mirror pole at ``gm3 / Cm`` therefore
comes with a left-half-plane zero at exactly twice its frequency.  The
closed-form metrics and the equivalent netlist the tests sweep with MNA
realise this same transfer function, so the cross-check agrees by
construction.

Being a single-stage amplifier, the 5T OTA trades gain (no cascoding, no
second stage) for simplicity — its spec ladder tops out around 40 dB, and
its 5-dimensional design space makes it the fastest benchmark in the suite.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.circuits.devices import parasitic_capacitances, saturation_from_current
from repro.circuits.topologies.base import (
    AMPLIFIER_METRIC_NAMES,
    SizingProblem,
    register_topology,
)
from repro.core.design_space import DesignSpace, Parameter
from repro.search.spec import Spec


@register_topology
class FiveTransistorOTA(SizingProblem):
    """Closed-form evaluator for the five-transistor OTA."""

    name = "ota_5t"
    VARIABLE_NAMES: Tuple[str, ...] = ("w1", "w3", "l1", "l3", "ibias")
    METRIC_NAMES: Tuple[str, ...] = AMPLIFIER_METRIC_NAMES

    # ------------------------------------------------------------------
    def design_space(self) -> DesignSpace:
        card = self.card
        return DesignSpace(
            [
                Parameter("w1", 10 * card.min_width, 1000 * card.min_width, 64, True, "m"),
                Parameter("w3", 10 * card.min_width, 1000 * card.min_width, 64, True, "m"),
                Parameter("l1", 2 * card.min_length, 20 * card.min_length, 64, True, "m"),
                Parameter("l3", 2 * card.min_length, 20 * card.min_length, 64, True, "m"),
                Parameter("ibias", 2e-6, 500e-6, 64, True, "A"),
            ]
        )

    # ------------------------------------------------------------------
    def _small_signal_parts(
        self, samples: np.ndarray, card, temperature_c
    ) -> Dict[str, np.ndarray]:
        """Vectorized small-signal quantities for ``(count, dim)`` sizings."""
        w1, w3, l1, l3, ibias = samples.T
        vds = 0.5 * card.vdd_nominal
        phi_t = card.thermal_voltage(temperature_c)

        lam_n = card.lambda_n * card.min_length / l1
        lam_p = card.lambda_p * card.min_length / l3
        branch = 0.5 * ibias
        _, _, gm1, gds1 = saturation_from_current(card.kp_n * w1 / l1, lam_n, branch, vds, phi_t)
        _, _, gm3, gds3 = saturation_from_current(card.kp_p * w3 / l3, lam_p, branch, vds, phi_t)

        cgs1, cgd1, cdb1 = parasitic_capacitances(card, w1, l1)
        cgs3, cgd3, cdb3 = parasitic_capacitances(card, w3, l3)

        rout = 1.0 / (gds1 + gds3)
        cout = self.load_cap + cdb1 + cgd1 + cdb3 + cgd3
        # Mirror node: both mirror gates, the M3 drain and the M1 drain.
        cm = 2.0 * cgs3 + cdb3 + cdb1 + cgd1
        return {
            "gm1": gm1,
            "gm3": gm3,
            "rout": rout,
            "cout": cout,
            "cm": cm,
            "ibias": ibias,
            "vdd": np.asarray(card.vdd_nominal, dtype=np.float64),
        }

    def _metrics_from_parts(self, p: Dict[str, np.ndarray]) -> np.ndarray:
        """Closed-form metrics from the small-signal parts, any batch shape."""
        gm1, gm3 = p["gm1"], p["gm3"]
        rout, cout, cm = p["rout"], p["cout"], p["cm"]

        two_pi = 2.0 * np.pi
        a0 = gm1 * rout
        fp1 = 1.0 / (two_pi * rout * cout)
        fpm = gm3 / (two_pi * cm)
        fz = 2.0 * fpm  # LHP zero of the mirror doublet
        fu = gm1 / (two_pi * cout)

        phase_margin = (
            180.0
            - np.degrees(np.arctan(fu / fp1))
            - np.degrees(np.arctan(fu / fpm))
            + np.degrees(np.arctan(fu / fz))
        )
        dc_gain_db = 20.0 * np.log10(a0)
        power = p["vdd"] * p["ibias"]
        slew = p["ibias"] / cout
        return self._stack_metrics(dc_gain_db, fu, phase_margin, power, slew)

    # ------------------------------------------------------------------
    def default_specs(self) -> Dict[str, Tuple[Spec, ...]]:
        # Bounds calibrated by uniform sampling at the hardest sign-off
        # corner (ss/0.9V/125C): smoke ~4e-2 of the space is feasible,
        # nominal ~1e-3, stretch ~2e-4.
        return {
            "smoke": (
                Spec("dc_gain_db", ">=", 45.0),
                Spec("ugbw_hz", ">=", 60e6),
                Spec("phase_margin_deg", ">=", 60.0),
                Spec("power_w", "<=", 300e-6),
                Spec("slew_v_per_s", ">=", 40e6),
            ),
            "nominal": (
                Spec("dc_gain_db", ">=", 48.0),
                Spec("ugbw_hz", ">=", 90e6),
                Spec("phase_margin_deg", ">=", 60.0),
                Spec("power_w", "<=", 250e-6),
                Spec("slew_v_per_s", ">=", 60e6),
            ),
            "stretch": (
                Spec("dc_gain_db", ">=", 50.0),
                Spec("ugbw_hz", ">=", 110e6),
                Spec("phase_margin_deg", ">=", 60.0),
                Spec("power_w", "<=", 300e-6),
                Spec("slew_v_per_s", ">=", 80e6),
            ),
        }
