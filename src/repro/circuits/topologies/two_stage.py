"""Analytical two-stage Miller-compensated opamp evaluator.

This is the workload the paper's sizing agent is demonstrated on: an NMOS-input
differential pair (M1/M2) with PMOS mirror load (M3/M4), followed by an NMOS
common-source second stage (M6) with a PMOS current-source load (M7), Miller
capacitor ``cc`` between the stage-1 and stage-2 outputs, and an external
load ``CL``.

The two hooks :meth:`TwoStageOpAmp._small_signal_parts` and
:meth:`TwoStageOpAmp._metrics_from_parts` compute fully vectorized
closed-form metrics over a ``(count, dim)`` array of sizings in one NumPy
pass; the base class's ``evaluate_batch`` and ``evaluate_corners`` run them
on the hot path the Monte-Carlo/trust-region search hammers.  The tests
cross-check its poles/zero against an MNA sweep of the equivalent linear
netlist built from the same small-signal parts, which agrees to the
accuracy of the two-pole approximation.

The closed-form transfer function of the compensated two-stage is the
standard two-pole, one-RHP-zero result::

    A(s) = A0 (1 - s Cc/gm6) / (1 + a s + b s^2)
    A0 = gm1 R1 gm6 R2
    a  = R1 (C1 + Cc) + R2 (C2 + Cc) + gm6 R1 R2 Cc
    b  = R1 R2 (C1 C2 + Cc (C1 + C2))

with the dominant pole ``p1 ~ 1/a``, the non-dominant pole ``p2 ~ a/b``, the
zero ``z = gm6/Cc`` and the unity-gain bandwidth ``gm1 / (2 pi Cc)``.
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

#: Order of the sizing variables in vector form.
VARIABLE_NAMES: Tuple[str, ...] = ("w1", "w3", "w6", "l12", "l6", "ibias", "i2", "cc")

#: Order of the measurements returned by the batch evaluator.
METRIC_NAMES: Tuple[str, ...] = AMPLIFIER_METRIC_NAMES


@register_topology
class TwoStageOpAmp(SizingProblem):
    """Closed-form evaluator for the two-stage Miller opamp."""

    name = "two_stage_opamp"
    VARIABLE_NAMES: Tuple[str, ...] = VARIABLE_NAMES
    METRIC_NAMES: Tuple[str, ...] = METRIC_NAMES

    # ------------------------------------------------------------------
    def design_space(self) -> DesignSpace:
        """The CSP domain of Eq. (2): 8 gridded variables, |D| ~ 1e14."""
        card = self.card
        return DesignSpace(
            [
                Parameter("w1", 10 * card.min_width, 1000 * card.min_width, 64, True, "m"),
                Parameter("w3", 10 * card.min_width, 1000 * card.min_width, 64, True, "m"),
                Parameter("w6", 10 * card.min_width, 2000 * card.min_width, 64, True, "m"),
                Parameter("l12", 2 * card.min_length, 20 * card.min_length, 64, True, "m"),
                Parameter("l6", 2 * card.min_length, 20 * card.min_length, 64, True, "m"),
                Parameter("ibias", 2e-6, 200e-6, 64, True, "A"),
                Parameter("i2", 10e-6, 1e-3, 64, True, "A"),
                Parameter("cc", 0.2e-12, 5e-12, 64, True, "F"),
            ]
        )

    # ------------------------------------------------------------------
    def _small_signal_parts(
        self, samples: np.ndarray, card, temperature_c
    ) -> Dict[str, np.ndarray]:
        """Vectorized small-signal quantities for ``(count, dim)`` sizings."""
        w1, w3, w6, l12, l6, ibias, i2, cc = samples.T
        vdd = card.vdd_nominal
        vds = 0.5 * vdd  # representative mid-rail bias for every device
        phi_t = card.thermal_voltage(temperature_c)

        lam_n12 = card.lambda_n * card.min_length / l12
        lam_p12 = card.lambda_p * card.min_length / l12
        lam_n6 = card.lambda_n * card.min_length / l6
        lam_p6 = card.lambda_p * card.min_length / l6

        id1 = 0.5 * ibias
        _, _, gm1, gds2 = saturation_from_current(card.kp_n * w1 / l12, lam_n12, id1, vds, phi_t)
        _, _, _, gds4 = saturation_from_current(card.kp_p * w3 / l12, lam_p12, id1, vds, phi_t)
        _, _, gm6, gds6 = saturation_from_current(card.kp_n * w6 / l6, lam_n6, i2, vds, phi_t)
        _, _, _, gds7 = saturation_from_current(card.kp_p * w6 / l6, lam_p6, i2, vds, phi_t)

        _, cgd2, cdb2 = parasitic_capacitances(card, w1, l12)
        _, cgd4, cdb4 = parasitic_capacitances(card, w3, l12)
        cgs6, cgd7, cdb6 = parasitic_capacitances(card, w6, l6)
        cdb7 = cdb6

        r1 = 1.0 / (gds2 + gds4)
        c1 = cgd2 + cdb2 + cgd4 + cdb4 + cgs6
        r2 = 1.0 / (gds6 + gds7)
        c2 = self.load_cap + cdb6 + cdb7 + cgd7
        return {
            "gm1": gm1,
            "gm6": gm6,
            "r1": r1,
            "c1": c1,
            "r2": r2,
            "c2": c2,
            "cc": cc,
            "ibias": ibias,
            "i2": i2,
            "vdd": np.asarray(vdd, dtype=np.float64),
        }

    def _metrics_from_parts(self, p: Dict[str, np.ndarray]) -> np.ndarray:
        """Closed-form metrics from the small-signal parts, any batch shape."""
        gm1, gm6 = p["gm1"], p["gm6"]
        r1, c1, r2, c2, cc = p["r1"], p["c1"], p["r2"], p["c2"], p["cc"]

        a0 = gm1 * r1 * gm6 * r2
        a = r1 * (c1 + cc) + r2 * (c2 + cc) + gm6 * r1 * r2 * cc
        b = r1 * r2 * (c1 * c2 + cc * (c1 + c2))
        two_pi = 2.0 * np.pi
        fp1 = 1.0 / (two_pi * a)
        fp2 = a / (two_pi * b)
        fz = gm6 / (two_pi * cc)
        fu = gm1 / (two_pi * cc)

        phase_margin = (
            180.0
            - np.degrees(np.arctan(fu / fp1))
            - np.degrees(np.arctan(fu / fp2))
            - np.degrees(np.arctan(fu / fz))
        )
        dc_gain_db = 20.0 * np.log10(a0)
        power = p["vdd"] * (p["ibias"] + p["i2"])
        slew = np.minimum(p["ibias"] / cc, p["i2"] / c2)
        return self._stack_metrics(dc_gain_db, fu, phase_margin, power, slew)

    # ------------------------------------------------------------------
    def default_specs(self) -> Dict[str, Tuple[Spec, ...]]:
        """Spec tiers; ``nominal`` is the paper-style headline experiment.

        Feasible fractions of the design space under uniform sampling at the
        hardest sign-off corner (ss/0.9V/125C): smoke ~1.4e-2, nominal
        ~3e-4 (the "once per few thousand samples" calibration of the
        original demo), stretch ~3e-6.
        """
        return {
            "smoke": (
                Spec("dc_gain_db", ">=", 70.0),
                Spec("ugbw_hz", ">=", 30e6),
                Spec("phase_margin_deg", ">=", 55.0),
                Spec("power_w", "<=", 400e-6),
                Spec("slew_v_per_s", ">=", 10e6),
            ),
            "nominal": (
                Spec("dc_gain_db", ">=", 80.0),
                Spec("ugbw_hz", ">=", 50e6),
                Spec("phase_margin_deg", ">=", 60.0),
                Spec("power_w", "<=", 300e-6),
                Spec("slew_v_per_s", ">=", 20e6),
            ),
            "stretch": (
                Spec("dc_gain_db", ">=", 84.0),
                Spec("ugbw_hz", ">=", 70e6),
                Spec("phase_margin_deg", ">=", 60.0),
                Spec("power_w", "<=", 280e-6),
                Spec("slew_v_per_s", ">=", 25e6),
            ),
        }
