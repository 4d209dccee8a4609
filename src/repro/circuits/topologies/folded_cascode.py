"""Folded-cascode OTA: cascode gain with input-range headroom.

An NMOS input pair (M1/M2) whose drain currents are *folded* into a PMOS
cascode branch (Mc): PMOS sources on top carry the sum of the half-tail
current and the cascode branch current, and an NMOS cascode mirror returns
the signal at the bottom.  The fold decouples the input common-mode range
from the output stack — the classic reason to pay the extra branch current.

The sizing vector uses the cascode branch current ``icasc`` directly (the
top current sources then carry ``ibias/2 + icasc``), so every point of the
box design space is physically realisable — parameterising the fold source
current instead would allow infeasible corners where the cascode branch
current goes negative.

Signal path and transfer function are the same cascade shape as the
telescopic::

    A(s) = gm1 Rout / ((1 + s Cfold / gmc)(1 + s Rout Cout))

but the fold node collects more parasitics (input-pair drain, fold-source
drain, cascode source), so the non-dominant pole is lower and the phase
margin is harder to meet at matched current — exactly the trade-off the
benchmark suite is meant to expose.
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
class FoldedCascodeOTA(SizingProblem):
    """Closed-form evaluator for the folded-cascode OTA."""

    name = "folded_cascode"
    VARIABLE_NAMES: Tuple[str, ...] = ("w1", "wc", "l1", "lc", "ibias", "icasc")
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
                Parameter("ibias", 2e-6, 200e-6, 64, True, "A"),
                Parameter("icasc", 2e-6, 200e-6, 64, True, "A"),
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
        w1, wc, l1, lc, ibias, icasc = samples.T
        vds = 0.5 * card.vdd_nominal
        phi_t = card.thermal_voltage(temperature_c)

        lam_n1 = card.lambda_n * card.min_length / l1
        lam_nc = card.lambda_n * card.min_length / lc
        lam_pc = card.lambda_p * card.min_length / lc
        half_tail = 0.5 * ibias

        # Input pair at the half-tail current.
        _, _, gm1, gds1 = saturation_from_current(
            card.kp_n * w1 / l1, lam_n1, half_tail, vds, phi_t
        )
        # PMOS signal cascode and NMOS cascode mirror at the branch current.
        _, _, gmc_p, gds_cp = saturation_from_current(
            card.kp_p * wc / lc, lam_pc, icasc, vds, phi_t
        )
        _, _, gmc_n, gds_cn = saturation_from_current(
            card.kp_n * wc / lc, lam_nc, icasc, vds, phi_t
        )
        # PMOS fold sources on top carry half-tail + branch current.
        _, _, _, gds_src = saturation_from_current(
            card.kp_p * wc / lc, lam_pc, half_tail + icasc, vds, phi_t
        )

        cgs1, cgd1, cdb1 = parasitic_capacitances(card, w1, l1)
        cgs_c, cgd_c, cdb_c = parasitic_capacitances(card, wc, lc)

        # Up: PMOS cascode boosts (ro1 || ro_src); down: NMOS cascode mirror.
        r_up = gmc_p / (gds_cp * (gds1 + gds_src))
        r_down = gmc_n / (gds_cn * gds_cn)
        rout = r_up * r_down / (r_up + r_down)
        cout = self.load_cap + 2.0 * (cdb_c + cgd_c)
        # Fold node: input-pair drain, fold-source drain, cascode source.
        c_fold = cdb1 + cgd1 + cdb_c + cgd_c + cgs_c
        return {
            "gm1": gm1,
            "gmc": gmc_p,
            "rout": rout,
            "cout": cout,
            "c_fold": c_fold,
            "ibias": ibias,
            "icasc": icasc,
            "vdd": np.asarray(card.vdd_nominal, dtype=np.float64),
        }

    def _metrics_from_parts(self, p: Dict[str, np.ndarray]) -> np.ndarray:
        """Closed-form metrics from the small-signal parts, any batch shape."""
        gm1, gmc = p["gm1"], p["gmc"]
        rout, cout, c_fold = p["rout"], p["cout"], p["c_fold"]

        two_pi = 2.0 * np.pi
        a0 = gm1 * rout
        fp1 = 1.0 / (two_pi * rout * cout)
        ffold = gmc / (two_pi * c_fold)
        fu = gm1 / (two_pi * cout)

        phase_margin = (
            180.0
            - np.degrees(np.arctan(fu / fp1))
            - np.degrees(np.arctan(fu / ffold))
        )
        dc_gain_db = 20.0 * np.log10(a0)
        # Supply current: two fold sources at (ibias/2 + icasc) each.
        power = p["vdd"] * (p["ibias"] + 2.0 * p["icasc"])
        # Large-signal: the output can source/sink at most the branch current
        # or the full tail, whichever saturates first.
        slew = np.minimum(p["ibias"], 2.0 * p["icasc"]) / cout
        return self._stack_metrics(dc_gain_db, fu, phase_margin, power, slew)

    @batch_evaluator_contract
    def evaluate_batch(self, samples: np.ndarray) -> np.ndarray:
        samples = self.validated_batch(samples)
        return self._metrics_from_parts(self._small_signal_parts(samples))

    # ------------------------------------------------------------------
    def default_specs(self) -> Dict[str, Tuple[Spec, ...]]:
        # Bounds calibrated by uniform sampling at the hardest sign-off
        # corner (ss/0.9V/125C): smoke ~2e-2 of the space is feasible,
        # nominal ~1e-3, stretch ~5e-5.  Slew tops out near
        # ``(power / vdd) / (2 Cout)`` because the branch current is paid
        # twice, so the slew bounds sit lower than the telescopic's.
        return {
            "smoke": (
                Spec("dc_gain_db", ">=", 85.0),
                Spec("ugbw_hz", ">=", 40e6),
                Spec("phase_margin_deg", ">=", 60.0),
                Spec("power_w", "<=", 400e-6),
                Spec("slew_v_per_s", ">=", 25e6),
            ),
            "nominal": (
                Spec("dc_gain_db", ">=", 92.0),
                Spec("ugbw_hz", ">=", 60e6),
                Spec("phase_margin_deg", ">=", 60.0),
                Spec("power_w", "<=", 350e-6),
                Spec("slew_v_per_s", ">=", 35e6),
            ),
            "stretch": (
                Spec("dc_gain_db", ">=", 95.0),
                Spec("ugbw_hz", ">=", 70e6),
                Spec("phase_margin_deg", ">=", 60.0),
                Spec("power_w", "<=", 320e-6),
                Spec("slew_v_per_s", ">=", 38e6),
            ),
        }
