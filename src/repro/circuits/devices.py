"""First-order MOSFET device model, as the topologies use it.

A square-law model with weak-inversion (sub-threshold) continuation is enough
to reproduce the qualitative sizing trade-offs the paper's agent exploits:
transconductance rising with width and current, output resistance falling with
current, parasitic capacitance rising with area.  The topologies force bias
currents through their devices, so the model is written as the inverse of its
smooth drain law (:func:`saturation_from_current`) plus the parasitic
estimates; the forward law lives in the tests' device oracle, which checks
the inverse against it.  Both consume a (possibly PVT-derated, possibly
corner-stacked) :class:`~repro.circuits.process.TechnologyCard`.

All quantities are SI.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.process import TechnologyCard

#: Sub-threshold slope factor (typical 1.2-1.6).
SUBTHRESHOLD_SLOPE_FACTOR = 1.4


def parasitic_capacitances(card: TechnologyCard, width, length):
    """Vectorized ``(cgs, cgd, cdb)`` area/overlap estimates.

    Single source of truth for every topology's parasitics; accepts
    scalars or arrays.
    """
    cox_total = card.cox * width * length
    cgs = (2.0 / 3.0) * cox_total
    cgd = 0.15 * cox_total
    # Drain junction approximated as a strip of the drawn width.
    cdb = card.cj * width * 4.0 * card.min_length
    return cgs, cgd, cdb


def saturation_from_current(beta, lam, ids, vds, phi_t):
    """Vectorized inverse of the smooth saturation law.

    Given the drain current forced through a saturated device (the natural
    input when bias currents are set by mirrors), return
    ``(veff, vov, gm, gds)``.  All arguments broadcast, so one call serves
    a batch of sizings and a stacked corner axis alike.
    """
    beta = np.asarray(beta, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.float64)
    two_n_phi_t = 2.0 * SUBTHRESHOLD_SLOPE_FACTOR * phi_t
    veff = np.sqrt(2.0 * ids / (beta * (1.0 + lam * vds)))
    x = veff / two_n_phi_t
    # Inverse softplus: vov = 2nφt · ln(exp(veff/2nφt) - 1); for large x the
    # exponential term dominates and vov -> veff.
    safe_x = np.minimum(x, 30.0)
    vov = np.where(x > 30.0, veff, two_n_phi_t * np.log(np.expm1(safe_x) + 1e-300))
    # 1 - exp(-x) is exactly sigmoid(vov / 2nφt) evaluated without vov.
    gm = beta * veff * (-np.expm1(-x)) * (1.0 + lam * vds)
    # The forward law's saturation gds, 0.5*beta*veff^2*lam, rewritten in
    # terms of the forced current.
    gds = lam * ids / (1.0 + lam * vds)
    return veff, vov, gm, gds

