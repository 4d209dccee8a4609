"""Device oracle: the forward smooth MOSFET drain law.

Production code never evaluates a single transistor at a gate bias: the
topologies force bias currents through their devices and read the
small-signal quantities off
:func:`repro.circuits.devices.saturation_from_current`, the *inverse* of the
drain law.  This module keeps the forward law — a square law written in
terms of an EKV-style softplus overdrive, continuous from weak through
strong inversion and across the triode/saturation joint — so the tests can
check the continuity of the model and that the production inverse really
inverts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.circuits.devices import (
    SUBTHRESHOLD_SLOPE_FACTOR,
    parasitic_capacitances,
    saturation_from_current,
)
from repro.circuits.process import TechnologyCard

DeviceType = Literal["nmos", "pmos"]


def smooth_overdrive(vov, two_n_phi_t):
    """EKV-style effective overdrive ``2nφt · softplus(vov / 2nφt)``.

    Interpolates continuously (C-infinity) between the weak-inversion
    exponential (``vov << 0``: ``veff ~ 2nφt·exp(vov/2nφt)``) and the
    square-law overdrive (``vov >> 0``: ``veff ~ vov``), so a drain current
    written in terms of ``veff`` has no kink at ``vov = 0``.  Accepts scalars
    or arrays; uses the overflow-safe softplus form.
    """
    x = np.asarray(vov, dtype=np.float64) / two_n_phi_t
    veff = two_n_phi_t * (np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))
    return veff if veff.ndim else float(veff)


def overdrive_sensitivity(vov, two_n_phi_t):
    """``d veff / d vov`` — a numerically stable logistic sigmoid."""
    x = np.asarray(vov, dtype=np.float64) / two_n_phi_t
    positive = 1.0 / (1.0 + np.exp(-np.abs(x)))
    sig = np.where(x >= 0.0, positive, 1.0 - positive)
    return sig if sig.ndim else float(sig)


@dataclass(frozen=True)
class OperatingPoint:
    """Small-signal operating point of a single MOSFET.

    Attributes
    ----------
    ids:
        Drain current in amperes (always positive magnitude).
    gm:
        Transconductance in siemens.
    gds:
        Output conductance in siemens (``1/ro``).
    vov:
        Overdrive voltage ``Vgs - Vth`` in volts (may be negative in weak
        inversion).
    vdsat:
        Saturation voltage in volts.
    cgs, cgd, cdb:
        Small-signal capacitances in farads.
    region:
        ``"saturation"``, ``"triode"`` or ``"subthreshold"``.
    """

    ids: float
    gm: float
    gds: float
    vov: float
    vdsat: float
    cgs: float
    cgd: float
    cdb: float
    region: str


class MOSFET:
    """A sized MOS transistor evaluated against a technology card.

    Parameters
    ----------
    device_type:
        ``"nmos"`` or ``"pmos"``.
    width, length:
        Drawn dimensions in metres.
    card:
        Technology card (already PVT-derated if applicable).
    """

    def __init__(
        self,
        device_type: DeviceType,
        width: float,
        length: float,
        card: TechnologyCard,
    ) -> None:
        if device_type not in ("nmos", "pmos"):
            raise ValueError(f"device_type must be 'nmos' or 'pmos', got {device_type!r}")
        if width <= 0 or length <= 0:
            raise ValueError("width and length must be positive")
        if length < card.min_length:
            raise ValueError(
                f"length {length:.3e} below the {card.name} minimum {card.min_length:.3e}"
            )
        if width < card.min_width:
            raise ValueError(
                f"width {width:.3e} below the {card.name} minimum {card.min_width:.3e}"
            )
        self.device_type = device_type
        self.width = width
        self.length = length
        self.card = card

    # ------------------------------------------------------------------
    @property
    def kp(self) -> float:
        return self.card.kp_n if self.device_type == "nmos" else self.card.kp_p

    @property
    def vth(self) -> float:
        return self.card.vth_n if self.device_type == "nmos" else self.card.vth_p

    @property
    def channel_length_modulation(self) -> float:
        base = self.card.lambda_n if self.device_type == "nmos" else self.card.lambda_p
        # Longer channels exhibit less channel-length modulation (roughly 1/L).
        return base * (self.card.min_length / self.length)

    @property
    def beta(self) -> float:
        """Device transconductance factor ``kp * W / L``."""
        return self.kp * self.width / self.length

    # ------------------------------------------------------------------
    def capacitances(self) -> tuple:
        """Return (cgs, cgd, cdb) using simple area/overlap estimates."""
        return parasitic_capacitances(self.card, self.width, self.length)

    def operating_point(self, vgs: float, vds: float, temperature_c: float = 27.0) -> OperatingPoint:
        """Evaluate the device at the given bias.

        ``vgs`` and ``vds`` are magnitudes (source-referenced for NMOS,
        |values| for PMOS), so the same expressions serve both polarities.
        """
        vgs = abs(vgs)
        vds = abs(vds)
        vov = vgs - self.vth
        lam = self.channel_length_modulation
        cgs, cgd, cdb = self.capacitances()
        phi_t = self.card.thermal_voltage(temperature_c)
        two_n_phi_t = 2.0 * SUBTHRESHOLD_SLOPE_FACTOR * phi_t

        # Single smooth drain-current law: the square law written in terms of
        # the softplus-interpolated overdrive ``veff``.  Deep in weak
        # inversion it reduces to ``2βn²φt²·exp(vov/nφt)`` (exponential) and
        # in strong inversion to ``½β·vov²`` — with no jump at ``vov = 0``,
        # which is exactly the moderate-inversion region a sizing search
        # explores.
        veff = smooth_overdrive(vov, two_n_phi_t)
        sensitivity = overdrive_sensitivity(vov, two_n_phi_t)
        vdsat = veff

        if vds >= vdsat:
            ids = 0.5 * self.beta * veff ** 2 * (1.0 + lam * vds)
            gm = self.beta * veff * sensitivity * (1.0 + lam * vds)
            gds = 0.5 * self.beta * veff ** 2 * lam
        else:
            # The (1 + lam*vds) factor is kept in triode as well so current
            # and gm join the saturation branch continuously at vds = vdsat.
            triode = veff * vds - 0.5 * vds ** 2
            ids = self.beta * triode * (1.0 + lam * vds)
            gm = self.beta * vds * sensitivity * (1.0 + lam * vds)
            gds = self.beta * (veff - vds) * (1.0 + lam * vds) + self.beta * triode * lam + 1e-12

        # Label the branch that actually produced the numbers: the triode
        # expressions apply whenever vds < vdsat, even below threshold.
        if vds < vdsat:
            region = "triode"
        elif vov <= 0.0:
            region = "subthreshold"
        else:
            region = "saturation"
        return OperatingPoint(
            ids=max(ids, 0.0),
            gm=max(gm, 0.0),
            gds=max(gds, 1e-15),
            vov=vov,
            vdsat=vdsat,
            cgs=cgs,
            cgd=cgd,
            cdb=cdb,
            region=region,
        )

    def bias_for_current(self, ids: float, vds: float, temperature_c: float = 27.0) -> OperatingPoint:
        """Operating point of a diode-connected / current-biased device.

        Given a target drain current (as set by a current mirror), solve the
        square law for the overdrive and return the resulting small-signal
        parameters.  This is the common case inside the analytical circuit
        evaluators where bias currents, not gate voltages, are the natural
        inputs.
        """
        if ids <= 0:
            raise ValueError("drain current must be positive")
        lam = self.channel_length_modulation
        phi_t = self.card.thermal_voltage(temperature_c)
        veff, vov, gm, gds = saturation_from_current(self.beta, lam, ids, vds, phi_t)
        cgs, cgd, cdb = self.capacitances()
        region = "subthreshold" if vov <= 0.0 else "saturation"
        return OperatingPoint(
            ids=ids,
            gm=float(gm),
            gds=max(float(gds), 1e-15),
            vov=float(vov),
            vdsat=float(veff),
            cgs=cgs,
            cgd=cgd,
            cdb=cdb,
            region=region,
        )
