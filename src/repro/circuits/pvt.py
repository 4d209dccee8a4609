"""PVT (process, voltage, temperature) corner modelling.

The paper's key verification-level contribution is the treatment of PVT
corners (Section IV-E and Table III).  A :class:`PVTCondition` bundles a
process corner, a supply-voltage scaling and a junction temperature; applying
it to a :class:`~repro.circuits.process.TechnologyCard` yields a *derated*
card that the device model consumes.

The default nine-corner grid matches Fig. 3 of the paper (3 process corners x
3 supply/temperature combinations is one common sign-off recipe; the exact
corner list is configurable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.contracts import SeqLen, contract
from repro.circuits.process import (
    ROOM_TEMPERATURE_K,
    TechnologyCard,
    _stacked_card_check,
    stack_cards,
)

#: Multiplicative/additive derating factors per process corner:
#: (nmos mobility factor, pmos mobility factor, nmos Vth shift, pmos Vth shift)
PROCESS_CORNERS: Dict[str, Tuple[float, float, float, float]] = {
    "tt": (1.00, 1.00, 0.000, 0.000),
    "ff": (1.12, 1.12, -0.035, -0.035),
    "ss": (0.88, 0.88, +0.035, +0.035),
    "fs": (1.10, 0.90, -0.030, +0.030),
    "sf": (0.90, 1.10, +0.030, -0.030),
}

#: Mobility degrades roughly as (T/T0)^-1.5; threshold drops ~1.5 mV/K.
MOBILITY_TEMPERATURE_EXPONENT = -1.5
VTH_TEMPERATURE_SLOPE = -1.5e-3


@dataclass(frozen=True)
class PVTCondition:
    """One sign-off corner.

    Attributes
    ----------
    process:
        Process corner name (one of :data:`PROCESS_CORNERS`).
    voltage_factor:
        Supply scaling relative to the node's nominal VDD (e.g. 0.9 / 1.0 / 1.1).
    temperature_c:
        Junction temperature in Celsius.
    """

    process: str = "tt"
    voltage_factor: float = 1.0
    temperature_c: float = 27.0

    def __post_init__(self) -> None:
        if self.process not in PROCESS_CORNERS:
            raise ValueError(
                f"unknown process corner {self.process!r}; "
                f"available: {', '.join(sorted(PROCESS_CORNERS))}"
            )
        if not 0.5 <= self.voltage_factor <= 1.5:
            raise ValueError("voltage_factor outside the supported 0.5-1.5 range")
        if not -60.0 <= self.temperature_c <= 175.0:
            raise ValueError("temperature outside the supported -60..175 C range")

    @property
    def name(self) -> str:
        """Compact display name, e.g. ``ss_0.90V_125C``."""
        return f"{self.process}_{self.voltage_factor:.2f}V_{self.temperature_c:.0f}C"

    def apply(self, card: TechnologyCard) -> TechnologyCard:
        """Return a technology card derated to this corner."""
        mob_n, mob_p, dvth_n, dvth_p = PROCESS_CORNERS[self.process]
        temperature_k = self.temperature_c + 273.15
        mobility_temp = (temperature_k / ROOM_TEMPERATURE_K) ** MOBILITY_TEMPERATURE_EXPONENT
        vth_temp = VTH_TEMPERATURE_SLOPE * (temperature_k - ROOM_TEMPERATURE_K)
        return card.with_overrides(
            vdd_nominal=card.vdd_nominal * self.voltage_factor,
            kp_n=card.kp_n * mob_n * mobility_temp,
            kp_p=card.kp_p * mob_p * mobility_temp,
            vth_n=max(card.vth_n + dvth_n + vth_temp, 0.05),
            vth_p=max(card.vth_p + dvth_p + vth_temp, 0.05),
        )

    @staticmethod
    @contract(
        args={"corners": SeqLen("c")},
        check=lambda arguments, result: _stacked_card_check(
            {"cards": arguments["corners"]}, result
        ),
    )
    def apply_stack(
        corners: Sequence["PVTCondition"], card: TechnologyCard
    ) -> TechnologyCard:
        """Derate ``card`` to every corner at once: a struct-of-arrays card.

        The corner-dependent fields (``vdd_nominal``, ``kp_n``, ``kp_p``,
        ``vth_n``, ``vth_p``) come back as ``(n_corners, 1)`` columns that
        broadcast against a ``(count,)`` batch axis, turning the PVT corner
        into a leading tensor axis of any vectorized evaluator.  Each row is
        produced by the scalar :meth:`apply` path and merely *stacked*, so
        row ``i`` is bit-identical to ``corners[i].apply(card)`` — the basis
        of the stacked-vs-looped corner parity guarantee.
        """
        return stack_cards([corner.apply(card) for corner in corners])

    def severity(self) -> float:
        """Heuristic difficulty score (larger = harder corner).

        Slow devices, low supply and high temperature make analog specs harder
        to meet; the progressive exploration strategy (Section IV-E) uses this
        to pick the "hardest condition" first.  The score only sees that
        slow/low-supply/hot failure regime: a high-supply/cold corner ranks
        below it although phase winners fail it most, which is why phase 0
        also starts at the far corner :func:`initial_corners` adds.
        """
        mob_n, mob_p, dvth_n, dvth_p = PROCESS_CORNERS[self.process]
        slowness = (2.0 - mob_n - mob_p) + 10.0 * max(dvth_n, 0.0) + 10.0 * max(dvth_p, 0.0)
        low_supply = max(1.0 - self.voltage_factor, 0.0) * 4.0
        hot = max(self.temperature_c - 27.0, 0.0) / 100.0
        cold = max(27.0 - self.temperature_c, 0.0) / 400.0
        return slowness + low_supply + hot + cold


#: The nominal condition used for single-corner experiments (Table I).
NOMINAL = PVTCondition("tt", 1.0, 27.0)


def nine_corner_grid() -> List[PVTCondition]:
    """The 9-corner sign-off grid used for Fig. 3 / Table III.

    Three process corners (tt/ff/ss) crossed with three environment points
    (nominal, low-voltage hot, high-voltage cold).
    """
    environments = [
        (1.0, 27.0),
        (0.9, 125.0),
        (1.1, -40.0),
    ]
    corners = []
    for process in ("tt", "ff", "ss"):
        for voltage_factor, temperature in environments:
            corners.append(PVTCondition(process, voltage_factor, temperature))
    return corners


def full_corner_grid() -> List[PVTCondition]:
    """All five process corners crossed with voltage and temperature extremes."""
    corners = []
    for process in sorted(PROCESS_CORNERS):
        for voltage_factor in (0.9, 1.0, 1.1):
            for temperature in (-40.0, 27.0, 125.0):
                corners.append(PVTCondition(process, voltage_factor, temperature))
    return corners


def _hardest_first(condition: PVTCondition) -> Tuple[float, str, float, float]:
    """Sort key: severity descending, equal severities by (process, supply,
    temperature), so an order depends on the set of corners, not on the
    order they are listed in (the built-in grids already list them so)."""
    return (
        -condition.severity(),
        condition.process,
        condition.voltage_factor,
        condition.temperature_c,
    )


def hardest_condition(conditions: Sequence[PVTCondition]) -> PVTCondition:
    """Return the corner with the highest severity score."""
    if not conditions:
        raise ValueError("no PVT conditions supplied")
    return min(conditions, key=_hardest_first)


def rank_by_severity(conditions: Sequence[PVTCondition]) -> List[PVTCondition]:
    """Conditions sorted hardest-first."""
    return sorted(conditions, key=_hardest_first)


def initial_corners(ranked: Sequence[PVTCondition]) -> List[PVTCondition]:
    """Phase 0's active set: one corner in each of the two failure regimes.

    The hardest corner (``ranked[0]``) is the slow/low-supply/hot regime of
    Section IV-E's "hardest condition".  Winners sized there mostly fail the
    opposite environment, so the set adds the highest-severity corner at the
    environment point farthest from it in (supply factor, temperature), each
    normalized by the grid's span.  A grid with a single environment point
    (one corner, or process corners only) starts at its hardest corner alone.
    """
    if not ranked:
        raise ValueError("no PVT conditions supplied")
    hardest = ranked[0]
    supplies = [c.voltage_factor for c in ranked]
    temperatures = [c.temperature_c for c in ranked]
    supply_span = max(supplies) - min(supplies) or 1.0
    temperature_span = max(temperatures) - min(temperatures) or 1.0

    def distance(corner: PVTCondition) -> float:
        return math.hypot(
            (corner.voltage_factor - hardest.voltage_factor) / supply_span,
            (corner.temperature_c - hardest.temperature_c) / temperature_span,
        )

    # max() keeps the first of equally distant corners: the most severe.
    far = max(ranked, key=distance)
    return [hardest] if distance(far) <= 0.0 else [hardest, far]
