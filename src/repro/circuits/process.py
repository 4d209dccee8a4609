"""Technology cards for the process nodes used in the paper.

The paper sizes circuits on BSIM 45 nm / 22 nm (academic, NGSPICE) and TSMC
6 nm / 5 nm (industrial, Spectre).  Proprietary PDKs obviously cannot be
shipped; instead each node is described by a compact *technology card*: a set
of first-order device parameters (threshold voltage, process transconductance,
channel-length modulation, oxide capacitance, nominal supply) plus process
corner and temperature coefficients.  The square-law/EKV device model in
:mod:`repro.circuits.devices` consumes these cards.

The absolute numbers are representative textbook values scaled per node; what
matters for reproducing the paper is that the *mapping* from sizes to
measurements keeps the qualitative structure of each node (lower supply and
shorter channels at advanced nodes, distinct parameter distributions between
nodes so that network weights do not transfer — cf. Table II).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Sequence

import numpy as np

from repro.analysis.contracts import contract

# Boltzmann constant times unit charge ratio appears via thermal voltage.
BOLTZMANN = 1.380649e-23
ELECTRON_CHARGE = 1.602176634e-19
ROOM_TEMPERATURE_K = 300.15


@dataclass(frozen=True)
class TechnologyCard:
    """First-order device parameters of one process node.

    Attributes
    ----------
    name:
        Node identifier (``"bsim45"``, ``"bsim22"``, ``"n6"``, ``"n5"``).
    vdd_nominal:
        Nominal supply voltage in volts.
    vth_n, vth_p:
        Nominal threshold voltages (absolute values) in volts.
    kp_n, kp_p:
        Process transconductance ``mu * Cox`` in A/V^2.
    lambda_n, lambda_p:
        Channel-length modulation coefficients in 1/V at minimum length.
    cox:
        Gate-oxide capacitance per unit area in F/m^2.
    min_length:
        Minimum drawn channel length in metres.
    min_width:
        Minimum drawn width in metres.
    cj:
        Junction capacitance per unit area, F/m^2 (for parasitic estimates).
    area_scale:
        Multiplier converting summed W*L into the "area" unit reported in the
        paper's tables (arbitrary consistent unit per node).
    """

    name: str
    vdd_nominal: float
    vth_n: float
    vth_p: float
    kp_n: float
    kp_p: float
    lambda_n: float
    lambda_p: float
    cox: float
    min_length: float
    min_width: float
    cj: float
    area_scale: float

    def thermal_voltage(self, temperature_c: float) -> float:
        """kT/q at the given temperature in Celsius."""
        temperature_k = temperature_c + 273.15
        return BOLTZMANN * temperature_k / ELECTRON_CHARGE

    def with_overrides(self, **kwargs) -> "TechnologyCard":
        """Return a copy with selected fields replaced (corner modelling)."""
        return replace(self, **kwargs)


def _stacked_card_check(arguments, result) -> str:
    """Contract: every stacked field is an ``(n_cards, 1)`` float64 column."""
    try:
        expected = len(arguments["cards"])
    except TypeError:  # a generator input; the column checks below still run
        expected = None
    for field_ in fields(TechnologyCard):
        value = getattr(result, field_.name)
        if not isinstance(value, np.ndarray):
            continue
        if value.ndim != 2 or value.shape[1] != 1:
            return (
                f"stacked field {field_.name!r} has shape {value.shape}, "
                "expected (n_cards, 1)"
            )
        if expected is not None and value.shape[0] != expected:
            return (
                f"stacked field {field_.name!r} has {value.shape[0]} rows "
                f"for {expected} cards"
            )
        if value.dtype != np.float64:
            return f"stacked field {field_.name!r} has dtype {value.dtype}"
    return None


@contract(check=_stacked_card_check)
def stack_cards(cards: Sequence[TechnologyCard]) -> TechnologyCard:
    """Fuse per-corner cards into one struct-of-arrays card.

    Every numeric field whose value differs between the cards becomes a
    ``(n_cards, 1)`` float64 column (ready to broadcast against a
    ``(count,)`` batch axis), read-only so a card can be shared between
    evaluations; fields shared by all cards stay scalar.  The
    columns are built from the *already derated* per-card values, so row
    ``i`` of the stacked card is bit-identical to ``cards[i]`` — the stacked
    evaluation path inherits exact parity with the per-corner loop by
    construction.

    The dataclass machinery (``with_overrides``, ``thermal_voltage``) keeps
    working on the stacked card because its methods are plain arithmetic,
    which NumPy broadcasts elementwise.
    """
    cards = list(cards)
    if not cards:
        raise ValueError("stack_cards needs at least one technology card")
    names = {card.name for card in cards}
    if len(names) > 1:
        raise ValueError(
            f"cannot stack cards from different nodes: {', '.join(sorted(names))}"
        )
    overrides = {}
    for field_ in fields(TechnologyCard):
        if field_.name == "name":
            continue
        values = [getattr(card, field_.name) for card in cards]
        if any(value != values[0] for value in values[1:]):
            column = np.array(values, dtype=np.float64)[:, np.newaxis]
            column.flags.writeable = False
            overrides[field_.name] = column
    return cards[0].with_overrides(**overrides)


_CARDS: Dict[str, TechnologyCard] = {
    "bsim45": TechnologyCard(
        name="bsim45",
        vdd_nominal=1.8,
        vth_n=0.45,
        vth_p=0.45,
        kp_n=280e-6,
        kp_p=95e-6,
        lambda_n=0.12,
        lambda_p=0.15,
        cox=8.5e-3,
        min_length=45e-9,
        min_width=120e-9,
        cj=1.0e-3,
        area_scale=1.0e12,
    ),
    "bsim22": TechnologyCard(
        name="bsim22",
        vdd_nominal=1.0,
        vth_n=0.38,
        vth_p=0.40,
        kp_n=420e-6,
        kp_p=160e-6,
        lambda_n=0.20,
        lambda_p=0.24,
        cox=1.25e-2,
        min_length=22e-9,
        min_width=80e-9,
        cj=1.2e-3,
        area_scale=1.0e12,
    ),
    "n6": TechnologyCard(
        name="n6",
        vdd_nominal=0.75,
        vth_n=0.32,
        vth_p=0.34,
        kp_n=560e-6,
        kp_p=240e-6,
        lambda_n=0.28,
        lambda_p=0.32,
        cox=1.9e-2,
        min_length=6e-9,
        min_width=30e-9,
        cj=1.4e-3,
        area_scale=1.0e15,
    ),
    "n5": TechnologyCard(
        name="n5",
        vdd_nominal=0.70,
        vth_n=0.30,
        vth_p=0.32,
        kp_n=600e-6,
        kp_p=260e-6,
        lambda_n=0.30,
        lambda_p=0.34,
        cox=2.1e-2,
        min_length=5e-9,
        min_width=28e-9,
        cj=1.5e-3,
        area_scale=1.0e15,
    ),
}


def available_nodes() -> tuple:
    """Names of all registered technology nodes."""
    return tuple(sorted(_CARDS))


def get_technology(name: str) -> TechnologyCard:
    """Look up a technology card by node name.

    Raises
    ------
    KeyError
        If the node is unknown; the message lists the available nodes.
    """
    try:
        return _CARDS[name]
    except KeyError:
        raise KeyError(
            f"unknown technology node {name!r}; available: {', '.join(available_nodes())}"
        ) from None


def register_technology(card: TechnologyCard, overwrite: bool = False) -> None:
    """Register a user-defined technology card.

    The designer-facing API (Section IV-F of the paper) lets teams plug in
    their own nodes; this hook is the equivalent here.
    """
    if card.name in _CARDS and not overwrite:
        raise ValueError(f"technology {card.name!r} already registered")
    _CARDS[card.name] = card
