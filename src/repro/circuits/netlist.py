"""Small-signal netlist representation.

The analytical circuit evaluators (:mod:`repro.circuits.topologies`) use
closed-form pole/zero expressions; to make the substrate credible and to
cross-check those formulas, a compact linear netlist + modified nodal analysis
(MNA) engine is also provided.  It supports the element set needed for
small-signal analog macromodels:

* resistors and capacitors,
* independent current and voltage sources (AC stimulus),
* voltage-controlled current sources (the ``gm`` of a transistor).

Nodes are arbitrary hashable labels; ``"0"`` / ``"gnd"`` is ground.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

Node = Hashable

GROUND_NAMES = {"0", 0, "gnd", "GND"}


@dataclass(frozen=True)
class Resistor:
    """Linear resistor between ``a`` and ``b`` (ohms)."""

    a: Node
    b: Node
    resistance: float

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise ValueError("resistance must be positive")


@dataclass(frozen=True)
class Capacitor:
    """Linear capacitor between ``a`` and ``b`` (farads)."""

    a: Node
    b: Node
    capacitance: float

    def __post_init__(self) -> None:
        if self.capacitance < 0:
            raise ValueError("capacitance must be non-negative")


@dataclass(frozen=True)
class CurrentSource:
    """Independent current source injecting ``current`` amps into node ``b`` from ``a``."""

    a: Node
    b: Node
    current: float


@dataclass(frozen=True)
class VCCS:
    """Voltage-controlled current source (a transistor's gm).

    Current ``gm * (v(cp) - v(cn))`` flows from node ``a`` to node ``b``.
    """

    a: Node
    b: Node
    cp: Node
    cn: Node
    gm: float


@dataclass(frozen=True)
class VoltageSource:
    """Independent voltage source forcing ``v(a) - v(b) = voltage``."""

    a: Node
    b: Node
    voltage: float


class Netlist:
    """A collection of linear elements plus node bookkeeping."""

    def __init__(self, title: str = "") -> None:
        self.title = title
        self.resistors: List[Resistor] = []
        self.capacitors: List[Capacitor] = []
        self.current_sources: List[CurrentSource] = []
        self.vccs: List[VCCS] = []
        self.voltage_sources: List[VoltageSource] = []
        #: Monotonic change counter; solvers use it to invalidate cached
        #: stamped matrices.  Mutate elements through the add_* methods (the
        #: element lists themselves are treated as append-only).
        self.revision = 0

    # -- element builders ------------------------------------------------
    def add_resistor(self, a: Node, b: Node, resistance: float) -> Resistor:
        element = Resistor(a, b, resistance)
        self.resistors.append(element)
        self.revision += 1
        return element

    def add_capacitor(self, a: Node, b: Node, capacitance: float) -> Capacitor:
        element = Capacitor(a, b, capacitance)
        self.capacitors.append(element)
        self.revision += 1
        return element

    def add_current_source(self, a: Node, b: Node, current: float) -> CurrentSource:
        element = CurrentSource(a, b, current)
        self.current_sources.append(element)
        self.revision += 1
        return element

    def add_vccs(self, a: Node, b: Node, cp: Node, cn: Node, gm: float) -> VCCS:
        element = VCCS(a, b, cp, cn, gm)
        self.vccs.append(element)
        self.revision += 1
        return element

    def add_voltage_source(self, a: Node, b: Node, voltage: float) -> VoltageSource:
        element = VoltageSource(a, b, voltage)
        self.voltage_sources.append(element)
        self.revision += 1
        return element

    # -- node bookkeeping --------------------------------------------------
    def nodes(self) -> List[Node]:
        """All non-ground nodes in deterministic (insertion-ish) order."""
        seen: Dict[Node, None] = {}
        for element_list in (
            self.resistors,
            self.capacitors,
            self.current_sources,
            self.vccs,
            self.voltage_sources,
        ):
            for element in element_list:
                for node in self._element_nodes(element):
                    if node not in GROUND_NAMES and node not in seen:
                        seen[node] = None
        return list(seen)

    @staticmethod
    def _element_nodes(element) -> Tuple[Node, ...]:
        if isinstance(element, VCCS):
            return (element.a, element.b, element.cp, element.cn)
        return (element.a, element.b)

    def element_count(self) -> int:
        return (
            len(self.resistors)
            + len(self.capacitors)
            + len(self.current_sources)
            + len(self.vccs)
            + len(self.voltage_sources)
        )

    def __repr__(self) -> str:
        return (
            f"Netlist({self.title!r}, nodes={len(self.nodes())}, "
            f"elements={self.element_count()})"
        )
