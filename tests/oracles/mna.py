"""MNA oracle: linear small-signal netlists, their solver, and the
topologies' equivalent netlists.

The topologies (:mod:`repro.circuits.topologies`) evaluate closed-form
pole/zero expressions.  To cross-check those formulas numerically, this
module provides a compact linear netlist, a modified nodal analysis (MNA)
engine for DC solves and AC sweeps, and, for each registered topology, the
equivalent small-signal netlist built from the same
``_small_signal_parts`` the closed form uses.  The element set is what
small-signal analog macromodels need:

* resistors and capacitors,
* independent current and voltage sources (AC stimulus),
* voltage-controlled current sources (the ``gm`` of a transistor).

Nodes are arbitrary hashable labels; ``"0"`` / ``"gnd"`` is ground.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.topologies.base import SizingLike, SizingProblem

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


@dataclass
class ACSweepResult:
    """Result of an AC sweep.

    Attributes
    ----------
    frequencies:
        Sweep frequencies in hertz.
    node_voltages:
        Mapping from node name to the complex voltage at each frequency.
    """

    frequencies: np.ndarray
    node_voltages: Dict[Node, np.ndarray]

    def transfer(self, output: Node, reference: Optional[Node] = None) -> np.ndarray:
        """Complex transfer function at ``output`` (optionally minus ``reference``)."""
        voltage = self.node_voltages[output]
        if reference is not None:
            voltage = voltage - self.node_voltages[reference]
        return voltage

    def magnitude_db(self, output: Node) -> np.ndarray:
        return 20.0 * np.log10(np.maximum(np.abs(self.transfer(output)), 1e-30))

    def phase_deg(self, output: Node) -> np.ndarray:
        return np.degrees(np.unwrap(np.angle(self.transfer(output))))


class MNASolver:
    """Assemble and solve the MNA system of a linear netlist.

    The frequency-independent structure is stamped exactly once: the real
    conductance part ``G`` (resistors, VCCS, voltage-source incidence) and
    the capacitance part ``C`` are cached so the system at any frequency is
    just ``G + jω·C``.  An AC sweep then solves all frequencies in a single
    batched :func:`numpy.linalg.solve` call instead of re-stamping the
    matrix per point.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self._nodes = netlist.nodes()
        self._index = {node: i for i, node in enumerate(self._nodes)}
        self._n_nodes = len(self._nodes)
        self._n_vsrc = len(netlist.voltage_sources)
        self._stamped_revision = netlist.revision
        self._conductance, self._capacitance, self._rhs = self._stamp_parts()

    # ------------------------------------------------------------------
    def _node_index(self, node: Node) -> Optional[int]:
        if node in GROUND_NAMES:
            return None
        return self._index[node]

    def _stamp_two_terminal(self, matrix: np.ndarray, a: Node, b: Node, value: float) -> None:
        ia, ib = self._node_index(a), self._node_index(b)
        if ia is not None:
            matrix[ia, ia] += value
        if ib is not None:
            matrix[ib, ib] += value
        if ia is not None and ib is not None:
            matrix[ia, ib] -= value
            matrix[ib, ia] -= value

    def _stamp_parts(self) -> tuple:
        """Stamp the ``G`` / ``C`` matrices and the RHS once.

        Every element value is frequency independent, so the only thing an
        individual solve needs to do is combine the parts.
        """
        size = self._n_nodes + self._n_vsrc
        conductance = np.zeros((size, size), dtype=np.float64)
        capacitance = np.zeros((size, size), dtype=np.float64)
        rhs = np.zeros(size, dtype=np.float64)

        for resistor in self.netlist.resistors:
            self._stamp_two_terminal(conductance, resistor.a, resistor.b, 1.0 / resistor.resistance)
        for capacitor in self.netlist.capacitors:
            self._stamp_two_terminal(capacitance, capacitor.a, capacitor.b, capacitor.capacitance)
        for source in self.netlist.current_sources:
            ia, ib = self._node_index(source.a), self._node_index(source.b)
            if ia is not None:
                rhs[ia] -= source.current
            if ib is not None:
                rhs[ib] += source.current
        for vccs in self.netlist.vccs:
            ia, ib = self._node_index(vccs.a), self._node_index(vccs.b)
            icp, icn = self._node_index(vccs.cp), self._node_index(vccs.cn)
            # Current gm * (v_cp - v_cn) flows from a to b.
            for row, sign_row in ((ia, +1.0), (ib, -1.0)):
                if row is None:
                    continue
                if icp is not None:
                    conductance[row, icp] += sign_row * vccs.gm
                if icn is not None:
                    conductance[row, icn] -= sign_row * vccs.gm
        for k, vsrc in enumerate(self.netlist.voltage_sources):
            row = self._n_nodes + k
            ia, ib = self._node_index(vsrc.a), self._node_index(vsrc.b)
            if ia is not None:
                conductance[ia, row] += 1.0
                conductance[row, ia] += 1.0
            if ib is not None:
                conductance[ib, row] -= 1.0
                conductance[row, ib] -= 1.0
            rhs[row] = vsrc.voltage
        return conductance, capacitance, rhs

    def _refresh_if_stale(self) -> None:
        """Re-stamp when elements were added to the netlist after construction."""
        if self.netlist.revision != self._stamped_revision:
            self.__init__(self.netlist)

    def _assemble(self, omega: float) -> tuple:
        self._refresh_if_stale()
        matrix = self._conductance + 1j * omega * self._capacitance
        return matrix, self._rhs.astype(complex)

    # ------------------------------------------------------------------
    def solve_dc(self) -> Dict[Node, float]:
        """Solve the DC operating point (capacitors open)."""
        self._refresh_if_stale()
        size = self._conductance.shape[0]
        solution = np.linalg.solve(self._conductance + 1e-15 * np.eye(size), self._rhs)
        return {node: float(solution[i]) for node, i in self._index.items()}

    def solve_at(self, frequency: float) -> Dict[Node, complex]:
        """Solve the complex node voltages at one frequency."""
        matrix, rhs = self._assemble(omega=2.0 * np.pi * frequency)
        solution = np.linalg.solve(matrix + 1e-18 * np.eye(matrix.shape[0]), rhs)
        return {node: complex(solution[i]) for node, i in self._index.items()}

    def ac_sweep(self, frequencies: Sequence[float]) -> ACSweepResult:
        """Sweep over the given frequencies with one batched solve."""
        self._refresh_if_stale()
        frequencies = np.asarray(list(frequencies), dtype=np.float64)
        omegas = 2.0 * np.pi * frequencies
        size = self._conductance.shape[0]
        ridge = 1e-18 * np.eye(size)
        matrices = (
            self._conductance[np.newaxis, :, :]
            + 1j * omegas[:, np.newaxis, np.newaxis] * self._capacitance[np.newaxis, :, :]
            + ridge[np.newaxis, :, :]
        )
        rhs = np.broadcast_to(self._rhs.astype(complex), (len(frequencies), size))
        solutions = np.linalg.solve(matrices, rhs[..., np.newaxis])[..., 0]
        return ACSweepResult(
            frequencies=frequencies,
            node_voltages={node: solutions[:, i].copy() for node, i in self._index.items()},
        )


def logspace_frequencies(start_hz: float = 1.0, stop_hz: float = 1e10, points: int = 400) -> np.ndarray:
    """Convenience log-spaced frequency grid for AC sweeps."""
    return np.logspace(np.log10(start_hz), np.log10(stop_hz), points)


def unity_gain_metrics(result: ACSweepResult, output: Node) -> Dict[str, float]:
    """Extract DC gain, unity-gain bandwidth and phase margin from a sweep.

    The phase margin is measured as ``180 + phase`` at the unity-gain
    frequency, the standard definition for an inverting loop probed as a
    non-inverting transfer function that starts at 0 degrees.
    """
    magnitude_db = result.magnitude_db(output)
    phase = result.phase_deg(output)
    frequencies = result.frequencies
    dc_gain_db = float(magnitude_db[0])
    # Find the first crossing below 0 dB.
    below = np.nonzero(magnitude_db <= 0.0)[0]
    if len(below) == 0 or below[0] == 0:
        return {"dc_gain_db": dc_gain_db, "ugbw_hz": float("nan"), "phase_margin_deg": float("nan")}
    hi = below[0]
    lo = hi - 1
    # Log-linear interpolation of the crossing frequency.
    f_lo, f_hi = frequencies[lo], frequencies[hi]
    m_lo, m_hi = magnitude_db[lo], magnitude_db[hi]
    fraction = m_lo / (m_lo - m_hi)
    ugbw = float(10 ** (np.log10(f_lo) + fraction * (np.log10(f_hi) - np.log10(f_lo))))
    phase_at_ugbw = float(phase[lo] + fraction * (phase[hi] - phase[lo]))
    phase_margin = 180.0 + phase_at_ugbw
    # Wrap into (-180, 180], the conventional reporting range; coarse sweep
    # grids can mis-unwrap by a full turn and otherwise report margins below
    # -180 degrees.  Caveat: for genuinely conditionally-stable responses
    # (more than 360 degrees of true lag at crossover) any single wrapped
    # number is ambiguous — inspect the full phase trace in that case.
    while phase_margin > 180.0:
        phase_margin -= 360.0
    while phase_margin <= -180.0:
        phase_margin += 360.0
    return {
        "dc_gain_db": dc_gain_db,
        "ugbw_hz": ugbw,
        "phase_margin_deg": phase_margin,
    }


# ----------------------------------------------------------------------
# Equivalent netlists of the registered topologies.  Each realises the
# transfer function its topology's closed form approximates, from the same
# small-signal parts, with signs arranged so the ``in -> out`` transfer
# starts at 0 degrees and :func:`unity_gain_metrics` applies directly.


def small_signal_parts(problem: SizingProblem, sizing: SizingLike) -> Dict[str, float]:
    """The problem's ``_small_signal_parts`` for one sizing, as floats."""
    vector = problem.to_vector(sizing)
    parts = problem._small_signal_parts(vector[np.newaxis, :])
    return {name: float(np.ravel(value)[0]) for name, value in parts.items()}


def two_stage_netlist(problem: SizingProblem, sizing: SizingLike) -> Netlist:
    """Two inverting transconductance stages with Miller compensation.

    Nodes: ``in`` (AC stimulus), ``x`` (stage-1 output), ``out``.
    """
    p = small_signal_parts(problem, sizing)
    netlist = Netlist(f"two-stage opamp @ {problem.condition.name}")
    netlist.add_voltage_source("in", "0", 1.0)
    # Stage 1: inverting transconductance gm1 loaded by R1 || C1.
    netlist.add_vccs("x", "0", "in", "0", p["gm1"])
    netlist.add_resistor("x", "0", p["r1"])
    netlist.add_capacitor("x", "0", p["c1"])
    # Stage 2: inverting transconductance gm6 loaded by R2 || C2.
    netlist.add_vccs("out", "0", "x", "0", p["gm6"])
    netlist.add_resistor("out", "0", p["r2"])
    netlist.add_capacitor("out", "0", p["c2"])
    # Miller compensation couples the stages (pole splitting + RHP zero).
    netlist.add_capacitor("x", "out", p["cc"])
    return netlist


def ota_5t_netlist(problem: SizingProblem, sizing: SizingLike) -> Netlist:
    """The mirror pole/zero doublet of the 5T OTA.

    Node ``m`` is the mirror node; the M2 half-signal is injected straight
    into ``out`` while the M1 half is relayed through the mirror, which is
    what produces the doublet.
    """
    p = small_signal_parts(problem, sizing)
    netlist = Netlist(f"5T OTA @ {problem.condition.name}")
    netlist.add_voltage_source("in", "0", 1.0)
    # Mirror node: diode-connected M3 (1/gm3) loaded by Cm, driven by the
    # M1 half of the differential current.
    netlist.add_vccs("m", "0", "in", "0", 0.5 * p["gm1"])
    netlist.add_resistor("m", "0", 1.0 / p["gm3"])
    netlist.add_capacitor("m", "0", p["cm"])
    # Output: mirror output M4 relays -v_m, M2 injects the other half.
    netlist.add_vccs("out", "0", "m", "0", p["gm3"])
    netlist.add_vccs("0", "out", "in", "0", 0.5 * p["gm1"])
    netlist.add_resistor("out", "0", p["rout"])
    netlist.add_capacitor("out", "0", p["cout"])
    return netlist


def _cascode_netlist(title: str, p: Dict[str, float], node: str, node_cap: float) -> Netlist:
    """Two cascaded first-order sections: the cascode node (impedance
    ``1/gmc`` loaded by ``node_cap``) relays the input current into the
    high-impedance output; two inversions make the transfer start at 0."""
    netlist = Netlist(title)
    netlist.add_voltage_source("in", "0", 1.0)
    netlist.add_vccs(node, "0", "in", "0", p["gm1"])
    netlist.add_resistor(node, "0", 1.0 / p["gmc"])
    netlist.add_capacitor(node, "0", node_cap)
    netlist.add_vccs("out", "0", node, "0", p["gmc"])
    netlist.add_resistor("out", "0", p["rout"])
    netlist.add_capacitor("out", "0", p["cout"])
    return netlist


def folded_cascode_netlist(problem: SizingProblem, sizing: SizingLike) -> Netlist:
    """Node ``f`` is the fold node, loaded by ``Cfold``."""
    p = small_signal_parts(problem, sizing)
    title = f"folded-cascode OTA @ {problem.condition.name}"
    return _cascode_netlist(title, p, "f", p["c_fold"])


def telescopic_netlist(problem: SizingProblem, sizing: SizingLike) -> Netlist:
    """Node ``s`` is the NMOS cascode source, loaded by ``Ccasc``."""
    p = small_signal_parts(problem, sizing)
    title = f"telescopic cascode OTA @ {problem.condition.name}"
    return _cascode_netlist(title, p, "s", p["c_casc"])


#: Netlist builder per registered topology name.
NETLISTS: Dict[str, Callable[[SizingProblem, SizingLike], Netlist]] = {
    "two_stage_opamp": two_stage_netlist,
    "ota_5t": ota_5t_netlist,
    "folded_cascode": folded_cascode_netlist,
    "telescopic": telescopic_netlist,
}


def mna_metrics(
    problem: SizingProblem,
    sizing: SizingLike,
    frequencies: Optional[np.ndarray] = None,
    points: int = 800,
) -> Dict[str, float]:
    """Numerical gain/UGBW/phase-margin from an MNA sweep of the netlist."""
    netlist = NETLISTS[problem.name](problem, sizing)
    if frequencies is None:
        frequencies = logspace_frequencies(1e0, 1e11, points)
    return unity_gain_metrics(MNASolver(netlist).ac_sweep(frequencies), "out")
