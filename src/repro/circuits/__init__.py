"""Circuit substrate: device model, technology/PVT cards, topologies."""

from repro.circuits.process import (
    TechnologyCard,
    available_nodes,
    get_technology,
    stack_cards,
)
from repro.circuits.pvt import (
    NOMINAL,
    PVTCondition,
    full_corner_grid,
    hardest_condition,
    nine_corner_grid,
    rank_by_severity,
)
from repro.circuits.topologies import (
    AMPLIFIER_METRIC_NAMES,
    SPEC_TIERS,
    FiveTransistorOTA,
    FoldedCascodeOTA,
    SizingProblem,
    TelescopicCascodeOTA,
    TwoStageOpAmp,
    available_topologies,
    get_topology,
    register_topology,
)
from repro.circuits.topologies.two_stage import METRIC_NAMES, VARIABLE_NAMES

__all__ = [
    "AMPLIFIER_METRIC_NAMES",
    "METRIC_NAMES",
    "NOMINAL",
    "PVTCondition",
    "SPEC_TIERS",
    "FiveTransistorOTA",
    "FoldedCascodeOTA",
    "SizingProblem",
    "TechnologyCard",
    "TelescopicCascodeOTA",
    "TwoStageOpAmp",
    "VARIABLE_NAMES",
    "available_nodes",
    "available_topologies",
    "full_corner_grid",
    "get_technology",
    "get_topology",
    "hardest_condition",
    "nine_corner_grid",
    "rank_by_severity",
    "register_topology",
    "stack_cards",
]
