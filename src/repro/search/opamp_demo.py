"""End-to-end demo: size the two-stage Miller opamp under PVT corners.

This wires the pieces of the reproduction together — the topology registry,
the CSP specification, the trust-region agent and the progressive PVT loop —
into the paper's headline experiment.  The default spec (the ``nominal``
tier of :class:`~repro.circuits.topologies.two_stage.TwoStageOpAmp`) is
calibrated so uniform Monte-Carlo sampling satisfies it roughly once per
5000 samples at the hardest corner: hard enough that guided search matters,
small enough for a CI smoke test.

The demo is one :func:`repro.search.sizing.size_problem` call; any other
registered topology runs through the exact same path (see
``python -m repro.bench``).

Run it directly::

    PYTHONPATH=src python -m repro.search.opamp_demo
"""

from __future__ import annotations

from repro.circuits.pvt import NOMINAL
from repro.circuits.topologies.two_stage import METRIC_NAMES, TwoStageOpAmp
from repro.search.sizing import size_problem
from repro.search.spec import Specification

#: Demo target: a 50 MHz, 80 dB, 60-degree-margin amplifier in under 300 uW,
#: met at every sign-off corner (the topology's ``nominal`` spec tier).
DEFAULT_SPECS = TwoStageOpAmp(condition=NOMINAL).default_specs()["nominal"]


def main() -> None:  # pragma: no cover - exercised manually / by README
    result = size_problem("two_stage_opamp", specs=DEFAULT_SPECS)
    specification = Specification(DEFAULT_SPECS, METRIC_NAMES)
    print(f"evaluations: {result.evaluations}")
    print(f"all corners pass: {result.solved_all_corners}")
    print("sizing:")
    for name, value in result.best_sizing.items():
        print(f"  {name} = {value:.4g}")
    for report in result.corner_reports:
        status = "PASS" if report.satisfied else "FAIL"
        print(f"corner {report.condition.name}: {status}")
        print(specification.report([report.metrics[name] for name in METRIC_NAMES]))


if __name__ == "__main__":
    main()
