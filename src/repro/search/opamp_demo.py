"""End-to-end demo: size the two-stage Miller opamp under PVT corners.

This wires the pieces of the reproduction together — the topology registry,
the CSP specification, the trust-region agent and the progressive PVT loop —
into the paper's headline experiment.  The default spec (the ``nominal``
tier of :class:`~repro.circuits.topologies.two_stage.TwoStageOpAmp`) is
calibrated so uniform Monte-Carlo sampling satisfies it roughly once per
5000 samples at the hardest corner: hard enough that guided search matters,
small enough for a CI smoke test.

Since the topology-zoo refactor the demo is a thin wrapper over
:func:`repro.search.sizing.size_problem`; any other registered topology runs
through the exact same path (see ``python -m repro.bench``).

Run it directly::

    PYTHONPATH=src python -m repro.search.opamp_demo
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.circuits.opamp import METRIC_NAMES, TwoStageOpAmp
from repro.circuits.pvt import NOMINAL, PVTCondition
from repro.search.progressive import ProgressiveResult
from repro.search.sizing import size_problem
from repro.search.spec import Spec, Specification
from repro.search.trust_region import TrustRegionConfig

#: Demo target: a 50 MHz, 80 dB, 60-degree-margin amplifier in under 300 uW,
#: met at every sign-off corner (the topology's ``nominal`` spec tier).
DEFAULT_SPECS = TwoStageOpAmp(condition=NOMINAL).default_specs()["nominal"]


def size_two_stage_opamp(
    technology: str = "bsim45",
    load_cap: float = 2e-12,
    specs: Sequence[Spec] = DEFAULT_SPECS,
    corners: Optional[Sequence[PVTCondition]] = None,
    config: Optional[TrustRegionConfig] = None,
    seed: Optional[int] = None,
) -> ProgressiveResult:
    """Run the progressive trust-region sizing search for the opamp.

    ``seed`` and ``config`` can no longer disagree: an explicit ``seed``
    overrides ``config.seed`` (previously it was silently ignored), and
    ``seed=None`` defers to the config.
    """
    return size_problem(
        "two_stage_opamp",
        technology=technology,
        load_cap=load_cap,
        specs=specs,
        corners=corners,
        config=config,
        seed=seed,
    )


def main() -> None:  # pragma: no cover - exercised manually / by README
    result = size_two_stage_opamp()
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
