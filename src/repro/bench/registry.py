"""Benchmark registry: (topology, spec tier, corner set) triples.

A :class:`BenchCase` names one search problem the harness can run: which
topology from the zoo, which tier of its spec ladder, and which PVT corner
set the progressive loop must sign off.  Cases are grouped into named
*suites*; ``smoke`` is the CI suite (every topology once, budgets small
enough for a pull-request gate), ``full`` is the overnight matrix.

Third-party workloads can extend the registry::

    from repro.bench import BenchCase, register_benchmark
    register_benchmark("smoke", BenchCase("my_topology", "smoke", "hardest"))
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.circuits.pvt import (
    NOMINAL,
    PVTCondition,
    full_corner_grid,
    hardest_condition,
    nine_corner_grid,
)
from repro.circuits.topologies import SPEC_TIERS
from repro.search.optimizer import available_optimizers
from repro.search.progressive import ProgressiveConfig
from repro.search.trust_region import TrustRegionConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.search.campaign import Campaign
    from repro.shard.executor import ShardSpec

#: Named sign-off corner sets a case can request.
CORNER_SETS: Dict[str, Callable[[], List[PVTCondition]]] = {
    "nominal": lambda: [NOMINAL],
    "hardest": lambda: [hardest_condition(nine_corner_grid())],
    "nine": nine_corner_grid,
    "full45": full_corner_grid,
}


@dataclass(frozen=True)
class BenchCase:
    """One benchmark problem: a topology at a spec tier over a corner set.

    ``optimizer`` names the registered search strategy the case runs
    (``"trust_region"`` default); baseline cases pin ``"random"`` or
    ``"cross_entropy"`` so the artifacts calibrate what surrogate guidance
    actually buys.
    """

    topology: str
    tier: str
    corner_set: str = "nine"
    technology: str = "bsim45"
    load_cap: float = 2e-12
    max_evaluations: int = 400
    max_phases: int = 4
    optimizer: str = "trust_region"

    def __post_init__(self) -> None:
        if self.tier not in SPEC_TIERS:
            raise ValueError(
                f"unknown spec tier {self.tier!r}; "
                f"available: {', '.join(SPEC_TIERS)}"
            )
        if self.corner_set not in CORNER_SETS:
            raise ValueError(
                f"unknown corner set {self.corner_set!r}; "
                f"available: {', '.join(sorted(CORNER_SETS))}"
            )
        if self.optimizer not in available_optimizers():
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}; "
                f"available: {', '.join(available_optimizers())}"
            )

    @property
    def name(self) -> str:
        """Stable display/JSON key, e.g. ``two_stage_opamp/nominal/nine``.

        Any field deviating from its default is appended as a suffix
        (``ota_5t/smoke/nominal@max_evaluations=200``) so two cases that
        differ only in budget, technology or load never collide on the
        identity key used by :func:`register_benchmark` and the JSON
        artifact.
        """
        base = f"{self.topology}/{self.tier}/{self.corner_set}"
        extras = [
            f"{f.name}={getattr(self, f.name):g}"
            if isinstance(getattr(self, f.name), float)
            else f"{f.name}={getattr(self, f.name)}"
            for f in fields(self)
            if f.name not in ("topology", "tier", "corner_set")
            and getattr(self, f.name) != f.default
        ]
        return base + (f"@{','.join(extras)}" if extras else "")

    @property
    def slug(self) -> str:
        """Filesystem-safe variant of :attr:`name` for per-case artifact
        directories (checkpoints, persistent caches, drill workdirs)."""
        return self.name.replace("/", "_").replace("@", "_").replace(",", "_")

    def corners(self) -> List[PVTCondition]:
        return CORNER_SETS[self.corner_set]()

    def config(self, seed: int) -> ProgressiveConfig:
        """Per-seed search config: the case's optimizer and phase budget.

        Everything except the seed and the evaluation budget stays at the
        library defaults so benchmark numbers track the defaults users get.
        """
        return ProgressiveConfig(
            trust_region=TrustRegionConfig(seed=seed, max_evaluations=self.max_evaluations),
            max_phases=self.max_phases,
            optimizer=self.optimizer,
        )

    def build_campaign(
        self,
        seeds: Sequence[int],
        optimizer: Optional[str] = None,
        cache_path: Optional[str] = None,
    ) -> "Campaign":
        """The ready-to-run multi-seed :class:`Campaign` for this case.

        Exactly the construction the bench runner's campaign execution
        path performs, factored here so the resilience drill and the
        determinism auditor rebuild byte-identical campaigns from a case
        alone.  An explicit ``optimizer`` replaces the case's, ``None`` defers
        to it.
        """
        # Imported lazily: repro.search.sizing pulls in the topology zoo,
        # which this registry module must not import at module level.
        from repro.search.sizing import build_campaign

        seeds = [int(seed) for seed in seeds]
        config = self.config(seeds[0] if seeds else 0)
        if optimizer is not None:
            config = replace(config, optimizer=optimizer)
        return build_campaign(
            self.topology,
            technology=self.technology,
            load_cap=self.load_cap,
            tier=self.tier,
            corners=self.corners(),
            config=config,
            seeds=seeds,
            cache_path=cache_path,
        )

    def shard_specs(self, seeds: Sequence[int]) -> "List[ShardSpec]":
        """One picklable :class:`~repro.shard.executor.ShardSpec` per seed.

        Each spec carries the case's per-seed config (:meth:`config`), so
        a worker given a block of these specs rebuilds exactly the campaign
        :meth:`build_campaign` would for that block's seeds.  The
        ``sharded16`` benchmark workload and the shard parity tests are the
        only callers.
        """
        # Imported lazily for the same circularity reason as build_campaign.
        from repro.shard.executor import ShardSpec

        corners = tuple(self.corners())
        return [
            ShardSpec(
                topology=self.topology,
                seed=seed,
                config=self.config(seed),
                tier=self.tier,
                technology=self.technology,
                load_cap=self.load_cap,
                corners=corners,
                label=self.name,
            )
            for seed in map(int, seeds)
        ]


_SUITES: Dict[str, List[BenchCase]] = {
    # CI gate: every registered topology once, each case hard enough that
    # the surrogate-guided search (not the Monte-Carlo seed) does the work.
    # The two-stage runs its headline nominal tier over the full grid — the
    # historical opamp demo, kept bit-compatible.  The 5T OTA's nominal tier
    # is structurally infeasible across all nine corners at once (the +10%
    # supply corner caps the current budget the slow corner needs), so it
    # signs off at the hardest corner only.
    "smoke": [
        BenchCase("two_stage_opamp", "nominal", "nine"),
        BenchCase("ota_5t", "nominal", "hardest"),
        BenchCase("folded_cascode", "nominal", "nine"),
        BenchCase("telescopic", "nominal", "nine"),
        # Monte-Carlo baseline on an easy single-corner case (the smoke
        # tier is ~1-in-47 feasible under uniform sampling, so a 400-eval
        # random search signs off deterministically at the CI seeds):
        # calibrates what the surrogate-guided agent buys, and keeps a
        # non-trust-region optimizer exercised by every smoke run.
        BenchCase("two_stage_opamp", "smoke", "nominal", optimizer="random"),
    ],
    # Overnight matrix: the nominal cases plus the stretch tiers at the
    # hardest corner with a doubled budget.
    "full": [
        BenchCase("two_stage_opamp", "nominal", "nine"),
        BenchCase("ota_5t", "nominal", "hardest"),
        BenchCase("folded_cascode", "nominal", "nine"),
        BenchCase("telescopic", "nominal", "nine"),
        BenchCase("two_stage_opamp", "stretch", "hardest", max_evaluations=800),
        BenchCase("ota_5t", "stretch", "hardest", max_evaluations=800),
        BenchCase("folded_cascode", "stretch", "hardest", max_evaluations=800),
        BenchCase("telescopic", "stretch", "hardest", max_evaluations=800),
    ],
    # Single fast case for unit tests and bisection.
    "tiny": [
        BenchCase("ota_5t", "smoke", "nominal", max_evaluations=200, max_phases=1),
    ],
    # Kill-and-resume drill workload (python -m repro.resilience drill): a
    # fast case hard enough that the Monte-Carlo seed does NOT solve it, so
    # the surrogate refit loop runs and every registered fault site
    # (cache.append, engine.call, optimizer.refit, snapshot.write) is
    # reached within the first few occurrences.  The tiny case solves
    # during initial sampling and never refits — useless for drilling.
    "drill": [
        BenchCase("ota_5t", "nominal", "hardest", max_evaluations=120, max_phases=1),
    ],
    # Corner-axis scaling: the same workload signed off on the 9-corner grid
    # and on the full 45-corner grid, so BENCH artifacts track how the
    # stacked corner engine scales with the corner count.
    "corners": [
        BenchCase("two_stage_opamp", "smoke", "nine"),
        BenchCase("two_stage_opamp", "smoke", "full45"),
    ],
}


def available_suites() -> Tuple[str, ...]:
    """Names of all registered suites, sorted."""
    return tuple(sorted(_SUITES))


def get_suite(name: str) -> Tuple[BenchCase, ...]:
    """The cases of one suite, in registration order.

    Raises
    ------
    KeyError
        If the suite is unknown; the message lists the available suites.
    """
    try:
        return tuple(_SUITES[name])
    except KeyError:
        raise KeyError(
            f"unknown bench suite {name!r}; available: {', '.join(available_suites())}"
        ) from None


def register_benchmark(suite: str, case: BenchCase) -> None:
    """Add a case to a suite, creating the suite if needed."""
    cases = _SUITES.setdefault(suite, [])
    if any(existing.name == case.name for existing in cases):
        raise ValueError(f"suite {suite!r} already contains case {case.name!r}")
    cases.append(case)
