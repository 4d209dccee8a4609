"""Generic entry point: size any registered :class:`SizingProblem`.

The ask/tell optimizers and the Campaign driver are already generic over
evaluation handles; this module closes the loop with the topology registry
so one call sizes *any* workload in the zoo::

    from repro.search.sizing import size_problem
    result = size_problem("folded_cascode", tier="smoke", seed=0)

It is the layer both the opamp demo and the ``repro.bench`` harness sit on,
which keeps their RNG behaviour identical: a benchmark run of
``two_stage_opamp`` at the ``nominal`` tier reproduces the demo bit-for-bit
at the same seed.  :func:`build_campaign` is the multi-seed
sibling: the same problem resolution, returning the ready-to-run
:class:`~repro.search.campaign.Campaign` instead of running one seed; a
multi-seed campaign matches one :func:`size_problem` run per seed bit for
bit (locked by the tests).

Settings travel in one :class:`ProgressiveConfig`.  :func:`size_problem`'s
``seed``, ``max_phases`` and ``optimizer`` keywords are the only overrides:
an explicit value is applied to the config with :func:`dataclasses.replace`,
``None`` defers to it.  :func:`build_campaign` takes the config as it is.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Optional, Sequence, Type, Union

from repro.circuits.pvt import PVTCondition
from repro.search.progressive import ProgressiveConfig, ProgressiveResult
from repro.search.spec import Spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuits.topologies import SizingProblem
    from repro.search.campaign import Campaign


def build_campaign(
    topology: Union[str, Type["SizingProblem"]],
    technology: str = "bsim45",
    load_cap: float = 2e-12,
    specs: Optional[Sequence[Spec]] = None,
    tier: str = "nominal",
    corners: Optional[Sequence[PVTCondition]] = None,
    config: Optional[ProgressiveConfig] = None,
    seeds: Optional[Sequence[int]] = None,
    cache_path: Optional[str] = None,
) -> "Campaign":
    """Resolve a topology into a ready-to-run multi-seed Campaign.

    ``config`` carries every search setting (``None``: the
    :class:`ProgressiveConfig` defaults).  ``seeds`` selects the campaign
    members (defaulting to the config's seed); the spec set defaults to the
    topology's ``default_specs()`` at ``tier``.
    ``cache_path`` points the campaign's evaluation cache at a persistent
    on-disk store (warm starts across processes).
    """
    # Imported lazily: the topology modules import repro.search.spec, so a
    # module-level import here would be circular.
    from repro.circuits.topologies import get_topology
    from repro.search.campaign import Campaign

    problem_cls = get_topology(topology) if isinstance(topology, str) else topology
    problem = problem_cls(technology, load_cap=load_cap)
    if specs is None:
        ladder = problem.default_specs()
        try:
            specs = ladder[tier]
        except KeyError:
            raise KeyError(
                f"topology {problem.name!r} has no spec tier {tier!r}; "
                f"available: {', '.join(sorted(ladder))}"
            ) from None
    return Campaign(
        problem.evaluation_handle(),
        specs,
        corners=corners,
        config=config,
        seeds=seeds,
        cache_path=cache_path,
    )


def size_problem(
    topology: Union[str, Type["SizingProblem"]],
    technology: str = "bsim45",
    load_cap: float = 2e-12,
    specs: Optional[Sequence[Spec]] = None,
    tier: str = "nominal",
    corners: Optional[Sequence[PVTCondition]] = None,
    config: Optional[ProgressiveConfig] = None,
    seed: Optional[int] = None,
    max_phases: Optional[int] = None,
    optimizer: Optional[str] = None,
) -> ProgressiveResult:
    """Run the progressive sizing search on one topology (single seed).

    The single-seed entry point: runs a one-seed
    :class:`~repro.search.campaign.Campaign`, bit-exact versus the
    historical sequential implementation at a fixed seed/config.

    Parameters
    ----------
    topology:
        Registry name (see :func:`repro.circuits.topologies.available_topologies`)
        or a :class:`SizingProblem` subclass.
    technology, load_cap:
        Forwarded to the topology constructor at every corner.
    specs:
        Explicit constraint set; defaults to the topology's ``default_specs()``
        at the requested ``tier``.
    tier:
        Spec-ladder tier used when ``specs`` is not given.
    corners:
        Sign-off corner set; defaults to the nine-corner grid.
    config, seed:
        Search settings; an explicit ``seed`` overrides the
        config's seed, ``None`` defers to it.
    max_phases:
        Progressive corner-hardening round budget; ``None`` defers to the
        config (:class:`ProgressiveConfig` default: 4).
    optimizer:
        Registered search strategy each phase runs (``"trust_region"``
        default; ``"random"``/``"cross_entropy"`` baselines).  ``None``
        defers to the config.
    """
    config = config if config is not None else ProgressiveConfig()
    if seed is not None:
        config = replace(config, trust_region=replace(config.trust_region, seed=seed))
    if max_phases is not None:
        config = replace(config, max_phases=max_phases)
    if optimizer is not None:
        config = replace(config, optimizer=optimizer)
    campaign = build_campaign(
        topology,
        technology=technology,
        load_cap=load_cap,
        specs=specs,
        tier=tier,
        corners=corners,
        config=config,
    )
    return campaign.run().results[0]
