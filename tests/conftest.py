"""Test-only routes to the parity oracles, and the one-corner driver.

Production code runs one path per layer: a Campaign drives every optimizer,
evaluates corners with the handle's stacked evaluator, trains every queued
surrogate refit in the round's batched dispatch, and trains a
:class:`~repro.nn.fused.FusedMLP` through the one stacked kernel.
The slow reference implementations those fast paths must match bit for bit
are reachable only from the tests: the ``oracles`` package next to this file
holds them, and the ``oracles`` fixture below switches a test onto them.
:func:`one_corner_campaign` builds that same Campaign around a plain batch
evaluator, and :func:`run_in_campaign` runs one optimizer through it.  :data:`RESTARTING` and :data:`FOLDING` name the
seeds whose searches take paths most seeds skip, and :func:`trajectory`
strips a per-seed record down to what any campaign must reproduce.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from oracles.corners import evaluate_corners_looped
from oracles.nn import MLP, Adam
from repro.bench.registry import BenchCase
from repro.circuits.pvt import NOMINAL
from repro.circuits.topologies.base import SizingProblem
from repro.search import campaign, trust_region
from repro.search.campaign import Campaign, EvaluationHandle
from repro.search.progressive import ProgressiveConfig
from repro.search.trust_region import TrustRegionSearch

# Seeds whose searches take a path most seeds skip.  Which seeds do moves
# with every change to the search's trajectories, so the tests that need
# such a path take their case and seeds from here, and such a change
# re-pins them in this one place.

#: A case and two seeds whose trust regions stall at ``MIN_RADIUS``,
#: restart once, and then solve in phase 0.
RESTARTING = (BenchCase("folded_cascode", "nominal", "nine"), (84, 64))

#: Per optimizer, a case and two seeds whose phase-0 winners fail a corner,
#: so the members fold it in and search a phase 1 (most trust-region seeds
#: now solve in phase 0).
FOLDING = {
    "trust_region": (BenchCase("two_stage_opamp", "nominal", "nine"), (69, 82)),
    "cross_entropy": (
        BenchCase("telescopic", "nominal", "nine", optimizer="cross_entropy"),
        (0, 1),
    ),
    "random": (
        BenchCase("two_stage_opamp", "nominal", "full45", optimizer="random"),
        (0, 1),
    ),
}


#: Per-seed record fields that are not the seed's trajectory: the seed
#: itself and its refit wall time.
ACCOUNTING_FIELDS = frozenset({"seed", "refit_seconds"})


def trajectory(record):
    """A per-seed record (``ProgressiveResult.to_dict()``) minus its accounting."""
    return {key: value for key, value in record.items() if key not in ACCOUNTING_FIELDS}


def one_corner_campaign(
    evaluator, design_space, specification, config, optimizer="trust_region", seeds=None,
):
    """A one-phase Campaign of ``optimizer`` on a plain batch evaluator.

    ``evaluator`` maps ``(count, dim)`` sizings to ``(count, n_metrics)``;
    an :class:`EvaluationHandle` serves it at the nominal corner.  The
    campaign runs ``seeds`` (default: ``config.seed``) for one phase each.
    """
    handle = EvaluationHandle(
        design_space,
        tuple(specification.metric_names),
        lambda samples, corners: np.atleast_2d(
            np.asarray(evaluator(samples), dtype=np.float64)
        )[np.newaxis],
    )
    return Campaign(
        handle,
        specification.specs,
        corners=[NOMINAL],
        config=ProgressiveConfig(trust_region=config, max_phases=1, optimizer=optimizer),
        seeds=seeds,
    )


def run_in_campaign(
    evaluator, design_space, specification, config, optimizer="trust_region",
    initial_points=None,
):
    """Run one optimizer to completion through a one-corner Campaign
    (:func:`one_corner_campaign` at seed ``config.seed``).

    ``initial_points`` warm-start that phase, as a later progressive phase
    is warm-started.  Returns the phase optimizer: its ``result()`` is the
    phase result, and its specification names each metric
    ``<name>@<corner>``.
    """
    driver = one_corner_campaign(evaluator, design_space, specification, config, optimizer)
    member = driver._members[0]
    if initial_points is not None:
        member.warm_start = np.atleast_2d(np.asarray(initial_points, dtype=np.float64))
        member.optimizer = member._build_optimizer()
    driver.run()
    return member.optimizer


def train_one_by_one(jobs):
    """The sequential stand-in for ``fit_batched``: each job through its
    own model's ``fit``."""
    return [
        job.model.fit(job.inputs, job.targets, job.epochs, job.batch_size, job.adam, job.rng)
        for job in jobs
    ]


class OraclePaths:
    """Switches the current test onto the reference paths (undone on exit).

    Call the methods after any fast-path baseline run of the same test:
    each one patches classes, so it affects every run that follows it.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self._monkeypatch = monkeypatch

    def sequential_refits(self) -> None:
        """Campaigns train each round's refit jobs one by one, through each
        job's own ``model.fit``, instead of one multi-job dispatch."""
        self._monkeypatch.setattr(campaign, "fit_batched", train_one_by_one)

    def autodiff_surrogate(self) -> None:
        """Trust regions train the autodiff MLP with the Tensor-graph Adam.

        The oracle MLP loads the fused build's ``state_dict``, so both start
        from the same weights.  Every refit trains through the oracle's own
        ``fit``, since the stacked kernel stacks fused parameters only: the
        campaign's dispatch becomes the sequential stand-in.
        """
        original = TrustRegionSearch._build_surrogate

        def build(search):
            fused, _ = original(search)
            model = MLP(fused.in_features, fused.hidden, fused.out_features)
            model.load_state_dict(fused.state_dict())
            return model, Adam(model.parameters(), lr=trust_region.LEARNING_RATE)

        self._monkeypatch.setattr(TrustRegionSearch, "_build_surrogate", build)
        self.sequential_refits()

    def looped_corners(self) -> None:
        """Topology handles evaluate corners with the per-corner loop
        :func:`oracles.corners.evaluate_corners_looped` instead of the
        stacked engine."""
        original = SizingProblem.evaluation_handle
        self._monkeypatch.setattr(
            SizingProblem,
            "evaluation_handle",
            lambda problem: replace(
                original(problem),
                corner_evaluator=partial(evaluate_corners_looped, problem),
            ),
        )


@pytest.fixture
def oracles(monkeypatch: pytest.MonkeyPatch) -> OraclePaths:
    return OraclePaths(monkeypatch)
