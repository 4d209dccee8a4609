"""Test-only routes to the parity oracles.

Production code runs one path per layer: a Campaign evaluates corners with
the handle's stacked evaluator, trains every queued surrogate refit in the
round's batched dispatch, and trains a :class:`~repro.nn.fused.FusedMLP`.
The slow reference implementations those fast paths must match bit for bit
are reachable only from the tests: the ``oracles`` package next to this file
holds them, and the ``oracles`` fixture below switches a test onto them.
"""

from dataclasses import replace
from functools import partial

import pytest

from oracles.corners import evaluate_corners_looped
from oracles.nn import MLP, Adam
from repro.circuits.topologies.base import SizingProblem
from repro.search import campaign
from repro.search.trust_region import TrustRegionSearch


class OraclePaths:
    """Switches the current test onto the reference paths (undone on exit).

    Call the methods after any fast-path baseline run of the same test:
    each one patches classes, so it affects every run that follows it.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self._monkeypatch = monkeypatch

    def sequential_refits(self) -> None:
        """Campaigns train each round's refit jobs one by one, through each
        job's own ``model.fit``, instead of the stacked batched kernel."""

        def sequential(jobs):
            return [
                job.model.fit(
                    job.inputs, job.targets, job.epochs, job.batch_size, job.adam, job.rng
                )
                for job in jobs
            ]

        self._monkeypatch.setattr(campaign, "fit_batched", sequential)

    def autodiff_surrogate(self) -> None:
        """Trust regions train the autodiff MLP with the Tensor-graph Adam.

        The oracle MLP loads the fused build's ``state_dict``, so both start
        from the same weights, and campaigns train refits one by one (the
        batched kernel stacks fused parameters only).
        """
        original = TrustRegionSearch._build_surrogate

        def build(search):
            fused, _ = original(search)
            model = MLP(fused.in_features, fused.hidden, fused.out_features)
            model.load_state_dict(fused.state_dict())
            return model, Adam(model.parameters(), lr=search.config.learning_rate)

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
