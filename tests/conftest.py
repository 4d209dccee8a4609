"""Test-only routes to the parity oracles.

Production code runs one path per layer: a Campaign evaluates corners with
the handle's stacked evaluator, defers every surrogate refit to the round's
batched dispatch, and trains a :class:`~repro.nn.fused.FusedMLP`.  The slow
reference implementations those fast paths must match bit for bit are
reachable only from the tests: the ``oracles`` package next to this file
holds them, and the ``oracles`` fixture below switches a test onto them.
"""

from dataclasses import replace

import pytest

from oracles.nn import MLP, Adam
from repro.circuits.topologies.base import SizingProblem
from repro.search.trust_region import TrustRegionSearch


class OraclePaths:
    """Switches the current test onto the reference paths (undone on exit).

    Call the methods after any fast-path baseline run of the same test:
    each one patches classes, so it affects every run that follows it.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self._monkeypatch = monkeypatch

    def inline_refits(self) -> None:
        """Campaign members refit inside ``tell`` instead of deferring."""
        original = TrustRegionSearch.set_refit_deferred
        self._monkeypatch.setattr(
            TrustRegionSearch,
            "set_refit_deferred",
            lambda search, deferred: original(search, False),
        )

    def autodiff_surrogate(self) -> None:
        """Trust regions train the autodiff MLP with the Tensor-graph Adam.

        The oracle MLP loads the fused build's ``state_dict``, so both start
        from the same weights, and refits run inline (the batched kernel
        stacks fused parameters only).
        """
        original = TrustRegionSearch._build_surrogate

        def build(search):
            fused, _ = original(search)
            model = MLP(fused.in_features, fused.hidden, fused.out_features)
            model.load_state_dict(fused.state_dict())
            return model, Adam(model.parameters(), lr=search.config.learning_rate)

        self._monkeypatch.setattr(TrustRegionSearch, "_build_surrogate", build)
        self.inline_refits()

    def looped_corners(self) -> None:
        """Topology handles evaluate corners with the per-corner loop
        :meth:`~SizingProblem.evaluate_corners_looped` instead of the
        stacked engine."""
        original = SizingProblem.evaluation_handle
        self._monkeypatch.setattr(
            SizingProblem,
            "evaluation_handle",
            lambda problem: replace(
                original(problem), corner_evaluator=problem.evaluate_corners_looped
            ),
        )


@pytest.fixture
def oracles(monkeypatch: pytest.MonkeyPatch) -> OraclePaths:
    return OraclePaths(monkeypatch)
