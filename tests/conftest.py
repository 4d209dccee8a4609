"""Test-only routes to the parity oracles.

Production code runs one path per layer: a Campaign evaluates corners with
the handle's stacked evaluator, defers every surrogate refit to the round's
batched dispatch, and trains a :class:`~repro.nn.fused.FusedMLP`.  The slow
reference implementations those fast paths must match bit for bit are
reachable only from the tests, through the ``oracles`` fixture below.
"""

from dataclasses import replace

import pytest

from repro.autodiff import Tensor
from repro.circuits.topologies.base import SizingProblem
from repro.nn import MLP, Adam, Sequential
from repro.nn.fused import ridge_output_weights
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
        """Trust regions train an autodiff MLP with the Tensor-graph Adam.

        The weights start from the fused build's own initialisation, and
        refits run inline (the batched kernel stacks fused parameters only).
        Closed-form output-layer refits take the hidden features from the
        Tensor forward pass and share only the ridge solve with the fused
        path.
        """
        original = TrustRegionSearch._build_surrogate

        def fit_output_layer(model, inputs, targets, l2):
            *hidden, last = model.body.layers
            features = Sequential(*hidden)(Tensor(inputs)).data
            solution = ridge_output_weights(features, targets, l2)
            last.weight.data[...] = solution[:-1]
            last.bias.data[...] = solution[-1]

        def build(search):
            fused, _ = original(search)
            model = fused.to_module()
            return model, Adam(model.parameters(), lr=search.config.learning_rate)

        self._monkeypatch.setattr(TrustRegionSearch, "_build_surrogate", build)
        self._monkeypatch.setattr(MLP, "fit_output_layer", fit_output_layer, raising=False)
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
