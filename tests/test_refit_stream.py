"""The refit's random stream and per-stack bookkeeping, locked bitwise.

:func:`repro.nn.fused.fit_batched` draws each job's shuffles for the whole
fit with one ``Generator.permuted`` call on a tile of ``arange(rows)``.
That is only trajectory-neutral if the tile's rows are exactly the
``permutation(rows)`` calls the reference training loop makes, one per
epoch, and the generator ends where those calls leave it.  The first test
holds NumPy to that at the row counts and epoch counts the search uses; the
second holds one whole bucket to the per-epoch loop of
:mod:`oracles.refit`, with seeds arriving at different Adam step counts.
"""

import numpy as np
import pytest

from oracles.refit import fit_bucket_per_epoch
from repro.nn import FusedAdam, FusedFitJob, FusedMLP, fit_batched


@pytest.mark.parametrize("epochs", [25, 120])
@pytest.mark.parametrize("count", [1, 48, 57, 400])
def test_permuted_tile_is_the_per_epoch_permutation_stream(count, epochs):
    reference = np.random.default_rng(count * 1000 + epochs)
    drawn = np.random.default_rng(count * 1000 + epochs)
    expected = np.stack([reference.permutation(count) for _ in range(epochs)])
    shuffles = drawn.permuted(np.tile(np.arange(count, dtype=np.intp), (epochs, 1)), axis=1)
    assert shuffles.tobytes() == expected.astype(np.intp).tobytes()
    assert drawn.bit_generator.state == reference.bit_generator.state
    assert drawn.random() == reference.random()


def make_jobs(count=57, epochs=25, batch_size=16, histories=(0, 1, 3)):
    """Same-geometry jobs whose Adam states have ``histories`` epochs of
    prior training each (so their step counts differ), built twice from
    the same seeds to give bit-identical twins."""
    jobs = []
    for seed, history in enumerate(histories):
        model = FusedMLP(6, (24, 24), 3, rng=np.random.default_rng(seed))
        adam = FusedAdam(model, lr=3e-3)
        data = np.random.default_rng(100 + seed)
        inputs = data.normal(size=(count, 6))
        targets = data.normal(size=(count, 3))
        if history:
            fit_batched([FusedFitJob(model, adam, inputs, targets, history, 8,
                                     np.random.default_rng(500 + seed))])
        jobs.append(FusedFitJob(model, adam, inputs, targets, epochs, batch_size,
                                np.random.default_rng(1000 + seed)))
    return jobs


@pytest.mark.parametrize("histories", [(0, 1, 3), (2,), (0, 0, 0, 0)])
def test_bucket_matches_the_per_epoch_loop(histories):
    fused, reference = make_jobs(histories=histories), make_jobs(histories=histories)
    # One seed far along its schedule, so the stack's bias-table lookups
    # cover step counts no other seed reaches.
    fused[0].adam._t += 4000
    reference[0].adam._t += 4000
    fused_losses = fit_batched(fused)
    reference_losses = fit_bucket_per_epoch(reference)
    assert fused_losses == reference_losses
    for job, twin in zip(fused, reference):
        assert job.model.theta.tobytes() == twin.model.theta.tobytes()
        assert job.adam._m.tobytes() == twin.adam._m.tobytes()
        assert job.adam._v.tobytes() == twin.adam._v.tobytes()
        assert job.adam._t == twin.adam._t
        assert type(job.adam._t) is int
        assert job.rng.bit_generator.state == twin.rng.bit_generator.state
