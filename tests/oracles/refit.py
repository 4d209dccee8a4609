"""Reference bookkeeping of the stacked refit: once per seed, per epoch.

:func:`repro.nn.fused.fit_batched` trains a bucket of same-geometry jobs in
lockstep and does its bookkeeping once per stack: one ``permuted`` call per
job for all epochs, one ``np.take`` per array per epoch, one ``mean`` over
all step losses, and Adam's bias corrections gathered from a table.
:func:`fit_bucket_per_epoch` is the loop it replaced: per epoch, each seed
draws ``permutation(rows)`` and gathers its own rows, the epoch loss is a
``np.mean`` per seed, and each Adam step computes every seed's bias
corrections with :func:`~repro.nn.fused.bias_correction` in a Python loop.
Both run the same stacked forward/backward
(:meth:`~repro.nn.fused.BatchedFusedMLP.loss_and_grad`), whose arithmetic
``tests/test_fused.py`` locks to the autodiff reference, so every weight,
moment, step count and loss must agree bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.fused import (
    BETA1,
    BETA2,
    DTYPE,
    EPS,
    BatchedFusedMLP,
    FusedFitJob,
    bias_correction,
)


def _adam_step(theta, grad, m, v, steps: List[int], lr: float) -> None:
    """One stacked Adam update, bias corrections computed seed by seed."""
    bc1 = np.empty((len(steps), 1), dtype=DTYPE)
    bc2 = np.empty((len(steps), 1), dtype=DTYPE)
    for index in range(len(steps)):
        steps[index] += 1
        bc1[index, 0] = bias_correction(BETA1, steps[index])
        bc2[index, 0] = bias_correction(BETA2, steps[index])
    s1 = np.empty_like(theta)
    s2 = np.empty_like(theta)
    np.multiply(m, DTYPE(BETA1), out=m)
    np.multiply(grad, DTYPE(1.0 - BETA1), out=s1)
    np.add(m, s1, out=m)
    np.multiply(v, DTYPE(BETA2), out=v)
    np.multiply(grad, grad, out=s1)
    np.multiply(s1, DTYPE(1.0 - BETA2), out=s1)
    np.add(v, s1, out=v)
    np.divide(m, bc1, out=s1)
    np.divide(v, bc2, out=s2)
    np.sqrt(s2, out=s2)
    np.add(s2, DTYPE(EPS), out=s2)
    np.multiply(s1, DTYPE(lr), out=s1)
    np.divide(s1, s2, out=s1)
    np.subtract(theta, s1, out=theta)


def fit_bucket_per_epoch(jobs: Sequence[FusedFitJob]) -> List[List[float]]:
    """Train same-geometry ``jobs`` in lockstep; returns per-epoch losses.

    Updates each job's model, Adam moments and step count in place, like
    :func:`repro.nn.fused.fit_batched` on the same jobs.
    """
    n = len(jobs)
    inputs = [np.asarray(job.inputs, dtype=DTYPE) for job in jobs]
    targets = [np.asarray(job.targets, dtype=DTYPE) for job in jobs]
    count = inputs[0].shape[0]
    epochs, batch_size = jobs[0].epochs, jobs[0].batch_size
    batched = BatchedFusedMLP(jobs[0].model, n)
    batched.gather([job.model for job in jobs])
    m = np.stack([job.adam._m for job in jobs])
    v = np.stack([job.adam._v for job in jobs])
    steps = [job.adam._t for job in jobs]

    shuf_x = np.empty((n, count, inputs[0].shape[1]), dtype=DTYPE)
    shuf_y = np.empty((n, count, targets[0].shape[1]), dtype=DTYPE)
    step_losses = np.empty((n, (count + batch_size - 1) // batch_size))
    epoch_losses: List[List[float]] = [[] for _ in range(n)]
    for _ in range(epochs):
        for index, job in enumerate(jobs):
            permutation = job.rng.permutation(count)
            shuf_x[index] = inputs[index][permutation]
            shuf_y[index] = targets[index][permutation]
        for step, start in enumerate(range(0, count, batch_size)):
            stop = min(start + batch_size, count)
            step_losses[:, step] = batched.loss_and_grad(
                shuf_x[:, start:stop], shuf_y[:, start:stop]
            )
            _adam_step(batched.theta, batched._grad, m, v, steps, jobs[0].adam.lr)
        for index in range(n):
            epoch_losses[index].append(float(np.mean(step_losses[index])))

    batched.scatter([job.model for job in jobs])
    for index, job in enumerate(jobs):
        job.adam._m[...] = m[index]
        job.adam._v[...] = v[index]
        job.adam._t = steps[index]
    return epoch_losses
