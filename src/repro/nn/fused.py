"""The surrogate MLP the search trains, in pure NumPy.

The paper's agent is a simple feed-forward network trained with supervised
learning and refitted every iteration (Algorithm 1, line 8).
:class:`FusedMLP` is that network with one fixed shape: tanh hidden layers,
an identity output layer, Xavier-initialised weights and zero biases, its
parameters in one concatenated ``float32`` vector (:data:`DTYPE`);
:class:`FusedAdam` is its Adam state over that vector.  Only the network
runs in float32: :meth:`FusedMLP.predict` hands back float64, and the ridge
solve of the closed-form refit runs in float64.

There is one training kernel.  :func:`fit_batched` stacks one or more
models' flat vectors into a :class:`BatchedFusedMLP` and takes every step
through its hand-derived forward/backward pass under an MSE loss and
:class:`BatchedFusedAdam`'s update: a fixed, small sequence of NumPy calls
with no per-op Python structures.  :meth:`FusedMLP.fit` is a one-job
dispatch of it.  The bookkeeping around the steps is done once per stack,
not once per seed: each job's shuffles for the whole fit come from one
``Generator.permuted`` call, each epoch gathers every seed's minibatch
rows with one ``np.take`` per array, the step losses fill one array that is
averaged once at the end, and Adam's bias corrections are one gather from a
table of :func:`bias_correction` values.

Every floating-point expression in the kernel is written to match a
reverse-mode autodiff engine's backward pass operation for operation (same
order, same power-of-two factors), so each seed's losses, gradients and
post-Adam weights are **bit-identical** to the engine's on the same
minibatch stream.  That reference engine lives with the tests
(``tests/oracles``), and ``tests/test_fused.py`` and
``tests/test_batched_refit.py`` enforce the lock.  The ``state_dict`` layout
(``param_0`` = first weight, ``param_1`` = first bias, ...) is the
reference MLP's, so weights move between the two through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.contracts import ArraySpec, contract

#: The dtype the network trains and predicts in: parameters, gradients,
#: Adam moments and every scratch buffer.  Callers' arrays are cast to it at
#: the boundary, and predictions are cast back to float64.
DTYPE = np.float32

#: Adam's moment decay rates and denominator guard (Kingma & Ba, 2015),
#: the defaults the surrogate has always trained with.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# The kernels' scalar operands, already in DTYPE.  NumPy 2 (NEP 50) and
# NumPy 1.x (value-based casting) promote mixed float32/float64 operands
# differently -- ``np.float32(x) * 0.5`` is float32 under NEP 50 but float64
# under 1.x -- so with typed scalars no result depends on which rules apply.
_ONE = DTYPE(1.0)
_BETA1 = DTYPE(BETA1)
_BETA2 = DTYPE(BETA2)
_ONE_MINUS_BETA1 = DTYPE(1.0 - BETA1)
_ONE_MINUS_BETA2 = DTYPE(1.0 - BETA2)
_EPS = DTYPE(EPS)


def bias_correction(beta: float, t: int) -> float:
    """Adam's ``1 - beta**t`` debiasing denominator.

    :class:`BatchedFusedAdam` (through :func:`_bias_table`) and the
    reference Adam the tests compare it against must compute this with the
    same Python ``**`` on the integer step count; sharing the helper keeps
    their bits from drifting apart.
    """
    return 1.0 - beta ** t


# Row 0 holds bias_correction(BETA1, t) and row 1 bias_correction(BETA2, t)
# at column t, rounded to DTYPE as the update divides by them.  The values
# never change; _bias_table only appends columns.
_BIAS_TABLE = np.zeros((2, 1), dtype=DTYPE)


def _bias_table(last_step: int) -> np.ndarray:
    """The ``(2, size)`` bias-correction table, covering ``last_step``.

    Grown to at least twice its size when a longer history needs it, so a
    process computes each step count's corrections a bounded number of
    times however many stacks it trains.
    """
    global _BIAS_TABLE
    if last_step >= _BIAS_TABLE.shape[1]:
        size = max(last_step + 1, 2 * _BIAS_TABLE.shape[1])
        table = np.empty((2, size), dtype=DTYPE)
        table[0] = [bias_correction(BETA1, t) for t in range(size)]
        table[1] = [bias_correction(BETA2, t) for t in range(size)]
        _BIAS_TABLE = table
    return _BIAS_TABLE


def ridge_output_weights(features: np.ndarray, targets: np.ndarray, l2: float) -> np.ndarray:
    """Ridge weights of a linear layer on ``features``, bias row last.

    Appends a ones column to the ``(rows, h)`` features (``Φ``) and solves
    the ``(h+1)×(h+1)`` system ``(ΦᵀΦ + l2·I) W = ΦᵀY``; the bias is
    penalised like the weights.  Any ``l2 > 0`` keeps the system solvable
    when there are no more rows than features.  The design matrix is
    float64, so float32 features are upcast and the solve runs in float64.
    """
    design = np.empty((features.shape[0], features.shape[1] + 1))
    design[:, :-1] = features
    design[:, -1] = 1.0
    gram = design.T @ design
    gram.flat[:: gram.shape[0] + 1] += l2
    return np.linalg.solve(gram, design.T @ targets)


class FusedMLP:
    """An MLP whose parameters live in one flat ``float32`` buffer.

    ``hidden`` gives the widths of the tanh hidden layers; the output layer
    is linear.  Each layer's weights are drawn from ``rng`` in order,
    ``rng.normal(0, sqrt(2 / (fan_in + fan_out)), (fan_in, fan_out))``
    (Xavier), and its biases start at zero.

    Attributes
    ----------
    theta:
        The concatenated parameter vector.  Per-layer weight/bias arrays are
        *views* into it, so a flat write (a trained stack's scatter, a
        ``load_state_dict``) updates the layers in place.
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        rng: np.random.Generator,
    ) -> None:
        self.in_features = in_features
        self.out_features = out_features
        self.hidden = tuple(hidden)
        widths = (in_features, *self.hidden, out_features)
        self._shapes: List[Tuple[int, int]] = list(zip(widths[:-1], widths[1:]))

        total = sum(i * o + o for i, o in self._shapes)
        self.theta = np.empty(total, dtype=DTYPE)
        self._weights: List[np.ndarray] = []
        self._biases: List[np.ndarray] = []
        offset = 0
        for fan_in, fan_out in self._shapes:
            w_slice = slice(offset, offset + fan_in * fan_out)
            offset += fan_in * fan_out
            b_slice = slice(offset, offset + fan_out)
            offset += fan_out
            weight = self.theta[w_slice].reshape(fan_in, fan_out)
            weight[...] = rng.normal(
                0.0, np.sqrt(2.0 / (fan_in + fan_out)), size=(fan_in, fan_out)
            )
            self.theta[b_slice] = 0.0
            self._weights.append(weight)
            self._biases.append(self.theta[b_slice])

    # ------------------------------------------------------------------
    # Serialization (the reference MLP's layout)
    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return self.theta.size

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Parameter arrays in layer order (W0, b0, W1, ...)."""
        state: Dict[str, np.ndarray] = {}
        index = 0
        for weight, bias in zip(self._weights, self._biases):
            # analysis: allow(hot-loop-alloc) serialization is cold by design
            state[f"param_{index}"] = weight.copy()
            state[f"param_{index + 1}"] = bias.copy()  # analysis: allow(hot-loop-alloc)
            index += 2
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        arrays = [self._weights[i // 2] if i % 2 == 0 else self._biases[i // 2]
                  for i in range(2 * len(self._weights))]
        if len(state) != len(arrays):
            raise ValueError(
                f"state has {len(state)} entries but model has {len(arrays)} parameters"
            )
        for i, target in enumerate(arrays):
            # analysis: allow(hot-loop-alloc) deserialization is cold by design
            incoming = np.asarray(state[f"param_{i}"], dtype=DTYPE)
            if incoming.shape != target.shape:
                raise ValueError(
                    f"parameter {i} shape mismatch: {incoming.shape} vs {target.shape}"
                )
            target[...] = incoming

    # ------------------------------------------------------------------
    # Forward / fused backward
    # ------------------------------------------------------------------
    def _hidden_features(self, x: np.ndarray) -> np.ndarray:
        """The last hidden layer's tanh activations for raw inputs."""
        h = x
        for weight, bias in zip(self._weights[:-1], self._biases[:-1]):
            h = np.tanh(h @ weight + bias)
        return h

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference forward pass on raw arrays: computed in :data:`DTYPE`,
        returned as float64."""
        x = np.atleast_2d(np.asarray(x, dtype=DTYPE))
        output = self._hidden_features(x) @ self._weights[-1] + self._biases[-1]
        return output.astype(np.float64)

    __call__ = predict

    def fit_output_layer(self, inputs: np.ndarray, targets: np.ndarray, l2: float) -> None:
        """Refit the output layer exactly, keeping the hidden features.

        One :data:`DTYPE` forward pass to the last hidden layer, then the
        float64 ridge solve of :func:`ridge_output_weights` on the upcast
        features, rounded into the last weight and bias in place.  Draws no
        RNG and leaves the hidden layers (and any optimizer's moments)
        untouched: the neural-linear refit of DNGO (Snoek et al., 2015).
        """
        features = self._hidden_features(np.atleast_2d(np.asarray(inputs, dtype=DTYPE)))
        solution = ridge_output_weights(features, targets, l2)
        self._weights[-1][...] = solution[:-1]
        self._biases[-1][...] = solution[-1]

    @contract(
        args={
            "inputs": ArraySpec("n", None, dtype=DTYPE),
            "targets": ArraySpec("n", None, dtype=DTYPE),
        },
        frozen=("inputs", "targets"),
    )
    def fit(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        epochs: int,
        batch_size: int,
        optimizer: "FusedAdam",
        rng: np.random.Generator,
    ) -> List[float]:
        """Minibatch-Adam training; returns the per-epoch mean losses.

        A one-job :func:`fit_batched` dispatch: one permutation per epoch
        from ``rng``, the batches in permuted order (the RNG use of the
        reference training loop), each step through the stacked kernel.
        """
        return fit_batched(
            [FusedFitJob(self, optimizer, inputs, targets, epochs, batch_size, rng)]
        )[0]

    def __repr__(self) -> str:
        return (
            f"FusedMLP(in={self.in_features}, hidden={self.hidden}, "
            f"out={self.out_features}, params={self.num_parameters})"
        )


class FusedAdam:
    """One model's Adam state over its flat parameter vector.

    Holds the learning rate, the first/second moments ``m``/``v`` and the
    integer step count; :class:`BatchedFusedAdam` gathers them, takes the
    steps and scatters them back.  The update (:data:`BETA1`,
    :data:`BETA2`, :data:`EPS`, the same bias correction and epsilon
    placement) is bit-identical to a per-parameter Adam's.
    """

    def __init__(self, model: FusedMLP, lr: float = 1e-3) -> None:
        self.lr = lr
        self._m = np.zeros_like(model.theta)
        self._v = np.zeros_like(model.theta)
        self._t = 0


class BatchedFusedMLP:
    """``n_seeds`` :class:`FusedMLP` replicas trained as one tensor.

    This is the only training kernel: :func:`fit_batched` runs every fit
    through it, a lone job as a one-seed stack.  The seeds' flat parameter
    vectors stack into a ``(n_seeds, n_params)`` tensor whose per-layer
    weight/bias arrays are *views*
    (``theta[:, w_slice].reshape(n_seeds, fan_in, fan_out)``), so one
    broadcast forward/backward step advances every seed at once.  All seeds
    must share one architecture (see :func:`fit_job_signature`) **and one
    minibatch shape per step**: a 3-D ``matmul`` runs each seed's slice
    through the 2-D gemm a one-seed stack runs, so same-shape stacking is
    bit-transparent, whereas zero-padding ragged rows is *not* (BLAS picks
    row-count-dependent kernels — a padded gemm's first rows can differ
    from the unpadded gemm's in the last ulp).  That is why
    :func:`fit_batched` buckets jobs by dataset geometry instead of padding.

    Per-seed loss reduction (no cross-seed leakage) happens over each seed's
    own contiguous ``(rows, out)`` block, so NumPy's pairwise summation
    takes the tree it takes for one seed alone, and the same bits.  Weights
    move between the stacked tensor and the per-seed models through
    :meth:`gather` / :meth:`scatter`, which copy the flat buffers directly
    (the flat layout *is* the ``state_dict`` layout, W0 b0 W1 b1 ...).
    Parity with the autodiff reference, per step and per fit, at one seed
    and at several, is locked by ``tests/test_fused.py`` and
    ``tests/test_batched_refit.py``.
    """

    def __init__(self, template: FusedMLP, n_seeds: int) -> None:
        if n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
        self.n_seeds = n_seeds
        self.in_features = template.in_features
        self.out_features = template.out_features
        self.hidden = template.hidden
        self._shapes = list(template._shapes)
        total = template.num_parameters
        self.theta = np.empty((n_seeds, total), dtype=DTYPE)
        # The per-step gradient lives in one reusable buffer; per-layer
        # weight/bias gradients are views into it so the backward pass can
        # write matmul results straight into place with ``out=``.
        self._grad = np.empty((n_seeds, total), dtype=DTYPE)
        # Per-row-count scratch buffers for every forward/backward
        # intermediate (see _scratch_for); a step performs no heap
        # allocation after the first batch of a given size.
        self._scratch: Dict[int, tuple] = {}
        self._weights: List[np.ndarray] = []
        self._biases: List[np.ndarray] = []
        self._grad_weights: List[np.ndarray] = []
        self._grad_biases: List[np.ndarray] = []
        # Views a step broadcasts with are built once here, not per step:
        # the biases as (n_seeds, 1, fan_out) rows, and the transposed
        # weights the backward pass multiplies by.
        self._weights_t: List[np.ndarray] = []
        offset = 0
        for fan_in, fan_out in self._shapes:
            w_slice = slice(offset, offset + fan_in * fan_out)
            offset += fan_in * fan_out
            b_slice = slice(offset, offset + fan_out)
            offset += fan_out
            weight = self.theta[:, w_slice].reshape(n_seeds, fan_in, fan_out)
            self._weights.append(weight)
            self._weights_t.append(weight.transpose(0, 2, 1))
            self._biases.append(self.theta[:, None, b_slice])
            self._grad_weights.append(
                self._grad[:, w_slice].reshape(n_seeds, fan_in, fan_out)
            )
            self._grad_biases.append(self._grad[:, b_slice])

    @property
    def num_parameters(self) -> int:
        return self.theta.shape[1]

    def gather(self, models: Sequence[FusedMLP]) -> None:
        """Copy each model's flat parameter vector into the stacked tensor."""
        if len(models) != self.n_seeds:
            raise ValueError(f"expected {self.n_seeds} models, got {len(models)}")
        for index, model in enumerate(models):
            if model._shapes != self._shapes:
                raise ValueError(f"model {index} architecture does not match the template")
            self.theta[index] = model.theta

    def scatter(self, models: Sequence[FusedMLP]) -> None:
        """Write the stacked parameters back into the per-seed models."""
        if len(models) != self.n_seeds:
            raise ValueError(f"expected {self.n_seeds} models, got {len(models)}")
        for index, model in enumerate(models):
            model.theta[...] = self.theta[index]

    def _scratch_for(self, rows: int) -> tuple:
        """Reusable per-layer buffers for a given minibatch row count.

        ``out`` holds each layer's output (the tanh activations, computed in
        place over the pre-activations, for hidden layers), ``g`` the
        backward gradients per layer and ``tmp`` the tanh-derivative
        workspace (the last entry doubles as the squared-error buffer), all
        with a leading seed axis.  Allocated once per distinct row count,
        then reused.
        """
        cached = self._scratch.get(rows)
        if cached is None:
            cached = tuple(
                # analysis: allow(hot-loop-alloc) one-time scratch per row count
                [np.empty((self.n_seeds, rows, fan_out), dtype=DTYPE)
                 for _, fan_out in self._shapes]
                for _ in range(3)
            )
            self._scratch[rows] = cached
        return cached

    def loss_and_grad(self, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """One fused MSE step over all seeds at once.

        ``inputs``/``targets`` are ``(n_seeds, rows, features)`` — every
        seed contributes the same number of rows (callers bucket by
        geometry).  Each seed's slice mirrors the reference autodiff chain
        for ``mse_loss(model(Tensor(x)), Tensor(y)).backward()`` term by
        term: the mean splits into ``sum * (1/size)``, the squared
        difference contributes its gradient twice (``g + g`` rather than
        ``2*g`` — the same bits either way), and each layer differentiates
        in the same operand order as the Tensor closures.

        Returns the ``(n_seeds,)`` per-seed losses; the gradients land in
        ``self._grad`` (valid until the next call).
        """
        rows = inputs.shape[1]
        weights = self._weights
        last = len(weights) - 1
        if inputs.shape[0] != self.n_seeds or targets.shape != (
            self.n_seeds, rows, self._shapes[last][1]
        ):
            raise ValueError(
                f"batched step expects inputs ({self.n_seeds}, rows, in) and "
                f"matching targets, got {inputs.shape} / {targets.shape}"
            )
        out_buffers, g_buffers, tmp_buffers = self._scratch_for(rows)

        # Forward, keeping every layer's output for the backward pass.
        h = inputs
        for index in range(last + 1):
            h = np.matmul(h, weights[index], out=out_buffers[index])
            np.add(h, self._biases[index], out=h)
            if index < last:
                np.tanh(h, out=h)
        prediction = h

        # Loss and its gradient seed.  The per-seed mean divides by one
        # seed's element count, and each seed's sum reduces its own
        # contiguous (rows, out) block.
        diff = g_buffers[last]
        np.subtract(prediction, targets, out=diff)
        squared = tmp_buffers[last]
        np.multiply(diff, diff, out=squared)
        inv_count = DTYPE(1.0 / (rows * self._shapes[last][1]))
        losses = squared.reshape(self.n_seeds, -1).sum(axis=1) * inv_count
        np.multiply(diff, inv_count, out=diff)
        grad_out = np.add(diff, diff, out=diff)

        # Backward through the stack, writing straight into the flat grads.
        for index in range(last, -1, -1):
            if index < last:
                a, tmp = out_buffers[index], tmp_buffers[index]
                np.multiply(a, a, out=tmp)
                np.subtract(_ONE, tmp, out=tmp)
                np.multiply(grad_out, tmp, out=grad_out)
            h = inputs if index == 0 else out_buffers[index - 1]
            np.matmul(h.transpose(0, 2, 1), grad_out, out=self._grad_weights[index])
            np.add.reduce(grad_out, axis=1, out=self._grad_biases[index])
            if index > 0:
                grad_out = np.matmul(
                    grad_out, self._weights_t[index], out=g_buffers[index - 1]
                )
        return losses

    def __repr__(self) -> str:
        return (
            f"BatchedFusedMLP(seeds={self.n_seeds}, in={self.in_features}, "
            f"hidden={self.hidden}, out={self.out_features}, "
            f"params={self.num_parameters})"
        )


class BatchedFusedAdam:
    """Adam over the ``(n_seeds, n_params)`` stacked parameter tensor.

    The only Adam step: it gathers each seed's :class:`FusedAdam` state,
    runs the per-parameter Adam update as an ``out=`` sequence with a
    leading seed axis, and scatters the state back.  Each seed keeps its own
    integer step count (seeds may arrive mid-training with different
    histories) in one integer array.  A step reads every seed's bias
    corrections with one gather from :func:`_bias_table`, whose entries are
    the same Python ``**`` on the count (:func:`bias_correction`), so every
    seed's update is bit-identical to the reference Adam's.  The scratch
    buffers make a step allocation-free.
    """

    def __init__(self, model: BatchedFusedMLP, lr: float = 1e-3) -> None:
        self.model = model
        self.theta = model.theta
        self.lr = lr
        self._lr = DTYPE(lr)
        self._m = np.zeros_like(self.theta)
        self._v = np.zeros_like(self.theta)
        self._s1 = np.empty_like(self.theta)
        self._s2 = np.empty_like(self.theta)
        self._t = np.zeros(model.n_seeds, dtype=np.intp)
        # The largest step count in _t, kept as a Python int so a step can
        # size the bias table without a reduction.
        self._last_t = 0
        # Per-seed bias-correction denominators (rows BETA1, BETA2), and
        # views of them broadcast over parameters.
        self._bc = np.empty((2, model.n_seeds), dtype=DTYPE)
        self._bc1 = self._bc[0][:, None]
        self._bc2 = self._bc[1][:, None]

    def gather(self, optimizers: Sequence[FusedAdam]) -> None:
        """Copy each seed's Adam moments and step count into the stack."""
        if len(optimizers) != self.model.n_seeds:
            raise ValueError(
                f"expected {self.model.n_seeds} optimizers, got {len(optimizers)}"
            )
        for index, optimizer in enumerate(optimizers):
            self._m[index] = optimizer._m
            self._v[index] = optimizer._v
            self._t[index] = optimizer._t
        self._last_t = max(optimizer._t for optimizer in optimizers)

    def scatter(self, optimizers: Sequence[FusedAdam]) -> None:
        """Write the stacked moments and step counts back per seed."""
        if len(optimizers) != self.model.n_seeds:
            raise ValueError(
                f"expected {self.model.n_seeds} optimizers, got {len(optimizers)}"
            )
        for index, optimizer in enumerate(optimizers):
            optimizer._m[...] = self._m[index]
            optimizer._v[...] = self._v[index]
            optimizer._t = int(self._t[index])

    def step(self, grad: np.ndarray) -> None:
        """Apply one Adam update across all seeds for the stacked gradient.

        Every seed's step count advances by one, and both bias corrections
        of every seed come from one ``np.take`` on :func:`_bias_table` at
        the new counts, whatever mix of histories the stack holds.
        """
        if grad.shape != self.theta.shape:
            raise ValueError(f"gradient shape {grad.shape} vs theta {self.theta.shape}")
        m, v, s1, s2 = self._m, self._v, self._s1, self._s2
        bc1, bc2 = self._bc1, self._bc2
        np.add(self._t, 1, out=self._t)
        self._last_t += 1
        # The table covers _last_t, the largest count, so no index clips.
        np.take(_bias_table(self._last_t), self._t, axis=1, out=self._bc, mode="clip")
        # m = beta1*m + (1-beta1)*grad
        np.multiply(m, _BETA1, out=m)
        np.multiply(grad, _ONE_MINUS_BETA1, out=s1)
        np.add(m, s1, out=m)
        # v = beta2*v + (1-beta2)*grad^2
        np.multiply(v, _BETA2, out=v)
        np.multiply(grad, grad, out=s1)
        np.multiply(s1, _ONE_MINUS_BETA2, out=s1)
        np.add(v, s1, out=v)
        # theta -= lr * m_hat / (sqrt(v_hat) + eps), per-seed bias terms
        np.divide(m, bc1, out=s1)
        np.divide(v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, _EPS, out=s2)
        np.multiply(s1, self._lr, out=s1)
        np.divide(s1, s2, out=s1)
        np.subtract(self.theta, s1, out=self.theta)


@dataclass
class FusedFitJob:
    """One seed's pending training run, as consumed by :func:`fit_batched`.

    Exactly the arguments :meth:`FusedMLP.fit` takes, bundled so a round's
    worth of refits can be collected first and dispatched together.
    """

    model: FusedMLP
    adam: FusedAdam
    inputs: np.ndarray
    targets: np.ndarray
    epochs: int
    batch_size: int
    rng: np.random.Generator


def fit_job_signature(job: FusedFitJob) -> tuple:
    """Grouping key for jobs that may share one batched kernel dispatch.

    Jobs in one :func:`fit_batched` call must agree on architecture and
    learning rate; dataset geometry may differ (``fit_batched``
    buckets by it internally).  Callers bucket by this key first.
    """
    model, adam = job.model, job.adam
    return (
        model.in_features,
        tuple(model.hidden),
        model.out_features,
        adam.lr,
    )


def _fit_bucket(jobs: List[FusedFitJob], inputs_list: List[np.ndarray],
                targets_list: List[np.ndarray]) -> List[List[float]]:
    """Lockstep-train jobs that share one dataset geometry.

    All jobs have the same (row count, batch size, epochs), so each global
    step runs one stacked forward/backward/Adam update in which every
    seed's slice has the shapes it would have alone — the bit-transparent
    case.  Each job draws all of its epochs' shuffles up front with one
    ``permuted`` call on an ``(epochs, rows)`` tile of ``arange(rows)``:
    row ``e`` is the ``permutation(rows)`` the reference training loop
    draws at epoch ``e``, and the generator ends in the same state.  Each
    epoch then gathers every seed's shuffled rows from the bucket's
    concatenated data with one ``np.take`` per array, so every step takes
    contiguous slices.  Step losses land in one ``(jobs, epochs, steps)``
    float64 array, the Python floats the reference loop averages, and one
    ``mean`` over its last axis gives every epoch loss with those bits.
    """
    n = len(jobs)
    count = inputs_list[0].shape[0]
    epochs, batch_size = jobs[0].epochs, jobs[0].batch_size
    batched = BatchedFusedMLP(jobs[0].model, n)
    batched.gather([job.model for job in jobs])
    adam = BatchedFusedAdam(batched, lr=jobs[0].adam.lr)
    adam.gather([job.adam for job in jobs])

    # orders[e, i] lists seed i's epoch-e shuffle as rows of the
    # concatenated data, where seed i's rows start at i * count.
    ranks = np.tile(np.arange(count, dtype=np.intp), (epochs, 1))
    orders = np.empty((epochs, n, count), dtype=np.intp)
    for index, job in enumerate(jobs):
        np.add(job.rng.permuted(ranks, axis=1), index * count, out=orders[:, index])
    all_x = np.concatenate(inputs_list)
    all_y = np.concatenate(targets_list)

    shuf_x = np.empty((n, count, batched.in_features), dtype=DTYPE)
    shuf_y = np.empty((n, count, batched.out_features), dtype=DTYPE)
    grad = batched._grad
    step_losses = np.empty((n, epochs, (count + batch_size - 1) // batch_size))
    for epoch in range(epochs):
        # Every index is a permuted row number, so none clips.
        np.take(all_x, orders[epoch], axis=0, out=shuf_x, mode="clip")
        np.take(all_y, orders[epoch], axis=0, out=shuf_y, mode="clip")
        for step, start in enumerate(range(0, count, batch_size)):
            stop = min(start + batch_size, count)
            step_losses[:, epoch, step] = batched.loss_and_grad(
                shuf_x[:, start:stop], shuf_y[:, start:stop]
            )
            adam.step(grad)

    batched.scatter([job.model for job in jobs])
    adam.scatter([job.adam for job in jobs])
    return step_losses.mean(axis=2).tolist()


def fit_batched(jobs: Sequence[FusedFitJob]) -> List[List[float]]:
    """Train every job's model through the stacked kernel; the one place
    a surrogate takes a training step.

    Jobs must share one architecture and learning rate
    (:func:`fit_job_signature`); within that, they are bucketed by dataset
    geometry — ``(rows, batch_size, epochs)`` — and each bucket trains in
    lockstep through one :class:`BatchedFusedMLP`/:class:`BatchedFusedAdam`
    stack.  Bucketing (rather than pad-and-mask) is what preserves bitwise
    parity: BLAS gemm kernels are row-count-dependent in the last ulp, so
    only same-shape stacking is safe.  In the campaign the live members of
    a phase share geometry (same round, same schedule), which is exactly
    where the refit time is spent.  Ragged stragglers land in smaller
    buckets, and a lone job (a one-seed campaign's refit,
    :meth:`FusedMLP.fit`) trains as a one-seed stack; every job's bits equal
    those of training it alone.  In the search layer the Campaign's
    end-of-round refit flush is the only caller: optimizers queue their
    jobs and never train them.

    Returns each job's per-epoch mean losses, in input order.
    """
    if not jobs:
        return []
    reference = fit_job_signature(jobs[0])
    for job in jobs[1:]:
        if fit_job_signature(job) != reference:
            raise ValueError(
                "fit_batched needs jobs sharing one architecture and learning "
                "rate; bucket by fit_job_signature first"
            )

    inputs_list: List[np.ndarray] = []
    targets_list: List[np.ndarray] = []
    for job in jobs:
        # Cold per-dispatch coercion (a no-op for the float32 arrays the
        # search's refit jobs carry).
        # analysis: allow(hot-loop-alloc)
        inputs = np.atleast_2d(np.asarray(job.inputs, dtype=DTYPE))
        # analysis: allow(hot-loop-alloc)
        targets = np.atleast_2d(np.asarray(job.targets, dtype=DTYPE))
        if inputs.shape[0] != targets.shape[0] or inputs.shape[0] < 1:
            raise ValueError(
                f"job has {inputs.shape[0]} input rows vs {targets.shape[0]} target rows"
            )
        if job.epochs < 0 or job.batch_size < 1:
            raise ValueError(f"bad epochs/batch_size: {job.epochs}/{job.batch_size}")
        inputs_list.append(inputs)
        targets_list.append(targets)

    buckets: Dict[tuple, List[int]] = {}
    for index, job in enumerate(jobs):
        key = (inputs_list[index].shape[0], job.batch_size, job.epochs)
        buckets.setdefault(key, []).append(index)

    results: List[List[float]] = [[] for _ in jobs]
    for (_, _, epochs), indices in buckets.items():
        if epochs == 0:
            continue
        bucket_losses = _fit_bucket(
            [jobs[i] for i in indices],
            [inputs_list[i] for i in indices],
            [targets_list[i] for i in indices],
        )
        for position, original in enumerate(indices):
            results[original] = bucket_losses[position]
    return results
