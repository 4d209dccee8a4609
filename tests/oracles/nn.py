"""Reference surrogate: the autodiff MLP, its Adam and its training loop.

:class:`repro.nn.fused.FusedMLP` and :class:`~repro.nn.fused.FusedAdam` are
locked bit for bit against these classes.  Everything here runs on the
:mod:`oracles.autodiff` ``Tensor`` graph: a per-minibatch graph of Python
objects, slow but obviously right.  The network has the surrogate's one
shape (tanh hidden layers, an identity output layer, Xavier weights, zero
biases) and its dtype (:data:`repro.nn.fused.DTYPE`, float32), with the
same casts at the same boundaries, and its ``state_dict`` layout
(``param_0`` = first weight, ``param_1`` = first bias, ...) is the fused
network's.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from oracles.autodiff import Tensor
from repro.nn.fused import BETA1, BETA2, DTYPE, EPS, bias_correction, ridge_output_weights

#: Seed used when neither an rng nor a seed is supplied.  Any fixed value
#: works; what matters is that the default is *a* seed, not OS entropy.
DEFAULT_SEED = 0


def resolve_rng(
    rng: Optional[np.random.Generator] = None, seed: Optional[int] = None
) -> np.random.Generator:
    """Resolve an optional rng/seed pair to a deterministic Generator.

    Exactly one source wins: a passed ``rng`` is returned as-is, a passed
    ``seed`` builds a fresh generator, and with neither the generator is
    seeded with :data:`DEFAULT_SEED` — never hidden entropy.  Passing both
    is rejected — silently ignoring one of them would hide a caller bug.
    """
    if rng is not None:
        if seed is not None:
            raise ValueError("pass either rng or seed, not both")
        return rng
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


class Module:
    """Base class for everything that owns trainable parameters."""

    def parameters(self) -> List[Tensor]:
        """Return the flat list of trainable tensors."""
        params: List[Tensor] = []
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
                    elif isinstance(item, Tensor) and item.requires_grad:
                        params.append(item)
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- serialization ------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of all parameter arrays keyed by position."""
        return {f"param_{i}": p.data.copy() for i, p in enumerate(self.parameters())}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter arrays previously produced by :meth:`state_dict`."""
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} entries but module has {len(params)} parameters"
            )
        for i, param in enumerate(params):
            incoming = np.asarray(state[f"param_{i}"], dtype=param.data.dtype)
            if incoming.shape != param.data.shape:
                raise ValueError(
                    f"parameter {i} shape mismatch: {incoming.shape} vs {param.data.shape}"
                )
            param.data[...] = incoming


class Linear(Module):
    """Affine layer ``y = x W + b`` with Xavier initialization, in
    :data:`DTYPE` (the float64 draws are rounded once)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        rng = resolve_rng(rng, seed)
        scale = np.sqrt(2.0 / (in_features + out_features))
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            rng.normal(0.0, scale, size=(in_features, out_features)).astype(DTYPE),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_features, dtype=DTYPE), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class Tanh(Module):
    """The hidden-layer activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sequential(Module):
    """Run modules in order."""

    def __init__(self, *layers: Module) -> None:
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error, Eq. (4) of the paper."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def iterate_minibatches(
    inputs: np.ndarray,
    targets: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
):
    """Yield shuffled (input, target) mini-batches."""
    count = inputs.shape[0]
    order = rng.permutation(count)
    for start in range(0, count, batch_size):
        index = order[start : start + batch_size]
        yield inputs[index], targets[index]


class Optimizer:
    """Base class holding parameter references."""

    def __init__(self, parameters: Iterable[Tensor]) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015), one moment pair per parameter."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 1e-3) -> None:
        super().__init__(parameters)
        self.lr = lr
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad ** 2
            m_hat = m / bias_correction(BETA1, self._t)
            v_hat = v / bias_correction(BETA2, self._t)
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)


class MLP(Module):
    """The surrogate network on the Tensor graph.

    Same constructor draws as :class:`repro.nn.fused.FusedMLP`: each
    layer's Xavier weights in order from ``rng``, zero biases.
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        rng = resolve_rng(rng, seed)
        layers: List[Module] = []
        previous = in_features
        for width in hidden:
            layers.append(Linear(previous, width, rng=rng))
            layers.append(Tanh())
            previous = width
        layers.append(Linear(previous, out_features, rng=rng))
        self.body = Sequential(*layers)
        self.in_features = in_features
        self.out_features = out_features
        self.hidden = tuple(hidden)

    def forward(self, x: Tensor) -> Tensor:
        return self.body(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass on raw arrays without building gradients: computed
        in :data:`DTYPE`, returned as float64."""
        data = np.atleast_2d(np.asarray(x, dtype=DTYPE))
        for layer in self.body.layers:
            if isinstance(layer, Linear):
                data = data @ layer.weight.data + layer.bias.data
            else:
                data = np.tanh(data)
        return data.astype(np.float64)

    def fit(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        epochs: int,
        batch_size: int,
        optimizer: Adam,
        rng: np.random.Generator,
    ) -> List[float]:
        """Minibatch MSE training through the Tensor graph.

        The signature and RNG use of :meth:`repro.nn.fused.FusedMLP.fit`
        (one permutation per epoch), so the search can train either.
        Inputs and targets are cast to :data:`DTYPE` first.  Returns the
        per-epoch mean losses.
        """
        inputs = np.asarray(inputs, dtype=DTYPE)
        targets = np.asarray(targets, dtype=DTYPE)
        epoch_losses: List[float] = []
        for _ in range(epochs):
            losses = []
            for batch_x, batch_y in iterate_minibatches(inputs, targets, batch_size, rng):
                optimizer.zero_grad()
                loss = mse_loss(self(Tensor(batch_x)), Tensor(batch_y))
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
            epoch_losses.append(float(np.mean(losses)))
        return epoch_losses

    def fit_output_layer(self, inputs: np.ndarray, targets: np.ndarray, l2: float) -> None:
        """The closed-form output-layer refit.

        The hidden features come from the :data:`DTYPE` Tensor forward
        pass; only the float64 ridge solve on the upcast features is shared
        with the fused network.
        """
        *hidden, last = self.body.layers
        features = Sequential(*hidden)(Tensor(np.asarray(inputs, dtype=DTYPE))).data
        solution = ridge_output_weights(features, targets, l2)
        last.weight.data[...] = solution[:-1]
        last.bias.data[...] = solution[-1]
