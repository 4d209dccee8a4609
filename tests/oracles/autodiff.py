"""Reverse-mode automatic differentiation over NumPy arrays.

This module implements a small, self-contained autodiff engine in the spirit
of micrograd, but vectorized: every :class:`Tensor` wraps a ``numpy.ndarray``
and records the operation that produced it.  Calling :meth:`Tensor.backward`
on a scalar tensor propagates gradients to every tensor reachable through the
recorded graph whose ``requires_grad`` flag is set.

The engine supports broadcasting for elementwise operations; gradients are
automatically reduced (summed) back to the shape of each operand.

A tensor keeps the floating dtype of the array it wraps, as HIPS autograd
does with the NumPy it wraps, so a float32 graph computes, and
differentiates, in float32.  Python scalars are weak: an operand such as
the ``2.0`` in ``x * 2.0`` takes the other tensor's dtype.

It is intentionally minimal, and it is the reference the fused surrogate
(:mod:`repro.nn.fused`) is checked against (:mod:`oracles.nn`); every
operation is exact and tested against numerical differentiation.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]


def _as_float_array(data: ArrayLike) -> np.ndarray:
    """``data`` as an array, keeping a floating dtype and making anything
    else (ints, bools, nested lists of Python numbers) float64."""
    array = np.asarray(data)
    if not np.issubdtype(array.dtype, np.floating):
        array = array.astype(np.float64)
    return array


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``.

    NumPy broadcasting can expand an operand either by prepending dimensions
    or by stretching size-1 dimensions.  The adjoint of broadcasting is a sum
    over exactly those dimensions; the sums keep ``grad``'s dtype.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended dimensions.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over stretched (size-1) dimensions.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with a gradient and a backward closure.

    Parameters
    ----------
    data:
        Array-like payload.  A floating array keeps its dtype; anything
        else is stored as ``float64``.
    requires_grad:
        If True, ``backward`` accumulates a gradient into :attr:`grad`.
    _children:
        Parent tensors in the computation graph (internal).
    _op:
        Human-readable operation name for debugging (internal).
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_children", "_op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _children: Iterable["Tensor"] = (),
        _op: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = _as_float_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[], None] = lambda: None
        self._children: Tuple["Tensor", ...] = tuple(_children)
        self._op = _op

    # ------------------------------------------------------------------
    # Basic protocol helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad},"
            f" op={self._op!r})"
        )

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def _lift(self, other: ArrayLike) -> "Tensor":
        """``other`` as a tensor operand; a Python scalar takes this
        tensor's dtype (a weak scalar), anything else keeps its own."""
        if isinstance(other, Tensor):
            return other
        if isinstance(other, (int, float)):
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return Tensor(other)

    # ------------------------------------------------------------------
    # Graph bookkeeping
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1.0, which requires the tensor to be
            scalar (as with a loss value).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without a seed gradient requires a scalar tensor; "
                    f"got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        # Iterative post-order DFS: the incremental surrogate refits build
        # graphs far deeper than CPython's recursion limit.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple["Tensor", bool]] = [(self, False)]
        while stack:
            node, children_done = stack.pop()
            if children_done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._children:
                if id(child) not in visited:
                    stack.append((child, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node.grad is not None:
                node._backward()

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out = Tensor(
            self.data + other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _children=(self, other),
            _op="add",
        )

        def _backward() -> None:
            self._accumulate(out.grad)
            other._accumulate(out.grad)

        out._backward = _backward
        return out

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out = Tensor(
            self.data * other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _children=(self, other),
            _op="mul",
        )

        def _backward() -> None:
            self._accumulate(out.grad * other.data)
            other._accumulate(out.grad * self.data)

        out._backward = _backward
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = Tensor(
            self.data ** exponent,
            requires_grad=self.requires_grad,
            _children=(self,),
            _op="pow",
        )

        def _backward() -> None:
            self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        out._backward = _backward
        return out

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def abs(self) -> "Tensor":
        """Elementwise absolute value with the subgradient 0 at 0.

        ``np.sign`` returns 0 at the kink, so the backward pass is finite
        everywhere — unlike ``(x * x) ** 0.5``, whose chain rule divides by
        zero exactly at ``x == 0``.
        """
        out = Tensor(
            np.abs(self.data),
            requires_grad=self.requires_grad,
            _children=(self,),
            _op="abs",
        )

        def _backward() -> None:
            self._accumulate(out.grad * np.sign(self.data))

        out._backward = _backward
        return out

    def __abs__(self) -> "Tensor":
        return self.abs()

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._lift(other))

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        return self * other ** -1.0

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self + other

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return (-self) + other

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self * other

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) / self

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._lift(other)
        out = Tensor(
            self.data @ other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _children=(self, other),
            _op="matmul",
        )

        def _backward() -> None:
            grad = out.grad
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if grad.ndim else grad * other.data)
                else:
                    g = np.atleast_2d(grad)
                    self._accumulate((g @ other.data.T).reshape(self.data.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad))
                else:
                    g = np.atleast_2d(grad)
                    a = np.atleast_2d(self.data)
                    other._accumulate((a.T @ g).reshape(other.data.shape))

        out._backward = _backward
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def transpose(self) -> "Tensor":
        out = Tensor(
            self.data.T,
            requires_grad=self.requires_grad,
            _children=(self,),
            _op="transpose",
        )

        def _backward() -> None:
            self._accumulate(out.grad.T)

        out._backward = _backward
        return out

    @property
    def T(self) -> "Tensor":  # noqa: N802 - mimic numpy naming
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(
            self.data.reshape(shape),
            requires_grad=self.requires_grad,
            _children=(self,),
            _op="reshape",
        )

        def _backward() -> None:
            self._accumulate(out.grad.reshape(self.data.shape))

        out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = Tensor(
            self.data[index],
            requires_grad=self.requires_grad,
            _children=(self,),
            _op="getitem",
        )

        def _backward() -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, out.grad)
            self._accumulate(grad)

        out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out = Tensor(
            self.data.sum(axis=axis, keepdims=keepdims),
            requires_grad=self.requires_grad,
            _children=(self,),
            _op="sum",
        )

        def _backward() -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        out._backward = _backward
        return out

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = Tensor(
            out_data,
            requires_grad=self.requires_grad,
            _children=(self,),
            _op="max",
        )

        def _backward() -> None:
            grad = out.grad
            reference = out_data
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
                reference = np.expand_dims(out_data, axis)
            mask = (self.data == reference).astype(self.data.dtype)
            mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * grad)

        out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out = Tensor(
            np.exp(self.data),
            requires_grad=self.requires_grad,
            _children=(self,),
            _op="exp",
        )

        def _backward() -> None:
            self._accumulate(out.grad * out.data)

        out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = Tensor(
            np.log(self.data),
            requires_grad=self.requires_grad,
            _children=(self,),
            _op="log",
        )

        def _backward() -> None:
            self._accumulate(out.grad / self.data)

        out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = Tensor(
            value,
            requires_grad=self.requires_grad,
            _children=(self,),
            _op="tanh",
        )

        def _backward() -> None:
            self._accumulate(out.grad * (1.0 - value ** 2))

        out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        out = Tensor(
            np.maximum(self.data, 0.0),
            requires_grad=self.requires_grad,
            _children=(self,),
            _op="relu",
        )

        def _backward() -> None:
            self._accumulate(out.grad * (self.data > 0.0))

        out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor(
            value,
            requires_grad=self.requires_grad,
            _children=(self,),
            _op="sigmoid",
        )

        def _backward() -> None:
            self._accumulate(out.grad * value * (1.0 - value))

        out._backward = _backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is passed through only inside the range."""
        out = Tensor(
            np.clip(self.data, low, high),
            requires_grad=self.requires_grad,
            _children=(self,),
            _op="clip",
        )

        def _backward() -> None:
            inside = (self.data >= low) & (self.data <= high)
            self._accumulate(out.grad * inside)

        out._backward = _backward
        return out

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        value = shifted - log_norm
        out = Tensor(
            value,
            requires_grad=self.requires_grad,
            _children=(self,),
            _op="log_softmax",
        )

        def _backward() -> None:
            softmax = np.exp(value)
            grad_sum = out.grad.sum(axis=axis, keepdims=True)
            self._accumulate(out.grad - softmax * grad_sum)

        out._backward = _backward
        return out

    def softmax(self, axis: int = -1) -> "Tensor":
        return self.log_softmax(axis=axis).exp()


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor(
        data,
        requires_grad=any(t.requires_grad for t in tensors),
        _children=tuple(tensors),
        _op="concatenate",
    )
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _backward() -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * data.ndim
            slicer[axis] = slice(start, stop)
            tensor._accumulate(out.grad[tuple(slicer)])

    out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    out = Tensor(
        data,
        requires_grad=any(t.requires_grad for t in tensors),
        _children=tuple(tensors),
        _op="stack",
    )

    def _backward() -> None:
        grads = np.moveaxis(out.grad, axis, 0)
        for tensor, grad in zip(tensors, grads):
            tensor._accumulate(grad)

    out._backward = _backward
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select with gradient routed to the chosen branch."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    condition = np.asarray(condition, dtype=bool)
    out = Tensor(
        np.where(condition, a.data, b.data),
        requires_grad=a.requires_grad or b.requires_grad,
        _children=(a, b),
        _op="where",
    )

    def _backward() -> None:
        a._accumulate(out.grad * condition)
        b._accumulate(out.grad * (~condition))

    out._backward = _backward
    return out
