"""Dense float64 tensors with a reverse-mode autodiff tape.

Storage is a row-major numpy array; every recorded operation keeps a
monotonically increasing sequence number, and an op converts nothing: its
array operands are `Tensor`s.  The backward sweep keeps a heap of the
recorded tensors that hold a gradient and pops the latest first: every
tensor that reads it was created later, so its gradient is complete when it
is popped, and its backward runs once.  Gradients accumulate on leaves
only: a tensor with no tape node that requires a gradient adds each
gradient into `grad` as it arrives, across backward passes, while the
gradient of every recorded intermediate lives only for the sweep that
computes it.  There is no graph optimization and no broadcasting beyond
numpy's elementwise rules.

An op records a tape node only when one of its inputs requires a gradient:
forward-only work such as scoring runs on constant tensors (see
`VLModel.frozen`), so its results take no sequence number and do not hold
the forward graph that computed them.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ShapeError

_SEQ = itertools.count()


class _Node:
    __slots__ = ("parents", "backward_fn", "seq")

    def __init__(self, parents: tuple[Tensor, ...], backward_fn: Callable, seq: int):
        self.parents = parents
        self.backward_fn = backward_fn
        self.seq = seq


class Tensor:
    """N-dimensional float64 array, optionally tracked on the gradient tape.

    `requires_grad` is set on leaves by the caller and on every result of
    an op with such an input; exactly those results carry a tape node.
    """

    __slots__ = ("array", "requires_grad", "_grad", "_node")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        self.array = arr
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None
        self._node: _Node | None = None

    # -- spec'd field views -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def grad(self) -> np.ndarray | None:
        """Accumulated gradient of a leaf, shaped like `array`; None before any backward pass."""
        return self._grad

    def zero_grad(self) -> None:
        self._grad = None

    def item(self) -> float:
        """The value of a one-element tensor; like `ndarray.item`, a ValueError for any other size."""
        return self.array.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- backward -----------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf that requires one."""
        if self.array.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        if not self.requires_grad:
            return
        pending: dict[int, np.ndarray] = {}  # seq -> gradient of a recorded tensor so far
        heap: list[tuple[int, _Node]] = []  # (-seq, node) for every seq in pending
        arrivals = [(self, np.ones_like(self.array))]
        while True:
            for tensor, grad in arrivals:
                if grad is None or not tensor.requires_grad:
                    continue
                node = tensor._node
                if node is None:
                    if tensor._grad is None:
                        tensor._grad = grad.copy()  # grad may alias a stored buffer
                    else:
                        tensor._grad += grad
                elif node.seq in pending:
                    # never mutate a received gradient: backward fns may alias outputs
                    pending[node.seq] = pending[node.seq] + grad
                else:
                    pending[node.seq] = grad
                    heapq.heappush(heap, (-node.seq, node))
            if not heap:
                return
            _, node = heapq.heappop(heap)
            arrivals = zip(node.parents, node.backward_fn(pending.pop(node.seq)))


def _result(values: np.ndarray, parents: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(parents, backward_fn, next(_SEQ))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad back down to `shape` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic --------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    values = a.array + b.array

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _result(values, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    values = a.array - b.array

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _result(values, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    values = a.array * b.array

    def backward(g):
        return _unbroadcast(g * b.array, a.shape), _unbroadcast(g * a.array, b.shape)

    return _result(values, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    values = a.array / b.array

    def backward(g):
        return (
            _unbroadcast(g / b.array, a.shape),
            _unbroadcast(-g * a.array / (b.array * b.array), b.shape),
        )

    return _result(values, (a, b), backward)


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    return _result(a.array * factor, (a,), lambda g: (g * factor,))


def exp(a: Tensor) -> Tensor:
    values = np.exp(a.array)
    return _result(values, (a,), lambda g: (g * values,))


def sigmoid(a: Tensor) -> Tensor:
    values = 1.0 / (1.0 + np.exp(-a.array))
    return _result(values, (a,), lambda g: (g * values * (1.0 - values),))


def absolute(a: Tensor) -> Tensor:
    # subgradient 0 at the kink
    values = np.abs(a.array)
    return _result(values, (a,), lambda g: (g * np.sign(a.array),))


def _select(a: Tensor, b: Tensor, prefer_a) -> Tensor:
    """Elementwise `a` where `prefer_a(a, b)` holds, else `b`; the gradient follows the pick."""
    take_a = prefer_a(a.array, b.array)
    values = np.where(take_a, a.array, b.array)

    def backward(g):
        return _unbroadcast(g * take_a, a.shape), _unbroadcast(g * ~take_a, b.shape)

    return _result(values, (a, b), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    return _select(a, b, np.greater_equal)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; ties route the gradient to the first argument."""
    return _select(a, b, np.less_equal)


# -- linear algebra and shaping ----------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.array.ndim != 2 or b.array.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes do not agree: {a.shape} x {b.shape}")
    values = a.array @ b.array

    def backward(g):
        return g @ b.array.T, a.array.T @ g

    return _result(values, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    if a.array.ndim != 2:
        raise ShapeError(f"transpose needs a matrix, got shape {a.shape}")
    return _result(a.array.T.copy(), (a,), lambda g: (g.T,))


def tsum(a: Tensor) -> Tensor:
    values = np.array(a.array.sum())
    return _result(values, (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    if a.array.ndim != 2:
        raise ShapeError(f"slice_cols needs a matrix, got shape {a.shape}")
    values = a.array[:, lo:hi].copy()

    def backward(g):
        full = np.zeros_like(a.array)
        full[:, lo:hi] = g
        return (full,)

    return _result(values, (a,), backward)


def take_rows(a: Tensor, indices: Sequence[int]) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    values = a.array[idx]  # integer-array indexing returns a new array

    def backward(g):
        full = np.zeros_like(a.array)
        np.add.at(full, idx, g)
        return (full,)

    return _result(values, (a,), backward)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """`parts` joined along `axis`; the backward hands each part its slice of the gradient as a view."""
    values = np.concatenate([p.array for p in parts], axis=axis)
    bounds = np.cumsum([p.shape[axis] for p in parts[:-1]])
    return _result(values, tuple(parts), lambda g: tuple(np.split(g, bounds, axis=axis)))


def add_scalars(parts: Iterable[Tensor]) -> Tensor:
    total, *rest = parts
    for p in rest:
        total = add(total, p)
    return total
