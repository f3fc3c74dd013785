"""Dense float64 tensors with a reverse-mode autodiff tape.

Storage is a row-major numpy array, and an op converts nothing: its array
operands are `Tensor`s.  A recorded result carries its own tape entry: a
monotonically increasing sequence number, its parents and its backward
function.  The backward sweep keeps a heap of the recorded tensors that
hold a gradient and pops the latest first: every tensor that reads it was
created later, so its gradient is complete when it is popped, and its
backward runs once.  A tensor lets go of its parents and its backward
function, and with them the arrays that function saved, as soon as that
function has run, so an intermediate that nothing else holds is freed
during the sweep rather than after it.  A graph is therefore
backpropagated once: a sweep that reaches a spent entry raises a
`RuntimeError`.  Gradients accumulate on leaves only: a tensor with no tape
entry that requires a gradient adds each gradient into `grad` as it
arrives, across the backward passes of separately built graphs, while the
gradient of every recorded intermediate lives only for the sweep that
computes it.  There is no graph optimization and no broadcasting beyond
numpy's elementwise rules.

An op records a tape entry only when one of its inputs requires a gradient:
forward-only work such as scoring runs on constant tensors (see
`VLModel.frozen`), so its results take no sequence number and do not hold
the forward graph that computed them.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ShapeError

_SEQ = itertools.count()


class Tensor:
    """N-dimensional float64 array, optionally tracked on the gradient tape.

    `requires_grad` is set on leaves by the caller and on every result of
    an op with such an input; exactly those results carry a tape entry: a
    sequence number `_seq`, which is None on a tensor with no entry, and
    `_parents` and `_backward`, which are None once its backward has run.
    """

    __slots__ = ("array", "requires_grad", "_grad", "_seq", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.array = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None
        self._seq = self._parents = self._backward = None  # no tape entry

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
        """Accumulate gradients of this scalar into every reachable leaf that requires one.

        Each recorded tensor drops its parents and saved arrays once its backward has run,
        so the graph is backpropagated once: a later sweep that reaches any of its tensors,
        from this root or from a new one built on top of it, raises a RuntimeError.  Leaves
        keep accumulating across the backward passes of separately built graphs.
        """
        if self.array.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        pending: dict[int, np.ndarray] = {}  # seq -> gradient of a recorded tensor so far
        heap: list[tuple[int, Tensor]] = []  # (-seq, tensor) for every seq in pending
        arrivals = [(self, np.ones_like(self.array))]
        while True:
            for tensor, grad in arrivals:
                if grad is None or not tensor.requires_grad:
                    continue
                seq = tensor._seq
                if seq is None:
                    if tensor._grad is None:
                        tensor._grad = grad.copy()  # grad may alias a stored buffer
                    else:
                        tensor._grad += grad
                elif seq in pending:
                    # never mutate a received gradient: backward fns may alias outputs
                    pending[seq] = pending[seq] + grad
                else:
                    pending[seq] = grad
                    heapq.heappush(heap, (-seq, tensor))
            if not heap:
                return
            _, tensor = heapq.heappop(heap)
            parents, backward_fn = tensor._parents, tensor._backward
            if backward_fn is None:
                raise RuntimeError("backward() reached a node of a graph that was already "
                                   "backpropagated; build the graph again to backpropagate it")
            tensor._parents = tensor._backward = None  # free what the closure saved
            arrivals = zip(parents, backward_fn(pending.pop(tensor._seq)))


def _result(values: np.ndarray, parents: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._seq, out._parents, out._backward = next(_SEQ), parents, backward_fn
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
    """Rows of `a` at `indices`; the backward sums the gradients of a repeated row (`sum_rows`)."""
    idx = np.asarray(indices, dtype=np.intp)
    values = a.array[idx]  # integer-array indexing returns a new array
    # negative indices count from the end
    return _result(values, (a,), lambda g: (sum_rows(g, idx % len(a.array), a.shape),))


def sum_rows(g: np.ndarray, rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """An array of `shape` whose row i sums the rows of `g` at the positions where `rows` is i.

    When no row repeats each row is assigned its gradient.  Otherwise
    `np.bincount` sums the gradients by flat element index: it adds the
    same terms in the same order as `np.add.at(full, rows, g)`, so the bits
    are the scatter-add's, at about a third of its cost.
    """
    if not rows.size or np.bincount(rows).max() == 1:
        full = np.zeros(shape)
        full[rows] = g
        return full
    width = g.size // len(rows)
    flat = (rows[:, None] * width + np.arange(width)).reshape(-1)
    return np.bincount(flat, weights=g.reshape(-1), minlength=math.prod(shape)).reshape(shape)


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
