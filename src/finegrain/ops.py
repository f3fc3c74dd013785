"""Neural-network operations on the autodiff tape.

Each op records one tape node with a hand-written backward.  `linear` is
the affine map `x @ w + b` as one node, so every projection in the model
costs one node, not a matmul node and a bias-add node.  Multi-head
attention is a single op: the samples of a batch and their heads go
through numpy's stacked matmul, and the masked softmax inside it is plain
numpy, not a tape op.  The model's streams carry only their visible rows,
so attention takes the present query, key and value rows with their
(batch, seq) masks and gathers each slot's row into its per-sample grid,
inside its one node; with no slot hidden the grid is the rows themselves.
Attention masking uses an additive -inf before the softmax, so masked
positions carry exactly zero weight and the normalization runs over the
visible keys only; the hard-zero property is exact, not approximate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import erf

from .errors import DegenerateMaskError, ShapeError
from .tensor import Tensor, _result, sum_rows, take_rows

LAYER_NORM_EPS = 1e-5
L2_NORM_EPS = 1e-30
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` for a row-stacked `x`, (rows, in) @ (in, out) + (out,), as one tape node.

    Values and gradients are bit-identical to `add(matmul(x, w), b)`.
    """
    if x.array.ndim != 2 or w.array.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear shapes do not agree: {x.shape} x {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear bias shape {b.shape} does not match {w.shape[1]} outputs")
    values = x.array @ w.array
    values += b.array

    def backward(g):
        gx = g @ w.array.T if x.requires_grad else None
        return gx, x.array.T @ g, g.sum(axis=0)

    return _result(values, (x, w, b), backward)


def gelu(a: Tensor) -> Tensor:
    x = a.array
    cdf = x * _INV_SQRT2  # 0.5 * (1 + erf(x / sqrt 2)), built in one buffer
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    values = x * cdf

    def backward(g):
        grad = -0.5 * x  # g * (cdf + x * pdf), pdf = exp(-x^2 / 2) / sqrt(2 pi)
        grad *= x
        np.exp(grad, out=grad)
        grad *= _INV_SQRT2PI
        grad *= x
        grad += cdf
        grad *= g
        return (grad,)

    return _result(values, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then apply the affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match feature dim {d}")
    # sum / d is ndarray.mean's own arithmetic, without its per-call overhead
    mu = x.array.sum(axis=-1, keepdims=True) / d
    xhat = x.array - mu
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv_std
    values = xhat * gain.array
    values += bias.array

    def backward(g):
        axes = tuple(range(g.ndim - 1))
        dbias = g.sum(axis=axes)
        scratch = g * xhat
        dgain = scratch.sum(axis=axes)
        # dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), built in dxhat
        dxhat = g * gain.array
        np.multiply(dxhat, xhat, out=scratch)
        np.multiply(xhat, scratch.sum(axis=-1, keepdims=True) / d, out=scratch)
        dxhat -= dxhat.sum(axis=-1, keepdims=True) / d
        dxhat -= scratch
        dxhat *= inv_std
        return dxhat, dgain, dbias

    return _result(values, (x, gain, bias), backward)


def embed(indices: Sequence[int], table: Tensor) -> Tensor:
    """Rows of `table` selected by token index, range-checked, as one `take_rows` node."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("embed expects a flat index sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"embedding index out of range for table with {table.shape[0]} rows")
    return take_rows(table, idx)


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis restricted to visible positions (mask True = visible).

    Masked entries get weight exactly 0.0 and each row renormalizes over
    its visible set; rows with no visible entry are rejected.  `logits`
    is not modified: the mask, shift, exp and normalization all run in one
    new array.  With no position masked, the shift makes that array and the
    mask pass is skipped, with the same bytes.
    """
    if mask.all():
        weights = logits - logits.max(axis=-1, keepdims=True)
    else:
        if not np.all(np.any(mask, axis=-1)):
            raise DegenerateMaskError("softmax row with every position masked")
        weights = np.where(mask, logits, -np.inf)
        weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)  # exact 0.0 at masked positions
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def present_rows(mask) -> np.ndarray:
    """Each slot's row in the stack of a (batch, seq) mask's visible rows, sample-major; -1 if hidden."""
    visible = np.asarray(mask, dtype=bool)
    rows = np.cumsum(visible.reshape(-1)) - 1
    rows[~visible.reshape(-1)] = -1
    return rows.reshape(visible.shape)


def _grid(x: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """The grid of `x` by `masked_attention`'s rule; `x` itself when `rows` is None."""
    if rows is None:
        return x
    grid = x[rows]
    grid[rows < 0] = 0.0
    return grid


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask, heads: int, queries=None,
                     samples=None) -> Tensor:
    """Multi-head scaled dot-product attention over a batch, as one tape node.

    The (batch, keys) `mask` holds each key sample's key mask, shared by
    every head.  `k` and `v` hold the visible slots' key rows, sample-major:
    a stack with a row for a hidden slot is a ShapeError.  `q` holds each
    query sample's rows: with `queries` None the same number per sample,
    (batch * n, width); with a (batch, n) `queries` mask, only its visible
    slots' rows.  With `samples`, query sample j attends to key sample
    `samples[j]`, so a key sample serves every query sample that reads it
    without a copy on the tape.  Each width is viewed as `heads` column
    blocks of width // heads.

    The node lays each stack into a per-sample grid by one rule: each slot
    names its row, the one `present_rows` gives it in its mask (through
    `samples` for the keys), and a hidden slot's -1 reads a zero row.  With
    no slot hidden and no sample gathered the grid is the stack itself, a
    view.  The arithmetic of the call runs on every slot's row unchanged:
    numpy's stacked matmul runs one attention per (sample, head), so no
    sample attends to another's rows.  The node returns the present query
    rows, and its backward reads their gradients back through the same
    index, summing a key sample's gradients over the query samples that
    read it as `take_rows` does.
    """
    if not (q.array.ndim == k.array.ndim == 2 and q.shape[1] == k.shape[1] and k.shape == v.shape):
        raise ShapeError(f"attention shapes do not agree: q {q.shape}, k {k.shape}, v {v.shape}")
    rows, width = q.shape
    if heads < 1 or width % heads:
        raise ShapeError(f"width {width} does not split into {heads} heads")
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2 or not len(m) or k.shape[0] != np.count_nonzero(m):
        raise ShapeError(f"mask shape {np.shape(mask)} does not match {k.shape[0]} key rows")
    key_rows = None
    if samples is not None:
        idx = np.asarray(samples)
        if (idx.ndim != 1 or not len(idx) or idx.dtype.kind not in "iu"
                or idx.min() < 0 or idx.max() >= len(m)):
            raise ShapeError(f"attention samples must index the {len(m)} key samples")
        key_rows, m = present_rows(m)[idx].reshape(-1), m[idx]
    elif k.shape[0] != m.size:
        key_rows = present_rows(m).reshape(-1)
    batch = len(m)
    query_mask = query_rows = None
    if queries is not None:
        qm = np.asarray(queries, dtype=bool)
        if qm.ndim != 2 or len(qm) != batch or rows != np.count_nonzero(qm):
            raise ShapeError(f"query mask shape {np.shape(queries)} does not match {rows} "
                             f"query rows and {batch} samples")
        if not qm.all():
            query_mask, query_rows = qm, present_rows(qm).reshape(-1)
    if query_rows is None and rows % batch:
        raise ShapeError(f"{rows} query rows do not split into {batch} samples")
    dh = width // heads
    root = np.sqrt(dh)

    def split(x: np.ndarray) -> np.ndarray:  # (batch * n, width) -> (batch, heads, n, dh)
        return x.reshape(batch, -1, heads, dh).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray, visible=None) -> np.ndarray:
        # (batch, heads, n, dh) -> (batch * n, width), or only the rows of the (batch, n) mask
        per_slot = x.transpose(0, 2, 1, 3)
        return (per_slot if visible is None else per_slot[visible]).reshape(-1, width)

    def swap(x: np.ndarray) -> np.ndarray:  # transpose each (sample, head) matrix
        return x.swapaxes(-1, -2)

    def key_grad(grad: np.ndarray) -> np.ndarray:  # the grid's gradient, back on k's rows
        if samples is None:
            return merge(grad, None if key_rows is None else m)
        present = key_rows >= 0
        return sum_rows(merge(grad)[present], key_rows[present], k.shape)

    qh = split(_grid(q.array, query_rows))
    kh, vh = split(_grid(k.array, key_rows)), split(_grid(v.array, key_rows))
    logits = qh @ swap(kh)
    logits /= root
    weights = masked_softmax(logits, m[:, None, None])
    values = merge(weights @ vh, query_mask)

    def backward(g):
        gh = split(_grid(g, query_rows))
        # the logits' gradient, (gw - weights * rowsum(gw)) / root, built in gw
        gw = gh @ swap(vh)
        gw *= weights
        gw -= weights * gw.sum(axis=-1, keepdims=True)
        gw /= root
        return (merge(gw @ kh, query_mask), key_grad(swap(gw) @ qh),
                key_grad(swap(weights) @ gh))

    return _result(values, (q, k, v), backward)


def softmax_cross_entropy(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean over rows of -log softmax(logits)[target], max-stabilized."""
    if logits.array.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy needs a matrix, got shape {logits.shape}")
    n, vocab = logits.shape
    idx = np.asarray(targets, dtype=np.intp)
    if idx.shape != (n,):
        raise ShapeError(f"expected {n} targets, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        raise IndexError(f"target index out of range for {vocab} classes")
    shifted = logits.array - logits.array.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    values = np.array(-log_probs[np.arange(n), idx].mean())

    def backward(g):
        grad = np.exp(log_probs)
        grad[np.arange(n), idx] -= 1.0
        return (grad * (g / n),)

    return _result(values, (logits,), backward)


def l2_normalize(x: Tensor) -> Tensor:
    """Scale rows (or a single vector) to unit Euclidean norm."""
    arr = x.array
    norm = np.sqrt((arr * arr).sum(axis=-1, keepdims=True) + L2_NORM_EPS)
    values = arr / norm

    def backward(g):
        dot = (g * values).sum(axis=-1, keepdims=True)
        return ((g - values * dot) / norm,)

    return _result(values, (x,), backward)
