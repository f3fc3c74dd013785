"""Neural-network operations on the autodiff tape.

Each op records one tape node with a hand-written backward.  Multi-head
attention is a single op: the samples of a batch and their heads go
through numpy's stacked matmul, and the masked softmax inside it is plain
numpy, not a tape op.
Attention masking uses an additive -inf before the softmax, so masked
positions carry exactly zero weight and the normalization runs over the
visible keys only; the hard-zero property is exact, not approximate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import erf

from .errors import DegenerateMaskError, ShapeError
from .tensor import Tensor, _result, take_rows

LAYER_NORM_EPS = 1e-5
L2_NORM_EPS = 1e-30
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(a: Tensor) -> Tensor:
    x = a.array
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    values = x * cdf

    def backward(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (cdf + x * pdf),)

    return _result(values, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then apply the affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match feature dim {d}")
    mu = x.array.mean(axis=-1, keepdims=True)
    centered = x.array - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv_std
    values = xhat * gain.array + bias.array

    def backward(g):
        dxhat = g * gain.array
        dx = inv_std * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=axes)
        dbias = g.sum(axis=axes)
        return dx, dgain, dbias

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
    its visible set; rows with no visible entry are rejected.
    """
    if not np.all(np.any(mask, axis=-1)):
        raise DegenerateMaskError("softmax row with every position masked")
    shifted = np.where(mask, logits, -np.inf)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)  # exact 0.0 at masked positions
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def _batch_mask(mask, rows: int, keys: int) -> np.ndarray:
    """The mask as (batch, 1, queries or 1, keys), for `rows` stacked query and `keys` key rows.

    The mask's leading axis is the batch: (keys,) is one sample, (batch, keys)
    one key mask per sample, and (batch, queries, keys) one per query.
    """
    m = np.asarray(mask, dtype=bool)
    if m.ndim == 1:
        m = m[None]
    batch = m.shape[0] if m.ndim in (2, 3) else 0
    if (not batch or rows % batch or keys != batch * m.shape[-1]
            or (m.ndim == 3 and rows != batch * m.shape[1])):
        raise ShapeError(f"mask shape {np.shape(mask)} does not match {rows} query rows "
                         f"and {keys} key rows")
    return m[:, None] if m.ndim == 3 else m[:, None, None]


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over a batch, as one tape node.

    `q` stacks each sample's query rows, (batch * queries, width), and `k`
    and `v` its key rows, (batch * keys, width); the mask's leading axis
    fixes the batch (see `_batch_mask`), and the mask is shared by every
    head.  Each width is viewed as `heads` column blocks of width // heads.
    Numpy's stacked matmul runs one attention per (sample, head), so no
    sample attends to another's rows.
    """
    if not (q.array.ndim == k.array.ndim == 2 and q.shape[1] == k.shape[1] and k.shape == v.shape):
        raise ShapeError(f"attention shapes do not agree: q {q.shape}, k {k.shape}, v {v.shape}")
    rows, width = q.shape
    if heads < 1 or width % heads:
        raise ShapeError(f"width {width} does not split into {heads} heads")
    m = _batch_mask(mask, rows, k.shape[0])
    batch = m.shape[0]
    dh = width // heads
    root = np.sqrt(dh)

    def split(x: np.ndarray) -> np.ndarray:  # (batch * n, width) -> (batch, heads, n, dh)
        return x.reshape(batch, -1, heads, dh).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray) -> np.ndarray:  # (batch, heads, n, dh) -> (batch * n, width)
        return x.transpose(0, 2, 1, 3).reshape(-1, width)

    def swap(x: np.ndarray) -> np.ndarray:  # transpose each (sample, head) matrix
        return x.swapaxes(-1, -2)

    qh, kh, vh = split(q.array), split(k.array), split(v.array)
    weights = masked_softmax(qh @ swap(kh) / root, m)
    values = merge(weights @ vh)

    def backward(g):
        gh = split(g)
        gw = (gh @ swap(vh)) * weights
        gs = (gw - weights * gw.sum(axis=-1, keepdims=True)) / root
        return merge(gs @ kh), merge(swap(gs) @ qh), merge(swap(weights) @ gh)

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
