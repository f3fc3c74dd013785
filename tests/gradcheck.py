"""Finite-difference verification of tape gradients.

Five-point central differences, (8(f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h,
with step h=1e-4 in double precision: their O(h^4) truncation error stays
well inside the bound even for a tiny gradient coordinate, where the O(h^2)
error of two-point differences does not.  Intended for small inputs only
(at most a few thousand coordinates in total).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from finegrain.errors import NumericError
from finegrain.tensor import Tensor

DEFAULT_STEP = 1e-4
DEFAULT_ATOL = 1e-6


def check_gradients(
    f: Callable[[], Tensor],
    inputs: Sequence[Tensor],
    h: float = DEFAULT_STEP,
    atol: float = DEFAULT_ATOL,
    coords_per_input: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare backward gradients of the scalar `f()` to five-point differences.

    Returns the maximum relative error over the checked coordinates, where
    the relative error of a pair (fd, an) is |fd - an| / max(|fd|, |an|, atol).
    With `coords_per_input` set, only that many randomly chosen coordinates
    of each input are perturbed (the analytic side is always complete).
    """
    inputs = list(inputs)
    for t in inputs:
        t.zero_grad()
        t.requires_grad = True
    out = f()
    value = out.item()
    if not np.isfinite(value):
        raise NumericError(f"function value is not finite: {value}")
    out.backward()
    analytic = []
    for t in inputs:
        g = np.zeros(t.array.size) if t.grad is None else t.grad.reshape(-1)
        if not np.all(np.isfinite(g)):
            raise NumericError("backward produced non-finite gradients")
        analytic.append(g.copy())
        t.requires_grad = False  # keep finite-difference evaluations off the tape

    worst = 0.0
    originals = [t.array for t in inputs]
    try:
        for t, grad in zip(inputs, analytic):
            # perturb a private copy: other tensors built on the same array stay put
            t.array = t.array.copy()
            flat = t.array.reshape(-1)
            if coords_per_input is None or coords_per_input >= flat.size:
                coords = range(flat.size)
            else:
                picker = rng if rng is not None else np.random.default_rng(0)
                coords = picker.choice(flat.size, size=coords_per_input, replace=False)
            for i in coords:
                original = flat[i]
                values = []
                for step in (h, -h, 2.0 * h, -2.0 * h):
                    flat[i] = original + step
                    values.append(f().item())
                flat[i] = original
                if not np.all(np.isfinite(values)):
                    raise NumericError("finite-difference evaluation is not finite")
                up, down, up2, down2 = values
                fd = (8.0 * (up - down) - (up2 - down2)) / (12.0 * h)
                an = grad[i]
                err = abs(fd - an) / max(abs(fd), abs(an), atol)
                worst = max(worst, err)
    finally:
        for t, original in zip(inputs, originals):
            t.array = original
            t.requires_grad = True
            t.zero_grad()
    return worst
