"""The micro run configs, the whole-image box, the aligned pair index and the BLAS kernel
shared by the tests.

Each config spells out only the settings that differ from `RunConfig`'s
defaults.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from finegrain import synthdata as sd
from finegrain.config import RunConfig

FULL_IMAGE = sd.BBox(0.0, 0.0, 1.0, 1.0)


def aligned_pairs(n: int) -> np.ndarray:
    """The pair index that fuses text b with image b, for b < n."""
    return np.stack([np.arange(n)] * 2, axis=1)


def micro_config(**overrides) -> RunConfig:
    """The micro model at seed 0: a 2 x 2 patch grid, hidden 8, one layer per stream."""
    return RunConfig(**{
        "seed": 0, "patch_grid": 2, "hidden_dim": 8, "vision_layers": 1, "text_layers": 1,
        "cross_layers": 1, "heads": 2, "proj_dim": 4, "mlp_dim": 16, "max_len": 24,
        **overrides})


def tiny_config(**overrides) -> RunConfig:
    """The micro model at seed 4 on a 6-step run over 6 scenes, with a small eval."""
    return micro_config(**{
        "seed": 4, "steps": 6, "cadence": 3, "caption_count": 6, "detection_scene_count": 6,
        "caption_batch": 2, "detection_batch": 2, "eval_per_subtask": 2, "retrieval_count": 3,
        "eval_seed": 900, **overrides})


# The OpenBLAS 0.3.31 kernel families on which a row of an affine map was measured to keep
# its bits however many rows share the product, at the tests' shapes and row counts.
# Haswell's (also the default on AMD Zen) and Nehalem's were measured not to.
ROW_STABLE_KERNELS = ("SkylakeX", "Sandybridge")


def blas_kernel() -> str:
    """The kernel family of numpy's bundled OpenBLAS, as the loaded library reports it.

    `unknown` if the library does not say; `OPENBLAS_CORETYPE` forces a family.
    """
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):  # no such library, or no such symbol
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def assert_equal_across_row_counts(got, want, rel: float, what: str = "") -> None:
    """Bit equality of two computations that run their products on different row counts.

    On a kernel of `ROW_STABLE_KERNELS` the bits must match.  On any other
    the largest difference must stay within `rel` times the largest
    magnitude of `want`.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    if blas_kernel() in ROW_STABLE_KERNELS:
        assert np.array_equal(got, want), what
    else:
        error = np.abs(got - want).max() / np.abs(want).max()
        assert error <= rel, f"{what} relative difference {error:.3g} exceeds {rel:g}"
