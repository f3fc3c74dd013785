"""The micro run configs, the whole-image box and the aligned pair index shared by the tests.

Each config spells out only the settings that differ from `RunConfig`'s
defaults.
"""

from __future__ import annotations

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
