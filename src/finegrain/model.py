"""Dual-stream encoder with cross-modal fusion at desk scale.

Vision and text streams are small pre-norm transformers; the fusion
stream adds cross-attention from text queries to vision states.  Each
encoder returns its mask with its states, as an `Encoded`, and `fuse`
reads both masks from its arguments: patch visibility enters the model
only at `encode_images`, and the pad rule lives only in `encode_texts`.

Every encoding holds a batch.  Its states stay one 2-D tape tensor of
stacked rows, (batch * seq, width), sample b owning rows b * seq onward,
so the tape's matmul, add, layer norm and GELU see a batch as more rows;
only attention, which must not mix samples, reads the batch axis, from
the (batch, seq) visibility mask.  Texts are padded with [PAD] to the
batch's longest sequence, and pads are hidden like any masked row.
`Encoded.take` gathers samples by batch index in one tape node, so a
negative or a subset of a batch costs no new encode.  `fuse` pairs the
text and vision at each batch index, `project` maps a batch's [CLS] rows
in one matmul, and `cross_cls` is the one place fused [CLS] rows are taken.

`encode_image` and `encode_text` encode one input as a batch of one.
The scorer calls them, one input per cache entry, and the benchmark's
tracer tags their spans by that input, so they keep its argument shape.

The vision [CLS] token stays visible under every patch-visibility mask,
and masked rows are zeroed on output so downstream code can never read
them.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import ops, tensor
from .errors import (
    DegenerateMaskError,
    DependencyError,
    SequenceLengthError,
    ShapeError,
    ValidationError,
)
from .fileio import atomic_open
from .seeding import rng_for
from .synthdata import BBox, GRID_CHANNELS
from .tensor import Tensor
from .vocab import POS_CLOSE, POS_OPEN, Vocabulary

CHECKPOINT_MAGIC = "finegrain-checkpoint"
CHECKPOINT_VERSION = "v2"


@dataclass(frozen=True)
class ModelConfig:
    """The model's view of a `RunConfig`, which holds every setting and its default.

    The vocabulary is derived: the base inventory, plus the position tokens
    when they are in use.
    """

    patch_grid: int
    hidden_dim: int
    vision_layers: int
    text_layers: int
    cross_layers: int
    heads: int
    proj_dim: int
    mlp_dim: int
    max_len: int
    use_pevl_tokens: bool
    pevl_bins: int
    temperature_init: float
    vocab: Vocabulary = field(init=False, compare=False)

    def __post_init__(self):
        for name in ("patch_grid", "hidden_dim", "heads", "proj_dim", "mlp_dim", "max_len",
                     "vision_layers", "text_layers", "cross_layers"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.pevl_bins < 2:
            raise ValidationError(f"pevl_bins must be at least 2, got {self.pevl_bins}")
        if self.hidden_dim % self.heads != 0:
            raise ValidationError(
                f"hidden_dim {self.hidden_dim} not divisible by heads {self.heads}"
            )
        if not (math.isfinite(self.temperature_init) and self.temperature_init > 0):
            raise ValidationError(
                f"temperature_init must be positive and finite, got {self.temperature_init}")
        bins = self.pevl_bins if self.use_pevl_tokens else None
        object.__setattr__(self, "vocab", Vocabulary(bins))

    @property
    def num_patches(self) -> int:
        return self.patch_grid * self.patch_grid


class Encoded(NamedTuple):
    """One stream's output for a batch: stacked states, and which of their rows are visible."""

    states: Tensor  # (batch * seq, hidden_dim); rows that are not visible are zero
    visible: np.ndarray  # (batch, seq) bool

    def take(self, samples: Sequence[int]) -> Encoded:
        """The encodings at these batch indices, in this order, as one `take_rows` node."""
        idx = np.asarray(samples, dtype=np.intp)
        seq = self.visible.shape[1]
        rows = (idx[:, None] * seq + np.arange(seq)).reshape(-1)
        return Encoded(tensor.take_rows(self.states, rows), self.visible[idx])


def _cls_rows(states: Tensor, visible: np.ndarray) -> Tensor:
    """(batch, hidden_dim): each sample's first row of stacked states, its [CLS] state."""
    batch, seq = visible.shape
    return tensor.take_rows(states, np.arange(batch) * seq)


def param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Ordered (name, shape, init kind) table.

    Init kinds: linear (std 1/sqrt(fan_in)), head (100x smaller), table
    (std 1/sqrt(d); rows are vectors in the residual stream), zeros, ones,
    tau.  Width-aware scales matter at desk scale: flat small-std init
    leaves [CLS] states nearly input-independent and stalls the
    contrastive/matching losses.
    """
    d, m, v = cfg.hidden_dim, cfg.mlp_dim, len(cfg.vocab)
    rows: list[tuple[str, tuple[int, ...], str]] = [
        ("text.emb", (v, d), "table"),
        ("text.pos", (cfg.max_len, d), "table"),
        ("vision.patch_w", (GRID_CHANNELS, d), "linear"),
        ("vision.patch_b", (d,), "zeros"),
        ("vision.pos", (cfg.num_patches + 1, d), "table"),
        ("vision.cls", (1, d), "table"),
    ]

    def attn(prefix):
        return [
            (f"{prefix}.wq", (d, d), "linear"), (f"{prefix}.bq", (d,), "zeros"),
            (f"{prefix}.wk", (d, d), "linear"), (f"{prefix}.bk", (d,), "zeros"),
            (f"{prefix}.wv", (d, d), "linear"), (f"{prefix}.bv", (d,), "zeros"),
            (f"{prefix}.wo", (d, d), "linear"), (f"{prefix}.bo", (d,), "zeros"),
        ]

    def block(prefix, with_cross):
        out = [
            (f"{prefix}.ln1_g", (d,), "ones"), (f"{prefix}.ln1_b", (d,), "zeros"),
            *attn(f"{prefix}.attn"),
        ]
        if with_cross:
            out += [
                (f"{prefix}.lnx_g", (d,), "ones"), (f"{prefix}.lnx_b", (d,), "zeros"),
                *attn(f"{prefix}.xattn"),
            ]
        out += [
            (f"{prefix}.ln2_g", (d,), "ones"), (f"{prefix}.ln2_b", (d,), "zeros"),
            (f"{prefix}.mlp_w1", (d, m), "linear"), (f"{prefix}.mlp_b1", (m,), "zeros"),
            (f"{prefix}.mlp_w2", (m, d), "linear"), (f"{prefix}.mlp_b2", (d,), "zeros"),
        ]
        return out

    for i in range(cfg.vision_layers):
        rows += block(f"vision.{i}", with_cross=False)
    for i in range(cfg.text_layers):
        rows += block(f"text.{i}", with_cross=False)
    for i in range(cfg.cross_layers):
        rows += block(f"cross.{i}", with_cross=True)
    rows += [
        ("proj.img_w", (d, cfg.proj_dim), "linear"), ("proj.img_b", (cfg.proj_dim,), "zeros"),
        ("proj.txt_w", (d, cfg.proj_dim), "linear"), ("proj.txt_b", (cfg.proj_dim,), "zeros"),
        ("head.itm_w", (d, 2), "head"), ("head.itm_b", (2,), "zeros"),
        ("head.bbox_w", (d, 4), "head"), ("head.bbox_b", (4,), "zeros"),
        ("head.mlm_b", (v,), "zeros"),
        ("log_tau", (1,), "tau"),
    ]
    return rows


class VLModel:
    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = rng_for(seed, "model-init")
        self.params: dict[str, Tensor] = {}
        for name, shape, kind in param_shapes(config):
            if kind == "linear":
                values = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
            elif kind == "head":
                # classifier heads start near zero: untrained matching scores
                # sit at chance and the box head at the centered half box
                values = rng.normal(0.0, 0.01 / np.sqrt(shape[0]), size=shape)
            elif kind == "table":
                values = rng.normal(0.0, 1.0 / np.sqrt(config.hidden_dim), size=shape)
            elif kind == "ones":
                values = np.ones(shape)
            elif kind == "tau":
                values = np.full(shape, np.log(config.temperature_init))
            else:
                values = np.zeros(shape)
            self.params[name] = Tensor(values, requires_grad=True)

    # -- plumbing -------------------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return [self.params[name] for name, _, _ in param_shapes(self.config)]

    def temperature(self) -> Tensor:
        return tensor.exp(self.params["log_tau"])

    def _mha(self, prefix: str, x_q: Tensor, x_kv: Tensor, key_mask) -> Tensor:
        p = self.params
        q = tensor.add(tensor.matmul(x_q, p[f"{prefix}.wq"]), p[f"{prefix}.bq"])
        k = tensor.add(tensor.matmul(x_kv, p[f"{prefix}.wk"]), p[f"{prefix}.bk"])
        v = tensor.add(tensor.matmul(x_kv, p[f"{prefix}.wv"]), p[f"{prefix}.bv"])
        attended = ops.masked_attention(q, k, v, key_mask, self.config.heads)
        return tensor.add(tensor.matmul(attended, p[f"{prefix}.wo"]), p[f"{prefix}.bo"])

    def _mlp(self, prefix: str, x: Tensor) -> Tensor:
        p = self.params
        hidden = ops.gelu(tensor.add(tensor.matmul(x, p[f"{prefix}.mlp_w1"]),
                                     p[f"{prefix}.mlp_b1"]))
        return tensor.add(tensor.matmul(hidden, p[f"{prefix}.mlp_w2"]), p[f"{prefix}.mlp_b2"])

    def _block(self, prefix: str, x: Tensor, key_mask, cross: Encoded | None = None) -> Tensor:
        p = self.params
        normed = ops.layer_norm(x, p[f"{prefix}.ln1_g"], p[f"{prefix}.ln1_b"])
        x = tensor.add(x, self._mha(f"{prefix}.attn", normed, normed, key_mask))
        if cross is not None:
            normed = ops.layer_norm(x, p[f"{prefix}.lnx_g"], p[f"{prefix}.lnx_b"])
            x = tensor.add(x, self._mha(f"{prefix}.xattn", normed, cross.states, cross.visible))
        normed = ops.layer_norm(x, p[f"{prefix}.ln2_g"], p[f"{prefix}.ln2_b"])
        return tensor.add(x, self._mlp(prefix, normed))

    @staticmethod
    def _zero_masked_rows(states: Tensor, keep: np.ndarray) -> Tensor:
        return tensor.mul(states, Tensor(keep.astype(np.float64).reshape(-1, 1)))

    # -- encoders ---------------------------------------------------------------

    def _vision_token_mask(self, visibility) -> np.ndarray:
        n = self.config.num_patches
        if visibility is None:
            patches = np.ones(n, dtype=bool)
        else:
            patches = np.asarray(visibility, dtype=bool).reshape(-1)
            if patches.size != n:
                raise ValidationError(
                    f"visibility mask has {patches.size} entries for {n} patches"
                )
            if not patches.any():
                raise DegenerateMaskError("every patch is masked")
        return np.concatenate([[True], patches])  # [CLS] always visible

    def encode_images(self, grids: Sequence[np.ndarray], visibilities=None) -> Encoded:
        """One encode of a batch of grids; `visibilities` holds a patch mask or None per grid."""
        cfg = self.config
        n = cfg.num_patches
        shape = (cfg.patch_grid, cfg.patch_grid, GRID_CHANNELS)
        arrays = [np.asarray(grid, dtype=np.float64) for grid in grids]
        for grid in arrays:
            if grid.shape != shape:
                raise ValidationError(
                    f"grid shape {grid.shape} does not match config "
                    f"({cfg.patch_grid}x{cfg.patch_grid}x{GRID_CHANNELS})"
                )
        batch = len(arrays)
        if visibilities is None:
            visibilities = [None] * batch
        token_mask = np.stack([self._vision_token_mask(v) for v in visibilities])
        patches = Tensor(np.stack(arrays).reshape(batch * n, GRID_CHANNELS))
        emb = tensor.add(tensor.matmul(patches, self.params["vision.patch_w"]),
                         self.params["vision.patch_b"])
        # row 0 is the shared [CLS] row; each sample takes it, then its own n patch rows
        order = np.insert(np.arange(1, batch * n + 1).reshape(batch, n), 0, 0, axis=1)
        x = tensor.add(
            tensor.take_rows(tensor.concat_rows([self.params["vision.cls"], emb]),
                             order.reshape(-1)),
            tensor.take_rows(self.params["vision.pos"], np.tile(np.arange(n + 1), batch)))
        for i in range(cfg.vision_layers):
            x = self._block(f"vision.{i}", x, token_mask)
        return Encoded(self._zero_masked_rows(x, token_mask), token_mask)

    def encode_image(self, grid: np.ndarray) -> Encoded:
        return self.encode_images([grid])

    def encode_texts(self, id_lists: Sequence[Sequence[int]]) -> Encoded:
        """One encode of a batch of id lists, each padded with [PAD] to the longest."""
        cfg = self.config
        rows = [[int(i) for i in ids] for ids in id_lists]
        longest = max(len(ids) for ids in rows)
        if longest > cfg.max_len:
            raise SequenceLengthError(f"{longest} tokens exceed max_len {cfg.max_len}")
        ids = np.full((len(rows), longest), cfg.vocab.pad_id, dtype=np.intp)
        for b, row in enumerate(rows):
            ids[b, :len(row)] = row
        pad_mask = ids != cfg.vocab.pad_id
        x = tensor.add(ops.embed(ids.reshape(-1), self.params["text.emb"]),
                       tensor.take_rows(self.params["text.pos"],
                                        np.tile(np.arange(longest), len(rows))))
        for i in range(cfg.text_layers):
            x = self._block(f"text.{i}", x, pad_mask)
        return Encoded(self._zero_masked_rows(x, pad_mask), pad_mask)

    def encode_text(self, token_ids: Sequence[int]) -> Encoded:
        return self.encode_texts([token_ids])

    def fuse(self, text: Encoded, vision: Encoded) -> Tensor:
        """Each text's states cross-attended to the visible rows of the vision at its index.

        Hidden text rows are zero.
        """
        if len(text.visible) != len(vision.visible):
            raise ShapeError(f"fusing {len(text.visible)} texts with {len(vision.visible)} images")
        x = text.states
        for i in range(self.config.cross_layers):
            x = self._block(f"cross.{i}", x, text.visible, cross=vision)
        return self._zero_masked_rows(x, text.visible)

    def cross_cls(self, text: Encoded, vision: Encoded) -> Tensor:
        """(batch, hidden_dim) fused [CLS] rows: the rows the matching and box heads read."""
        return _cls_rows(self.fuse(text, vision), text.visible)

    def project(self, stream: str, encoded: Encoded) -> Tensor:
        """(batch, proj_dim) unit-norm projections of an "img" or "txt" batch's [CLS] rows."""
        raw = tensor.matmul(_cls_rows(*encoded), self.params[f"proj.{stream}_w"])
        return ops.l2_normalize(tensor.add(raw, self.params[f"proj.{stream}_b"]))

    # -- heads -------------------------------------------------------------------

    def itm_logits(self, cross_cls: Tensor) -> Tensor:
        return tensor.add(tensor.matmul(cross_cls, self.params["head.itm_w"]),
                          self.params["head.itm_b"])

    def matching_probability(self, cross_cls: Tensor) -> float:
        logits = self.itm_logits(cross_cls).array[0]
        shifted = logits - logits.max()
        weights = np.exp(shifted)
        return float(weights[1] / weights.sum())

    def mlm_logits(self, cross_states: Tensor) -> Tensor:
        return tensor.add(
            tensor.matmul(cross_states, tensor.transpose(self.params["text.emb"])),
            self.params["head.mlm_b"])

    def bbox_corners(self, cls_rows: Tensor) -> Tensor:
        """(n, 4) corner rows (x1, y1, x2, y2), one per [CLS] row; gradients stay alive."""
        raw = tensor.add(tensor.matmul(cls_rows, self.params["head.bbox_w"]),
                         self.params["head.bbox_b"])
        squashed = tensor.sigmoid(raw)
        centre = tensor.slice_cols(squashed, 0, 2)
        size = tensor.maximum(tensor.slice_cols(squashed, 2, 4), Tensor(1e-3))
        half = tensor.scale(size, 0.5)
        return tensor.concat_cols([tensor.sub(centre, half), tensor.add(centre, half)])


# -- position tokens -----------------------------------------------------------


def quantize_coordinate(value: float, bins: int) -> int:
    """The bin of a normalized coordinate, clamped to [0, bins - 1]."""
    return min(max(int(np.floor(value * bins)), 0), bins - 1)


def position_token_insert(tokens: list[str], bbox: BBox, bins: int,
                          insert_after: int) -> list[str]:
    """Insert "< b(x1) b(y1) b(x2) b(y2) >" right after the entity span."""
    if not 0 <= insert_after <= len(tokens):
        raise ValidationError(f"insertion point {insert_after} outside token range")
    bin_tokens = [str(quantize_coordinate(v, bins)) for v in bbox.corners()]
    return [*tokens[:insert_after], POS_OPEN, *bin_tokens, POS_CLOSE, *tokens[insert_after:]]


# -- checkpoints --------------------------------------------------------------------


def save_checkpoint(model: VLModel, path: Path, config_hash: str) -> None:
    """Header, then one 'name<TAB>shape<TAB>payload' line per tensor; written atomically.

    The payload is the base64 of the tensor's little-endian float64 bytes in C order,
    so every parameter stays one line of ASCII text.
    """
    with atomic_open(path) as fh:
        fh.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION} {config_hash}\n")
        for name, _, _ in param_shapes(model.config):
            arr = model.params[name].array
            shape = ",".join(str(n) for n in arr.shape)
            payload = base64.b64encode(arr.astype("<f8", copy=False).tobytes()).decode("ascii")
            fh.write(f"{name}\t{shape}\t{payload}\n")


def load_checkpoint(model: VLModel, path: Path, expect_hash: str) -> None:
    """Load every parameter, or none: a truncated or malformed file is a DependencyError."""
    path = Path(path)
    if not path.exists():
        raise DependencyError(f"checkpoint not found: {path}")
    arrays = {}
    try:
        with open(path, encoding="utf-8") as fh:
            line = fh.readline()
            header = line.split()
            if not line.endswith("\n") or len(header) != 3 or header[0] != CHECKPOINT_MAGIC:
                raise DependencyError(f"not a checkpoint file: {path}")
            if header[1] != CHECKPOINT_VERSION:
                raise DependencyError(f"unsupported checkpoint version {header[1]}")
            if header[2] != expect_hash:
                raise DependencyError(
                    f"checkpoint belongs to config {header[2]}, expected {expect_hash}"
                )
            for line in fh:
                # a cut just before the last newline still leaves a complete payload
                if not line.endswith("\n"):
                    raise DependencyError(f"checkpoint {path} is truncated")
                name, shape_field, payload = line[:-1].split("\t")
                if name not in model.params:
                    raise DependencyError(f"unexpected parameter {name!r} in checkpoint")
                if name in arrays:
                    raise DependencyError(f"parameter {name!r} repeated in checkpoint")
                shape = tuple(int(n) for n in shape_field.split(","))
                raw = base64.b64decode(payload, validate=True)
                if len(raw) != 8 * math.prod(shape):
                    raise DependencyError(
                        f"parameter {name!r} has {len(raw)} bytes for shape {shape}")
                # astype copies the read-only buffer view into an owned, writeable array
                values = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
                if values.shape != model.params[name].array.shape:
                    raise DependencyError(
                        f"parameter {name!r} has shape {values.shape}, "
                        f"expected {model.params[name].array.shape}"
                    )
                if not np.isfinite(values).all():
                    raise DependencyError(f"parameter {name!r} has a non-finite value")
                arrays[name] = values
    except (OSError, ValueError) as exc:  # a directory, bad UTF-8 or base64, a bad field
        raise DependencyError(f"unreadable or malformed checkpoint {path}: {exc}") from exc
    missing = set(model.params) - set(arrays)
    if missing:
        raise DependencyError(f"checkpoint is missing parameters: {sorted(missing)[:3]}...")
    for name, values in arrays.items():
        model.params[name].array = values
