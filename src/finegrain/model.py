"""Dual-stream encoder with cross-modal fusion at desk scale.

Vision and text streams are small pre-norm transformers; the fusion
stream adds cross-attention from text queries to vision states.  Each
encoder returns its mask with its states, as an `Encoded`, and `fuse`
reads both masks from its arguments: patch visibility enters the model
only at `encode_images`, and the pad rule lives only in `encode_texts`.
A model keeps the run's `RunConfig` as `config`: its sizes and vocabulary
come from there, and the training step reads its loss arm there too.

Every encoding holds a batch.  Its states stay one 2-D tape tensor of
stacked rows, (batch * seq, width), sample b owning rows b * seq onward,
so the tape's affine maps (`ops.linear`, one node each), adds, layer
norms and GELUs see a batch as more rows; only attention, which must not
mix samples, reads the batch axis, from the (batch, seq) visibility mask.
Texts are padded with [PAD] to the batch's longest sequence, and pads are
hidden like any masked row.  `Encoded.take` gathers samples by batch
index in one tape node, so a negative, a repeat or a subset of a batch
costs no new encode.  `fuse` takes a batch of texts, a batch of images
and an (m, 2) pair index of (text, image) batch indices, so the training
step fuses every role of every pass (positives, mined negatives, masked
copies; unmasked and box-masked) in one call, and the scorer passes a
chunk's texts and images once each, however many of its pairs share
them.  Both gather a pair's rows only where text meets image, so work
that reads one text, or one image, runs once per distinct input.  `fuse`
also takes a list of text positions per pair, the ones its caller reads,
and returns their rows pair by pair; its last cross layer computes only
those: its keys and values read every row, but its queries, output maps
and MLP run on the requested rows alone.  So the stacked-row layout
stays in this module.
The heads read little: the matching and box heads a [CLS] row per pair,
the masked-LM head the masked positions.  `project` maps a batch's [CLS]
rows in one affine map, and `cross_cls` fuses asking for position 0 only.

How the scorer batches its encodes and fuses, on `frozen` weights, is told
in `evalharness.model_scorer`.  Training and scoring encode through
`encode_images` and `encode_texts`.  `encode_images` checks its grids and
masks and stacks them, and `encode_image` encodes the stack, so every image
encode is one `encode_image` call, which the benchmark's tracer wraps.
`encode_text`, a batch of one, stays only because the tracer wraps it too.

The vision [CLS] token stays visible under every patch-visibility mask,
and masked rows are zeroed on output so downstream code can never read
them.
"""

from __future__ import annotations

import base64
import math
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import ops, tensor
from .config import RunConfig
from .errors import (
    DegenerateMaskError,
    DependencyError,
    SequenceLengthError,
    ShapeError,
    ValidationError,
)
from .fileio import atomic_open
from .seeding import rng_for
from .synthdata import GRID_CHANNELS
from .tensor import Tensor

CHECKPOINT_MAGIC = "finegrain-checkpoint"
CHECKPOINT_VERSION = "v2"
# the contrastive temperature's initial value, as in CLIP, ALBEF and X-VLM
TEMPERATURE_INIT = 0.07


class Encoded(NamedTuple):
    """One stream's output for a batch: stacked states, and which of their rows are visible."""

    states: Tensor  # (batch * seq, hidden_dim); rows that are not visible are zero
    visible: np.ndarray  # (batch, seq) bool

    def take(self, samples: Sequence[int]) -> Encoded:
        """The encodings at these batch indices, in this order, as one `take_rows` node."""
        idx = np.asarray(samples, dtype=np.intp)
        return Encoded(tensor.take_rows(self.states, _sample_rows(idx, self.visible.shape[1])),
                       self.visible[idx])

    @staticmethod
    def stack(parts: Sequence[Encoded]) -> Encoded:
        """Batches of one sequence length as one batch, in this order, as one `concat` node."""
        lengths = {part.visible.shape[1] for part in parts}
        if len(lengths) != 1:
            raise ShapeError(f"cannot stack encodings of sequence lengths {sorted(lengths)}")
        return Encoded(tensor.concat([part.states for part in parts], 0),
                       np.concatenate([part.visible for part in parts]))


def _sample_rows(samples: np.ndarray, seq: int) -> np.ndarray:
    """The stacked rows of these batch indices' samples, for samples of `seq` rows each."""
    return (samples[:, None] * seq + np.arange(seq)).reshape(-1)


def _pair_index(pairs, texts: int, images: int) -> np.ndarray:
    """`pairs` as an (m, 2) index array of (text, image) batch indices, checked."""
    index = np.asarray(pairs)
    if (index.ndim != 2 or index.shape[1] != 2 or not len(index)
            or index.dtype.kind not in "iu"):
        raise ShapeError(f"fuse needs an (m, 2) integer pair index, got shape {index.shape}")
    if index.min() < 0 or index[:, 0].max() >= texts or index[:, 1].max() >= images:
        raise ShapeError(f"pair index outside {texts} texts and {images} images")
    return index.astype(np.intp, copy=False)


def _padded_queries(positions: Sequence[Sequence[int]], batch: int,
                    seq: int) -> tuple[np.ndarray, np.ndarray]:
    """(queries, picks) for each sample's text `positions` of a (batch, seq) text batch.

    `queries` holds each sample's positions as stacked rows, in its list's
    order, padded with the sample's [CLS] row to the longest list, so every
    sample has the same number; `picks` gathers the requested rows back out
    of them, sample by sample.
    """
    try:
        counts = np.fromiter(map(len, positions), np.intp, batch)
        flat = np.fromiter(chain.from_iterable(positions), np.intp, int(counts.sum()))
    except (TypeError, ValueError) as exc:  # too few lists, or an entry that is not 1-D
        raise ShapeError(f"fuse needs one 1-D list of text positions per sample: {exc}") from exc
    if len(positions) != batch or not flat.size or flat.min() < 0 or flat.max() >= seq:
        raise ShapeError(f"fuse needs {batch} lists of positions below {seq}, not all empty")
    width = int(counts.max())
    picks = np.flatnonzero(np.arange(width) < counts[:, None])
    queries = np.repeat(np.arange(batch) * seq, width)
    queries[picks] += flat
    return queries, picks


def param_shapes(cfg: RunConfig) -> list[tuple[str, tuple[int, ...], str]]:
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
    def __init__(self, config: RunConfig, seed: int = 0):
        self.config = config
        rng = rng_for(seed, "model-init")
        self.params: dict[str, Tensor] = {}  # in `param_shapes` order, as checkpoints are
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
                values = np.full(shape, np.log(TEMPERATURE_INIT))
            else:
                values = np.zeros(shape)
            self.params[name] = Tensor(values, requires_grad=True)

    # -- plumbing -------------------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    @classmethod
    def _frozen_over(cls, config: RunConfig, arrays: dict[str, np.ndarray]) -> VLModel:
        """A model of constant parameters over `arrays`, in `param_shapes` order; no init drawn."""
        model = cls.__new__(cls)
        model.config = config
        model.params = {name: Tensor(array) for name, array in arrays.items()}
        return model

    def frozen(self) -> VLModel:
        """This model over constant parameters sharing its arrays: nothing it computes is taped.

        In-place updates of the arrays show through; a checkpoint load, which
        replaces them, does not.  The model that `eval` and `dynamics` score
        is frozen from the start: `runner` builds it over placeholders from
        the same constructor, and `load_checkpoint` fills them.
        """
        return self._frozen_over(
            self.config, {name: param.array for name, param in self.params.items()})

    def temperature(self) -> Tensor:
        return tensor.exp(self.params["log_tau"])

    def _mha(self, prefix: str, x_q: Tensor, keys: Encoded,
             samples: np.ndarray | None = None) -> Tensor:
        """Attention from the stacked query rows `x_q` to the visible rows of `keys`.

        With `samples`, `keys` holds distinct inputs: their keys and values
        are projected once each, then gathered so that query sample j
        attends to input `samples[j]`.
        """
        p = self.params
        q = ops.linear(x_q, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
        k = ops.linear(keys.states, p[f"{prefix}.wk"], p[f"{prefix}.bk"])
        v = ops.linear(keys.states, p[f"{prefix}.wv"], p[f"{prefix}.bv"])
        key_mask = keys.visible
        if samples is not None:
            rows = _sample_rows(samples, key_mask.shape[1])
            k, v, key_mask = tensor.take_rows(k, rows), tensor.take_rows(v, rows), key_mask[samples]
        attended = ops.masked_attention(q, k, v, key_mask, self.config.heads)
        return ops.linear(attended, p[f"{prefix}.wo"], p[f"{prefix}.bo"])

    def _mlp(self, prefix: str, x: Tensor) -> Tensor:
        p = self.params
        hidden = ops.gelu(ops.linear(x, p[f"{prefix}.mlp_w1"], p[f"{prefix}.mlp_b1"]))
        return ops.linear(hidden, p[f"{prefix}.mlp_w2"], p[f"{prefix}.mlp_b2"])

    def _block(self, prefix: str, x: Tensor, key_mask, cross: Encoded | None = None,
               rows: np.ndarray | None = None, texts_of: np.ndarray | None = None,
               images_of: np.ndarray | None = None) -> Tensor:
        """One pre-norm layer; with `rows`, only those stacked rows query and are returned.

        The self-attention keys and values still come from every row of `x`,
        so `rows` must hold the same number of rows for each sample.

        With `texts_of`, `x` and `key_mask` hold distinct texts and output
        sample j is text `texts_of[j]`'s: layer norm 1 and the self-attention
        keys and values run once per text, and so does the whole
        self-attention when every row queries; `rows` count the output
        samples' rows.  With `images_of`, `cross` holds distinct images and
        output sample j attends to image `images_of[j]`, whose
        cross-attention keys and values are projected once per image.
        """
        p = self.params
        normed = ops.layer_norm(x, p[f"{prefix}.ln1_g"], p[f"{prefix}.ln1_b"])
        keys = Encoded(normed, key_mask)
        if rows is None:
            x = tensor.add(x, self._mha(f"{prefix}.attn", normed, keys))
            if texts_of is not None:
                x = tensor.take_rows(x, _sample_rows(texts_of, key_mask.shape[1]))
        else:
            if texts_of is not None:
                rows = _sample_rows(texts_of, key_mask.shape[1])[rows]
            x, queries = tensor.take_rows(x, rows), tensor.take_rows(normed, rows)
            x = tensor.add(x, self._mha(f"{prefix}.attn", queries, keys, texts_of))
        if cross is not None:
            normed = ops.layer_norm(x, p[f"{prefix}.lnx_g"], p[f"{prefix}.lnx_b"])
            x = tensor.add(x, self._mha(f"{prefix}.xattn", normed, cross, images_of))
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
        shape = (cfg.patch_grid, cfg.patch_grid, GRID_CHANNELS)
        arrays = [np.asarray(grid, dtype=np.float64) for grid in grids]
        if not arrays:
            raise ShapeError("encode_images needs at least one grid")
        for grid in arrays:
            if grid.shape != shape:
                raise ValidationError(
                    f"grid shape {grid.shape} does not match config "
                    f"({cfg.patch_grid}x{cfg.patch_grid}x{GRID_CHANNELS})"
                )
        if visibilities is None:
            visibilities = [None] * len(arrays)
        token_mask = np.stack([self._vision_token_mask(v) for v in visibilities])
        return self.encode_image(np.stack(arrays), token_mask)

    def encode_image(self, grids: np.ndarray, token_mask: np.ndarray) -> Encoded:
        """One encode of a (batch, grid, grid, channels) stack under its token mask.

        `token_mask` is (batch, num_patches + 1), [CLS] first.  Callers go
        through `encode_images`, which checks the grids and builds the mask.
        This half is a method of its own because the benchmark's tracer
        wraps `encode_image`: so it times every image encode.
        """
        cfg = self.config
        n = cfg.num_patches
        batch = len(grids)
        patches = Tensor(grids.reshape(batch * n, GRID_CHANNELS))
        emb = ops.linear(patches, self.params["vision.patch_w"], self.params["vision.patch_b"])
        # row 0 is the shared [CLS] row; each sample takes it, then its own n patch rows
        order = np.insert(np.arange(1, batch * n + 1).reshape(batch, n), 0, 0, axis=1)
        x = tensor.add(
            tensor.take_rows(tensor.concat([self.params["vision.cls"], emb], 0),
                             order.reshape(-1)),
            tensor.take_rows(self.params["vision.pos"], np.tile(np.arange(n + 1), batch)))
        for i in range(cfg.vision_layers):
            x = self._block(f"vision.{i}", x, token_mask)
        return Encoded(self._zero_masked_rows(x, token_mask), token_mask)

    def encode_texts(self, id_lists: Sequence[Sequence[int]]) -> Encoded:
        """One encode of a batch of id lists, each padded with [PAD] to the longest."""
        cfg = self.config
        rows = [[int(i) for i in ids] for ids in id_lists]
        if not rows or not all(rows):
            raise ShapeError("encode_texts needs at least one id list, and no empty one")
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

    def fuse(self, texts: Encoded, visions: Encoded, pairs,
             positions: Sequence[Sequence[int]]) -> Tensor:
        """The fused states at each pair's text `positions`, pair by pair, in list order.

        `pairs` is an (m, 2) index array: pair j fuses text `pairs[j, 0]` of
        `texts` with image `pairs[j, 1]` of `visions`, its text states
        cross-attended to the image's visible rows.  Every cross layer but
        the last runs on every text row.  The last one runs layer norm 1 and
        the self- and cross-attention keys and values on every row as well,
        and the rest only on the requested positions, padded per pair with
        its [CLS] position to the longest list, so each pair keeps its own
        keys and key mask.  A position may be requested more than once, and
        a list may be empty; a hidden position's row is zero.

        The pairs are gathered where text meets image: cross layer 0's layer
        norm and self-attention read only the text, so they run once per
        distinct text (in a last layer, only the norm and the self-attention
        keys and values), and every layer projects the cross-attention keys
        and values once per distinct image.  The values are those of a fuse
        of the batches gathered per pair first, bit for bit, since a row of
        an affine map over several rows does not depend on the other rows;
        the parameter gradients sum the same terms in another order.
        """
        index = _pair_index(pairs, len(texts.visible), len(visions.visible))
        texts_of, images_of = index[:, 0], index[:, 1]
        queries, picks = _padded_queries(positions, len(index), texts.visible.shape[1])
        pair_mask = texts.visible[texts_of]
        x, key_mask = texts.states, texts.visible
        last = self.config.cross_layers - 1
        for i in range(last + 1):
            x = self._block(f"cross.{i}", x, key_mask, cross=visions,
                            rows=queries if i == last else None,
                            texts_of=texts_of if i == 0 else None, images_of=images_of)
            key_mask = pair_mask
        keep = pair_mask.reshape(-1)[queries]
        if not keep.all():
            x = self._zero_masked_rows(x, keep)
        return tensor.take_rows(x, picks)

    def cross_cls(self, texts: Encoded, visions: Encoded, pairs) -> Tensor:
        """(pairs, hidden_dim) fused [CLS] rows, the rows the matching and box heads read."""
        return self.fuse(texts, visions, pairs, [[0]] * len(pairs))

    def project(self, stream: str, encoded: Encoded) -> Tensor:
        """(batch, proj_dim) unit-norm projections of an "img" or "txt" batch's [CLS] rows."""
        batch, seq = encoded.visible.shape
        cls = tensor.take_rows(encoded.states, np.arange(batch) * seq)
        return ops.l2_normalize(ops.linear(cls, self.params[f"proj.{stream}_w"],
                                           self.params[f"proj.{stream}_b"]))

    # -- heads -------------------------------------------------------------------

    def itm_logits(self, cross_cls: Tensor) -> Tensor:
        return ops.linear(cross_cls, self.params["head.itm_w"], self.params["head.itm_b"])

    def matching_probabilities(self, cross_cls: Tensor) -> np.ndarray:
        """(batch,) probability that each fused [CLS] row's text matches its image."""
        logits = self.itm_logits(cross_cls).array
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        return weights[:, 1] / weights.sum(axis=1)

    def mlm_logits(self, cross_states: Tensor) -> Tensor:
        return ops.linear(cross_states, tensor.transpose(self.params["text.emb"]),
                          self.params["head.mlm_b"])

    def bbox_corners(self, cls_rows: Tensor) -> Tensor:
        """(n, 4) corner rows (x1, y1, x2, y2), one per [CLS] row; gradients stay alive."""
        squashed = tensor.sigmoid(
            ops.linear(cls_rows, self.params["head.bbox_w"], self.params["head.bbox_b"]))
        centre = tensor.slice_cols(squashed, 0, 2)
        size = tensor.maximum(tensor.slice_cols(squashed, 2, 4), Tensor(1e-3))
        half = tensor.scale(size, 0.5)
        return tensor.concat([tensor.sub(centre, half), tensor.add(centre, half)], 1)


# -- checkpoints --------------------------------------------------------------------


def save_checkpoint(model: VLModel, path: Path, config_hash: str) -> None:
    """Header, then one 'name<TAB>shape<TAB>payload' line per tensor; written atomically.

    The payload is the base64 of the tensor's little-endian float64 bytes in C order,
    so every parameter stays one line of ASCII text.
    """
    with atomic_open(path) as fh:
        fh.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION} {config_hash}\n")
        for name, param in model.params.items():
            arr = param.array
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
