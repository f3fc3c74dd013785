"""Dual-stream encoder with cross-modal fusion at desk scale.

Vision and text streams are small pre-norm transformers; the fusion
stream adds cross-attention from text queries to vision states.  Each
encoder returns its mask with its states, as an `Encoded`, and `fuse`
reads both masks from its arguments: patch visibility enters the model
only at `encode_images`, and the pad rule lives only in `encode_texts`.
A model keeps the run's `RunConfig` as `config`: its sizes and vocabulary
come from there, and the training step reads its loss arm there too.

Every encoding holds a batch.  A stream is one 2-D tape tensor of stacked
rows, (rows, width), holding only the visible rows of its (batch, seq)
visibility mask, sample by sample, in every layer and in the `Encoded` an
encoder returns.  So the tape's affine maps (`ops.linear`, one node each),
adds, layer norms and GELUs see a batch as more rows and never compute a
hidden row, and no code downstream can read one.  Only attention, which
must not mix samples, reads the batch axis: `ops.masked_attention` lays
the rows into its per-sample grid from the masks, inside its one tape
node.  Texts are padded with [PAD] to the batch's longest sequence, and
pads are hidden like any masked row.  `Encoded.take` and `Fusable.take`
gather samples by batch index in one tape node per stream, so a negative,
a repeat or a subset of a batch costs no new encode.  `fuse` takes a batch
of texts, a batch of images and an (m, 2) pair index of (text, image)
batch indices, so the training step fuses every role of every pass
(positives, mined negatives, masked copies; unmasked and box-masked) in
one call, and the scorer passes a chunk's texts and images once each,
however many of its pairs share them.  The fuse's work that reads one
input, cross layer 0's text-only work (`fuse_texts`) and each cross
layer's image keys and values (`fuse_images`), runs once per distinct
input, and a pair's rows are gathered only where text meets image.
Training passes encodings, and `fuse` runs both halves in one call; the
scorer runs the one-input half beside its encodes and caches it as
`Fusable` batches, so it runs once per scorer, not once per fuse chunk.
`fuse` also takes a list of text positions per pair, the ones its caller
reads, and returns their rows pair by pair; its last cross layer computes
only those: its keys and values read every row, but its queries, output
maps and MLP run on the requested rows alone.  So the stacked-row layout
stays in this module.
The heads read little: the matching and box heads a [CLS] row per pair,
the masked-LM head the masked positions.  `project` maps the [CLS] rows
that `Encoded.cls_rows` gathers in one affine map, and `cross_cls` fuses
asking for position 0 only.

How the scorer batches its encodes and fuses, on `frozen` weights, is told
in `evalharness.model_scorer`.  Training and scoring encode through
`encode_images` and `encode_texts`.  `encode_images` checks its grids and
masks and stacks them, and `encode_image` encodes the stack, so every image
encode is one `encode_image` call, which the benchmark's tracer wraps.
`encode_text`, a batch of one, stays only because the tracer wraps it too.

The vision [CLS] token stays visible under every patch-visibility mask.
"""

from __future__ import annotations

import binascii
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
# holds many parameter lines (the longest default one is 87 kB): few reads, no whole file
CHECKPOINT_READ_BUFFER = 256 * 1024
# the contrastive temperature's initial value, as in CLIP, ALBEF and X-VLM
TEMPERATURE_INIT = 0.07


class Encoded(NamedTuple):
    """A batch of one stream: the stacked visible rows, and which slots are visible.

    The layers compute in this layout too: every stream `VLModel._block`
    and `fuse` read holds the visible rows of its mask, sample-major.
    """

    states: Tensor  # (visible.sum(), hidden_dim): the visible slots' rows, sample-major
    visible: np.ndarray  # (batch, seq) bool

    def take(self, samples: Sequence[int]) -> Encoded:
        """The encodings at these batch indices, in this order, as one `take_rows` node."""
        rows, visible = _sample_rows(self.visible, samples)
        return Encoded(tensor.take_rows(self.states, rows), visible)

    def cls_rows(self, n: int) -> Tensor:
        """The [CLS] rows of the first n samples, as one `take_rows` node."""
        return tensor.take_rows(self.states, ops.present_rows(self.visible)[:n, 0])


class Fusable(NamedTuple):
    """A batch of one stream as `VLModel.fuse` reads it: the fuse's work on each input alone.

    `VLModel.fuse_texts` and `fuse_images` tell what `parts` holds.  Each
    part stacks the visible rows of `visible`, sample-major, as
    `Encoded.states` does.
    """

    parts: tuple[Tensor, ...]
    visible: np.ndarray  # (batch, seq) bool

    def take(self, samples: Sequence[int]) -> Fusable:
        """The batch at these batch indices, in this order, as one `take_rows` node per part."""
        rows, visible = _sample_rows(self.visible, samples)
        return Fusable(tuple(tensor.take_rows(part, rows) for part in self.parts), visible)

    @staticmethod
    def stack(batches: Sequence[Fusable]) -> Fusable:
        """Batches of one sequence length as one batch, in order, as one `concat` node per part."""
        lengths = {batch.visible.shape[1] for batch in batches}
        if len(lengths) != 1:
            raise ShapeError(f"cannot stack encodings of sequence lengths {sorted(lengths)}")
        return Fusable(tuple(tensor.concat(list(parts), 0)
                             for parts in zip(*(batch.parts for batch in batches))),
                       np.concatenate([batch.visible for batch in batches]))


def _sample_rows(visible: np.ndarray, samples: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(rows, mask) of the samples at these batch indices: their stacked rows' index, their mask."""
    idx = np.asarray(samples, dtype=np.intp)
    picked = visible[idx]
    return ops.present_rows(visible)[idx][picked], picked


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
                    seq: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pairs, positions, picks) for each sample's text `positions` of a (batch, seq) text batch.

    Query row j reads position `positions[j]` of sample `pairs[j]`.  A sample's
    rows hold its list in order, padded with its [CLS] position 0 to the longest
    list, so every sample has the same number; `picks` gathers the requested
    rows back out of them, sample by sample.
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
    query_positions = np.zeros(batch * width, np.intp)
    query_positions[picks] = flat
    return np.repeat(np.arange(batch), width), query_positions, picks


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

    def _map(self, prefix: str, kind: str, x: Tensor) -> Tensor:
        """The map `kind` ("q", "k", "v" or "o") of the attention `prefix` on the rows `x`."""
        return ops.linear(x, self.params[f"{prefix}.w{kind}"], self.params[f"{prefix}.b{kind}"])

    def _key_values(self, prefix: str, x: Tensor) -> tuple[Tensor, Tensor]:
        """The attention `prefix`'s keys and values of the rows `x`, the keys projected first."""
        return self._map(prefix, "k", x), self._map(prefix, "v", x)

    def _attend(self, prefix: str, q: Tensor, key_values: Sequence[Tensor], mask: np.ndarray,
                samples: np.ndarray | None = None, queries: np.ndarray | None = None) -> Tensor:
        """The attention `prefix` from the projected query rows `q`, through its output map.

        The keys and values hold the visible rows of the (batch, seq) `mask`.
        `q` holds the visible rows of the (batch, seq) `queries` mask, or
        with None the same number of rows for each sample (see
        `ops.masked_attention`).  With `samples`, the keys and values hold
        distinct inputs, and query sample j attends to input `samples[j]`,
        which attention reads by index.
        """
        attended = ops.masked_attention(q, *key_values, mask, self.config.heads, queries, samples)
        return self._map(prefix, "o", attended)

    def _norm(self, name: str, x: Tensor) -> Tensor:
        """The layer norm `name` ("cross.0.ln1", say) of the rows `x`."""
        return ops.layer_norm(x, self.params[f"{name}_g"], self.params[f"{name}_b"])

    def _self_attention(self, prefix: str, x: Tensor, mask: np.ndarray) -> Tensor:
        """Layer `prefix`'s pre-norm self-attention with its residual, every row of `x` querying.

        `x` holds the visible rows of the (batch, seq) `mask`, sample-major.
        """
        attn = f"{prefix}.attn"
        normed = self._norm(f"{prefix}.ln1", x)
        q = self._map(attn, "q", normed)
        return tensor.add(x, self._attend(attn, q, self._key_values(attn, normed), mask,
                                          queries=mask))

    def _queried_attention(self, prefix: str, x: Tensor, normed: Tensor,
                           key_values: Sequence[Tensor], mask: np.ndarray, rows: np.ndarray,
                           samples: np.ndarray | None = None) -> Tensor:
        """Layer `prefix`'s self-attention with its residual, only the stacked `rows` querying.

        `x` and its layer norm 1 `normed` hold the visible rows of the
        (batch, seq) `mask`; `key_values` holds their keys and values, or
        nothing, and then they are projected here, after the query rows are
        taken.  The rows returned are `rows`, the same number per query
        sample.  With `samples`, `x` holds distinct inputs, and query sample
        j attends to input `samples[j]`.
        """
        attn = f"{prefix}.attn"
        x, q = tensor.take_rows(x, rows), self._map(attn, "q", tensor.take_rows(normed, rows))
        key_values = key_values or self._key_values(attn, normed)
        return tensor.add(x, self._attend(attn, q, key_values, mask, samples))

    def _mlp(self, prefix: str, x: Tensor) -> Tensor:
        """Layer `prefix`'s pre-norm MLP with its residual."""
        p = self.params
        hidden = ops.gelu(ops.linear(self._norm(f"{prefix}.ln2", x), p[f"{prefix}.mlp_w1"],
                                     p[f"{prefix}.mlp_b1"]))
        return tensor.add(x, ops.linear(hidden, p[f"{prefix}.mlp_w2"], p[f"{prefix}.mlp_b2"]))

    def _block(self, prefix: str, x: Tensor, mask: np.ndarray) -> Tensor:
        """One pre-norm encoder layer on `x`, the visible rows of the (batch, seq) `mask`."""
        return self._mlp(prefix, self._self_attention(prefix, x, mask))

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
        seen = token_mask[:, 1:]
        patches = Tensor(grids.reshape(batch * n, GRID_CHANNELS)[seen.reshape(-1)])
        emb = ops.linear(patches, self.params["vision.patch_w"], self.params["vision.patch_b"])
        # row 0 is the shared [CLS] row; each sample takes it, then its own visible patch rows
        order = np.zeros(token_mask.shape, dtype=np.intp)
        order[:, 1:][seen] = np.arange(1, len(emb.array) + 1)
        x = tensor.add(
            tensor.take_rows(tensor.concat([self.params["vision.cls"], emb], 0),
                             order[token_mask]),
            tensor.take_rows(self.params["vision.pos"], np.nonzero(token_mask)[1]))
        for i in range(cfg.vision_layers):
            x = self._block(f"vision.{i}", x, token_mask)
        return Encoded(x, token_mask)

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
        x = tensor.add(ops.embed(ids[pad_mask], self.params["text.emb"]),
                       tensor.take_rows(self.params["text.pos"], np.nonzero(pad_mask)[1]))
        for i in range(cfg.text_layers):
            x = self._block(f"text.{i}", x, pad_mask)
        return Encoded(x, pad_mask)

    def encode_text(self, token_ids: Sequence[int]) -> Encoded:
        return self.encode_texts([token_ids])

    def fuse_texts(self, texts: Encoded, scoring: bool = False) -> Fusable:
        """Each text's own fuse work: what cross layer 0 computes from the text alone.

        When layer 0 is not the last cross layer, its layer norm 1 and its
        whole self-attention read the text alone: `parts` holds the rows they
        return, with the residual, and with `scoring` also those rows'
        cross-attention queries (layer norm x, then the query map).  A last
        layer 0 queries only the positions each pair requests: `parts` holds
        the encoder's rows and their layer norm 1, and with `scoring` also
        their self-attention keys and values.

        `scoring` is for frozen weights.  On the tape, `fuse` runs those maps
        after its per-pair gather instead: there a weight's gradient sums
        the per-pair rows in one product, and the text rows' gradients sum
        in the order that the training tests pin.
        """
        x, mask = texts
        if self.config.cross_layers > 1:
            x = self._self_attention("cross.0", x, mask)
            if not scoring:
                return Fusable((x,), mask)
            return Fusable((x, self._map("cross.0.xattn", "q", self._norm("cross.0.lnx", x))),
                           mask)
        normed = self._norm("cross.0.ln1", x)
        return Fusable((x, normed, *(self._key_values("cross.0.attn", normed) if scoring else ())),
                       mask)

    def fuse_images(self, visions: Encoded) -> Fusable:
        """Each image's own fuse work: every cross layer's cross-attention keys and values.

        `parts` holds them layer by layer, the keys before the values.  No
        other work of the fuse reads the image states.
        """
        return Fusable(tuple(chain.from_iterable(
            self._key_values(f"cross.{i}.xattn", visions.states)
            for i in range(self.config.cross_layers))), visions.visible)

    def fuse(self, texts: Encoded | Fusable, visions: Encoded | Fusable, pairs,
             positions: Sequence[Sequence[int]]) -> Tensor:
        """The fused states at each pair's text `positions`, pair by pair, in list order.

        `pairs` is an (m, 2) index array: pair j fuses text `pairs[j, 0]` of
        `texts` with image `pairs[j, 1]` of `visions`, its text states
        cross-attended to the image's visible rows.  Every cross layer but
        the last runs on each pair's visible text rows.  The last one runs
        layer norm 1 and the self-attention keys and values on all of them
        as well, and the rest only on the requested positions, padded per
        pair with its [CLS] position to the longest list, so each pair keeps
        its own keys and key mask.  A position may be requested more than
        once, and a list may be empty; a hidden position queries from its
        pair's [CLS] row, and its row is zero.

        The fuse runs in two halves: the work that reads one input
        (`fuse_texts`, `fuse_images`), once per distinct input, then the
        work that reads a pair.  Given encodings, as in training, it runs
        both halves in this one call, the image projections hoisted ahead
        of the pair half in layer order, keys before values, so the backward
        sums their gradients into the vision states in the order a layer by
        layer projection would.  Given `Fusable` batches, as from the scorer's
        caches, it runs the pair half only.  The pair half gathers per pair
        where text meets image, and attention reads each image's keys and
        values by index.  The parameter gradients sum the same terms as a
        fuse of the batches gathered per pair first, in another order.  The
        values are that fuse's bit for bit only where the BLAS kernel
        computes a row of an affine map apart from how many rows share the
        product, since the two fuses run their maps on different row
        counts.  On OpenBLAS 0.3.31 that was measured to hold for its
        Sandybridge kernels at every count above one, and for its SkylakeX
        kernels at the shapes and counts of the tests and the default config
        (not at every shape: with 2 output columns, rows differ at counts up
        to 2,966).  Its Haswell and Nehalem kernels do not (under Haswell a
        row's bits depend on whether the count is odd), so there the two
        fuses can differ in their last bits.
        """
        if isinstance(texts, Encoded):
            texts = self.fuse_texts(texts)
        if isinstance(visions, Encoded):
            visions = self.fuse_images(visions)
        index = _pair_index(pairs, len(texts.visible), len(visions.visible))
        texts_of, images_of = index[:, 0], index[:, 1]
        mask = texts.visible
        query_pairs, query_positions, picks = _padded_queries(positions, len(index), mask.shape[1])
        pair_mask = mask[texts_of]
        keep = pair_mask[query_pairs, query_positions]
        query_positions[~keep] = 0  # a hidden position queries from its pair's [CLS] row
        last = self.config.cross_layers - 1
        cached = []  # layer 0's cross-attention queries per pair, when `texts` holds them
        if last:
            x, *cached = texts.take(texts_of).parts
        for i in range(last + 1):
            prefix = f"cross.{i}"
            if i == last and i:
                rows = ops.present_rows(pair_mask)[query_pairs, query_positions]
                x = self._queried_attention(prefix, x, self._norm(f"{prefix}.ln1", x), (),
                                            pair_mask, rows)
            elif i == last:  # the keys and values of distinct texts, read per pair by index
                x, normed, *key_values = texts.parts
                rows = ops.present_rows(mask)[texts_of[query_pairs], query_positions]
                x = self._queried_attention(prefix, x, normed, key_values, mask, rows, texts_of)
            elif i:
                x = self._self_attention(prefix, x, pair_mask)
            xattn = f"{prefix}.xattn"
            q = cached.pop() if cached else self._map(xattn, "q", self._norm(f"{prefix}.lnx", x))
            x = tensor.add(x, self._attend(xattn, q, visions.parts[2 * i:2 * i + 2],
                                           visions.visible, images_of,
                                           None if i == last else pair_mask))
            x = self._mlp(prefix, x)
        if not keep.all():
            x = tensor.mul(x, Tensor(keep.astype(np.float64).reshape(-1, 1)))
        return tensor.take_rows(x, picks)

    def cross_cls(self, texts: Encoded | Fusable, visions: Encoded | Fusable, pairs) -> Tensor:
        """(pairs, hidden_dim) fused [CLS] rows, the rows the matching and box heads read."""
        return self.fuse(texts, visions, pairs, [[0]] * len(pairs))

    def project(self, stream: str, cls_rows: Tensor) -> Tensor:
        """(rows, proj_dim) unit-norm projections of "img" or "txt" [CLS] rows, as
        `Encoded.cls_rows` gathers them."""
        return ops.l2_normalize(ops.linear(cls_rows, self.params[f"proj.{stream}_w"],
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
    """Write every parameter as a v2 checkpoint, atomically.

    A v2 checkpoint is ASCII text, one line per record, each ended by "\n".  The first
    line is the header `finegrain-checkpoint v2 <config hash>`; each further line is
    `name<TAB>shape<TAB>payload`, one per parameter in `model.params` order, where the
    shape is comma-separated decimal sizes and the payload is the standard base64, with
    padding, of the tensor's little-endian float64 values in C order.

    The file is written as bytes and streamed line by line, so no more than one
    parameter's payload is held at a time.  The encoder reads the array's own buffer
    when it is already C-ordered little-endian float64, and a converted copy otherwise;
    its output ends with the line's "\n".
    """
    with atomic_open(path) as fh:
        fh.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION} {config_hash}\n".encode("utf-8"))
        for name, param in model.params.items():
            shape = ",".join(str(n) for n in param.array.shape)
            fh.write(f"{name}\t{shape}\t".encode("utf-8"))
            fh.write(binascii.b2a_base64(memoryview(
                np.ascontiguousarray(param.array, dtype="<f8"))))


def load_checkpoint(model: VLModel, path: Path, expect_hash: str) -> None:
    """Load every parameter, or none: a truncated or malformed file is a DependencyError.

    The file is the v2 checkpoint that `save_checkpoint` describes; a line may also end
    in "\r\n", as a save in text mode on Windows once wrote it.  It is read as bytes,
    not text: only the header and each name and shape are decoded, and each payload
    goes to the strict base64 decoder as a view of the line it was read in, found
    between the line's first two tabs, with no copy.  The read buffer holds many lines,
    so a load makes few reads.  The base64 decode, about three quarters of a load, is the
    floor of its cost while the format stays.
    """
    path = Path(path)
    if not path.exists():
        raise DependencyError(f"checkpoint not found: {path}")
    arrays = {}
    try:
        with open(path, "rb", buffering=CHECKPOINT_READ_BUFFER) as fh:
            line = fh.readline()
            header = line.decode("utf-8").split()
            if not line.endswith(b"\n") or len(header) != 3 or header[0] != CHECKPOINT_MAGIC:
                raise DependencyError(f"not a checkpoint file: {path}")
            if header[1] != CHECKPOINT_VERSION:
                raise DependencyError(f"unsupported checkpoint version {header[1]}")
            if header[2] != expect_hash:
                raise DependencyError(
                    f"checkpoint belongs to config {header[2]}, expected {expect_hash}"
                )
            for line in fh:
                # a cut just before the last newline still leaves a complete payload
                if not line.endswith(b"\n"):
                    raise DependencyError(f"checkpoint {path} is truncated")
                end = len(line) - (2 if line.endswith(b"\r\n") else 1)
                # the payload is left unscanned; the strict decoder rejects a tab in it
                first = line.find(b"\t", 0, end)
                second = line.find(b"\t", first + 1, end)
                if second < 0:  # also when there is no tab at all
                    raise DependencyError(f"checkpoint {path} has a line with under 3 fields")
                name = line[:first].decode("utf-8")
                if name not in model.params:
                    raise DependencyError(f"unexpected parameter {name!r} in checkpoint")
                if name in arrays:
                    raise DependencyError(f"parameter {name!r} repeated in checkpoint")
                shape = tuple(int(n) for n in line[first + 1:second].split(b","))
                raw = binascii.a2b_base64(memoryview(line)[second + 1:end], strict_mode=True)
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
