"""Loss suite and the multi-pass training step.

A caption batch contributes contrastive + matching + masked-LM losses on
(full image, caption).  A detection batch contributes the same unmasked
triple on (full image, region text), then per configuration the visually
masked triple (vision and fusion attention restricted to the target box's
`synthdata.patch_mask`, the patches its object is drawn on) and the
box-regression term; one gradient accumulation, one update.

Every step works on whole batches, so its encoder and fusion calls grow
neither with the batch nor with its passes.  A step first draws each
pass's masked-LM positions, per sample in batch order, unmasked pass
first.  It then encodes its texts and every pass's masked copies in one
`encode_texts` call, padded to the batch's longest (a copy has its
original's length), and projects the batch's texts once: the text encoder
never sees the image, so the visually masked pass reuses them.  It encodes
its images once: one `encode_images` call holds the batch's grids once per
pass, unmasked first, then with VMA under their box masks, and one image
projection maps them all.  It fuses once: pass after pass, the pairs index
the text roles [positives | mined negatives | the pass's masked copies]
against [its visions | its visions | each copy's vision].  The fuse takes
each role's text positions and returns, and computes in its last layer,
only the rows the heads read: per pass, the [CLS] row of each of the 2n
positives and negatives, then each copy's masked positions.  Each pass
reads its terms from its slice of those rows (`pass_losses`, and
`vma_losses` for the box-masked pass): one matching-head call for its
positives and negatives, one masked-LM head call for its masked positions
only; one box head and one box loss read the detection batch's positives.
Matching negatives are the hardest in-batch negatives by contrastive
similarity, one per positive, mined among the pass's samples whose
underlying image differs.  The step reads which losses are on from the
model's `RunConfig`; each pass returns its terms by name, and the step
returns their values and total.

The step and the losses trust their batch: `run_training` feeds them only
batches of `sampler_for_sources`, whose docstring names what it
guarantees, and `RunConfig` rejects a batch size below 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import ops, tensor
from .config import RunConfig
from .errors import NumericError
from .model import Encoded, VLModel
from .synthdata import Batch, BBox, patch_mask
from .tensor import Tensor
from .vocab import position_token_insert

LOSS_COMPONENTS = ("cl", "itm", "mlm", "vma_cl", "vma_itm", "vma_mlm", "bbox")

MLM_MASK_RATE = 0.15


@dataclass
class SgdOptimizer:
    """Plain gradient descent with global gradient-norm clipping."""

    params: list
    lr: float
    clip_norm: float

    def step(self) -> None:
        grads = [p.grad for p in self.params if p.grad is not None]
        norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads))) if grads else 0.0
        if not np.isfinite(norm):
            raise NumericError(f"non-finite gradient norm {norm}; no parameter updated")
        factor = self.lr
        if self.clip_norm and norm > self.clip_norm:
            factor = self.lr * self.clip_norm / norm
        for p in self.params:
            if p.grad is not None:
                p.array -= factor * p.grad
            p.zero_grad()


# -- individual losses --------------------------------------------------------


def contrastive_loss(image_feats: Tensor, text_feats: Tensor, temperature: Tensor) -> Tensor:
    """Symmetric InfoNCE with matched pairs on the diagonal."""
    sims = tensor.matmul(image_feats, tensor.transpose(text_feats))
    scaled = tensor.div(sims, temperature)
    diagonal = list(range(image_feats.shape[0]))
    i2t = ops.softmax_cross_entropy(scaled, diagonal)
    t2i = ops.softmax_cross_entropy(tensor.transpose(scaled), diagonal)
    return tensor.scale(tensor.add(i2t, t2i), 0.5)


def mine_hard_negatives(sim_values: np.ndarray, grids: Sequence[np.ndarray]) -> list[int]:
    """Hardest text index per image among samples with a different image."""
    picks = []
    for i in range(sim_values.shape[0]):
        candidates = [j for j, grid in enumerate(grids) if not np.array_equal(grids[i], grid)]
        picks.append(candidates[int(np.argmax(sim_values[i, candidates]))])
    return picks


def itm_loss(model: VLModel, fused: Tensor, rows: Sequence[int]) -> Tensor:
    """Binary matching loss read off the `rows` of a step's fused rows.

    The first half of `rows` holds the positives' fused [CLS] rows, and the
    second half their mined negatives', each fused with the positive's vision.
    """
    n = len(rows) // 2
    logits = model.itm_logits(tensor.take_rows(fused, rows))
    return ops.softmax_cross_entropy(logits, [1] * n + [0] * n)


def select_mask_positions(token_ids: Sequence[int], vocab, rng: np.random.Generator) -> list[int]:
    maskable = [i for i, t in enumerate(token_ids) if vocab.is_maskable(t)]
    return [i for i in maskable if rng.random() < MLM_MASK_RATE]


class MaskedLM(NamedTuple):
    """A pass's masked copies of the batch's texts.

    Copy k, `copies[k]`, is sample `items[k]` with `positions[k]` set to
    [MASK]; `targets` holds the original ids at those positions, copy by copy.
    Where the copies sit in the step's text batch is counted by
    `fused_losses`, from the passes before.
    """

    items: list[int]
    positions: list[list[int]]
    copies: list[list[int]]
    targets: list[int]


def draw_masked_lm(ids: Sequence[Sequence[int]], vocab, rng: np.random.Generator) -> MaskedLM:
    """A pass's masked copies of `ids`.

    Positions are drawn per sample, in batch order.  When the batch draws
    zero positions the draw is repeated once; if that draw is empty too, so is
    the record, and the pass has no masked-LM term.
    """
    selections = [select_mask_positions(t, vocab, rng) for t in ids]
    if not any(selections):
        selections = [select_mask_positions(t, vocab, rng) for t in ids]
    items = [item for item, positions in enumerate(selections) if positions]
    positions = [selections[item] for item in items]
    copies = []
    for item, picks in zip(items, positions):
        copy = list(ids[item])
        for pos in picks:
            copy[pos] = vocab.mask_id
        copies.append(copy)
    targets = [ids[item][pos] for item, picks in zip(items, positions) for pos in picks]
    return MaskedLM(items, positions, copies, targets)


def encode_step_texts(model: VLModel, ids: Sequence[Sequence[int]], passes: int,
                      rng: np.random.Generator) -> tuple[Encoded, Tensor, list[MaskedLM]]:
    """(texts, text_feats, each pass's masked copies): the step's one text encode.

    Each pass draws its masked-LM positions, in pass order, before anything
    is encoded, so one `encode_texts` holds the batch's texts and then every
    pass's copies, pass after pass: a pass's copies follow the batch's texts
    and the copies of the passes before it.  A copy has its original's
    length, so the padding is the batch's.  `text_feats` projects the batch's
    texts.
    """
    masked = [draw_masked_lm(ids, model.config.vocab, rng) for _ in range(passes)]
    texts = model.encode_texts([*ids, *(copy for draw in masked for copy in draw.copies)])
    return texts, model.project("txt", texts.cls_rows(len(ids))), masked


def mlm_loss(model: VLModel, fused: Tensor, rows: Sequence[int], targets: Sequence[int]) -> Tensor:
    """Masked-LM loss over the `rows` of `fused` that hold the masked positions, against their
    original ids."""
    logits = model.mlm_logits(tensor.take_rows(fused, rows))
    return ops.softmax_cross_entropy(logits, targets)


def _area(extent: Tensor) -> Tensor:
    """(n, 1) areas of (n, 2) rectangle extents (width, height)."""
    return tensor.mul(tensor.slice_cols(extent, 0, 1), tensor.slice_cols(extent, 1, 2))


def bbox_loss_terms(pred_corners: Tensor, targets: Sequence[BBox]) -> Tensor:
    """Mean over rows of L1 over corner coordinates plus (1 - generalized IoU).

    `pred_corners` has one (x1, y1, x2, y2) row per target.  Every max/min
    takes the prediction first, so a tie routes the gradient to the prediction.
    """
    t = np.array([b.corners() for b in targets])
    l1 = tensor.tsum(tensor.absolute(tensor.sub(pred_corners, Tensor(t))))
    lo, hi = tensor.slice_cols(pred_corners, 0, 2), tensor.slice_cols(pred_corners, 2, 4)
    t_lo, t_hi = Tensor(t[:, :2]), Tensor(t[:, 2:])
    inter = _area(tensor.maximum(tensor.sub(tensor.minimum(hi, t_hi),
                                            tensor.maximum(lo, t_lo)), Tensor(0.0)))
    union = tensor.sub(tensor.add(_area(tensor.sub(hi, lo)), _area(tensor.sub(t_hi, t_lo))),
                       inter)
    iou = tensor.div(inter, union)
    enclose = _area(tensor.sub(tensor.maximum(hi, t_hi), tensor.minimum(lo, t_lo)))
    giou = tensor.sub(iou, tensor.div(tensor.sub(enclose, union), enclose))
    penalty = tensor.sub(Tensor(1.0), giou)
    return tensor.scale(tensor.add(l1, tensor.tsum(penalty)), 1.0 / len(targets))


# -- batch-level composition -----------------------------------------------------


def step_ids(config: RunConfig, batch: Batch) -> list[list[int]]:
    """Each sample's token ids as the step encodes them; PEVL puts a detection's box in its text."""
    if batch.kind == "detection" and config.arm.pevl:
        return [config.vocab.encode_wrapped(position_token_insert(
            s.text.split(), s.bbox, s.entity_span_end)) for s in batch.samples]
    return [config.vocab.encode_wrapped(s.text) for s in batch.samples]


def fused_losses(model: VLModel, texts: Encoded, text_feats: Tensor,
                 grids: Sequence[np.ndarray], masked: Sequence[MaskedLM],
                 box_masks: Sequence[np.ndarray] | None) -> tuple[Tensor, dict[str, Tensor]]:
    """(fused rows, terms) of a step's passes, from one image encode, projection and fuse.

    `texts` is the step's text batch: the batch's texts first, which
    `text_feats` projects, then each pass's masked copies, pass after pass.
    `masked` holds each pass's draw, the unmasked pass's first; with a second
    draw, `box_masks` masks the second pass's copy of the grids, and is None
    without one.  The fused rows run pass after pass, each pass's laid out as
    `pass_losses` reads them, so the first n are the unmasked positives'
    [CLS] rows.  The first loop counts where each pass's copies start in
    `texts`, the second where each pass's rows start in the fused output.
    """
    n = len(grids)
    visions = model.encode_images(
        list(grids) * len(masked), None if box_masks is None else [None] * n + list(box_masks))
    image_feats = model.project("img", visions.cls_rows(len(visions.visible)))
    sims = image_feats.array @ text_feats.array.T
    pairs, positions, first_copy = [], [], n
    for p, draw in enumerate(masked):
        negatives = mine_hard_negatives(sims[p * n:(p + 1) * n], grids)
        text_roles = [*range(n), *negatives, *range(first_copy, first_copy + len(draw.copies))]
        vision_roles = [*range(n), *range(n), *draw.items]
        pairs.append(np.column_stack((text_roles, np.add(vision_roles, p * n))))
        positions += [[0]] * (2 * n) + draw.positions  # [CLS] of positives and negatives first
        first_copy += len(draw.copies)
    fused = model.fuse(texts, visions, np.concatenate(pairs), positions)
    terms, first_row = {}, 0
    for p, (draw, losses) in enumerate(zip(masked, (pass_losses, vma_losses))):
        terms |= losses(model, fused, first_row,
                        tensor.take_rows(image_feats, np.arange(p * n, (p + 1) * n)),
                        text_feats, draw)
        first_row += 2 * n + len(draw.targets)
    return fused, terms


def pass_losses(model: VLModel, fused: Tensor, first: int, image_feats: Tensor,
                text_feats: Tensor, masked: MaskedLM) -> dict[str, Tensor]:
    """A pass's terms, from its images' projections and its fused rows `first` onward.

    Its rows are the 2n [CLS] rows of the positives and negatives, then its
    copies' masked positions.  The terms are "cl" and "itm", plus "mlm" when
    `masked` holds copies.
    """
    n = len(image_feats.array)
    terms = {"cl": contrastive_loss(image_feats, text_feats, model.temperature()),
             "itm": itm_loss(model, fused, range(first, first + 2 * n))}
    if masked.targets:
        first += 2 * n
        terms["mlm"] = mlm_loss(model, fused, range(first, first + len(masked.targets)),
                                masked.targets)
    return terms


def vma_losses(model: VLModel, fused: Tensor, first: int, image_feats: Tensor,
               text_feats: Tensor, masked: MaskedLM) -> dict[str, Tensor]:
    """The box-masked pass's terms, read as `pass_losses` reads them, with a "vma_" prefix."""
    terms = pass_losses(model, fused, first, image_feats, text_feats, masked)
    return {f"vma_{name}": loss for name, loss in terms.items()}


def training_step(model: VLModel, batch: Batch, optimizer: SgdOptimizer,
                  rng: np.random.Generator) -> tuple[dict[str, float], float]:
    """Run every pass `model.config` turns on for one batch, then apply a single update.

    Returns the active terms' values by name, in `LOSS_COMPONENTS` order, and
    their tape total's value.
    """
    arm = model.config.arm
    is_detection = batch.kind == "detection"
    grids = [s.scene.grid for s in batch.samples]
    ids = step_ids(model.config, batch)
    box_masks = None
    if is_detection and arm.vma:
        box_masks = [patch_mask(s.bbox, model.config.patch_grid) for s in batch.samples]
    texts, text_feats, masked = encode_step_texts(model, ids, 1 if box_masks is None else 2, rng)
    fused, terms = fused_losses(model, texts, text_feats, grids, masked, box_masks)
    if is_detection and arm.bbox:
        positives = tensor.take_rows(fused, np.arange(len(ids)))
        terms["bbox"] = bbox_loss_terms(model.bbox_corners(positives),
                                        [s.bbox for s in batch.samples])

    total = tensor.add_scalars(list(terms.values()))
    total.backward()
    optimizer.step()

    return {name: t.item() for name, t in terms.items()}, total.item()
