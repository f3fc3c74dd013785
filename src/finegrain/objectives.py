"""Loss suite and the multi-pass training step.

A caption batch contributes contrastive + matching + masked-LM losses on
(full image, caption).  A detection batch contributes the same unmasked
triple on (full image, region text), then per configuration the visually
masked triple (vision and fusion attention restricted to patches touching
the target box) and the box-regression term; one gradient accumulation,
one update.

Every pass works on whole batches (`model` describes the stacked-row
layout), so its encoder and fusion calls do not grow with the batch.  A
step encodes and projects its texts once, padded to the longest: the
text encoder never sees the image, so the visually masked pass encodes
only the box-masked images and reuses the unmasked pass's text states
and text projection.  A pass encodes its images once and fuses once per
role: the positives; the matching negatives, which gather the texts by
mined index against all of the pass's visions; and the masked LM, which
encodes the masked copies of the samples that drew positions in one call
and fuses them with those samples' visions.  The masked-LM draws stay per
sample, in batch order.  The heads run once per call on stacked rows: one
image projection per pass, one matching-head call for all positives and
negatives, one masked-LM head call for the masked positions only, and one
box head and one box loss for the whole detection batch.  Matching
negatives are the hardest in-batch negatives by contrastive similarity,
one per positive, mined among samples whose underlying image differs.
The step reads which losses are on from the run's `RunConfig`; each pass
returns its terms by name, and the step returns their values and total.

The step and the losses trust their batch: `run_training` feeds them only
batches of `sampler_for_sources`, whose docstring names what it
guarantees, and `RunConfig` rejects a batch size below 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ops, tensor
from .config import RunConfig
from .errors import NumericError
from .model import Encoded, VLModel, position_token_insert
from .synthdata import Batch, BBox, DetectionSample, patches_touching
from .tensor import Tensor

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
                p.array = p.array - factor * p.grad
            p.zero_grad()


# -- individual losses --------------------------------------------------------


def contrastive_loss(image_feats: Tensor, text_feats: Tensor, temperature) -> Tensor:
    """Symmetric InfoNCE with matched pairs on the diagonal."""
    sims = tensor.matmul(image_feats, tensor.transpose(text_feats))
    scaled = tensor.div(sims, tensor.as_tensor(temperature))
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


def itm_loss(model: VLModel, visions: Encoded, texts: Encoded, positives: Tensor,
             sims: np.ndarray, grids: Sequence[np.ndarray]) -> Tensor:
    """Binary matching loss over the stacked positive rows and one mined negative each.

    Mining ranks `sims`; a negative fuses another sample's text with this
    sample's vision, under the patch mask that vision was encoded with.
    """
    n = positives.shape[0]
    negatives = model.cross_cls(texts.take(mine_hard_negatives(sims, grids)), visions)
    logits = model.itm_logits(tensor.concat_rows([positives, negatives]))
    return ops.softmax_cross_entropy(logits, [1] * n + [0] * n)


def select_mask_positions(token_ids: Sequence[int], vocab, rng: np.random.Generator) -> list[int]:
    maskable = [i for i, t in enumerate(token_ids) if vocab.is_maskable(t)]
    return [i for i in maskable if rng.random() < MLM_MASK_RATE]


def mlm_loss(model: VLModel, token_batches: Sequence[Sequence[int]], visions: Encoded,
             rng: np.random.Generator) -> Tensor | None:
    """Masked-LM loss fused against the pass's encoded visions; selected tokens become [MASK].

    When the batch draws zero positions the selection is resampled once;
    None means that draw was empty too, and the term is skipped.
    """
    vocab = model.config.vocab
    selections = [select_mask_positions(ids, vocab, rng) for ids in token_batches]
    if not any(selections):
        selections = [select_mask_positions(ids, vocab, rng) for ids in token_batches]
    if not any(selections):
        return None
    items = [item for item, positions in enumerate(selections) if positions]
    masked_ids = []
    for item in items:
        masked = list(token_batches[item])
        for pos in selections[item]:
            masked[pos] = vocab.mask_id
        masked_ids.append(masked)
    masked_texts = model.encode_texts(masked_ids)
    fused = model.fuse(masked_texts, visions.take(items))
    seq = masked_texts.visible.shape[1]
    rows = [k * seq + pos for k, item in enumerate(items) for pos in selections[item]]
    targets = [token_batches[item][pos] for item in items for pos in selections[item]]
    logits = model.mlm_logits(tensor.take_rows(fused, rows))
    return ops.softmax_cross_entropy(logits, targets)


def visual_mask_from_bbox(bbox: BBox, grid_size: int) -> np.ndarray:
    """Patch visible iff its cell intersects the box with positive area."""
    mask = np.zeros((grid_size, grid_size), dtype=bool)
    for row, col in patches_touching(bbox, grid_size):
        mask[row, col] = True
    return mask


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


def _pevl_ids(model: VLModel, sample: DetectionSample) -> list[int]:
    cfg = model.config
    tokens = position_token_insert(sample.text.split(), sample.bbox, cfg.pevl_bins,
                                   sample.entity_span_end)
    return cfg.vocab.encode_wrapped(tokens)


def pass_losses(model: VLModel, visions: Encoded, texts: Encoded, text_feats: Tensor,
                ids: Sequence[Sequence[int]], grids: Sequence[np.ndarray],
                rng: np.random.Generator) -> tuple[Tensor, dict[str, Tensor]]:
    """(stacked fused [CLS] rows, terms) of a pass; `text_feats` projects `texts`.

    The terms are "cl" and "itm", plus "mlm" when at least one position is drawn.
    """
    image_feats = model.project("img", visions)
    cl = contrastive_loss(image_feats, text_feats, model.temperature())
    positives = model.cross_cls(texts, visions)
    itm = itm_loss(model, visions, texts, positives, image_feats.array @ text_feats.array.T,
                   grids)
    terms = {"cl": cl, "itm": itm}
    mlm = mlm_loss(model, ids, visions, rng)
    if mlm is not None:
        terms["mlm"] = mlm
    return positives, terms


def vma_losses(model: VLModel, texts: Encoded, text_feats: Tensor,
               ids: Sequence[Sequence[int]], samples: Sequence[DetectionSample],
               rng: np.random.Generator) -> dict[str, Tensor]:
    """The pass on box-masked images, reading the unmasked pass's `texts` and `text_feats`.

    Its terms are named as the unmasked pass's, with a "vma_" prefix.
    """
    grids = [s.scene.grid for s in samples]
    masks = [visual_mask_from_bbox(s.bbox, model.config.patch_grid) for s in samples]
    visions = model.encode_images(grids, masks)
    _, terms = pass_losses(model, visions, texts, text_feats, ids, grids, rng)
    return {f"vma_{name}": loss for name, loss in terms.items()}


def training_step(model: VLModel, batch: Batch, config: RunConfig, optimizer: SgdOptimizer,
                  rng: np.random.Generator) -> tuple[dict[str, float], float]:
    """Run every active pass for one batch, then apply a single update.

    Returns the active terms' values by name, in `LOSS_COMPONENTS` order, and
    their tape total's value.  Position tokens follow the model's vocabulary.
    """
    is_detection = batch.kind == "detection"
    grids = [s.scene.grid for s in batch.samples]
    pevl = is_detection and model.config.use_pevl_tokens
    vocab = model.config.vocab
    ids = [_pevl_ids(model, s) if pevl else vocab.encode_wrapped(s.text) for s in batch.samples]

    texts = model.encode_texts(ids)
    text_feats = model.project("txt", texts)
    visions = model.encode_images(grids)
    positives, terms = pass_losses(model, visions, texts, text_feats, ids, grids, rng)
    if is_detection and config.use_vma:
        terms |= vma_losses(model, texts, text_feats, ids, batch.samples, rng)
    if is_detection and config.use_bbox:
        terms["bbox"] = bbox_loss_terms(model.bbox_corners(positives),
                                        [s.bbox for s in batch.samples])

    total = tensor.add_scalars(list(terms.values()))
    total.backward()
    optimizer.step()

    return {name: t.item() for name, t in terms.items()}, total.item()
