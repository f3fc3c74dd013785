"""Zero-shot scoring protocols over matching scores.

`SUBTASKS` is the one table of how each subtask is built and scored: the
`make_foils` source of its items, the (scene, text) cells scored per item,
and the protocol that scores them.

Every protocol uses strict inequalities: a tie is scored as incorrect.
Accuracies based purely on comparisons are therefore invariant under any
strictly increasing transform of the scores; the 50%-threshold protocol
is the one exception since it anchors to the 0.5 level.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import EmptyInputError, FoilCapabilityError, ValidationError
from .fileio import atomic_open, write_table
from .model import Fusable, VLModel
from .synthdata import FoilPair, Scene, caption_of, generate_scene, make_foils

FOIL_GROUP_SUBTASKS = ("existence", "counting", "object_swap", "attribute_swap")
PAIRWISE_SUBTASKS = ("svo_subject", "svo_verb", "svo_object")
THRESHOLD_SUBTASK = "relation_statement"
QUAD_SUBTASK = "relation_swap"

Scorer = Callable[[Scene, str], float]


@dataclass(frozen=True)
class EvalReport:
    """One scoring run's record; `metrics` and `counts` are computed from it.

    `cells`: subtask tag, in manifest order -> (items, cells) scores, with
    columns in `SUBTASKS[tag].cells` order.  `retrieval`: the retrieval table, or None.
    """

    checkpoint_step: int
    cells: dict[str, np.ndarray]
    retrieval: np.ndarray | None = None

    @functools.cached_property
    def _scored(self) -> dict[str, tuple[float, int]]:
        """Each metric's value and item count."""
        scored = {name: (value, len(rows)) for tag, rows in self.cells.items()
                  for name, value in subtask_metrics(tag, rows).items()}
        foils = [scored[t] for t in FOIL_GROUP_SUBTASKS if t in scored]
        if foils:
            scored["foil_avg"] = (float(np.mean([v for v, _ in foils])), sum(n for _, n in foils))
        if self.retrieval is not None:
            tr1, ir1 = retrieval_recall(self.retrieval)
            n = len(self.retrieval)
            scored.update({"retrieval_tr@1": (tr1, n), "retrieval_ir@1": (ir1, n)})
        return scored

    @property
    def metrics(self) -> dict[str, float]:
        return {name: value for name, (value, _) in self._scored.items()}

    @property
    def counts(self) -> dict[str, int]:
        return {name: count for name, (_, count) in self._scored.items()}

    def rows(self) -> list[tuple[str, float, int]]:
        return [(name, *self._scored[name]) for name in sorted(self._scored)]


# The most stacked rows one batched call of the scorer takes: an encode of
# grids or of texts with their own fuse work, or a fuse of pairs.  A chunk's activations
# grow with its rows; the bound keeps them near those of scoring pair by pair, and is
# large enough to cost no speed.  The caches grow with the distinct inputs instead, for
# the scorer's lifetime: a grid keeps 2 x cross_layers blocks of its rows, its
# cross-attention keys and values (4x the encoder states they replace at the default
# config), and a text its `fuse_texts` parts (2x its states there).  At the default
# config the study manifest's 932 grids and 489 texts cache about 38 MB.
CHUNK_ROWS = 512


def _length_chunks(items, length_of: Callable[..., int]):
    """`items` grouped by `length_of(item)`, the rows each stacks, in first-seen order.

    Each group is cut into runs of at most `CHUNK_ROWS` rows, or of one item.
    """
    groups: dict[int, list] = {}
    for item in items:
        groups.setdefault(length_of(item), []).append(item)
    for length, group in groups.items():
        step = max(1, CHUNK_ROWS // length)
        yield from (group[lo:lo + step] for lo in range(0, len(group), step))


def _encode_new(cache: dict, new: dict, encode: Callable, rows_of: Callable[..., int]) -> None:
    """Encode the `new` inputs, key -> input, into `cache`, one `encode` call per chunk.

    The chunks are `_length_chunks` of the keys, each input stacking
    `rows_of(input)` rows.  Each input is cached as its chunk's batch and its
    index there, so the batch holds the one copy of each of its inputs.
    """
    for chunk in _length_chunks(new, lambda key: rows_of(new[key])):
        batch = encode([new[key] for key in chunk])
        cache.update((key, (batch, b)) for b, key in enumerate(chunk))


def _batch_of(cache: dict, keys) -> tuple[Fusable, dict]:
    """The distinct cached inputs `keys` as one batch, and each key's index in it.

    When every key was encoded in one batch, that batch is read in place;
    otherwise each batch's keys are taken from it and the takes are stacked.
    """
    groups: dict[int, list] = {}  # the keys by the batch they were encoded in, in order
    for key in keys:
        groups.setdefault(id(cache[key][0]), []).append(key)
    if len(groups) == 1:
        batch, _ = cache[key]  # every key's batch
        return batch, {key: cache[key][1] for key in keys}
    stacked = Fusable.stack([cache[group[0]][0].take([cache[key][1] for key in group])
                             for group in groups.values()])
    return stacked, {key: i for i, key in enumerate(chain.from_iterable(groups.values()))}


def model_scorer(model: VLModel, manifest: dict | None = None) -> Scorer:
    """Score a pair as the matching probability of `model`'s fused [CLS] row.

    The scorer caches each input's own fuse work, and each pair's score, for
    its own lifetime, so build one scorer per set of weights: its caches never
    see them change.  Images are keyed by the grid's shape and bytes (scenes
    compare by identity, so equal grids from two scenes share one entry),
    and texts by the text.  Every distinct input is encoded once, and its
    own fuse work runs once.

    Building the scorer scores every pair that `run_benchmark` scores for
    `manifest`, collected by a dry run of `run_benchmark` itself, so each
    call for such a pair is a lookup.  A pair not yet scored, as with no
    manifest, is scored on its own, as a batch of one.  Scoring a set of
    pairs runs in three steps, and every step groups its rows by one rule
    (`_length_chunks`): by the rows each input stacks, in first-seen order,
    in chunks of at most `CHUNK_ROWS` stacked rows.
    - the new grids, then the new texts, are encoded by one loop
      (`_encode_new`): one `encode_images` or `encode_texts` call per
      chunk, so the per-call overhead is paid once per chunk, not once
      per input.  Every grid stacks `num_patches + 1` rows (30 grids per
      chunk at the default config), and a text chunk holds one token
      length, so no [PAD] row is encoded.  Its states equal those of its
      batch of one byte for byte only where the BLAS kernel computes a
      row of an affine map apart from how many rows share the product.
      At the default config that was measured on OpenBLAS 0.3.31's
      SkylakeX and Sandybridge kernels; on its Haswell and Nehalem
      kernels a row's bits depend on the row count.  Padding a text to a
      longer one does not keep the bytes;
    - the same chunk runs the fuse's work that reads one input: every
      cross layer's cross-attention keys and values of a grid
      (`VLModel.fuse_images`), and cross layer 0's text-only work and
      cross-attention queries of a text (`VLModel.fuse_texts`, scoring).
      The chunk's batch of that work is cached, and each input as that
      batch and its index there, in place of its encoding, which nothing
      reads again: one copy per input, computed once per scorer however
      many fuse chunks read the input;
    - the distinct pairs are fused one chunk per call, grouped by their
      text's token length.  A chunk's fuse takes a batch of texts and a
      batch of grids that hold each of its inputs once, and a pair index
      into them (`_batch_of`): a cached batch itself when every one of the
      chunk's inputs of that modality is in it, as in a 24 x 24 table,
      and otherwise the inputs taken from their batches and stacked.  It
      runs only the work that reads a pair: the per-pair gather, the
      cross-attention, the output maps and the MLPs, and in its last layer
      only the [CLS] rows (`cross_cls`; see `VLModel.fuse`).
    A batched score can differ from the same pair's score at batch one in
    its last bits: the last layer's [CLS] queries and the matching head's
    product run on another row count.

    Everything runs on `model.frozen()`, so nothing is recorded on the tape
    and a cached input holds its values only, not the forward graph that
    computed them.
    """
    model = model.frozen()
    vocab = model.config.vocab
    grid_rows = model.config.num_patches + 1
    images: dict[tuple, tuple[Fusable, int]] = {}  # key -> (its encode batch, its index)
    texts: dict[str, tuple[Fusable, int]] = {}
    scores: dict[tuple, float] = {}

    def key_of(scene: Scene, text: str) -> tuple:
        return (scene.grid.shape, scene.grid.tobytes()), text

    def score_pairs(pairs) -> None:
        """Encode the pairs' new inputs, then fuse each distinct pair, none scored yet."""
        keys: dict[tuple, None] = {}  # distinct pair keys, in order
        grids: dict[tuple, np.ndarray] = {}  # distinct new grids, in order
        ids: dict[str, list[int]] = {}  # distinct new texts' token ids, in order
        for scene, text in pairs:
            key = key_of(scene, text)
            keys[key] = None
            if key[0] not in images:
                grids[key[0]] = scene.grid
            if text not in texts and text not in ids:
                ids[text] = vocab.encode_wrapped(text)
        _encode_new(images, grids, lambda batch: model.fuse_images(model.encode_images(batch)),
                    lambda grid: grid_rows)
        _encode_new(texts, ids, lambda batch: model.fuse_texts(model.encode_texts(batch),
                                                               scoring=True), len)
        for chunk in _length_chunks(keys, lambda key: texts[key[1]][0].visible.shape[1]):
            text_batch, text_index = _batch_of(texts, dict.fromkeys(text for _, text in chunk))
            image_batch, grid_index = _batch_of(images, dict.fromkeys(grid for grid, _ in chunk))
            cls = model.cross_cls(text_batch, image_batch,
                                  [(text_index[text], grid_index[grid]) for grid, text in chunk])
            scores.update(zip(chunk, model.matching_probabilities(cls).tolist()))

    def score(scene: Scene, text: str) -> float:
        key = key_of(scene, text)
        if key not in scores:
            score_pairs([(scene, text)])
        return scores[key]

    if manifest is not None:
        pairs = []
        run_benchmark(lambda *pair: pairs.append(pair) or 0.0, manifest)
        score_pairs(pairs)
    return score


# -- protocols -------------------------------------------------------------------


def _rows(rows, what: str) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if not rows.size:
        raise EmptyInputError(f"{what} needs at least one item")
    return rows


def pairwise_ranking_accuracy(rows) -> float:
    """Share of (pos, neg) rows that score the positive above the negative."""
    rows = _rows(rows, "pairwise ranking")
    return int((rows[:, 0] > rows[:, 1]).sum()) / len(rows)


def threshold_accuracy(rows) -> float:
    """Share of statements on the right side of 0.5, over (true, false) rows."""
    rows = _rows(rows, "threshold accuracy")
    return int((rows[:, 0] > 0.5).sum() + (rows[:, 1] < 0.5).sum()) / rows.size


def winoground_scores(rows) -> tuple[float, float, float]:
    """Text, image and group accuracy over rows (c0_i0, c0_i1, c1_i0, c1_i1).

    cJ_iK scores caption J with image K; caption J belongs to image J.
    """
    c0_i0, c0_i1, c1_i0, c1_i1 = _rows(rows, "winoground scoring").T
    text_ok = (c0_i0 > c1_i0) & (c1_i1 > c0_i1)
    image_ok = (c0_i0 > c0_i1) & (c1_i1 > c1_i0)
    return tuple(int(ok.sum()) / len(ok) for ok in (text_ok, image_ok, text_ok & image_ok))


def retrieval_recall(table: np.ndarray) -> tuple[float, float]:
    """R@1 for rows (text retrieval) and columns (image retrieval).

    Ties rank the lower index first, so results are deterministic.
    """
    table = np.asarray(table, dtype=np.float64)
    n = table.shape[0]
    if table.shape != (n, n):
        raise ValidationError(f"retrieval table must be square, got {table.shape}")

    def recall_rows(m: np.ndarray) -> float:
        diag = np.diag(m)[:, None]
        # entry (i, j) ranks above the match (i, i): higher, or tied at a lower index
        better = (m > diag) | ((m == diag) & np.tri(n, k=-1, dtype=bool))
        return int((~better.any(axis=1)).sum()) / n

    return recall_rows(table), recall_rows(table.T)


# -- benchmark manifest ----------------------------------------------------------


class Subtask(NamedTuple):
    foil: str  # the `make_foils` source of its items
    cells: tuple  # scored per item, as (dump role, scene field, text field, label)
    protocol: Callable  # scores its (items, cells) rows


_TEXT_FOIL = (("positive", "pos_scene", "pos_text", 1), ("negative", "pos_scene", "neg_text", 0))
_IMAGE_FOIL = (("positive", "pos_scene", "pos_text", 1), ("negative", "neg_scene", "pos_text", 0))

# Every subtask, in manifest order.
SUBTASKS: dict[str, Subtask] = {
    **{tag: Subtask(tag, _TEXT_FOIL, pairwise_ranking_accuracy) for tag in FOIL_GROUP_SUBTASKS},
    **{tag: Subtask(tag, _IMAGE_FOIL, pairwise_ranking_accuracy) for tag in PAIRWISE_SUBTASKS},
    # the two statements are the quad's captions, on its first image
    THRESHOLD_SUBTASK: Subtask(QUAD_SUBTASK, (("true", "pos_scene", "pos_text", 1),
                                              ("false", "pos_scene", "neg_text", 0)),
                               threshold_accuracy),
    QUAD_SUBTASK: Subtask(QUAD_SUBTASK, (
        ("c0_i0", "pos_scene", "pos_text", 1), ("c0_i1", "neg_scene", "pos_text", 0),
        ("c1_i0", "pos_scene", "neg_text", 0), ("c1_i1", "neg_scene", "neg_text", 1),
    ), winoground_scores),
}


def default_manifest(eval_seed: int, per_subtask: int, grid_size: int,
                     retrieval_count: int) -> dict:
    manifest = {
        "grid_size": grid_size,
        "subtasks": [
            {"tag": tag, "seed": eval_seed, "count": per_subtask}
            for tag in SUBTASKS
        ],
    }
    if retrieval_count:
        manifest["retrieval"] = {"seed": eval_seed, "count": retrieval_count}
    return manifest


# The study manifest (200 items per subtask, a 64-scene retrieval table)
# reads 413 distinct scenes; the memo holds them all.
@functools.lru_cache(maxsize=512)
def _scene(seed: int, index: int, grid_size: int) -> Scene:
    """`generate_scene`, memoised: `subtask_items` and `retrieval_table` share their scenes."""
    return generate_scene(seed, index, grid_size)


@functools.lru_cache(maxsize=len(SUBTASKS))
def subtask_items(tag: str, seed: int, count: int, grid_size: int) -> tuple[FoilPair, ...]:
    """First `count` deterministic scenes that support the subtask.

    A pure function of its arguments, memoised so that scoring a manifest
    at several checkpoints generates its scenes once.  The subtasks of a
    manifest read the same scenes, from index 0 on; each is generated once
    for all of them and for `retrieval_table` (`_scene`).
    """
    if tag not in SUBTASKS:
        raise ValidationError(f"unknown subtask tag {tag!r}")
    items = []
    index = 0
    while len(items) < count:
        scene = _scene(seed, index, grid_size)
        index += 1
        try:
            items.append(make_foils(scene, SUBTASKS[tag].foil))
        except FoilCapabilityError:
            pass
        if index > 100 * count + 1000:
            raise ValidationError(f"could not collect {count} scenes for {tag}")
    return tuple(items)


def subtask_metrics(tag: str, rows: np.ndarray) -> dict[str, float]:
    """The subtask's accuracies over its (items, cells) rows, under its protocol."""
    protocol = SUBTASKS[tag].protocol
    if protocol is winoground_scores:
        return dict(zip((f"{tag}_text", f"{tag}_image", f"{tag}_group"), protocol(rows)))
    return {tag: protocol(rows)}


def retrieval_table(score: Scorer, seed: int, count: int, grid_size: int) -> np.ndarray:
    """Square table of scene-vs-caption scores with matched pairs on the diagonal."""
    scenes = [_scene(seed, i, grid_size) for i in range(count)]
    texts = [caption_of(scene).text for scene in scenes]
    return np.array([[score(scene, text) for text in texts] for scene in scenes],
                    dtype=np.float64).reshape(count, count)


def run_benchmark(score: Scorer, manifest: dict, checkpoint_step: int = 0) -> EvalReport:
    """Score every cell of each manifest subtask, and the retrieval table, with `score`.

    `score` is a `Scorer`, called once per (scene, text) pair; `model_scorer`
    adapts a model to one.
    """
    grid_size = int(manifest["grid_size"])
    cells = {}
    for spec_row in manifest["subtasks"]:
        tag, seed, count = spec_row["tag"], int(spec_row["seed"]), int(spec_row["count"])
        items = subtask_items(tag, seed, count, grid_size)
        item_cells = SUBTASKS[tag].cells
        cells[tag] = np.array([[score(getattr(item, scene), getattr(item, text))
                                for _, scene, text, _ in item_cells] for item in items],
                              dtype=np.float64).reshape(len(items), len(item_cells))
    retrieval = manifest.get("retrieval")
    table = retrieval_table(score, int(retrieval["seed"]), int(retrieval["count"]),
                            grid_size) if retrieval else None
    return EvalReport(checkpoint_step, cells, table)


def write_report(path: Path, report: EvalReport, config_hash: str) -> None:
    write_table(path, config_hash, ("metric", "value", "count"),
                ((name, f"{value:.17g}", str(count)) for name, value, count in report.rows()))


def write_scores(path: Path, report: EvalReport) -> None:
    """The score dump: per scored cell, one line of item, tag, role, score, label.

    Tab-separated, scores as %.17g, no header; subtasks in manifest order and
    cells in `SUBTASKS[tag].cells` order.  The retrieval table is not dumped,
    so a report with no subtask writes an empty file.
    """
    lines = [f"{item}\t{tag}\t{role}\t{value:.17g}\t{label}\n"
             for tag, rows in report.cells.items()
             for item, row in enumerate(rows)
             for (role, *_, label), value in zip(SUBTASKS[tag].cells, row)]
    with atomic_open(path) as fh:
        fh.write("".join(lines).encode("utf-8"))


def write_report_json(path: Path, report: EvalReport, config_hash: str) -> None:
    payload = {
        "config_hash": config_hash,
        "checkpoint_step": report.checkpoint_step,
        "metrics": report.metrics,
        "counts": report.counts,
    }
    with atomic_open(path) as fh:
        fh.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))
