"""Zero-shot scoring protocols over matching scores.

Every protocol uses strict inequalities: a tie is scored as incorrect.
Accuracies based purely on comparisons are therefore invariant under any
strictly increasing transform of the scores; the 50%-threshold protocol
is the one exception since it anchors to the 0.5 level.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import tensor
from .errors import EmptyInputError, FoilCapabilityError, ValidationError
from .fileio import atomic_open, write_table
from .model import Encoded, VLModel
from .synthdata import FoilPair, Scene, caption_of, generate_scene, make_foils

FOIL_GROUP_SUBTASKS = ("existence", "counting", "object_swap", "attribute_swap")
PAIRWISE_SUBTASKS = ("svo_subject", "svo_verb", "svo_object")
THRESHOLD_SUBTASK = "relation_statement"
QUAD_SUBTASK = "relation_swap"

KNOWN_SUBTASKS = FOIL_GROUP_SUBTASKS + PAIRWISE_SUBTASKS + (THRESHOLD_SUBTASK, QUAD_SUBTASK)

Scorer = Callable[[Scene, str], float]


@dataclass(frozen=True)
class ScoreMatrix:
    """Winoground-style quad: scores[i][j] = score of caption i with image j."""

    scores: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        flat = [v for row in self.scores for v in row]
        if len(flat) != 4 or not all(np.isfinite(v) for v in flat):
            raise ValidationError(f"score matrix needs four finite entries, got {self.scores}")

    def __getitem__(self, i):
        return self.scores[i]


@dataclass
class EvalReport:
    checkpoint_step: int
    metrics: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def rows(self) -> list[tuple[str, float, int]]:
        return [(name, self.metrics[name], self.counts.get(name, 0))
                for name in sorted(self.metrics)]


def model_scorer(model: VLModel) -> Scorer:
    """Score a pair as the matching probability of `model`'s fused [CLS] row.

    The scorer caches each input's encoding for its own lifetime, so build
    one scorer per set of weights: its cache never sees them change.  Images
    are keyed by the grid's shape and bytes (scenes compare by identity, so
    equal grids from two scenes share one entry), and texts by the text.
    Each pair then runs only `fuse` and the matching head.  Everything runs
    under `tensor.no_tape()`, so a cached encoding holds its values only,
    not the forward graph that computed them.
    """
    vocab = model.config.vocab
    images: dict[tuple, Encoded] = {}
    texts: dict[str, Encoded] = {}

    def score(scene: Scene, text: str) -> float:
        with tensor.no_tape():
            grid_key = (scene.grid.shape, scene.grid.tobytes())
            if grid_key not in images:
                images[grid_key] = model.encode_image(scene.grid)
            if text not in texts:
                texts[text] = model.encode_text(vocab.encode_wrapped(text))
            return model.matching_probability(model.cross_cls(texts[text], images[grid_key]))

    return score


# -- protocols -------------------------------------------------------------------


def pairwise_ranking_accuracy(pairs: Sequence[tuple[float, float]]) -> float:
    pairs = list(pairs)
    if not pairs:
        raise EmptyInputError("pairwise ranking needs at least one pair")
    return sum(1 for pos, neg in pairs if pos > neg) / len(pairs)


def threshold_accuracy(scored: Sequence[tuple[float, bool]]) -> float:
    scored = list(scored)
    if not scored:
        raise EmptyInputError("threshold accuracy needs at least one item")
    correct = sum(
        1 for score, label in scored if (score > 0.5 if label else score < 0.5)
    )
    return correct / len(scored)


def winoground_scores(quads: Sequence[ScoreMatrix]) -> tuple[float, float, float]:
    quads = list(quads)
    if not quads:
        raise EmptyInputError("winoground scoring needs at least one quad")
    text_hits = image_hits = group_hits = 0
    for s in quads:
        text_ok = s[0][0] > s[1][0] and s[1][1] > s[0][1]
        image_ok = s[0][0] > s[0][1] and s[1][1] > s[1][0]
        text_hits += text_ok
        image_hits += image_ok
        group_hits += text_ok and image_ok
    n = len(quads)
    return text_hits / n, image_hits / n, group_hits / n


def retrieval_recall(table: np.ndarray, k: int) -> tuple[float, float]:
    """R@k for rows (text retrieval) and columns (image retrieval).

    Ties rank the lower index first, so results are deterministic.
    """
    table = np.asarray(table, dtype=np.float64)
    n = table.shape[0]
    if table.shape != (n, n):
        raise ValidationError(f"retrieval table must be square, got {table.shape}")
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} outside [1, {n}]")

    def recall_rows(m: np.ndarray) -> float:
        diag = np.diag(m)[:, None]
        # entry (i, j) ranks above the match (i, i): higher, or tied at a lower index
        better = (m > diag) | ((m == diag) & np.tri(n, k=-1, dtype=bool))
        return int((better.sum(axis=1) < k).sum()) / n

    return recall_rows(table), recall_rows(table.T)


# -- benchmark manifest ----------------------------------------------------------


def default_manifest(eval_seed: int, per_subtask: int, grid_size: int,
                     retrieval_count: int) -> dict:
    manifest = {
        "version": 1,
        "grid_size": grid_size,
        "subtasks": [
            {"tag": tag, "seed": eval_seed, "count": per_subtask}
            for tag in KNOWN_SUBTASKS
        ],
    }
    if retrieval_count:
        manifest["retrieval"] = {"seed": eval_seed, "count": retrieval_count}
    return manifest


def _foil_source(tag: str) -> str:
    return QUAD_SUBTASK if tag == THRESHOLD_SUBTASK else tag


@functools.lru_cache(maxsize=len(KNOWN_SUBTASKS))
def subtask_items(tag: str, seed: int, count: int, grid_size: int) -> tuple[FoilPair, ...]:
    """First `count` deterministic scenes that support the subtask.

    A pure function of its arguments, memoised so that scoring a manifest
    at several checkpoints generates its scenes once.
    """
    if tag not in KNOWN_SUBTASKS:
        raise ValidationError(f"unknown subtask tag {tag!r}")
    items = []
    index = 0
    source = _foil_source(tag)
    while len(items) < count:
        scene = generate_scene(seed, index, grid_size)
        index += 1
        try:
            items.append(make_foils(scene, source))
        except FoilCapabilityError:
            pass
        if index > 100 * count + 1000:
            raise ValidationError(f"could not collect {count} scenes for {tag}")
    return tuple(items)


# Cells scored per item, as (dump role, scene field, text field, label).
_CELLS = {
    **dict.fromkeys(FOIL_GROUP_SUBTASKS, (
        ("positive", "pos_scene", "pos_text", 1),
        ("negative", "pos_scene", "neg_text", 0),
    )),
    **dict.fromkeys(PAIRWISE_SUBTASKS, (
        ("positive", "pos_scene", "pos_text", 1),
        ("negative", "neg_scene", "pos_text", 0),
    )),
    THRESHOLD_SUBTASK: (
        ("true", "pos_scene", "pos_text", 1),
        ("false", "pos_scene", "neg_text", 0),
    ),
    QUAD_SUBTASK: (
        ("c0_i0", "pos_scene", "pos_text", 1),
        ("c0_i1", "neg_scene", "pos_text", 0),
        ("c1_i0", "pos_scene", "neg_text", 0),
        ("c1_i1", "neg_scene", "neg_text", 1),
    ),
}


def _score_subtask(tag: str, items: Sequence[FoilPair], score: Scorer,
                   dump: list[str] | None) -> dict[str, float]:
    cells = _CELLS[tag]
    rows = []
    for idx, pair in enumerate(items):
        row = [score(getattr(pair, scene), getattr(pair, text)) for _, scene, text, _ in cells]
        if dump is not None:
            dump.extend(f"{idx}\t{tag}\t{role}\t{value:.17g}\t{label}"
                        for (role, _, _, label), value in zip(cells, row))
        rows.append(row)

    if tag in FOIL_GROUP_SUBTASKS or tag in PAIRWISE_SUBTASKS:
        return {tag: pairwise_ranking_accuracy(rows)}
    if tag == THRESHOLD_SUBTASK:
        return {tag: threshold_accuracy(
            [(value, bool(label)) for row in rows for (*_, label), value in zip(cells, row)])}
    text, image, group = winoground_scores(
        [ScoreMatrix(((s00, s01), (s10, s11))) for s00, s01, s10, s11 in rows])
    return {
        f"{tag}_text": text,
        f"{tag}_image": image,
        f"{tag}_group": group,
    }


@functools.lru_cache(maxsize=1)
def _retrieval_set(seed: int, count: int,
                   grid_size: int) -> tuple[tuple[Scene, ...], tuple[str, ...]]:
    """The first `count` scenes and their captions, memoised as `subtask_items` is."""
    scenes = tuple(generate_scene(seed, i, grid_size) for i in range(count))
    return scenes, tuple(caption_of(scene).text for scene in scenes)


def retrieval_table(score: Scorer, seed: int, count: int, grid_size: int) -> np.ndarray:
    """Square table of scene-vs-caption scores with matched pairs on the diagonal."""
    scenes, texts = _retrieval_set(seed, count, grid_size)
    table = np.zeros((count, count))
    for i, scene in enumerate(scenes):
        for j, text in enumerate(texts):
            table[i, j] = score(scene, text)
    return table


def run_benchmark(score: Scorer, manifest: dict, checkpoint_step: int = 0,
                  dump_path: Path | None = None) -> EvalReport:
    """Score each manifest subtask with `score` under its protocol and aggregate a report.

    `score` is a `Scorer`, called once per (scene, text) pair; `model_scorer`
    adapts a model to one.
    """
    report = EvalReport(checkpoint_step=checkpoint_step)
    dump: list[str] | None = [] if dump_path is not None else None
    grid_size = int(manifest["grid_size"])
    for spec_row in manifest["subtasks"]:
        tag, seed, count = spec_row["tag"], int(spec_row["seed"]), int(spec_row["count"])
        items = subtask_items(tag, seed, count, grid_size)
        metrics = _score_subtask(tag, items, score, dump)
        for name, value in metrics.items():
            report.metrics[name] = value
            report.counts[name] = count
    foil_metrics = [report.metrics[t] for t in FOIL_GROUP_SUBTASKS if t in report.metrics]
    if foil_metrics:
        report.metrics["foil_avg"] = float(np.mean(foil_metrics))
        report.counts["foil_avg"] = sum(
            report.counts[t] for t in FOIL_GROUP_SUBTASKS if t in report.counts)
    retrieval = manifest.get("retrieval")
    if retrieval:
        table = retrieval_table(score, int(retrieval["seed"]), int(retrieval["count"]),
                                grid_size)
        tr1, ir1 = retrieval_recall(table, 1)
        report.metrics["retrieval_tr@1"] = tr1
        report.metrics["retrieval_ir@1"] = ir1
        report.counts["retrieval_tr@1"] = report.counts["retrieval_ir@1"] = len(table)
    if dump_path is not None:
        with atomic_open(dump_path) as fh:
            fh.write("\n".join(dump) + "\n")
    return report


def write_report(path: Path, report: EvalReport, config_hash: str) -> None:
    write_table(path, config_hash, ("metric", "value", "count"),
                ((name, f"{value:.17g}", str(count)) for name, value, count in report.rows()))


def write_report_json(path: Path, report: EvalReport, config_hash: str) -> None:
    payload = {
        "config_hash": config_hash,
        "checkpoint_step": report.checkpoint_step,
        "metrics": report.metrics,
        "counts": report.counts,
    }
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
