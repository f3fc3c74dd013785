"""Procedural grounded scenes: patch grids, captions, detections, foils.

A scene is a G x G grid of patch feature vectors (one-hot shape channels
followed by one-hot color channels).  Objects occupy disjoint rectangular
cell blocks; each object's bounding box is the block extent shrunk by a
small jitter and rounded to four decimals, so a box reads back exactly
from its four-decimal text; the training targets, position tokens and
every stored run output depend on these rounded values.  `_covered` is
the one rule for which cells a box covers along an axis: `patch_mask`
builds its (G, G) mask from it, `render_grid` draws each object on the
same cells, and the visually masked pass leaves exactly them visible.
A scene's grid holds its size, and its objects their order; a foil builder
matches the objects it is handed, out of `scene.objects`, by identity.
The word lists here are the vocabulary's too.  Everything is a pure
function of (seed, index).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import FoilCapabilityError, ValidationError
from .seeding import rng_for

SHAPES = ("circle", "square", "triangle")
COLORS = ("red", "blue", "green", "yellow")
PLURAL = {"circle": "circles", "square": "squares", "triangle": "triangles"}
NUMERALS = ("one", "two", "three", "four")

GRID_CHANNELS = len(SHAPES) + len(COLORS)


class DataSource(NamedTuple):
    kind: str  # sample kind: "caption" or a detection kind
    tag: str  # short tag in ablation arm names


# The training data sources, keyed by their config name, in canonical order
# (the order of the default config, the summary columns and the detection kinds).
DATA_SOURCES = {
    "captions": DataSource("caption", "cap"),
    "object_labels": DataSource("object_label", "obj"),
    "attribute_labels": DataSource("attribute_label", "attr"),
    "region_descriptions": DataSource("region_description", "region"),
}


MAX_OBJECTS = 4
_BBOX_DECIMALS = 4


@dataclass(frozen=True)
class BBox:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (0.0 <= self.x1 < self.x2 <= 1.0 and 0.0 <= self.y1 < self.y2 <= 1.0):
            raise ValidationError(f"invalid bbox corners {self.corners()}")

    def corners(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))


@dataclass(frozen=True)
class SceneObject:
    shape: str
    color: str
    bbox: BBox

    def noun_phrase(self, article: str = "a") -> str:
        return f"{article} {self.color} {self.shape}"


# eq=False: scenes compare and hash by identity; generated methods would use the numpy grid
@dataclass(frozen=True, eq=False)
class Scene:
    ident: str
    objects: tuple[SceneObject, ...]
    grid: np.ndarray  # (G, G, GRID_CHANNELS)


@dataclass(frozen=True)
class CaptionSample:
    scene: Scene
    text: str


@dataclass(frozen=True)
class DetectionSample:
    scene: Scene
    kind: str
    text: str
    bbox: BBox
    entity_span_end: int  # token count of the leading entity phrase


@dataclass(frozen=True)
class FoilPair:
    pos_scene: Scene
    pos_text: str
    neg_scene: Scene | None
    neg_text: str | None


# -- scene construction -------------------------------------------------------


def _covered(lo: float, hi: float, grid_size: int) -> slice:
    """The cells along one axis that [lo, hi] covers, as one run.

    Cell k is covered when `min(hi, e[k+1]) - max(lo, e[k]) > 0.0`, with
    `e = np.arange(G + 1) * (1.0 / G)`: its interval overlaps [lo, hi] with
    positive length.  For lo < hi that holds exactly when `e[k] < hi` and
    `e[k+1] > lo`, so the covered cells are one run, possibly empty.
    """
    lo, hi, cell = float(lo), float(hi), 1.0 / grid_size  # exact, and faster than numpy scalars
    cells = [k for k in range(grid_size) if min(hi, (k + 1) * cell) - max(lo, k * cell) > 0.0]
    return slice(cells[0], cells[-1] + 1) if cells else slice(0, 0)


def render_grid(grid_size: int, objects: Sequence[SceneObject]) -> np.ndarray:
    grid = np.zeros((grid_size, grid_size, GRID_CHANNELS), dtype=np.float64)
    for obj in objects:
        block = grid[_covered(obj.bbox.y1, obj.bbox.y2, grid_size),
                     _covered(obj.bbox.x1, obj.bbox.x2, grid_size)]
        block[..., SHAPES.index(obj.shape)] = 1.0
        block[..., len(SHAPES) + COLORS.index(obj.color)] = 1.0
    return grid


def patch_mask(bbox: BBox, grid_size: int) -> np.ndarray:
    """(G, G) bool, True at each cell whose rectangle intersects the bbox with positive area."""
    mask = np.zeros((grid_size, grid_size), dtype=bool)
    mask[_covered(bbox.y1, bbox.y2, grid_size), _covered(bbox.x1, bbox.x2, grid_size)] = True
    return mask


def _jittered_bbox(rng: np.random.Generator, col: int, row: int, w: int, h: int, grid_size: int) -> BBox:
    cell = 1.0 / grid_size
    # shrink each side by up to 20% of the block extent; the box still
    # intersects every cell of its block with positive area
    insets = rng.uniform(0.0, 0.2, size=4).tolist()
    x1 = col * cell + insets[0] * w * cell
    x2 = (col + w) * cell - insets[1] * w * cell
    y1 = row * cell + insets[2] * h * cell
    y2 = (row + h) * cell - insets[3] * h * cell
    # numpy's rounding, not Python's `round`: the two differ on half-way values
    return BBox(*np.array([x1, y1, min(x2, 1.0), min(y2, 1.0)]).round(_BBOX_DECIMALS))


def generate_scene(seed: int, index: int, grid_size: int) -> Scene:
    rng = rng_for(seed, "scene", index)
    max_count = min(MAX_OBJECTS, grid_size * grid_size)
    count = int(rng.integers(1, max_count + 1))
    combo_ids = rng.choice(len(COLORS) * len(SHAPES), size=count, replace=False).tolist()
    occupied: set[int] = set()  # row * grid_size + col of each taken cell
    objects = []
    for obj_index, combo in enumerate(combo_ids):
        color = COLORS[combo // len(SHAPES)]
        shape = SHAPES[combo % len(SHAPES)]
        remaining = count - obj_index - 1
        free_cells = grid_size * grid_size - len(occupied)
        allow_big = grid_size >= 3 and free_cells - 4 >= remaining
        for _ in range(16):
            w = h = 2 if (allow_big and rng.integers(0, 2) == 1) else 1
            col = int(rng.integers(0, grid_size - w + 1))
            row = int(rng.integers(0, grid_size - h + 1))
            block = {r * grid_size + c for r in range(row, row + h) for c in range(col, col + w)}
            if occupied.isdisjoint(block):
                break
        else:
            # rejection sampling missed; pick any free cell, in row-major order, for a 1x1 block
            free = [cell for cell in range(grid_size * grid_size) if cell not in occupied]
            row, col = divmod(free[int(rng.integers(0, len(free)))], grid_size)
            w = h = 1
            block = {row * grid_size + col}
        occupied |= block
        bbox = _jittered_bbox(rng, col, row, w, h, grid_size)
        objects.append(SceneObject(shape, color, bbox))
    objects = tuple(objects)
    return Scene(f"scene:{seed}:{index}", objects, render_grid(grid_size, objects))


def _with_objects(scene: Scene, objects: Sequence[SceneObject], tag: str) -> Scene:
    objects = tuple(objects)
    return Scene(f"{scene.ident}/{tag}", objects, render_grid(len(scene.grid), objects))


# -- text templates ------------------------------------------------------------


def relation_between(a: SceneObject, b: SceneObject) -> str:
    """Relation of a with respect to b; y grows downward as in image coords."""
    (ax, ay), (bx, by) = a.bbox.center(), b.bbox.center()
    if abs(ax - bx) >= abs(ay - by):
        return "left of" if ax < bx else "right of"
    return "above" if ay < by else "below"


def caption_of(scene: Scene) -> CaptionSample:
    objs = scene.objects
    if len(objs) == 1:
        return CaptionSample(scene, objs[0].noun_phrase())
    rel = relation_between(objs[0], objs[1])
    text = f"{objs[0].noun_phrase()} is {rel} {objs[1].noun_phrase()}"
    for extra in objs[2:]:
        text += f" and {extra.noun_phrase()}"
    return CaptionSample(scene, text)


def relation_statement(a: SceneObject, b: SceneObject, rel: str | None = None) -> str:
    rel = rel or relation_between(a, b)
    return f"{a.noun_phrase('the')} is {rel} {b.noun_phrase('the')}"


def detections_of(scene: Scene) -> list[DetectionSample]:
    out = []
    for obj in scene.objects:
        out.append(DetectionSample(scene, "object_label", obj.shape, obj.bbox, 1))
        out.append(DetectionSample(scene, "attribute_label", f"{obj.color} {obj.shape}", obj.bbox, 2))
    for a, b in zip(scene.objects, scene.objects[1:]):
        rel = relation_between(a, b)
        text = f"{a.noun_phrase('the')} {rel} {b.noun_phrase('the')}"
        out.append(DetectionSample(scene, "region_description", text, a.bbox, 3))
    return out


# -- foils ---------------------------------------------------------------------


def _first_pair(scene: Scene, distinct: str) -> tuple[SceneObject, SceneObject]:
    objs = scene.objects
    for i in range(len(objs)):
        for j in range(i + 1, len(objs)):
            if getattr(objs[i], distinct) != getattr(objs[j], distinct):
                return objs[i], objs[j]
    raise FoilCapabilityError(f"scene has no object pair with distinct {distinct}")


def _swap_positions(scene: Scene, a: SceneObject, b: SceneObject, tag: str) -> Scene:
    swapped = []
    for obj in scene.objects:
        if obj is a:
            swapped.append(replace(obj, bbox=b.bbox))
        elif obj is b:
            swapped.append(replace(obj, bbox=a.bbox))
        else:
            swapped.append(obj)
    return _with_objects(scene, swapped, tag)


def _replace_identity(scene: Scene, target: SceneObject, tag: str) -> Scene:
    used = {(o.color, o.shape) for o in scene.objects}
    for color in COLORS:
        for shape in SHAPES:
            if (color, shape) not in used:
                new = replace(target, color=color, shape=shape)
                objects = [new if o is target else o for o in scene.objects]
                return _with_objects(scene, objects, tag)
    raise FoilCapabilityError("no unused color/shape combination left")


def make_foils(scene: Scene, subtask: str) -> FoilPair:
    if subtask == "existence":
        obj = scene.objects[0]
        return FoilPair(
            scene, f"there is {obj.noun_phrase()}", None,
            f"there is no {obj.color} {obj.shape}",
        )

    if subtask == "counting":
        counts = {s: sum(o.shape == s for o in scene.objects) for s in SHAPES}
        shape = next((s for s in SHAPES if counts[s] >= 2), None)
        if shape is None:
            raise FoilCapabilityError("counting foil needs a shape with at least two instances")
        n = counts[shape]
        foil_n = n + 1 if n < MAX_OBJECTS else n - 1
        return FoilPair(
            scene, f"there are exactly {NUMERALS[n - 1]} {PLURAL[shape]}", None,
            f"there are exactly {NUMERALS[foil_n - 1]} {PLURAL[shape]}",
        )

    if len(scene.objects) < 2:
        raise FoilCapabilityError(f"{subtask} foil needs at least two objects")

    if subtask == "relation_swap":
        a, b = scene.objects[0], scene.objects[1]
        rel = relation_between(a, b)
        return FoilPair(
            scene, relation_statement(a, b, rel),
            _swap_positions(scene, a, b, "swapped"),
            relation_statement(b, a, rel),
        )

    if subtask in ("object_swap", "attribute_swap"):
        field = "shape" if subtask == "object_swap" else "color"
        a, b = _first_pair(scene, field)
        neg = relation_statement(replace(a, **{field: getattr(b, field)}),
                                 replace(b, **{field: getattr(a, field)}),
                                 relation_between(a, b))
        return FoilPair(scene, relation_statement(a, b), None, neg)

    if subtask in ("svo_subject", "svo_verb", "svo_object"):
        a, b = scene.objects[0], scene.objects[1]
        text = relation_statement(a, b)
        if subtask == "svo_subject":
            neg_scene = _replace_identity(scene, a, "subj")
        elif subtask == "svo_object":
            neg_scene = _replace_identity(scene, b, "obj")
        else:
            neg_scene = _swap_positions(scene, a, b, "verb")
        return FoilPair(scene, text, neg_scene, None)

    raise FoilCapabilityError(f"unknown foil subtask {subtask!r}")


# -- streams and the interleaved sampler ---------------------------------------


@dataclass(frozen=True)
class Batch:
    kind: str  # "caption" | "detection"
    samples: tuple


def detection_stream(scenes: Sequence[Scene], kinds: Sequence[str]) -> list[DetectionSample]:
    wanted = set(kinds)
    per_scene = [[s for s in detections_of(scene) if s.kind in wanted] for scene in scenes]
    # round-robin across scenes so consecutive batch windows mix images
    out = []
    for column in range(max((len(group) for group in per_scene), default=0)):
        out.extend(group[column] for group in per_scene if column < len(group))
    return out


def interleaved_sampler(
    captions: Sequence[CaptionSample],
    detections: Sequence[DetectionSample],
    steps: int,
    caption_batch: int,
    detection_batch: int,
) -> list[Batch]:
    """Deterministic C,C,D batch schedule with cyclic batch assembly.

    With one stream empty, every step draws from the other.
    """
    period = []
    if captions:
        period += [("caption", captions, caption_batch)] * 2
    if detections:
        period.append(("detection", detections, detection_batch))
    batches = []
    cursor = {"caption": 0, "detection": 0}
    for step in range(steps):
        kind, pool, take = period[step % len(period)]
        start = cursor[kind]
        batches.append(Batch(kind, tuple(pool[(start + j) % len(pool)] for j in range(take))))
        cursor[kind] = start + take
    return batches


def sampler_for_sources(
    seed: int,
    sources: Sequence[str],
    steps: int,
    caption_count: int,
    detection_scene_count: int,
    caption_batch: int,
    detection_batch: int,
    grid_size: int,
) -> list[Batch]:
    """Build streams for the active data sources and schedule the batches.

    The settings come from a checked `RunConfig`, and this function trusts
    them: `sources` are known names, at least one, and no count is negative.
    Captions and detections are read from one list of scenes, each generated
    once: detection scene i is caption scene i.  Without captions every step
    is a detection step.  The training step and its losses rely on three
    guarantees and check none of them: caption batches appear only with
    captions active and hold only caption samples; detection batches hold
    only detection samples of active kinds; every batch shows at least two
    distinct images, so each has a matching negative.  A schedule that breaks
    the last is rejected, and so is an active source whose stream holds no
    sample of its kind.
    """
    active = set(sources)
    kinds = [s.kind for name, s in DATA_SOURCES.items()
             if name in active and s.kind != "caption"]
    # an inactive stream takes no scene
    caption_count = caption_count if "captions" in active else 0
    detection_scene_count = detection_scene_count if kinds else 0
    scenes = [generate_scene(seed, i, grid_size)
              for i in range(max(caption_count, detection_scene_count))]
    captions = [caption_of(scene) for scene in scenes[:caption_count]]
    detections = detection_stream(scenes[:detection_scene_count], kinds)
    present = {s.kind for s in detections} | ({"caption"} if captions else set())
    for name, source in DATA_SOURCES.items():
        if name in active and source.kind not in present:
            raise ValidationError(f"the {name} source is active but contributes no sample")
    batches = interleaved_sampler(captions, detections, steps, caption_batch, detection_batch)
    for step, batch in enumerate(batches, start=1):
        if all(np.array_equal(batch.samples[0].scene.grid, s.scene.grid) for s in batch.samples):
            raise ValidationError(f"the {batch.kind} batch of step {step} shows one image in "
                                  "every sample, so it has no matching negative")
    return batches
