"""Scene generator, templates, foils, sampler schedule."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finegrain import evalharness as ev
from finegrain import synthdata as sd
from finegrain.config import RunConfig
from finegrain.errors import FoilCapabilityError, ValidationError
from finegrain.runner import CALIBRATION_GRID, parse_grid_spec
from finegrain.vocab import WORD_TOKENS, Vocabulary, position_token_insert

DETECTION_KINDS = ("object_label", "attribute_label", "region_description")
# each foil source the eval harness reads, once
FOIL_SOURCES = tuple(dict.fromkeys(row.foil for row in ev.SUBTASKS.values()))
DETECTION_SOURCES = tuple(name for name in sd.DATA_SOURCES if name != "captions")
# each single source, then each calibration arm's sources (the A arm's are "captions" alone)
SOURCE_SETS = list(dict.fromkeys([(name,) for name in sd.DATA_SOURCES] + [
    tuple(sorted(config.source_set()))
    for config in parse_grid_spec(RunConfig(seed=0), CALIBRATION_GRID).values()]))


def scenes_of(seed, count, grid_size=4):
    """Scenes 0 to count - 1 of a seed, as the sampler generates them."""
    return [sd.generate_scene(seed, i, grid_size) for i in range(count)]


def scene_with(*objects, grid_size=4):
    objs = tuple(sd.SceneObject(shape, color, bbox) for shape, color, bbox in objects)
    return sd.Scene("test", objs, sd.render_grid(grid_size, objs))


def foil_aspects(pair: sd.FoilPair) -> list[str]:
    """Structured diff of a foil pair, listing the controlled aspects changed.

    A coordinated caption reorder plus the matching layout swap (the
    relation-swap quad construction) counts as the single aspect
    'relation_order'.
    """
    aspects = set()
    if pair.neg_text is not None and pair.neg_text != pair.pos_text:
        pos_toks, neg_toks = pair.pos_text.split(), pair.neg_text.split()
        if sorted(pos_toks) == sorted(neg_toks):
            aspects.add("word_order")
        elif len(pos_toks) == len(neg_toks):
            subs = {(p, n) for p, n in zip(pos_toks, neg_toks) if p != n}
            if all(p in sd.NUMERALS and n in sd.NUMERALS for p, n in subs):
                aspects.add("numeral")
            elif all(p in sd.COLORS and n in sd.COLORS for p, n in subs):
                aspects.add("colors")
            elif all(p in sd.SHAPES and n in sd.SHAPES for p, n in subs):
                aspects.add("shapes")
            else:
                aspects.add("wording")
        else:
            added = set(neg_toks) - set(pos_toks)
            aspects.add("existence" if added == {"no"} else "wording")
    if pair.neg_scene is not None and not np.array_equal(pair.neg_scene.grid,
                                                         pair.pos_scene.grid):
        pos_objs, neg_objs = pair.pos_scene.objects, pair.neg_scene.objects
        identity_changes = [
            (p, n) for p, n in zip(pos_objs, neg_objs)
            if (p.color, p.shape) != (n.color, n.shape)
        ]
        bbox_changes = [(p, n) for p, n in zip(pos_objs, neg_objs) if p.bbox != n.bbox]
        if identity_changes and not bbox_changes:
            aspects.add("entity_identity")
        elif bbox_changes and not identity_changes:
            aspects.add("layout")
        else:
            aspects.add("scene")
    if aspects == {"word_order", "layout"}:
        return ["relation_order"]
    return sorted(aspects)


def numpy_patch_mask(bbox: sd.BBox, grid_size: int) -> np.ndarray:
    """The cover rule in its numpy form: cell k of an axis is covered when
    `min(hi, e[k+1]) - max(lo, e[k]) > 0.0`, over the (G, G) grid at once."""
    edges = np.arange(grid_size + 1) * (1.0 / grid_size)

    def overlaps(lo, hi):
        return np.minimum(hi, edges[1:]) - np.maximum(lo, edges[:-1]) > 0.0

    return overlaps(bbox.y1, bbox.y2)[:, None] & overlaps(bbox.x1, bbox.x2)[None, :]


def numpy_render_grid(grid_size: int, objects) -> np.ndarray:
    grid = np.zeros((grid_size, grid_size, sd.GRID_CHANNELS), dtype=np.float64)
    for obj in objects:
        cells = numpy_patch_mask(obj.bbox, grid_size)
        grid[cells, sd.SHAPES.index(obj.shape)] = 1.0
        grid[cells, len(sd.SHAPES) + sd.COLORS.index(obj.color)] = 1.0
    return grid


@st.composite
def objects_on_a_grid(draw):
    """A grid size of 1-7 and 1-4 objects, each corner random, on a cell edge
    `k * (1.0 / G)` or one float away from one, as a float or an `np.float64`."""
    grid_size = draw(st.integers(1, 7))
    edge = st.integers(0, grid_size).map(lambda k: k * (1.0 / grid_size))
    near_edge = st.tuples(edge, st.sampled_from([0.0, 1.0])).map(lambda p: math.nextafter(*p))
    coordinate = st.one_of(st.floats(0.0, 1.0), edge, near_edge)
    as_type = draw(st.sampled_from([float, np.float64]))
    objects = []
    for _ in range(draw(st.integers(1, 4))):
        (x1, x2), (y1, y2) = (sorted(draw(st.tuples(coordinate, coordinate))) for _ in "xy")
        assume(x1 < x2 and y1 < y2)
        bbox = sd.BBox(*map(as_type, (x1, y1, x2, y2)))
        objects.append(sd.SceneObject(draw(st.sampled_from(sd.SHAPES)),
                                      draw(st.sampled_from(sd.COLORS)), bbox))
    return grid_size, objects


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSceneGeneration:
    def test_same_seed_gives_identical_scene(self):
        a = sd.generate_scene(99, 3, 4)
        b = sd.generate_scene(99, 3, 4)
        assert a.ident == b.ident
        assert np.array_equal(a.grid, b.grid)
        assert a.objects == b.objects

    def test_invariants_hold_over_many_seeds(self):
        for i in range(2000):
            scene = sd.generate_scene(7, i, 4)
            assert 1 <= len(scene.objects) <= 4
            boxes = [o.bbox.corners() for o in scene.objects]
            assert len(set(boxes)) == len(boxes)
            for obj in scene.objects:
                assert 0.0 <= obj.bbox.x1 < obj.bbox.x2 <= 1.0
                assert 0.0 <= obj.bbox.y1 < obj.bbox.y2 <= 1.0
                assert (obj.bbox.x2 - obj.bbox.x1) * (obj.bbox.y2 - obj.bbox.y1) > 0.0

    def test_shape_frequencies_near_uniform(self):
        counts = Counter()
        total = 0
        for i in range(10_000):
            for obj in sd.generate_scene(11, i, 4).objects:
                counts[obj.shape] += 1
                total += 1
        for shape in sd.SHAPES:
            assert abs(counts[shape] / total - 1 / 3) < 0.02

    def test_grid_marks_only_touched_patches(self):
        scene = scene_with(("circle", "red", sd.BBox(0.05, 0.05, 0.2, 0.2)))
        assert scene.grid[0, 0, sd.SHAPES.index("circle")] == 1.0
        assert scene.grid[0, 0, len(sd.SHAPES) + sd.COLORS.index("red")] == 1.0
        untouched = scene.grid.copy()
        untouched[0, 0] = 0.0
        assert np.all(untouched == 0.0)

    def test_rendered_grids_and_masks_pinned(self):
        """The bits of scenes 0-199 at grid sizes 2-7: each grid, each swap or
        identity foil's grid where the scene supports it, and each box's patch mask."""
        digest = hashlib.sha256()
        for grid_size in range(2, 8):
            for i in range(200):
                scene = sd.generate_scene(0, i, grid_size)
                digest.update(scene.grid.tobytes())
                for subtask in ("relation_swap", "svo_subject", "svo_verb", "svo_object"):
                    try:
                        digest.update(sd.make_foils(scene, subtask).neg_scene.grid.tobytes())
                    except FoilCapabilityError:
                        pass
                for obj in scene.objects:
                    digest.update(sd.patch_mask(obj.bbox, grid_size).tobytes())
        assert digest.hexdigest() == (
            "3bf1e21fb6ba6be82bdadddd030fb7a5e2dac3aa8e34dc5626cce147c823af36")

    def test_box_corners_pinned(self):
        """Each object's corners for scenes 0-199 at grid sizes 2-7, as type
        name and `float.hex()`.

        The corners are rounded by numpy, not by Python's `round`: the two
        round half-way values differently (they disagree on 4,417 of the
        10,000 values `(k + 0.5) / 10**4`), and a moved corner moves its box
        target and position tokens.  These scenes hold no half-way corner,
        so the next test pins the rounding itself; this one pins the values
        and that every corner is an `np.float64`.
        """
        digest = hashlib.sha256()
        for grid_size in range(2, 8):
            for i in range(200):
                for obj in sd.generate_scene(0, i, grid_size).objects:
                    for v in obj.bbox.corners():
                        digest.update(f"{type(v).__name__} {float.hex(v)}\n".encode())
        assert digest.hexdigest() == (
            "f34b65f02133c929aaf53cea7b3d97093eab46ecda7a4d0d6e76cbb8c042bf08")

    def test_corners_round_half_way_values_as_numpy_does(self):
        """On a 1x1 grid a box's x1 is its first inset, so each half-way value
        `(k + 0.5) / 10**4` below 0.2 reaches the rounding as it is; Python's
        `round` gives another corner on 859 of these 2,000."""
        class FixedInsets:
            def __init__(self, first):
                self.first = first

            def uniform(self, low, high, size):
                return np.array([self.first, 0.1, 0.1, 0.1])

        for k in range(2000):
            value = (k + 0.5) / 10**4
            x1 = sd._jittered_bbox(FixedInsets(value), 0, 0, 1, 1, 1).x1
            assert type(x1) is np.float64
            assert float.hex(x1) == float.hex(float(np.round(np.float64(value), 4)))

    @settings(max_examples=300, deadline=None)
    @given(objects_on_a_grid())
    def test_cover_rule_matches_the_numpy_formulas(self, drawn):
        grid_size, objects = drawn
        for obj in objects:
            assert same_array(sd.patch_mask(obj.bbox, grid_size),
                              numpy_patch_mask(obj.bbox, grid_size))
        assert same_array(sd.render_grid(grid_size, objects),
                          numpy_render_grid(grid_size, objects))

    def test_bbox_serializes_at_four_decimals(self):
        for i in range(200):
            for obj in sd.generate_scene(13, i, 4).objects:
                for v in obj.bbox.corners():
                    assert round(v, 4) == v


class TestTemplates:
    def test_single_object_caption_and_labels(self):
        scene = scene_with(("circle", "red", sd.BBox(0.25, 0.25, 0.5, 0.5)))
        assert sd.caption_of(scene).text == "a red circle"
        dets = sd.detections_of(scene)
        assert [d.kind for d in dets] == ["object_label", "attribute_label"]
        assert dets[0].text == "circle"
        assert dets[1].text == "red circle"

    def test_two_objects_have_region_description_with_relation(self):
        scene = scene_with(
            ("circle", "red", sd.BBox(0.0, 0.25, 0.25, 0.5)),
            ("square", "blue", sd.BBox(0.75, 0.25, 1.0, 0.5)),
        )
        regions = [d for d in sd.detections_of(scene) if d.kind == "region_description"]
        assert len(regions) == 1
        assert any(rel in regions[0].text for rel in ("left", "right", "above", "below"))
        assert regions[0].text == "the red circle left of the blue square"

    def test_detection_bbox_matches_object(self):
        scene = sd.generate_scene(21, 5, 4)
        by_obj = {o.bbox.corners(): o for o in scene.objects}
        for det in sd.detections_of(scene):
            assert det.bbox.corners() in by_obj

    def test_caption_mentions_each_color_shape_exactly_once(self):
        for i in range(300):
            scene = sd.generate_scene(23, i, 4)
            text = sd.caption_of(scene).text
            tokens = text.split()
            for obj in scene.objects:
                assert tokens.count(obj.color) >= 1
                pairs = [
                    1 for a, b in zip(tokens, tokens[1:])
                    if a == obj.color and b == obj.shape
                ]
                assert sum(pairs) == 1

    def test_every_generated_text_encodes(self):
        """Captions, detection texts (also with PEVL's position tokens) and foil texts
        use only vocabulary words; of the words, only "an", "one" and "." go unused."""
        plain, pevl = Vocabulary(position_tokens=False), Vocabulary(position_tokens=True)
        used = set()
        for grid_size in range(2, 6):
            for i in range(500):
                scene = sd.generate_scene(0, i, grid_size)
                texts = [sd.caption_of(scene).text]
                for det in sd.detections_of(scene):
                    texts.append(det.text)
                    pevl.encode_wrapped(position_token_insert(
                        det.text.split(), det.bbox, det.entity_span_end))
                for subtask in FOIL_SOURCES:
                    try:
                        pair = sd.make_foils(scene, subtask)
                    except FoilCapabilityError:
                        continue
                    texts += [t for t in (pair.pos_text, pair.neg_text) if t is not None]
                for text in texts:
                    plain.encode_wrapped(text)
                    used.update(text.split())
        assert set(WORD_TOKENS) - used == {"an", "one", "."}

    def test_relation_geometry(self):
        left = sd.SceneObject("circle", "red", sd.BBox(0.0, 0.4, 0.2, 0.6))
        right = sd.SceneObject("square", "blue", sd.BBox(0.8, 0.4, 1.0, 0.6))
        top = sd.SceneObject("triangle", "green", sd.BBox(0.4, 0.0, 0.6, 0.2))
        bottom = sd.SceneObject("triangle", "yellow", sd.BBox(0.4, 0.8, 0.6, 1.0))
        assert sd.relation_between(left, right) == "left of"
        assert sd.relation_between(right, left) == "right of"
        assert sd.relation_between(top, bottom) == "above"
        assert sd.relation_between(bottom, top) == "below"


class TestFoils:
    def two_object_scene(self):
        return scene_with(
            ("circle", "red", sd.BBox(0.0, 0.25, 0.25, 0.5)),
            ("square", "blue", sd.BBox(0.75, 0.25, 1.0, 0.5)),
        )

    def test_counting_numeral_off_by_one(self):
        scene = scene_with(
            ("circle", "red", sd.BBox(0.0, 0.0, 0.25, 0.25)),
            ("circle", "blue", sd.BBox(0.5, 0.5, 0.75, 0.75)),
        )
        pair = sd.make_foils(scene, "counting")
        assert pair.pos_text == "there are exactly two circles"
        assert pair.neg_text == "there are exactly three circles"

    def test_existence_polarity(self):
        pair = sd.make_foils(self.two_object_scene(), "existence")
        assert pair.pos_text == "there is a red circle"
        assert pair.neg_text == "there is no red circle"

    def test_relation_swap_word_multiset_identical(self):
        pair = sd.make_foils(self.two_object_scene(), "relation_swap")
        assert sorted(pair.pos_text.split()) == sorted(pair.neg_text.split())
        assert pair.pos_text != pair.neg_text
        assert pair.neg_scene is not None

    def test_relation_swap_scene_realizes_swapped_text(self):
        pair = sd.make_foils(self.two_object_scene(), "relation_swap")
        a, b = pair.neg_scene.objects[0], pair.neg_scene.objects[1]
        assert sd.relation_statement(b, a) == pair.neg_text

    def test_object_and_attribute_swap(self):
        scene = self.two_object_scene()
        obj_pair = sd.make_foils(scene, "object_swap")
        assert obj_pair.pos_text == "the red circle is left of the blue square"
        assert obj_pair.neg_text == "the red square is left of the blue circle"
        attr_pair = sd.make_foils(scene, "attribute_swap")
        assert attr_pair.neg_text == "the blue circle is left of the red square"

    def test_svo_foils_change_scene_only(self):
        scene = self.two_object_scene()
        for subtask in ("svo_subject", "svo_verb", "svo_object"):
            pair = sd.make_foils(scene, subtask)
            assert pair.neg_text is None
            assert pair.neg_scene is not None
            assert not np.array_equal(pair.neg_scene.grid, pair.pos_scene.grid)

    def test_unsupported_subtask_raises_capability_error(self):
        single = scene_with(("circle", "red", sd.BBox(0.25, 0.25, 0.5, 0.5)))
        with pytest.raises(FoilCapabilityError):
            sd.make_foils(single, "relation_swap")
        with pytest.raises(FoilCapabilityError):
            sd.make_foils(single, "counting")
        with pytest.raises(FoilCapabilityError):
            sd.make_foils(single, "no_such_subtask")

    def test_every_generated_foil_changes_exactly_one_aspect(self):
        checked = 0
        for i in range(150):
            scene = sd.generate_scene(31, i, 4)
            for subtask in FOIL_SOURCES:
                try:
                    pair = sd.make_foils(scene, subtask)
                except FoilCapabilityError:
                    continue
                aspects = foil_aspects(pair)
                assert len(aspects) == 1, (subtask, aspects)
                checked += 1
        assert checked > 300


class TestSampler:
    def test_pattern_c_c_d(self):
        scenes = scenes_of(1, 4)
        captions = [sd.caption_of(scene) for scene in scenes]
        detections = sd.detection_stream(scenes, DETECTION_KINDS)
        batches = sd.interleaved_sampler(captions, detections, 6, 2, 2)
        assert [b.kind for b in batches] == [
            "caption", "caption", "detection", "caption", "caption", "detection",
        ]

    def test_3000_steps_split_2000_1000(self):
        scenes = scenes_of(1, 4)
        captions = [sd.caption_of(scene) for scene in scenes]
        detections = sd.detection_stream(scenes, DETECTION_KINDS)
        kinds = [b.kind for b in sd.interleaved_sampler(captions, detections, 3000, 2, 2)]
        assert kinds.count("caption") == 2000
        assert kinds.count("detection") == 1000

    def test_pure_caption_schedule(self):
        captions = [sd.caption_of(scene) for scene in scenes_of(1, 4)]
        batches = sd.interleaved_sampler(captions, [], 30, 2, 2)
        assert [b.kind for b in batches] == ["caption"] * 30

    def test_detection_requested_but_empty_stream(self):
        with pytest.raises(ValidationError):
            sd.sampler_for_sources(
                seed=1, sources=("captions", "object_labels"), steps=6, caption_count=4,
                detection_scene_count=0, caption_batch=2, detection_batch=2, grid_size=4,
            )

    def test_active_source_without_samples_rejected_by_name(self):
        # seed 21's first two scenes hold one object each, so neither has a region description
        with pytest.raises(ValidationError, match="region_descriptions source is active"):
            sd.sampler_for_sources(
                seed=21, sources=("object_labels", "region_descriptions"), steps=8,
                caption_count=4, detection_scene_count=2, caption_batch=2, detection_batch=3,
                grid_size=4,
            )

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("sources", SOURCE_SETS, ids="+".join)
    def test_sampler_for_sources_respects_kinds(self, sources, seed):
        # the guarantees the training step and its losses rely on without checking
        batches = sd.sampler_for_sources(
            seed=seed, sources=sources, steps=30, caption_count=8, detection_scene_count=8,
            caption_batch=4, detection_batch=3, grid_size=4,
        )
        active_kinds = {sd.DATA_SOURCES[name].kind for name in sources}
        detection_steps = 0 if sources == ("captions",) else 10 if "captions" in sources else 30
        assert len(batches) == 30
        assert sum(batch.kind == "detection" for batch in batches) == detection_steps
        for batch in batches:
            assert batch.kind in ("caption", "detection")
            if batch.kind == "caption":
                assert "captions" in sources
                assert len(batch.samples) == 4
                assert all(isinstance(s, sd.CaptionSample) for s in batch.samples)
            else:
                assert len(batch.samples) == 3
                assert all(isinstance(s, sd.DetectionSample) and s.kind in active_kinds
                           for s in batch.samples)
            assert len({s.scene.grid.tobytes() for s in batch.samples}) >= 2

    def test_detection_only_sources_schedule_every_step_as_detection(self):
        kinds = ["object_label", "region_description"]
        batches = sd.sampler_for_sources(
            seed=7, sources=("region_descriptions", "object_labels"), steps=10,
            caption_count=6, detection_scene_count=3, caption_batch=2, detection_batch=3,
            grid_size=4,
        )
        detections = sd.detection_stream(scenes_of(7, 3), kinds)
        assert [b.kind for b in batches] == ["detection"] * 10

        def key(s):  # scenes compare by identity, so compare their content
            return (s.scene.ident, s.scene.grid.tobytes(), s.kind, s.text, s.bbox,
                    s.entity_span_end)

        for step, batch in enumerate(batches):
            # the cursor advances by detection_batch and wraps around the stream
            expected = [detections[(step * 3 + j) % len(detections)] for j in range(3)]
            assert [key(s) for s in batch.samples] == [key(s) for s in expected]

    def test_each_scene_generated_once(self, monkeypatch):
        # captions and detections read one list of scenes: scene i is generated
        # once, for both streams, up to the larger active count
        calls = []
        generate = sd.generate_scene

        def recorded(seed, index, grid_size):
            calls.append(index)
            return generate(seed, index, grid_size)

        monkeypatch.setattr(sd, "generate_scene", recorded)
        for sources, generated in [(tuple(sd.DATA_SOURCES), 6), (("captions",), 6),
                                   (DETECTION_SOURCES, 4)]:
            calls.clear()
            sd.sampler_for_sources(
                seed=1, sources=sources, steps=12, caption_count=6, detection_scene_count=4,
                caption_batch=2, detection_batch=2, grid_size=4,
            )
            assert sorted(calls) == list(range(generated)), sources

    def test_single_image_batch_rejected_with_its_step(self):
        # two scenes with unequal detection counts: the round-robin tail drains one scene
        with pytest.raises(ValidationError, match="detection batch of step 6 "):
            sd.sampler_for_sources(
                seed=3, sources=tuple(sd.DATA_SOURCES), steps=30, caption_count=8,
                detection_scene_count=2, caption_batch=4, detection_batch=4, grid_size=4,
            )

    def test_detection_batches_mix_scenes(self):
        batches = sd.sampler_for_sources(
            seed=5, sources=("captions", "object_labels", "region_descriptions"),
            steps=30, caption_count=8, detection_scene_count=8,
            caption_batch=2, detection_batch=4, grid_size=4,
        )
        for batch in batches:
            if batch.kind == "detection":
                idents = {s.scene.ident for s in batch.samples}
                assert len(idents) >= 2
