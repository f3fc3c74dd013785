"""Loss suite: analytic values, hand oracles, masking identities, training step."""

import hashlib
import math
import types

import numpy as np
import pytest

from finegrain import objectives as obj
from finegrain import ops
from finegrain import synthdata as sd
from finegrain import tensor
from finegrain.config import LOSS_ARMS, RunConfig
from finegrain.errors import NumericError, ValidationError
from finegrain.model import VLModel
from finegrain.seeding import rng_for
from finegrain.tensor import Tensor

from gradcheck import check_gradients
from support import FULL_IMAGE, aligned_pairs, micro_config


def ablation(losses="full", sources=tuple(sd.DATA_SOURCES)):
    """A run config with the `losses` arm on the `sources` set (the defaults: full on all)."""
    return RunConfig(seed=0, losses=losses, sources=",".join(sources))


def micro_model(seed=5, **overrides):
    return VLModel(micro_config(**overrides), seed=seed)


def single_box_loss(predicted: sd.BBox, target: sd.BBox) -> float:
    return obj.bbox_loss_terms(Tensor([predicted.corners()]), [target]).item()


def detection_batch(model, n=2, seed=3, kind="region_description"):
    samples = []
    i = 0
    while len(samples) < n:
        scene = sd.generate_scene(seed, i, grid_size=model.config.patch_grid)
        i += 1
        dets = [d for d in sd.detections_of(scene) if d.kind == kind]
        if dets:
            samples.append(dets[0])
    return sd.Batch("detection", tuple(samples))


def count_calls(model, method_name):
    """Record the arguments of every call to one of the model's methods."""
    calls = []
    method = getattr(model, method_name)

    def counted(*args):
        calls.append(args)
        return method(*args)

    setattr(model, method_name, counted)
    return calls


def caption_batch(model, n=2, seed=11):
    samples = tuple(
        sd.caption_of(sd.generate_scene(seed, i, grid_size=model.config.patch_grid))
        for i in range(n)
    )
    return sd.Batch("caption", samples)


def encode_batch(model, samples):
    """(visions, texts, ids, grids): the samples' batched unmasked encodings and their inputs."""
    ids = [model.config.vocab.encode_wrapped(s.text) for s in samples]
    grids = [s.scene.grid for s in samples]
    return model.encode_images(grids), model.encode_texts(ids), ids, grids


def matching_loss(model, visions, texts, grids):
    """The matching loss as a pass computes it: mined negatives fused after the positives."""
    n = len(grids)
    sims = model.project("img", visions.cls_rows(n)).array @ model.project(
        "txt", texts.cls_rows(n)).array.T
    negatives = obj.mine_hard_negatives(sims, grids)
    fused = model.fuse(texts, visions, np.column_stack(([*range(n), *negatives], [*range(n)] * 2)),
                       [[0]] * (2 * n))
    return obj.itm_loss(model, fused, range(2 * n))


def masked_lm_loss(model, ids, visions, rng):
    """The masked-LM term of a pass's draw, its copies encoded and fused on their own."""
    masked = obj.draw_masked_lm(ids, model.config.vocab, rng)
    if not masked.targets:
        return None
    texts = model.encode_texts(masked.copies)
    fused = model.fuse(texts, visions, np.column_stack((range(len(masked.items)), masked.items)),
                       masked.positions)
    return obj.mlm_loss(model, fused, range(len(masked.targets)), masked.targets)


def step_texts(model, samples, passes, rng):
    """(texts, text_feats, masked, grids): a step's one text encode of `samples`, for `passes`."""
    ids = [model.config.vocab.encode_wrapped(s.text) for s in samples]
    return (*obj.encode_step_texts(model, ids, passes, rng), [s.scene.grid for s in samples])


class TestContrastiveLoss:
    def test_identical_feats_give_log_n(self):
        feats = Tensor(np.tile([[1.0, 0.0, 0.0]], (4, 1)))
        loss = obj.contrastive_loss(feats, feats, Tensor(1.0))
        assert loss.item() == pytest.approx(math.log(4), abs=1e-9)

    def test_orthonormal_pairs_saturate_at_low_temperature(self):
        feats = Tensor(np.eye(4))
        assert obj.contrastive_loss(feats, feats, Tensor(0.05)).item() < 1e-6

    def test_matches_independent_softmax_recomputation(self):
        rng = rng_for(0, "cl-oracle")
        img = rng.normal(size=(3, 5))
        img /= np.linalg.norm(img, axis=1, keepdims=True)
        txt = rng.normal(size=(3, 5))
        txt /= np.linalg.norm(txt, axis=1, keepdims=True)
        sims = img @ txt.T

        def ce(matrix):
            probs = np.exp(matrix) / np.exp(matrix).sum(axis=1, keepdims=True)
            return float(-np.log(np.diag(probs)).mean())

        expected = 0.5 * (ce(sims) + ce(sims.T))
        got = obj.contrastive_loss(Tensor(img), Tensor(txt), Tensor(1.0)).item()
        assert got == pytest.approx(expected, rel=1e-12)


class TestItmLoss:
    def test_indifferent_head_gives_log_two(self):
        model = micro_model()
        model.params["head.itm_w"].array[:] = 0.0
        model.params["head.itm_b"].array[:] = 0.0
        batch = caption_batch(model, n=3)
        visions, texts, _, grids = encode_batch(model, batch.samples)
        loss = matching_loss(model, visions, texts, grids)
        assert loss.item() == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_hand_computed_bce(self):
        model = micro_model(seed=8)
        batch = caption_batch(model, n=2, seed=29)
        visions, texts, ids, grids = encode_batch(model, batch.samples)
        loss = matching_loss(model, visions, texts, grids).item()

        # independent recomputation from matching probabilities, one pair at a time
        def probability(i, j):
            text = model.encode_texts([ids[j]])
            cross = model.fuse(text, model.encode_images([grids[i]]), [(0, 0)],
                               [range(len(ids[j]))])
            return model.matching_probabilities(tensor.take_rows(cross, [0]))[0]

        probs = [probability(i, i) for i in range(2)]
        # with 2 samples the only possible negative for i is 1 - i
        neg_probs = [probability(i, j) for i, j in ((0, 1), (1, 0))]
        expected = -np.mean([np.log(p) for p in probs] + [np.log(1 - p) for p in neg_probs])
        assert loss == pytest.approx(float(expected), rel=1e-9)

    def test_one_head_call_for_all_positives_and_negatives(self):
        model = micro_model(seed=8)
        batch = caption_batch(model, n=3, seed=29)
        visions, texts, _, grids = encode_batch(model, batch.samples)
        calls = count_calls(model, "itm_logits")
        matching_loss(model, visions, texts, grids)
        assert len(calls) == 1
        assert calls[0][0].shape == (6, model.config.hidden_dim)

    def test_hardest_negative_is_argmax_similarity(self):
        sims = np.array([[0.9, 0.2, 0.8], [0.1, 0.5, 0.7], [0.3, 0.9, 0.2]])
        grids = [np.full((1,), i) for i in range(3)]
        assert obj.mine_hard_negatives(sims, grids) == [2, 2, 1]


class TestMlmLoss:
    def test_uniform_logits_value(self):
        from finegrain.ops import softmax_cross_entropy
        loss = softmax_cross_entropy(Tensor(np.zeros((1, 50))), [7])
        assert loss.item() == pytest.approx(math.log(50), abs=1e-9)

    def test_mask_selection_deterministic_under_seed(self):
        model = micro_model()
        ids = model.config.vocab.encode_wrapped("a red circle is above a blue square")
        picks1 = obj.select_mask_positions(ids, model.config.vocab, rng_for(3, "m"))
        picks2 = obj.select_mask_positions(ids, model.config.vocab, rng_for(3, "m"))
        assert picks1 == picks2
        assert all(model.config.vocab.is_maskable(ids[p]) for p in picks1)

    def test_matches_plain_numpy_cross_entropy(self, monkeypatch):
        monkeypatch.setattr(obj, "MLM_MASK_RATE", 0.5)
        model = micro_model(seed=13)
        vocab = model.config.vocab
        scene = sd.generate_scene(41, 2, grid_size=2)
        ids = vocab.encode_wrapped(sd.caption_of(scene).text)
        vision = model.encode_images([scene.grid])
        loss = masked_lm_loss(model, [ids], vision, rng_for(5, "mlm"))
        assert loss is not None
        positions = obj.select_mask_positions(ids, vocab, rng_for(5, "mlm"))
        masked = list(ids)
        for p in positions:
            masked[p] = vocab.mask_id
        states = model.encode_texts([masked])
        fused = model.fuse(states, model.encode_images([scene.grid]), [(0, 0)],
                           [range(len(masked))])
        logits = model.mlm_logits(fused).array[positions]
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -np.mean([log_probs[r, ids[p]] for r, p in enumerate(positions)])
        assert loss.item() == pytest.approx(float(expected), rel=1e-12)

    def test_one_head_call_on_the_masked_rows_only(self, monkeypatch):
        monkeypatch.setattr(obj, "MLM_MASK_RATE", 0.5)
        model = micro_model(seed=13)
        vocab = model.config.vocab
        scenes = [sd.generate_scene(41, i, grid_size=2) for i in range(3)]
        ids = [vocab.encode_wrapped(sd.caption_of(s).text) for s in scenes]
        vision = model.encode_images([s.grid for s in scenes])
        calls = count_calls(model, "mlm_logits")
        assert masked_lm_loss(model, ids, vision, rng_for(5, "mlm")) is not None
        rng = rng_for(5, "mlm")
        count = sum(len(obj.select_mask_positions(i, vocab, rng)) for i in ids)
        assert count > 0
        assert len(calls) == 1
        assert calls[0][0].shape == (count, model.config.hidden_dim)

    def test_zero_selection_skips_with_flag(self, monkeypatch):
        monkeypatch.setattr(obj, "MLM_MASK_RATE", 0.0)
        model = micro_model()
        ids = model.config.vocab.encode_wrapped("a red circle")
        scene = sd.generate_scene(43, 0, grid_size=2)
        vision = model.encode_images([scene.grid])
        assert masked_lm_loss(model, [ids], vision, rng_for(1, "z")) is None


class TestVisualMask:
    def test_full_cover(self):
        mask = sd.patch_mask(FULL_IMAGE, 4)
        assert mask.all() and mask.shape == (4, 4)

    def test_bbox_inside_single_patch(self):
        mask = sd.patch_mask(sd.BBox(0.05, 0.05, 0.20, 0.20), 4)
        expected = np.zeros((4, 4), dtype=bool)
        expected[0, 0] = True
        assert np.array_equal(mask, expected)

    @pytest.mark.parametrize("bbox, cell", [
        (sd.BBox(0.0, 0.0, 0.25, 0.25), (0, 0)),
        (sd.BBox(0.25, 0.5, 0.5, 0.75), (2, 1)),
    ])
    def test_box_on_cell_edges_covers_only_its_cell(self, bbox, cell):
        """A box edge on a cell edge touches the next cell with zero area: not covered."""
        expected = np.zeros((4, 4), dtype=bool)
        expected[cell] = True
        assert np.array_equal(sd.patch_mask(bbox, 4), expected)

    def test_quarter_box_against_intersection_oracle(self):
        bbox = sd.BBox(0.2, 0.2, 0.3, 0.3)
        mask = sd.patch_mask(bbox, 4)
        expected = np.zeros((4, 4), dtype=bool)
        expected[0, 0] = expected[0, 1] = expected[1, 0] = expected[1, 1] = True
        assert np.array_equal(mask, expected)

    def test_random_boxes_match_independent_oracle(self):
        rng = rng_for(3, "mask-oracle")
        for _ in range(200):
            g = int(rng.integers(2, 7))
            x1, y1 = rng.uniform(0, 0.8, size=2)
            bbox = sd.BBox(x1, y1, x1 + rng.uniform(0.05, 1 - x1 - 1e-9),
                           y1 + rng.uniform(0.05, 1 - y1 - 1e-9))
            mask = sd.patch_mask(bbox, g)
            for r in range(g):
                for c in range(g):
                    # independent rectangle-intersection test via interval logic
                    cell_x = (c / g, (c + 1) / g)
                    cell_y = (r / g, (r + 1) / g)
                    overlap_x = max(cell_x[0], bbox.x1) < min(cell_x[1], bbox.x2)
                    overlap_y = max(cell_y[0], bbox.y1) < min(cell_y[1], bbox.y2)
                    assert mask[r, c] == (overlap_x and overlap_y)
            assert mask.any()


class TestBBoxLoss:
    def test_coincident_boxes_exactly_zero(self):
        box = sd.BBox(0.1, 0.2, 0.6, 0.9)
        assert single_box_loss(box, box) == 0.0

    def test_worked_example(self):
        pred = sd.BBox(0.0, 0.0, 0.5, 0.5)
        target = sd.BBox(0.5, 0.5, 1.0, 1.0)
        # L1 = 4 * 0.5 = 2.0; IoU = 0; enclosing area 1; union 0.5
        # GIoU = 0 - (1 - 0.5) / 1 = -0.5; loss = 2.0 + 1.5 = 3.5
        assert single_box_loss(pred, target) == pytest.approx(3.5, abs=1e-9)

    def test_giou_term_symmetric(self):
        rng = rng_for(9, "giou")
        for _ in range(50):
            def rand_box():
                x1, y1 = rng.uniform(0, 0.7, size=2)
                return sd.BBox(x1, y1, x1 + rng.uniform(0.05, 1 - x1 - 1e-9),
                               y1 + rng.uniform(0.05, 1 - y1 - 1e-9))
            a, b = rand_box(), rand_box()
            # loss = L1 + (1 - GIoU) and L1 is symmetric, so the GIoU
            # term is symmetric iff the loss is; GIoU in (-1, 1] puts it in [0, 2)
            l1 = sum(abs(p - q) for p, q in zip(a.corners(), b.corners()))
            giou_term = single_box_loss(a, b) - l1
            assert single_box_loss(a, b) == pytest.approx(single_box_loss(b, a), abs=1e-12)
            assert -1e-12 <= giou_term < 2.0

    def test_gradient_of_corner_tensor(self):
        target = sd.BBox(0.2, 0.3, 0.7, 0.8)
        corners = Tensor(np.array([[0.1, 0.15, 0.55, 0.62]]), requires_grad=True)
        err = check_gradients(lambda: obj.bbox_loss_terms(corners, [target]), [corners])
        assert err < 1e-3

    def test_batched_rows_equal_mean_of_single_rows(self):
        rng = rng_for(13, "bbox-batch")
        low = rng.uniform(0.0, 0.6, size=(16, 2))
        high = low + rng.uniform(0.05, 0.4, size=(16, 2))
        boxes = [sd.BBox(x1, y1, x2, y2) for (x1, y1), (x2, y2) in zip(low, high)]
        preds, targets = boxes[:8], boxes[8:]
        corners = Tensor(np.array([p.corners() for p in preds]))
        batched = obj.bbox_loss_terms(corners, targets).item()
        singles = [single_box_loss(p, t) for p, t in zip(preds, targets)]
        np.testing.assert_allclose(batched, np.mean(singles), rtol=1e-14)

    def test_gradient_of_stacked_rows_with_a_tied_corner(self):
        targets = [sd.BBox(0.2, 0.3, 0.7, 0.8), sd.BBox(0.1, 0.1, 0.5, 0.4),
                   sd.BBox(0.4, 0.2, 0.9, 0.6)]
        # row 0's x1 equals its target's, so both its max and its min tie
        start = np.array([[0.2, 0.15, 0.55, 0.62], [0.05, 0.2, 0.45, 0.5],
                          [0.3, 0.25, 0.8, 0.7]])
        # the loss has a kink at the tie, where finite differences average the
        # two one-sided slopes, so the tied coordinate is held fixed and every
        # other coordinate is checked with the tie in place
        keep = np.ones_like(start)
        keep[0, 0] = 0.0
        tied = Tensor(start * (1.0 - keep))
        free = Tensor(start.copy(), requires_grad=True)

        def f():
            return obj.bbox_loss_terms(tensor.add(tensor.mul(free, Tensor(keep)), tied), targets)

        assert check_gradients(f, [free]) < 1e-3
        # a tie routes the same way in a stacked call as in a single-row call
        corners = Tensor(start.copy(), requires_grad=True)
        obj.bbox_loss_terms(corners, targets).backward()
        single = Tensor(start[:1].copy(), requires_grad=True)
        obj.bbox_loss_terms(single, targets[:1]).backward()
        np.testing.assert_allclose(3.0 * corners.grad[0], single.grad[0],
                                   rtol=1e-14)

    def test_tape_nodes_do_not_grow_with_rows(self):
        def nodes(n):
            corners = Tensor(np.tile([[0.1, 0.15, 0.55, 0.62]], (n, 1)), requires_grad=True)
            before = next(tensor._SEQ)
            obj.bbox_loss_terms(corners, [sd.BBox(0.2, 0.3, 0.7, 0.8)] * n)
            return next(tensor._SEQ) - before

        assert nodes(1) == nodes(4)


class TestVmaLosses:
    def test_full_box_identity_bit_exact(self, monkeypatch):
        monkeypatch.setattr(obj, "MLM_MASK_RATE", 0.4)
        model = micro_model(seed=17)
        batch = detection_batch(model, n=2, seed=51)
        full = tuple(
            sd.DetectionSample(s.scene, s.kind, s.text, FULL_IMAGE, s.entity_span_end)
            for s in batch.samples
        )
        _, _, [masked], grids = step_texts(model, full, 1, rng_for(7, "same"))
        assert masked is not None
        # both passes read the same masked copies, each pass its own copy of them in the
        # text batch, the box-masked one under full boxes
        ids = [model.config.vocab.encode_wrapped(s.text) for s in full]
        texts = model.encode_texts([*ids, *masked.copies, *masked.copies])
        text_feats = model.project("txt", texts.cls_rows(len(ids)))
        boxes = [sd.patch_mask(s.bbox, model.config.patch_grid) for s in full]
        _, terms = obj.fused_losses(model, texts, text_feats, grids, [masked, masked], boxes)

        vma = {name: terms.pop(name) for name in [*terms] if name.startswith("vma_")}
        assert [*vma] == ["vma_cl", "vma_itm", "vma_mlm"]
        assert vma["vma_cl"].item() == terms["cl"].item()
        assert vma["vma_itm"].item() == terms["itm"].item()
        assert vma["vma_mlm"].item() == terms["mlm"].item()

    def test_outside_box_invariance_bit_exact(self, monkeypatch):
        monkeypatch.setattr(obj, "MLM_MASK_RATE", 0.4)
        model = micro_model(seed=19)
        batch = detection_batch(model, n=2, seed=53, kind="attribute_label")
        rng_seed = rng_for(13, "probe")

        def scrambled(sample):
            mask = sd.patch_mask(sample.bbox, model.config.patch_grid)
            grid = sample.scene.grid.copy()
            noise = rng_seed.normal(size=grid.shape)
            grid[~mask] = noise[~mask]
            scene = sd.Scene(sample.scene.ident + "/scrambled", sample.scene.objects, grid)
            return sd.DetectionSample(scene, sample.kind, sample.text, sample.bbox,
                                      sample.entity_span_end)

        # the masked copies of both passes ride in one text batch; the box-masked pass
        # reads the second pass's copies, and its rows of the one fuse do not depend on
        # the unmasked pass's, which sees the scrambled patches
        texts, text_feats, masked, _ = step_texts(model, batch.samples, 2, rng_for(3, "vma"))
        assert masked[1] is not None

        def vma_terms(samples):
            grids = [s.scene.grid for s in samples]
            boxes = [sd.patch_mask(s.bbox, model.config.patch_grid) for s in samples]
            _, terms = obj.fused_losses(model, texts, text_feats, grids, masked, boxes)
            return {name: loss for name, loss in terms.items() if name.startswith("vma_")}

        base = vma_terms(batch.samples)
        noisy = vma_terms(tuple(scrambled(s) for s in batch.samples))
        assert [*base] == [*noisy] == ["vma_cl", "vma_itm", "vma_mlm"]
        assert base["vma_cl"].item() == noisy["vma_cl"].item()
        assert base["vma_itm"].item() == noisy["vma_itm"].item()
        assert base["vma_mlm"].item() == noisy["vma_mlm"].item()


class TestAblationConfig:
    """The checks on a `RunConfig`'s [ablation] section."""

    def test_vma_needs_detection_source(self):
        with pytest.raises(ValidationError, match="need a detection data source"):
            ablation("A+VMA", sources=frozenset({"captions"}))

    def test_valid_arms(self):
        ablation("A", sources=frozenset({"captions"}))
        ablation("pevl", sources=frozenset({"captions", "region_descriptions"}))


class TestPositionTokenIds:
    def test_default_detection_stream_pinned(self):
        # every position-token id of the default detection stream: a change to how a
        # box is quantized or inserted changes this digest
        config = RunConfig(seed=7, losses="pevl")
        kinds = ("object_label", "attribute_label", "region_description")
        scenes = [sd.generate_scene(config.data_seed, i, config.patch_grid)
                  for i in range(config.detection_scene_count)]
        stream = sd.detection_stream(scenes, kinds)
        ids = obj.step_ids(config, sd.Batch("detection", tuple(stream)))
        text = "\n".join(" ".join(str(i) for i in row) for row in ids)
        assert {s.kind for s in stream} == set(kinds)
        assert (len(ids), sum(len(row) for row in ids)) == (306, 3325)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "f290a54beb3790b99cc4206078ebf25881be74fe090ab53543e31178050fc5c1")


class TestTrainingStep:
    def test_caption_batch_composition(self):
        model = micro_model(seed=23, losses="A", sources="captions")
        optimizer = obj.SgdOptimizer(model.parameters(), lr=1e-3, clip_norm=1.0)
        values, total = obj.training_step(model, caption_batch(model), optimizer,
                                          rng_for(1, "step"))
        assert values.keys() == {"cl", "itm", "mlm"}
        assert all(name not in values for name in ("vma_cl", "vma_itm", "vma_mlm", "bbox"))
        assert total == pytest.approx(values["cl"] + values["itm"] + values["mlm"], abs=1e-9)

    def test_full_detection_batch_composition(self):
        model = micro_model(seed=23)  # the full arm on every source
        optimizer = obj.SgdOptimizer(model.parameters(), lr=1e-3, clip_norm=1.0)
        values, total = obj.training_step(model, detection_batch(model), optimizer,
                                          rng_for(2, "step"))
        assert [*values] == list(obj.LOSS_COMPONENTS)
        assert total == pytest.approx(sum(values.values()), abs=1e-9)

    def test_pevl_detection_batch(self):
        model = micro_model(seed=27, losses="pevl", max_len=32,
                            sources="captions,object_labels")
        optimizer = obj.SgdOptimizer(model.parameters(), lr=1e-3, clip_norm=1.0)
        batch = detection_batch(model, kind="object_label")
        values, _ = obj.training_step(model, batch, optimizer, rng_for(3, "step"))
        assert values.keys() == {"cl", "itm", "mlm"}

    @pytest.mark.parametrize("kind,expected", [("caption", 4), ("detection", 8)])
    def test_each_pass_encodes_each_image_once(self, kind, expected, monkeypatch):
        model = micro_model(seed=23)
        batch = caption_batch(model, n=4) if kind == "caption" else detection_batch(model, n=4)
        calls = []
        encode_images = VLModel.encode_images

        def counted(self, grids, visibilities=None):
            calls.append((list(grids), visibilities))
            return encode_images(self, grids, visibilities)

        monkeypatch.setattr(VLModel, "encode_images", counted)
        optimizer = obj.SgdOptimizer(model.parameters(), lr=1e-3, clip_norm=1.0)
        obj.training_step(model, batch, optimizer, rng_for(5, "count"))
        # one encode per step of every pass's copy of the batch: the unmasked grids, then
        # with VMA the same grids under their box masks; `expected` images in all
        [(grids, visibilities)] = calls
        passes = expected // 4
        assert len(grids) == expected
        assert all(a is b for a, b in zip(grids, [s.scene.grid for s in batch.samples] * passes))
        if passes == 1:
            assert visibilities is None
            return
        boxes = [sd.patch_mask(s.bbox, model.config.patch_grid) for s in batch.samples]
        assert [v is None for v in visibilities] == [True] * 4 + [False] * 4
        assert all(np.array_equal(v, box) for v, box in zip(visibilities[4:], boxes))

    @pytest.mark.parametrize("kind", ["caption", "detection"])
    def test_each_step_encodes_each_text_once(self, kind, monkeypatch):
        monkeypatch.setattr(obj, "MLM_MASK_RATE", 0.5)
        model = micro_model(seed=23)
        batch = caption_batch(model, n=4) if kind == "caption" else detection_batch(model, n=4)
        calls = []
        encode_texts = VLModel.encode_texts

        def counted(self, id_lists):
            calls.append([list(ids) for ids in id_lists])
            return encode_texts(self, id_lists)

        monkeypatch.setattr(VLModel, "encode_texts", counted)
        optimizer = obj.SgdOptimizer(model.parameters(), lr=1e-3, clip_norm=1.0)
        obj.training_step(model, batch, optimizer, rng_for(5, "count"))
        vocab = model.config.vocab
        ids = [vocab.encode_wrapped(s.text) for s in batch.samples]
        # one encode per step: the batch's texts, then every pass's masked copies, each
        # of which holds at least one [MASK]
        assert len(calls) == 1
        assert calls[0][:4] == ids
        assert len(calls[0]) > 4
        assert all(vocab.mask_id in copy for copy in calls[0][4:])

    @pytest.mark.parametrize("kind,passes", [("caption", 1), ("detection", 2)])
    def test_each_pass_fuses_once(self, kind, passes, monkeypatch):
        monkeypatch.setattr(obj, "MLM_MASK_RATE", 0.5)
        model = micro_model(seed=23)
        batch = caption_batch(model, n=4) if kind == "caption" else detection_batch(model, n=4)
        calls = count_calls(model, "fuse")
        copies = count_calls(model, "encode_texts")
        optimizer = obj.SgdOptimizer(model.parameters(), lr=1e-3, clip_norm=1.0)
        obj.training_step(model, batch, optimizer, rng_for(5, "count"))
        # one fuse per step reads the step's texts and every pass's visions, and pairs,
        # pass after pass, the positives, the mined negatives and the masked copies with
        # that pass's copy of the batch's images
        [(texts, visions, pairs, positions)] = calls
        assert len(texts.visible) > len(visions.visible) == 4 * passes
        pass_of = np.asarray(pairs)[:, 1] // 4
        assert list(pass_of) == sorted(pass_of) and set(pass_of) == set(range(passes))
        # and asks, per pass, for the [CLS] positions of the 2n positives and negatives,
        # then the [MASK] positions of the pass's copies, which follow the batch's texts
        # pass by pass
        [(step_ids,)] = copies
        pass_copies = iter(step_ids[4:])
        mask_id = model.config.vocab.mask_id
        positions = iter(positions)
        for p in range(passes):
            count = int((pass_of == p).sum())
            assert count > 2 * 4
            masked = [[pos for pos, token in enumerate(next(pass_copies)) if token == mask_id]
                      for _ in range(count - 2 * 4)]
            assert [list(next(positions)) for _ in range(count)] == [[0]] * (2 * 4) + masked
        assert next(pass_copies, None) is None
        assert next(positions, None) is None

    def test_vma_step_projects_the_texts_once(self):
        model = micro_model(seed=23)
        calls = count_calls(model, "project")
        optimizer = obj.SgdOptimizer(model.parameters(), lr=1e-3, clip_norm=1.0)
        obj.training_step(model, detection_batch(model, n=4), optimizer, rng_for(5, "count"))
        # the box-masked pass reuses the unmasked pass's text projection, and one image
        # projection maps both passes' images
        assert [(stream, len(cls_rows.array)) for stream, cls_rows in calls] == [
            ("txt", 4), ("img", 8)]

    # Tape nodes one default-config step records with one node per affine map, one text
    # encode, one image encode and one fuse per step: 122 per caption step, and 181 or
    # 186 per detection step (186 when both passes draw masked-LM positions; the step
    # here draws both).  Attention reads each image's keys and values by pair index, with
    # no gather node.  The fuse's last layer adds three gathers (its residual and query
    # rows, then the requested rows) and drops its zeroing of hidden rows when it returns
    # none.  A matmul and an add per affine map, an image encode or fuse per pass (258 or
    # 263), or a fuse per role, exceeds the ceiling.
    @pytest.mark.parametrize("kind,ceiling", [("caption", 134), ("detection", 209)])
    def test_default_step_stays_under_its_tape_node_ceiling(self, kind, ceiling):
        def tape_position():  # read the counter without advancing it, as perfbench does
            text = repr(tensor._SEQ)
            return int(text[text.index("(") + 1:text.index(")")])

        config = RunConfig(seed=7, steps=3, cadence=3)
        model = VLModel(config, seed=config.seed)
        optimizer = obj.SgdOptimizer(model.parameters(), lr=config.learning_rate,
                                     clip_norm=config.clip_norm)
        batches = sd.sampler_for_sources(
            seed=config.data_seed, sources=sorted(config.source_set()), steps=config.steps,
            caption_count=config.caption_count,
            detection_scene_count=config.detection_scene_count,
            caption_batch=config.caption_batch, detection_batch=config.detection_batch,
            grid_size=config.patch_grid)
        step = next(i for i, b in enumerate(batches, start=1) if b.kind == kind)
        before = tape_position()
        obj.training_step(model, batches[step - 1], optimizer,
                          rng_for(config.seed, "step", step))
        assert tape_position() - before <= ceiling

    @pytest.mark.parametrize("arm", sorted(LOSS_ARMS))
    def test_repeated_batch_decreases_total_quickly(self, arm):
        model = micro_model(seed=29, losses=arm, max_len=32 if LOSS_ARMS[arm].pevl else 24)
        optimizer = obj.SgdOptimizer(model.parameters(), lr=1e-2, clip_norm=1.0)
        if arm == "A":
            batch = caption_batch(model)
        else:
            batch = detection_batch(model, n=2, seed=61)
        _, first = obj.training_step(model, batch, optimizer, rng_for(0, "overfit"))
        best = first
        for step in range(1, 21):
            _, total = obj.training_step(model, batch, optimizer, rng_for(step, "overfit"))
            best = min(best, total)
        assert best < first


def cross_entropy(logits, targets):
    """Mean -log softmax(logits)[target] in plain numpy."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(targets)), targets].mean())


def checked_cross_entropy(logits, targets):
    """The tape's cross-entropy of `logits`, checked against plain numpy's."""
    loss = ops.softmax_cross_entropy(logits, targets)
    np.testing.assert_allclose(loss.item(), cross_entropy(logits.array, targets), rtol=1e-12)
    return loss


def per_role_step(model, batch, config, rng):
    """(terms, masked copies): a training step's terms, each pass encoded and each role fused
    on its own.

    The positives, the mined negatives and the masked LM each run their own
    fuse, and a pass's masked copies are encoded apart from the batch's texts,
    padded to their own longest.  The cross-entropies are checked against
    plain numpy over the heads.  On trainable weights the terms are on the
    tape.
    """
    vocab = model.config.vocab
    ids = [vocab.encode_wrapped(s.text) for s in batch.samples]
    grids = [s.scene.grid for s in batch.samples]
    n = len(ids)
    texts = model.encode_texts(ids)
    text_feats = model.project("txt", texts.cls_rows(n))
    terms, copies = {}, []

    def one_pass(prefix, visions):
        image_feats = model.project("img", visions.cls_rows(n))
        terms[f"{prefix}cl"] = obj.contrastive_loss(image_feats, text_feats, model.temperature())
        negatives = obj.mine_hard_negatives(image_feats.array @ text_feats.array.T, grids)
        positives = model.cross_cls(texts, visions, aligned_pairs(n))
        mined = model.cross_cls(texts, visions, np.column_stack((negatives, range(n))))
        logits = model.itm_logits(tensor.concat([positives, mined], 0))
        terms[f"{prefix}itm"] = checked_cross_entropy(logits, [1] * n + [0] * n)
        selections = [obj.select_mask_positions(t, vocab, rng) for t in ids]
        if not any(selections):
            selections = [obj.select_mask_positions(t, vocab, rng) for t in ids]
        items = [i for i in range(n) if selections[i]]
        if items:
            masked = [[vocab.mask_id if p in selections[i] else t for p, t in enumerate(ids[i])]
                      for i in items]
            copies.extend(masked)
            copies_encoded = model.encode_texts(masked)
            states = model.fuse(copies_encoded, visions,
                                np.column_stack((range(len(items)), items)),
                                [range(copies_encoded.visible.shape[1])] * len(items))
            seq = max(len(m) for m in masked)
            rows = [k * seq + p for k, i in enumerate(items) for p in selections[i]]
            targets = [ids[i][p] for i in items for p in selections[i]]
            terms[f"{prefix}mlm"] = checked_cross_entropy(
                tensor.take_rows(model.mlm_logits(states), rows), targets)
        return positives

    positives = one_pass("", model.encode_images(grids))
    if batch.kind == "detection" and config.arm.vma:
        masks = [sd.patch_mask(s.bbox, model.config.patch_grid) for s in batch.samples]
        one_pass("vma_", model.encode_images(grids, masks))
    if batch.kind == "detection" and config.arm.bbox:
        terms["bbox"] = obj.bbox_loss_terms(model.bbox_corners(positives),
                                            [s.bbox for s in batch.samples])
    return terms, copies


class TestPerRoleOracle:
    @pytest.mark.parametrize("kind", ["caption", "detection"])
    def test_step_terms_match_a_fuse_per_role(self, kind, monkeypatch):
        monkeypatch.setattr(obj, "MLM_MASK_RATE", 0.3)
        model = micro_model(seed=41)
        batch = caption_batch(model, n=4, seed=19) if kind == "caption" else \
            detection_batch(model, n=4, seed=57)
        config = ablation()  # VMA and bbox on
        expected, expected_copies = per_role_step(model.frozen(), batch, config,
                                                  rng_for(9, "oracle"))
        calls = count_calls(model, "encode_texts")
        optimizer = obj.SgdOptimizer(model.parameters(), lr=1e-3, clip_norm=1.0)
        values, _ = obj.training_step(model, batch, optimizer, rng_for(9, "oracle"))
        names = ["cl", "itm", "mlm"] + (["vma_cl", "vma_itm", "vma_mlm", "bbox"]
                                        if kind == "detection" else [])
        assert [*values] == [*expected] == names
        for name in names:
            np.testing.assert_allclose(values[name], expected[name].item(), rtol=1e-12,
                                       err_msg=name)
        # the same masked positions, drawn in the same order
        [(step_ids,)] = calls
        assert step_ids[len(batch.samples):] == expected_copies

    def test_merged_vma_step_gradients_match_a_two_pass_step(self, monkeypatch):
        monkeypatch.setattr(obj, "MLM_MASK_RATE", 0.3)
        model = micro_model(seed=41)
        batch = detection_batch(model, n=4, seed=57)
        terms, _ = per_role_step(model, batch, ablation(), rng_for(9, "oracle"))
        assert [*terms] == list(obj.LOSS_COMPONENTS)
        tensor.add_scalars(list(terms.values())).backward()
        expected = {name: param.grad for name, param in model.params.items()}
        for param in model.parameters():
            param.zero_grad()
        # an optimizer that applies no update leaves the step's gradients on the weights
        keep = types.SimpleNamespace(step=lambda: None)
        obj.training_step(model, batch, keep, rng_for(9, "oracle"))
        # an attention key bias shifts every score of a query alike, so its gradient is zero
        # but for rounding (about 1e-16 here): entries are compared relative to themselves,
        # and absolutely at 1e-12 of the largest gradient entry
        atol = 1e-12 * max(np.abs(grad).max() for grad in expected.values())
        for name, param in model.params.items():
            assert param.grad is not None and expected[name] is not None, name
            np.testing.assert_allclose(param.grad, expected[name], rtol=1e-10, atol=atol,
                                       err_msg=name)


class TestSgdOptimizer:
    def test_non_finite_gradient_rejected_before_any_update(self):
        model = micro_model(seed=37)
        params = model.parameters()
        finite = tensor.tsum(tensor.scale(params[0], 2.0))
        poisoned = tensor.tsum(tensor.scale(params[-1], float("nan")))
        tensor.add(finite, poisoned).backward()
        assert np.isnan(params[-1].grad).all()
        before = [p.array.copy() for p in params]
        with pytest.raises(NumericError):
            obj.SgdOptimizer(params, lr=1e-2, clip_norm=1.0).step()
        for p, old in zip(params, before):
            assert np.array_equal(p.array, old)


class TestLossGradients:
    @pytest.mark.parametrize("component", ["cl", "itm", "mlm", "vma", "bbox", "shared"])
    def test_finite_differences_through_model(self, component, monkeypatch):
        monkeypatch.setattr(obj, "MLM_MASK_RATE", 0.5)
        model = micro_model(seed=31)
        batch = detection_batch(model, n=2, seed=71)

        def f():
            if component in ("vma", "shared"):
                # both passes read one text encoding and projection, so their gradients sum
                texts, text_feats, masked, grids = step_texts(model, batch.samples, 2,
                                                              rng_for(1, "gc"))
                boxes = [sd.patch_mask(s.bbox, model.config.patch_grid) for s in batch.samples]
                _, terms = obj.fused_losses(model, texts, text_feats, grids, masked, boxes)
                vma = [loss for name, loss in terms.items() if name.startswith("vma_")]
                if component == "vma":
                    return tensor.add_scalars(vma)
                return tensor.add_scalars(list(terms.values()))
            visions, texts, ids, grids = encode_batch(model, batch.samples)
            if component == "cl":
                n = len(grids)
                return obj.contrastive_loss(model.project("img", visions.cls_rows(n)),
                                            model.project("txt", texts.cls_rows(n)),
                                            model.temperature())
            if component == "itm":
                return matching_loss(model, visions, texts, grids)
            if component == "mlm":
                loss = masked_lm_loss(model, ids, visions, rng_for(1, "gc"))
                assert loss is not None
                return loss
            return obj.bbox_loss_terms(model.bbox_corners(model.cross_cls(texts, visions,
                                                                          aligned_pairs(2))),
                                       [s.bbox for s in batch.samples])

        inputs = [
            model.params["vision.0.attn.wv"],
            model.params["cross.0.xattn.wq"],
            model.params["text.emb"],
            model.params["log_tau"],
        ]
        err = check_gradients(f, inputs, coords_per_input=10, rng=rng_for(7, component))
        assert err < 1e-3
