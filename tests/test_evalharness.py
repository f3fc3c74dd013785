"""Scoring protocols: trivial decisions, enumeration oracles, invariances."""

import collections
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finegrain import evalharness as ev
from finegrain import synthdata as sd
from finegrain import tensor
from finegrain.config import RunConfig
from finegrain.errors import EmptyInputError, ValidationError
from finegrain.model import Encoded, VLModel
from finegrain.seeding import rng_for
from finegrain.vocab import Vocabulary

from support import micro_config

MICRO = micro_config()


def quad(s00, s01, s10, s11):
    """A row (c0_i0, c0_i1, c1_i0, c1_i1): sJK scores caption J with image K."""
    return (s00, s01, s10, s11)


class TestPairwiseRanking:
    def test_basic_decisions(self):
        assert ev.pairwise_ranking_accuracy([(0.7, 0.3)]) == 1.0
        assert ev.pairwise_ranking_accuracy([(0.5, 0.5)]) == 0.0  # tie fails
        assert ev.pairwise_ranking_accuracy([(0.9, 0.1), (0.2, 0.8), (0.6, 0.5)]) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            ev.pairwise_ranking_accuracy([])


class TestThresholdAccuracy:
    def test_boundary_decisions(self):
        # rows (true statement, false statement); a true one needs > 0.5, a false one < 0.5
        assert ev.threshold_accuracy([(0.6, 0.4)]) == 1.0
        assert ev.threshold_accuracy([(0.5, 0.5)]) == 0.0
        assert ev.threshold_accuracy([(0.6, 0.5)]) == 0.5
        assert ev.threshold_accuracy([(0.5, 0.4)]) == 0.5


class TestWinoground:
    def test_perfect_scorer(self):
        assert ev.winoground_scores([quad(1, 0, 0, 1)]) == (1.0, 1.0, 1.0)

    def test_partial_quad(self):
        # text fails because 0.7 is not greater than 0.8; image holds
        assert ev.winoground_scores([quad(0.9, 0.8, 0.2, 0.7)]) == (0.0, 1.0, 0.0)

    def test_matches_enumeration_over_all_24_orderings(self):
        # independent oracle: caption/image matching via argmax over ranks
        text_expected = image_expected = group_expected = 0
        got_text = got_image = got_group = 0
        for perm in itertools.permutations([4.0, 3.0, 2.0, 1.0]):
            s00, s01, s10, s11 = perm
            text_ok = int(np.argmax([s00, s10]) == 0 and np.argmax([s01, s11]) == 1)
            image_ok = int(np.argmax([s00, s01]) == 0 and np.argmax([s10, s11]) == 1)
            text_expected += text_ok
            image_expected += image_ok
            group_expected += text_ok and image_ok
            t, i, g = ev.winoground_scores([quad(s00, s01, s10, s11)])
            got_text += t
            got_image += i
            got_group += g
        assert (got_text, got_image, got_group) == (text_expected, image_expected, group_expected)
        assert group_expected / 24 == pytest.approx(1 / 6)

    def test_random_scorer_expectations(self):
        rng = rng_for(2, "mc")
        scores = rng.random((100_000, 4))
        quads = [quad(*row) for row in scores]
        text, image, group = ev.winoground_scores(quads)
        assert abs(text - 0.25) < 0.01
        assert abs(image - 0.25) < 0.01
        assert abs(group - 1 / 6) < 0.01

    def test_group_dominated_by_text_and_image(self):
        rng = rng_for(3, "dom")
        quads = [quad(*row) for row in rng.random((2000, 4))]
        text, image, group = ev.winoground_scores(quads)
        assert group <= min(text, image)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4),
                    min_size=1, max_size=8))
    def test_additive_scorer_scores_zero(self, terms):
        # score(cJ, iK) = f(cJ) + g(iK): text needs f0 > f1 and f1 > f0, image g0 > g1 and
        # g1 > g0.  Rounding is monotone, so a rounded sum cannot reverse an order either.
        quads = [quad(f0 + g0, f0 + g1, f1 + g0, f1 + g1) for f0, f1, g0, g1 in terms]
        assert ev.winoground_scores(quads) == (0.0, 0.0, 0.0)


class TestRetrievalRecall:
    def test_identity_dominant_table(self):
        table = np.eye(5) + 0.01
        assert ev.retrieval_recall(table, 1) == (1.0, 1.0)

    def test_constant_table_tie_break(self):
        n = 6
        tr, ir = ev.retrieval_recall(np.full((n, n), 0.5), 1)
        assert tr == ir == pytest.approx(1 / n)

    def test_matches_brute_force_on_random_tables(self):
        rng = rng_for(5, "retrieval")
        tables = [rng.random((8, 8)) for _ in range(20)]
        tables.append(np.round(rng.random((8, 8)), 1))  # ties off the diagonal
        for table in tables:
            for k in (1, 3, 8):
                tr, ir = ev.retrieval_recall(table, k)

                def brute(m):
                    hits = 0
                    for i in range(8):
                        order = sorted(range(8), key=lambda j: (-m[i][j], j))
                        hits += order.index(i) < k
                    return hits / 8

                assert tr == brute(table)
                assert ir == brute(table.T)
                assert type(tr) is type(ir) is float

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            ev.retrieval_recall(np.eye(4), 5)


# bounded, so scaling by 2**7 is exact; the sampled values make ties likely
SCORE = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=-1e6, max_value=1e6))


def dense_ranks(values: np.ndarray) -> np.ndarray:
    return np.unique(values, return_inverse=True)[1].reshape(values.shape).astype(np.float64)


# strictly increasing maps that keep every comparison between finite floats
MONOTONE_MAPS = {"dense_ranks": dense_ranks, "times_2**7": lambda values: values * 2.0**7}


@pytest.mark.parametrize("transform", MONOTONE_MAPS.values(), ids=MONOTONE_MAPS)
class TestMonotoneInvariance:
    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(SCORE, SCORE), min_size=1, max_size=8))
    def test_pairwise_ranking(self, transform, rows):
        rows = np.array(rows)
        assert ev.pairwise_ranking_accuracy(transform(rows)) == ev.pairwise_ranking_accuracy(rows)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(SCORE, SCORE, SCORE, SCORE), min_size=1, max_size=8))
    def test_winoground(self, transform, rows):
        rows = np.array(rows)
        assert ev.winoground_scores(transform(rows)) == ev.winoground_scores(rows)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_retrieval_recall(self, transform, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        table = np.array(data.draw(st.lists(SCORE, min_size=n * n, max_size=n * n)))
        table = table.reshape(n, n)
        for k in range(1, n + 1):
            assert ev.retrieval_recall(transform(table), k) == ev.retrieval_recall(table, k)


def test_threshold_accuracy_is_the_exception():
    # it reads each score against the fixed level 0.5, which a transform can move past
    assert ev.threshold_accuracy(np.array([(0.6, 0.4)])) == 1.0
    assert ev.threshold_accuracy(np.array([(0.6, 0.4)]) * 2.0**7) == 0.5
    assert ev.threshold_accuracy(np.array([(0.6, 0.55)])) == 0.5
    assert ev.threshold_accuracy(dense_ranks(np.array([(0.6, 0.55)]))) == 1.0


def semantic_match(scene: sd.Scene, text: str) -> bool:
    """Independent truth oracle: parse template text against scene geometry."""
    tokens = text.split()
    combos = {(o.color, o.shape): o for o in scene.objects}

    if tokens[:2] == ["there", "is"]:
        negated = "no" in tokens
        color, shape = tokens[-2], tokens[-1]
        present = (color, shape) in combos
        return present != negated
    if tokens[:2] == ["there", "are"]:
        numeral, plural = tokens[3], tokens[4]
        shape = next(s for s, p in sd.PLURAL.items() if p == plural)
        count = sum(1 for o in scene.objects if o.shape == shape)
        return count == sd.NUMERALS.index(numeral) + 1
    # relation statement: "the C S is REL... the C2 S2"
    color_a, shape_a = tokens[1], tokens[2]
    color_b, shape_b = tokens[-2], tokens[-1]
    rel = "left of" if "left" in tokens else (
        "right of" if "right" in tokens else ("above" if "above" in tokens else "below"))
    a = combos.get((color_a, shape_a))
    b = combos.get((color_b, shape_b))
    if a is None or b is None:
        return False
    return sd.relation_between(a, b) == rel


class TestRunBenchmark:
    def manifest(self, n=4):
        return ev.default_manifest(eval_seed=77, per_subtask=n, grid_size=4, retrieval_count=0)

    def test_oracle_scorer_scores_every_protocol_perfectly(self):
        scorer = lambda scene, text: 1.0 if semantic_match(scene, text) else 0.0
        report = ev.run_benchmark(scorer, self.manifest())
        for name, value in report.metrics.items():
            assert value == 1.0, name

    def test_anti_oracle_fails_every_strict_protocol(self):
        scorer = lambda scene, text: 0.0 if semantic_match(scene, text) else 1.0
        report = ev.run_benchmark(scorer, self.manifest())
        for tag in ev.PAIRWISE_SUBTASKS + ev.FOIL_GROUP_SUBTASKS:
            assert report.metrics[tag] == 0.0
        assert report.metrics["relation_swap_text"] == 0.0
        assert report.metrics["relation_swap_image"] == 0.0
        assert report.metrics["relation_swap_group"] == 0.0
        assert report.metrics[ev.THRESHOLD_SUBTASK] == 0.0

    def test_constant_scorer_fails_tie_rules(self):
        report = ev.run_benchmark(lambda s, t: 0.5, self.manifest())
        assert report.metrics[ev.THRESHOLD_SUBTASK] == 0.0
        for tag in ev.PAIRWISE_SUBTASKS + ev.FOIL_GROUP_SUBTASKS:
            assert report.metrics[tag] == 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.5)
    def test_constant_scorer_on_the_default_manifest(self, constant):
        config = RunConfig(seed=0)
        manifest = ev.default_manifest(config.eval_seed, config.eval_per_subtask,
                                       config.patch_grid, config.retrieval_count)
        report = ev.run_benchmark(lambda scene, text: constant, manifest)
        for name in ev.FOIL_GROUP_SUBTASKS + ev.PAIRWISE_SUBTASKS + (
                "relation_swap_text", "relation_swap_image", "relation_swap_group"):
            assert report.metrics[name] == 0.0, name  # ties count as wrong
        # a constant on one side of 0.5 puts exactly one statement of each pair right
        assert report.metrics[ev.THRESHOLD_SUBTASK] == (0.0 if constant == 0.5 else 0.5)
        # ties rank the lower index first, so only item 0 finds its match
        n = config.retrieval_count
        assert report.metrics["retrieval_tr@1"] == report.metrics["retrieval_ir@1"] == 1 / n

    def test_counts_match_manifest(self):
        report = ev.run_benchmark(lambda s, t: 0.5, self.manifest(n=3))
        for row in self.manifest(n=3)["subtasks"]:
            tag = row["tag"]
            key = tag if tag != "relation_swap" else "relation_swap_text"
            assert report.counts[key] == 3

    def test_score_dump_of_a_retrieval_only_report_is_empty(self, tmp_path):
        manifest = {"grid_size": 4, "subtasks": [], "retrieval": {"seed": 77, "count": 3}}
        report = ev.run_benchmark(lambda scene, text: 0.5, manifest)
        path = tmp_path / "scores.tsv"
        ev.write_scores(path, report)
        assert path.read_bytes() == b""

    def test_unknown_subtask_tag(self):
        manifest = {"grid_size": 4, "subtasks": [{"tag": "nope", "seed": 1, "count": 1}]}
        with pytest.raises(ValidationError):
            ev.run_benchmark(lambda s, t: 0.5, manifest)

    def test_monotone_transform_leaves_strict_protocols_unchanged(self):
        rng = rng_for(11, "mono")
        cache = {}

        def noisy(scene, text):
            key = (scene.ident, text)
            if key not in cache:
                cache[key] = float(rng.random())
            return cache[key]

        def transformed(scene, text):
            return float(np.tanh(3.0 * noisy(scene, text)) + 0.1)

        manifest = self.manifest(n=5)
        base = ev.run_benchmark(noisy, manifest)
        moved = ev.run_benchmark(transformed, manifest)
        for name in base.metrics:
            if name == ev.THRESHOLD_SUBTASK:
                continue  # anchored to the 0.5 level, exempt by design
            assert base.metrics[name] == moved.metrics[name], name

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_additive_scorer_scores_zero_on_relation_swap(self, seed):
        rng = rng_for(seed, "additive")
        text_terms, image_terms = {}, {}

        def additive(scene, text):
            f = text_terms.setdefault(text, float(rng.normal()))
            return f + image_terms.setdefault(scene.ident, float(rng.normal()))

        manifest = {"grid_size": 4,
                    "subtasks": [{"tag": ev.QUAD_SUBTASK, "seed": 77, "count": 8}]}
        report = ev.run_benchmark(additive, manifest)
        assert len(np.unique(report.cells[ev.QUAD_SUBTASK])) > 1
        for name in ("relation_swap_text", "relation_swap_image", "relation_swap_group"):
            assert report.metrics[name] == 0.0, name

    def test_order_permutation_invariance(self):
        values = [(0.9, 0.1), (0.2, 0.8), (0.7, 0.69), (0.5, 0.5)]
        rng = rng_for(13, "perm")
        base = ev.pairwise_ranking_accuracy(values)
        for _ in range(5):
            perm = list(values)
            rng.shuffle(perm)
            assert ev.pairwise_ranking_accuracy(perm) == base

    def test_untrained_model_mean_score_near_half(self):
        model = VLModel(MICRO, seed=123)
        score = ev.model_scorer(model)
        values = []
        for i in range(300):
            scene = sd.generate_scene(17, i, grid_size=2)
            values.append(score(scene, sd.caption_of(scene).text))
        values = np.array(values)
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert abs(values.mean() - 0.5) < 0.1

    def test_model_scorer_deterministic(self):
        scene = sd.generate_scene(19, 0, grid_size=2)
        text = sd.caption_of(scene).text
        a = ev.model_scorer(VLModel(MICRO, seed=7))(scene, text)
        b = ev.model_scorer(VLModel(MICRO, seed=7))(scene, text)
        assert a == b


def taped_score(model: VLModel, scene: sd.Scene, text: str) -> float:
    """The per-pair scoring path: both encoders and the fusion, recorded on the tape."""
    text_states = model.encode_text(model.config.vocab.encode_wrapped(text))
    cross_cls = model.cross_cls(text_states, model.encode_images([scene.grid]), [(0, 0)])
    assert cross_cls.requires_grad
    return model.matching_probabilities(cross_cls)[0]


# Two units in the last place of a score in [0.5, 1).  At batch one the last
# cross layer's [CLS] query rows and the matching head's product run as
# matrix-vector products, and on a batch as matrix products.
SCORE_ATOL = 2.3e-16


def scored_pairs(model: VLModel, manifest: dict,
                 batched: bool = False) -> list[tuple[sd.Scene, str, float]]:
    """Every (scene, text, score) that one `run_benchmark` call with a fresh scorer makes.

    `batched` gives the scorer the manifest, so that it fuses the pairs in batches.
    """
    score = ev.model_scorer(model, manifest if batched else None)
    seen = []

    def recorded(scene, text):
        seen.append((scene, text, score(scene, text)))
        return seen[-1][2]

    ev.run_benchmark(recorded, manifest)
    return seen


class TestModelScorer:
    # grid 2 with a retrieval table: cells share scenes and texts within an
    # item, and the retrieval scenes are equal to subtask scenes of the same seed
    MANIFEST = ev.default_manifest(eval_seed=77, per_subtask=3, grid_size=2, retrieval_count=4)

    def test_cached_scores_equal_the_taped_per_pair_path(self):
        model = VLModel(MICRO, seed=5)
        pairs = scored_pairs(model, self.MANIFEST)
        assert len({t for _, t, _ in pairs}) < len(pairs)
        assert len({s.grid.tobytes() for s, _, _ in pairs}) < len({id(s) for s, _, _ in pairs})
        for scene, text, value in pairs:
            assert value == taped_score(model, scene, text), (scene.ident, text)

    def test_each_distinct_input_encoded_once(self, monkeypatch):
        # each call's first argument; encode_image is recorded to show that each
        # image encode is one encode_images batch, with no per-grid encode beside it
        calls = {"encode_image": [], "encode_images": [], "encode_texts": []}
        for name in calls:
            def recorded(self, inputs, *rest, _name=name, _original=getattr(VLModel, name)):
                calls[_name].append(inputs)
                return _original(self, inputs, *rest)
            monkeypatch.setattr(VLModel, name, recorded)
        grid_rows = MICRO.num_patches + 1
        for chunk_rows, batched in itertools.product((ev.CHUNK_ROWS, 16), (False, True)):
            monkeypatch.setattr(ev, "CHUNK_ROWS", chunk_rows)
            for made in calls.values():
                made.clear()
            pairs = scored_pairs(VLModel(MICRO, seed=5), self.MANIFEST, batched)
            grids = [grid.tobytes() for call in calls["encode_images"] for grid in call]
            texts = [tuple(ids) for call in calls["encode_texts"] for ids in call]
            assert [len(stack) for stack in calls["encode_image"]] == list(
                map(len, calls["encode_images"]))
            assert sorted(grids) == sorted({s.grid.tobytes() for s, _, _ in pairs})
            assert sorted(texts) == sorted({tuple(MICRO.vocab.encode_wrapped(t))
                                            for _, t, _ in pairs})
            assert all(len(call) * grid_rows <= chunk_rows or len(call) == 1
                       for call in calls["encode_images"])
            # one token length per text encode, so no [PAD] row is encoded
            assert all(len(set(map(len, call))) == 1 for call in calls["encode_texts"])
            assert max(len(call) * len(call[0]) for call in calls["encode_texts"]) <= chunk_rows
            if batched:
                assert len(calls["encode_images"]) < len(grids)
                assert len(calls["encode_texts"]) < len(texts)

    def test_default_config_scores_equal_those_of_grids_encoded_alone(self, monkeypatch):
        # at the default config a chunk's image encode runs its matrix products
        # on up to 30 grids' rows: a score must keep the bits it has when each
        # grid is encoded alone, in a batch of one
        model = VLModel(RunConfig(seed=0), seed=3)
        model.params["head.itm_w"].array *= 100  # scores far from 0.5 keep more bits of the logits
        manifest = ev.default_manifest(eval_seed=9000, per_subtask=20,
                                       grid_size=model.config.patch_grid, retrieval_count=8)
        batched = ev.run_benchmark(ev.model_scorer(model, manifest), manifest)
        encode_images = VLModel.encode_images
        monkeypatch.setattr(VLModel, "encode_images", lambda self, grids: Encoded.stack(
            [encode_images(self, [grid]) for grid in grids]))
        alone = ev.run_benchmark(ev.model_scorer(model, manifest), manifest)
        for tag, rows in batched.cells.items():
            assert np.array_equal(rows, alone.cells[tag]), tag
        assert np.array_equal(batched.retrieval, alone.retrieval)

    def test_each_distinct_text_tokenized_once(self, monkeypatch):
        calls = []
        encode_wrapped = Vocabulary.encode_wrapped

        def recorded(self, text):
            calls.append(text)
            return encode_wrapped(self, text)

        monkeypatch.setattr(Vocabulary, "encode_wrapped", recorded)
        for batched in (False, True):
            calls.clear()
            pairs = scored_pairs(VLModel(MICRO, seed=5), self.MANIFEST, batched)
            assert len({t for _, t, _ in pairs}) < len(pairs)
            assert sorted(calls) == sorted({t for _, t, _ in pairs})

    def test_manifest_scores_agree_with_per_pair_scores(self):
        model = VLModel(MICRO, seed=5)
        # a head far from chance spreads the scores, so batching moves some last bits
        model.params["head.itm_w"].array *= 30
        alone = scored_pairs(model, self.MANIFEST)
        batched = scored_pairs(model, self.MANIFEST, batched=True)
        by_pair = {}
        for (scene, text, one), (_, _, many) in zip(alone, batched, strict=True):
            assert abs(many - one) <= SCORE_ATOL, (scene.ident, text)
            assert by_pair.setdefault((scene.grid.tobytes(), text), many) == many
        assert len(by_pair) < len(batched)
        assert (ev.run_benchmark(ev.model_scorer(model), self.MANIFEST).metrics
                == ev.run_benchmark(ev.model_scorer(model, self.MANIFEST), self.MANIFEST).metrics)

    @staticmethod
    def fused_text_rows(monkeypatch) -> list[int]:
        """Each later `VLModel.fuse` call's text rows over its pairs, in call order.

        Each call must ask for exactly one position per pair, its [CLS] position.
        """
        rows = []
        fuse = VLModel.fuse

        def counted(self, texts, visions, pairs, requested):
            assert list(requested) == [[0]] * len(pairs)
            rows.append(len(pairs) * texts.visible.shape[1])
            return fuse(self, texts, visions, pairs, requested)

        monkeypatch.setattr(VLModel, "fuse", counted)
        return rows

    @pytest.mark.parametrize("chunk_rows", [ev.CHUNK_ROWS, 16])
    def test_each_fuse_reads_each_input_once(self, monkeypatch, chunk_rows):
        # a fuse takes a chunk's distinct texts and distinct grids and pairs them by
        # index: no text and no grid is stacked twice, though the manifest's pairs
        # share both
        monkeypatch.setattr(ev, "CHUNK_ROWS", chunk_rows)
        inputs = []  # each fuse's texts and grids, one state block per sample
        fuse = VLModel.fuse

        def recorded(self, texts, visions, *rest):
            inputs.append([np.split(encoded.states.array, len(encoded.visible))
                           for encoded in (texts, visions)])
            return fuse(self, texts, visions, *rest)

        monkeypatch.setattr(VLModel, "fuse", recorded)
        pairs = scored_pairs(VLModel(MICRO, seed=5), self.MANIFEST, batched=True)
        assert len({(s.grid.tobytes(), t) for s, t, _ in pairs}) > len(inputs)
        for blocks in itertools.chain.from_iterable(inputs):
            assert len({block.tobytes() for block in blocks}) == len(blocks)

    def test_every_fuse_runs_when_the_scorer_is_built(self, monkeypatch):
        # every call of run_benchmark's is then a lookup
        rows = self.fused_text_rows(monkeypatch)
        score = ev.model_scorer(VLModel(MICRO, seed=5), self.MANIFEST)
        fuses_when_built = len(rows)
        ev.run_benchmark(score, self.MANIFEST)
        assert fuses_when_built == len(rows) > 0

    @pytest.mark.parametrize("chunk_rows", [ev.CHUNK_ROWS, 16])
    def test_one_fuse_per_text_length_and_chunk(self, monkeypatch, chunk_rows):
        monkeypatch.setattr(ev, "CHUNK_ROWS", chunk_rows)
        rows = self.fused_text_rows(monkeypatch)
        pairs = scored_pairs(VLModel(MICRO, seed=5), self.MANIFEST, batched=True)
        distinct = {(s.grid.tobytes(), t) for s, t, _ in pairs}
        per_length = collections.Counter(len(MICRO.vocab.encode_wrapped(t)) for _, t in distinct)
        chunks = sum(-(-n // (chunk_rows // length)) for length, n in per_length.items())
        assert len(rows) <= chunks < len(pairs)
        assert max(rows) <= chunk_rows
        assert sum(rows) == sum(n * length for length, n in per_length.items())

    def test_no_cache_shared_across_scorers(self):
        model = VLModel(MICRO, seed=5)
        before = scored_pairs(model, self.MANIFEST)
        other = VLModel(MICRO, seed=6)
        for name, param in model.params.items():
            param.array = other.params[name].array.copy()
        after = scored_pairs(model, self.MANIFEST)
        for (scene, text, old), (_, _, new) in zip(before, after):
            assert new != old
            assert new == taped_score(other, scene, text)

    def test_scoring_records_nothing_on_the_tape(self):
        score = ev.model_scorer(VLModel(MICRO, seed=5))
        scene = sd.generate_scene(19, 0, grid_size=2)
        before = repr(tensor._SEQ)
        score(scene, sd.caption_of(scene).text)
        assert repr(tensor._SEQ) == before


def foil_fingerprint(items) -> list[tuple]:
    """FoilPair contents by value: scenes compare by identity."""
    def scene_key(scene):
        return None if scene is None else (scene.ident, scene.grid.tobytes())

    return [(scene_key(p.pos_scene), p.pos_text, scene_key(p.neg_scene), p.neg_text)
            for p in items]


class TestSubtaskItems:
    def test_memo_equals_a_fresh_build(self):
        ev.subtask_items.cache_clear()
        items = ev.subtask_items("svo_verb", 77, 3, 4)
        assert isinstance(items, tuple)
        assert ev.subtask_items("svo_verb", 77, 3, 4) is items
        fresh = ev.subtask_items.__wrapped__("svo_verb", 77, 3, 4)
        assert foil_fingerprint(items) == foil_fingerprint(fresh)

    def test_repeat_call_generates_no_scene(self, monkeypatch):
        ev.subtask_items.cache_clear()
        calls = []

        def counted(*args):
            calls.append(args)
            return sd.generate_scene(*args)

        monkeypatch.setattr(ev, "generate_scene", counted)
        ev.subtask_items("counting", 77, 3, 4)
        generated = len(calls)
        assert generated >= 3
        ev.subtask_items("counting", 77, 3, 4)
        assert len(calls) == generated

    def test_each_collected_item_builds_its_foil_once(self, monkeypatch):
        built = []
        make_foils = sd.make_foils

        def counted(scene, subtask):
            pair = make_foils(scene, subtask)  # a scene that cannot hold the foil raises here
            built.append(pair)
            return pair

        monkeypatch.setattr(sd, "make_foils", counted)
        monkeypatch.setattr(ev, "make_foils", counted)
        ev.subtask_items.cache_clear()
        items = [item for tag in ev.SUBTASKS for item in ev.subtask_items(tag, 77, 3, 4)]
        ev.subtask_items.cache_clear()
        assert len(items) == 3 * len(ev.SUBTASKS)
        assert len(built) == len(items)

    def test_scored_cells_pinned(self):
        """What the harness scores on the default manifest at eval seeds 9000-9002.

        In manifest order, each item's cells in `SUBTASKS[tag].cells` order:
        tag, role, label, scene ident, scene grid bytes and text; then each
        retrieval scene's grid and caption.  Pins the foil texts, the foil
        scenes and the cell order.
        """
        digest = hashlib.sha256()
        for seed in (9000, 9001, 9002):
            manifest = ev.default_manifest(seed, per_subtask=20, grid_size=4, retrieval_count=8)
            for row in manifest["subtasks"]:
                tag = row["tag"]
                for item in ev.subtask_items(tag, row["seed"], row["count"], manifest["grid_size"]):
                    for role, scene_field, text_field, label in ev.SUBTASKS[tag].cells:
                        scene = getattr(item, scene_field)
                        digest.update(f"{tag}\t{role}\t{label}\t{scene.ident}\t".encode())
                        digest.update(scene.grid.tobytes())
                        digest.update(getattr(item, text_field).encode() + b"\n")
            retrieval = manifest["retrieval"]
            scenes, texts = ev._retrieval_set(retrieval["seed"], retrieval["count"],
                                              manifest["grid_size"])
            for scene, text in zip(scenes, texts):
                digest.update(scene.grid.tobytes())
                digest.update(text.encode() + b"\n")
        assert digest.hexdigest() == (
            "c8e44efcc07a97abe9ee28d49ac996bf27e0d5b7a4325910eca619c4f65898f3")


class TestRetrievalTable:
    def test_repeat_call_generates_no_scene(self, monkeypatch):
        ev._retrieval_set.cache_clear()
        calls = []

        def counted(*args):
            calls.append(args)
            return sd.generate_scene(*args)

        monkeypatch.setattr(ev, "generate_scene", counted)

        def score(scene, text):
            return float(scene.grid.sum()) + len(text)

        first = ev.retrieval_table(score, 77, 3, 2)
        assert len(calls) == 3
        assert np.array_equal(ev.retrieval_table(score, 77, 3, 2), first)
        assert len(calls) == 3
