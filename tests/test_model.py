"""Model: encoders, masking, heads, position tokens, checkpoints."""

import base64
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from finegrain import evalharness as ev
from finegrain import model as fg_model
from finegrain import objectives as obj
from finegrain import ops
from finegrain import synthdata as sd
from finegrain import tensor
from finegrain.errors import (
    DegenerateMaskError,
    DependencyError,
    SequenceLengthError,
    ShapeError,
    ValidationError,
)
from finegrain.model import VLModel
from finegrain.seeding import rng_for
from finegrain.tensor import Tensor
from finegrain.vocab import POSITION_BINS, position_token_insert, quantize_coordinate

from gradcheck import check_gradients
from support import FULL_IMAGE, aligned_pairs, assert_equal_across_row_counts, micro_config


@pytest.fixture
def micro():
    return VLModel(micro_config(), seed=5)


@pytest.fixture
def grid(micro):
    scene = sd.generate_scene(1, 0, grid_size=micro.config.patch_grid)
    return scene.grid


class TestConfig:
    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValidationError):
            micro_config(hidden_dim=10, heads=4)

    def test_vocab_contains_specials(self):
        cfg = micro_config()
        ids = {cfg.vocab.id_of(tok) for tok in ("[PAD]", "[CLS]", "[SEP]", "[MASK]")}
        assert len(ids) == 4  # id_of raises VocabError on a token it lacks

    def test_pevl_vocab_adds_bins_plus_delimiters(self):
        plain = micro_config()
        pevl = micro_config(losses="pevl")
        assert len(pevl.vocab) == len(plain.vocab) + POSITION_BINS + 2

    def test_replace_into_a_pevl_arm_gives_that_arms_vocab(self):
        # the vocabulary is cached per config; a replaced config derives its own
        plain = micro_config()
        base_size = len(plain.vocab)
        pevl = replace(plain, losses="pevl")
        assert len(pevl.vocab) == base_size + POSITION_BINS + 2
        assert len(replace(pevl, losses="full").vocab) == base_size
        assert len(plain.vocab) == base_size

    def test_param_count_pure_function_of_config(self):
        cfg = micro_config()
        a, b = VLModel(cfg, seed=1), VLModel(cfg, seed=2)
        table = [math.prod(shape) for _, shape, _ in fg_model.param_shapes(cfg)]
        assert [p.array.size for p in a.parameters()] == [p.array.size for p in b.parameters()]
        assert [p.array.size for p in a.parameters()] == table


class TestEncodeImage:
    def test_states_shape_includes_cls(self):
        cfg = micro_config(patch_grid=4, hidden_dim=64)
        model = VLModel(cfg, seed=0)
        grid = sd.generate_scene(3, 0, grid_size=4).grid
        assert model.encode_images([grid]).states.shape == (17, 64)

    def test_full_mask_equals_no_mask_bit_identical(self, micro, grid):
        no_mask = micro.encode_images([grid])
        all_visible = micro.encode_images([grid], [np.ones(4, dtype=bool)])
        assert np.array_equal(no_mask.states.array, all_visible.states.array)

    def test_masked_patch_content_cannot_leak(self, micro, grid):
        mask = np.array([True, False, True, True])
        before = micro.encode_images([grid], [mask])
        perturbed = grid.copy()
        perturbed[0, 1, :] = 123.456  # patch j = (row 0, col 1) is hidden
        after = micro.encode_images([perturbed], [mask])
        assert np.array_equal(before.states.array, after.states.array)

    def test_all_masked_rejected(self, micro, grid):
        with pytest.raises(DegenerateMaskError):
            micro.encode_images([grid], [np.zeros(4, dtype=bool)])

    def test_finite_outputs(self, micro, grid):
        assert np.all(np.isfinite(micro.encode_images([grid]).states.array))

    def test_empty_batch_rejected(self, micro):
        with pytest.raises(ShapeError, match="encode_images"):
            micro.encode_images([])


class TestEncodeText:
    @pytest.mark.parametrize("id_lists", [[], [[]], [[2, 3], []]],
                             ids=["empty-batch", "empty-list", "one-empty-list"])
    def test_empty_batch_or_id_list_rejected(self, micro, id_lists):
        with pytest.raises(ShapeError, match="encode_texts"):
            micro.encode_texts(id_lists)

    def test_states_shape(self, micro):
        ids = micro.config.vocab.encode_wrapped("red circle")
        assert micro.encode_texts([ids]).states.shape == (4, micro.config.hidden_dim)

    def test_padding_invariance(self, micro):
        # an encoding holds only its visible rows, and pads carry exactly zero
        # attention weight; the only residue is BLAS choosing different kernels
        # for different sequence lengths (last ulp)
        vocab = micro.config.vocab
        ids = vocab.encode_wrapped("a red circle")
        padded = micro.encode_texts([ids + [vocab.pad_id] * 3])
        plain = micro.encode_texts([ids]).states.array
        with_pads = padded.states.array
        assert with_pads.shape == plain.shape
        assert np.allclose(plain, with_pads, rtol=0, atol=1e-12)
        assert padded.visible.tolist() == [[True] * len(ids) + [False] * 3]

    def test_deterministic_under_fixed_seed(self):
        cfg = micro_config()
        ids = cfg.vocab.encode_wrapped("a blue square")
        grid_a = VLModel(cfg, seed=11).encode_texts([ids]).states.array
        grid_b = VLModel(cfg, seed=11).encode_texts([ids]).states.array
        assert np.array_equal(grid_a, grid_b)

    def test_unknown_token_id(self, micro):
        # ops.embed range-checks the ids, negative ones included
        with pytest.raises(IndexError):
            micro.encode_texts([[micro.config.vocab.cls_id, 10_000]])
        with pytest.raises(IndexError):
            micro.encode_texts([[micro.config.vocab.cls_id, -1]])

    def test_too_long_rejected(self, micro):
        vocab = micro.config.vocab
        ids = [vocab.cls_id] + [vocab.id_of("red")] * micro.config.max_len
        with pytest.raises(SequenceLengthError):
            micro.encode_texts([ids])


ONE_PAIR = [(0, 0)]  # the pair index of a fuse of one text with one image


def every_row(text):
    """Every position of every sample, in order: a fuse that returns the whole fused state."""
    batch, seq = text.visible.shape
    return [list(range(seq))] * batch


def stacked_rows(text, positions):
    """The stacked rows of a text batch that hold each sample's `positions`, sample by sample."""
    seq = text.visible.shape[1]
    return np.array([b * seq + pos for b, listed in enumerate(positions) for pos in listed])


class TestFuse:
    def test_output_shape(self, micro, grid):
        ids = micro.config.vocab.encode_wrapped("a red circle")
        text = micro.encode_texts([ids])
        fused = micro.fuse(text, micro.encode_images([grid]), ONE_PAIR, every_row(text))
        assert fused.shape == (len(ids), micro.config.hidden_dim)

    def test_no_mask_equals_all_ones_mask(self, micro, grid):
        ids = micro.config.vocab.encode_wrapped("a red circle")
        text = micro.encode_texts([ids])
        a = micro.fuse(text, micro.encode_images([grid]), ONE_PAIR, every_row(text))
        b = micro.fuse(text, micro.encode_images([grid], [np.ones(4, dtype=bool)]), ONE_PAIR,
                       every_row(text))
        assert np.array_equal(a.array, b.array)

    def test_single_visible_patch_blocks_other_content(self, micro, grid):
        ids = micro.config.vocab.encode_wrapped("a red circle")
        mask = np.array([False, False, True, False])
        scrambled = grid.copy()
        scrambled[0, :, :] = 9.9
        scrambled[1, 1, :] = -3.3
        text = micro.encode_texts([ids])
        a = micro.fuse(text, micro.encode_images([grid], [mask]), ONE_PAIR, every_row(text))
        b = micro.fuse(text, micro.encode_images([scrambled], [mask]), ONE_PAIR,
                       every_row(text))
        assert np.array_equal(a.array, b.array)


def batch_inputs(model):
    """Three grids with mixed visibility, and three texts of different lengths."""
    scenes = [sd.generate_scene(2, i, grid_size=model.config.patch_grid) for i in range(3)]
    vocab = model.config.vocab
    texts = ["a red circle is above a blue square", "circle", "a green triangle"]
    visibilities = [None, np.array([True, False, False, True]), np.array([False, True, True, True])]
    return [s.grid for s in scenes], visibilities, [vocab.encode_wrapped(t) for t in texts]


SEQ = 10  # the padded length of batch_inputs' texts: 8 words, [CLS] and [SEP]


def sample_rows(states, b, seq):
    """Sample b's rows of stacked (batch * seq, width) states."""
    return states[b * seq:(b + 1) * seq]


def visible_rows(encoded, b):
    """Sample b's rows of an encoding, which holds only its visible rows, sample-major."""
    return encoded.states.array[ops.present_rows(encoded.visible)[b][encoded.visible[b]]]


class TestBatchAxis:
    # A batch stacks its samples' visible rows, so each affine map runs on more rows
    # than a single encode's, and a row's bits match only if the BLAS kernel computes
    # a row of `a @ w` apart from how many rows share the product.  Measured on
    # OpenBLAS 0.3.31's kernels: Sandybridge's do at every count above one;
    # SkylakeX's do at this model's widths and row counts, though not for every shape
    # (with 2 output columns, rows differ at counts up to 2,966); Haswell's and
    # Nehalem's do not, so under them the image test bounds the difference instead
    # (`support.assert_equal_across_row_counts`).  Texts are padded to the
    # longest in attention's grid, which lets BLAS pick other kernels for the longer
    # sequences, so their rows match within test_padding_invariance's atol.

    def test_encode_images_rows_equal_single_encodes_bit_for_bit(self, micro):
        grids, visibilities, _ = batch_inputs(micro)
        batch = micro.encode_images(grids, visibilities)
        assert batch.visible.shape == (3, micro.config.num_patches + 1)
        assert batch.states.shape == (batch.visible.sum(), micro.config.hidden_dim)
        for b, (grid, visibility) in enumerate(zip(grids, visibilities)):
            single = micro.encode_images([grid], [visibility])
            assert np.array_equal(batch.visible[b], single.visible[0])
            # under OpenBLAS 0.3.31's forced Haswell and Nehalem kernels a sample's rows
            # differed by up to 2.9e-16 and 3.9e-16 of their largest magnitude
            assert_equal_across_row_counts(visible_rows(batch, b), single.states.array, 2e-15)

    def test_encode_texts_rows_match_single_encodes_and_hold_no_pad_row(self, micro):
        _, _, ids = batch_inputs(micro)
        batch = micro.encode_texts(ids)
        seq = max(len(i) for i in ids)
        assert batch.visible.shape == (3, seq)
        assert batch.states.shape == (batch.visible.sum(), micro.config.hidden_dim)
        for b, row_ids in enumerate(ids):
            single = micro.encode_texts([row_ids]).states.array
            assert batch.visible[b].sum() == len(row_ids)
            assert np.allclose(visible_rows(batch, b), single, rtol=0, atol=1e-12)

    def test_batched_fuse_matches_per_pair_fuse(self, micro):
        grids, visibilities, ids = batch_inputs(micro)
        texts = micro.encode_texts(ids)
        fused = micro.fuse(texts, micro.encode_images(grids, visibilities), aligned_pairs(3),
                           every_row(texts))
        seq = max(len(i) for i in ids)
        for b, (grid, visibility, row_ids) in enumerate(zip(grids, visibilities, ids)):
            rows = sample_rows(fused.array, b, seq)
            text = micro.encode_texts([row_ids])
            single = micro.fuse(text, micro.encode_images([grid], [visibility]), ONE_PAIR,
                                every_row(text))
            assert np.allclose(rows[:len(row_ids)], single.array, rtol=0, atol=1e-12)
            assert np.all(rows[len(row_ids):] == 0.0)

    def test_one_sample_cannot_reach_another(self, micro):
        # the masked-patch no-leak invariant across batch members: changing sample 1's
        # whole grid leaves samples 0 and 2 bit-identical, and changing a patch that
        # sample 1 hides leaves every row bit-identical, through fusion as well
        grids, visibilities, ids = batch_inputs(micro)
        texts = micro.encode_texts(ids)
        text_seq = texts.visible.shape[1]

        def run(grid_list):
            images = micro.encode_images(grid_list, visibilities)
            fused = micro.fuse(texts, images, aligned_pairs(3), every_row(texts))
            return images, fused.array

        base_images, base_fused = run(grids)
        images, fused = run([grids[0], grids[1] + 7.5, grids[2]])
        assert not np.array_equal(visible_rows(images, 1), visible_rows(base_images, 1))
        for b in (0, 2):
            assert np.array_equal(visible_rows(images, b), visible_rows(base_images, b))
            assert np.array_equal(sample_rows(fused, b, text_seq),
                                  sample_rows(base_fused, b, text_seq))

        hidden = grids[1].copy()
        hidden[0, 1, :] = 123.456  # patch (row 0, col 1) is hidden in sample 1
        images, fused = run([grids[0], hidden, grids[2]])
        assert np.array_equal(images.states.array, base_images.states.array)
        assert np.array_equal(fused, base_fused)

    def test_take_gathers_samples_in_order(self, micro):
        _, _, ids = batch_inputs(micro)
        texts = micro.encode_texts(ids)
        picked = texts.take([2, 0, 2])
        assert np.array_equal(picked.visible, texts.visible[[2, 0, 2]])
        assert picked.states.shape[0] == picked.visible.sum()
        expected = np.concatenate([visible_rows(texts, b) for b in (2, 0, 2)])
        assert np.array_equal(picked.states.array, expected)

    @pytest.mark.parametrize("pairs", [
        pytest.param([], id="no-pair"),
        pytest.param([0, 1, 2], id="flat"),
        pytest.param([(0, 1, 2)], id="triple"),
        pytest.param([(0.0, 1.0)], id="float"),
        pytest.param([(0, 0), (-1, 1)], id="negative"),
        pytest.param([(3, 0)], id="text-past-its-batch"),
        pytest.param([(0, 2)], id="image-past-its-batch"),
    ])
    def test_fuse_rejects_a_malformed_pair_index(self, micro, pairs):
        grids, _, ids = batch_inputs(micro)
        texts = micro.encode_texts(ids)
        with pytest.raises(ShapeError):
            micro.fuse(texts, micro.encode_images(grids[:2]), pairs, [[0]] * len(pairs))


def row_requests(texts) -> dict[str, list[list[int]]]:
    """Positions a caller may ask `fuse` for, by kind, one list per sample of a padded batch."""
    s0, s1, s2 = [np.flatnonzero(row).tolist() for row in texts.visible]
    hidden = [np.flatnonzero(~row).tolist() for row in texts.visible]
    return {
        "cls": [[0]] * len(texts.visible),
        "visible_any_order": [[s0[3], s0[-1], s0[0], s0[7]], [s1[-1]], [s2[4], s2[1]]],
        "repeated": [[s0[4], s0[4], s0[0], s0[4]], [], [s2[0], s2[0]]],
        "hidden": [[s0[5]], [hidden[1][0], s1[0]], [hidden[2][-1]]],
        "every": every_row(texts),
    }


@pytest.mark.parametrize("cross_layers", [1, 2])
@pytest.mark.parametrize("kind", ["cls", "visible_any_order", "repeated", "hidden", "every"])
class TestFuseRows:
    # `fuse(texts, visions, pairs, positions)` against the same fuse asked for every row, on padded
    # texts and box-masked visions.  The last cross layer runs its queries on fewer
    # rows, so BLAS may round them differently: values and gradients match to 1e-12.

    @staticmethod
    def inputs(cross_layers, kind):
        model = VLModel(micro_config(cross_layers=cross_layers), seed=5)
        grids, visibilities, ids = batch_inputs(model)
        texts = model.encode_texts(ids)
        return model, texts, model.encode_images(grids, visibilities), row_requests(texts)[kind]

    def test_rows_match_the_fuse_of_every_row_and_hidden_rows_are_zero(self, cross_layers,
                                                                        kind):
        model, texts, images, positions = self.inputs(cross_layers, kind)
        rows = stacked_rows(texts, positions)
        full = model.fuse(texts, images, aligned_pairs(3), every_row(texts)).array
        fused = model.fuse(texts, images, aligned_pairs(3), positions).array
        assert fused.shape == (len(rows), model.config.hidden_dim)
        np.testing.assert_allclose(fused, full[rows], rtol=0, atol=1e-12)
        hidden = ~texts.visible.reshape(-1)[rows]
        assert np.all(fused[hidden] == 0.0)
        assert np.all(fused[~hidden] != 0.0)

    def test_parameter_gradients_match_the_fuse_of_every_row(self, cross_layers, kind):
        model, texts, _, positions = self.inputs(cross_layers, kind)
        rows = stacked_rows(texts, positions)
        weights = Tensor(rng_for(3, "fuse-rows", kind).normal(
            size=(len(rows), model.config.hidden_dim)))

        def gradients(fuse):
            # a graph is backpropagated once, so each pass encodes afresh: the
            # encoders are deterministic, so both passes fuse the same encodings
            for param in model.parameters():
                param.zero_grad()
            grids, visibilities, ids = batch_inputs(model)
            fused = fuse(model.encode_texts(ids), model.encode_images(grids, visibilities))
            tensor.tsum(tensor.mul(fused, weights)).backward()
            return [param.grad for param in model.parameters()]

        full = gradients(lambda texts, images: tensor.take_rows(
            model.fuse(texts, images, aligned_pairs(3), every_row(texts)), rows))
        picked = gradients(lambda texts, images: model.fuse(
            texts, images, aligned_pairs(3), positions))
        for name, want, got in zip(model.params, full, picked):
            assert (want is None) == (got is None), name
            if name.endswith(".bk"):
                # a key bias shifts every logit of a query alike, so the softmax cancels
                # its gradient: both sides hold rounding noise around an exact zero
                assert np.abs(got).max() < 1e-14 and np.abs(want).max() < 1e-14, name
            elif want is not None:
                # an entry that cancels in a sum over rows keeps only the accuracy of
                # its terms, so rtol also applies to the parameter's largest entry
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max(), err_msg=name)

    def test_full_mask_equals_no_mask_bit_for_bit(self, cross_layers, kind):
        model, texts, _, positions = self.inputs(cross_layers, kind)
        grids, _, _ = batch_inputs(model)
        ones = [np.ones(model.config.num_patches, dtype=bool)] * len(grids)
        a = model.fuse(texts, model.encode_images(grids), aligned_pairs(3), positions)
        b = model.fuse(texts, model.encode_images(grids, ones), aligned_pairs(3), positions)
        assert np.array_equal(a.array, b.array)

    def test_hidden_patch_cannot_leak_bit_for_bit(self, cross_layers, kind):
        model, texts, images, positions = self.inputs(cross_layers, kind)
        grids, visibilities, _ = batch_inputs(model)
        hidden = grids[1].copy()
        hidden[0, 1, :] = 123.456  # patch (row 0, col 1) is hidden in sample 1
        changed = model.encode_images([grids[0], hidden, grids[2]], visibilities)
        assert np.array_equal(model.fuse(texts, changed, aligned_pairs(3), positions).array,
                              model.fuse(texts, images, aligned_pairs(3), positions).array)


# Texts and images repeat, the visions are masked, pairs ask for several positions, and
# two of those are hidden pads ("circle" has 3 tokens and "a green triangle" 5, of 10)
SHARED_PAIRS = np.array([[0, 0], [1, 0], [0, 2], [2, 1], [0, 0], [1, 2], [2, 2], [2, 0]])
SHARED_POSITIONS = [[0, 3, 9], [0, 7], [4, 4, 1], [2, 0], [], [1], [0, 4, 3], [8]]


def gather_first_fuse(model, texts, images, pairs, positions):
    """The fuse of both batches gathered per pair first, as `Encoded.take` nodes."""
    return model.fuse(texts.take(pairs[:, 0]), images.take(pairs[:, 1]),
                      aligned_pairs(len(pairs)), positions)


@pytest.mark.parametrize("cross_layers", [1, 2, 3])
def test_fuse_off_the_tape_equals_the_gather_first_fuse_bit_for_bit(cross_layers):
    # every fuse runs text-only work once per distinct text and projects the
    # cross-attention keys and values once per distinct image, on the tape or off it;
    # its values are those of the fuse of both batches gathered per pair first
    model = VLModel(micro_config(cross_layers=cross_layers), seed=5)
    frozen = model.frozen()
    grids, visibilities, ids = batch_inputs(model)
    texts, images = model.encode_texts(ids), model.encode_images(grids, visibilities)
    pairs, positions = SHARED_PAIRS, SHARED_POSITIONS
    gathered = gather_first_fuse(model, texts, images, pairs, positions)
    taped = model.fuse(texts, images, pairs, positions)
    untaped = frozen.fuse(frozen.encode_texts(ids), frozen.encode_images(grids, visibilities),
                          pairs, positions)
    assert taped.requires_grad and not untaped.requires_grad
    assert untaped.shape == (15, model.config.hidden_dim)
    # bit for bit on a row-stable kernel.  Under OpenBLAS 0.3.31's forced Nehalem kernels
    # the fuses differed by up to 2.2e-16 relative here; under its Haswell kernels, before
    # the encodings held only visible rows, by 4.2e-15 at one cross layer and 8.7e-14 at three
    assert_equal_across_row_counts(taped.array, gathered.array, 1e-13, "taped")
    assert_equal_across_row_counts(untaped.array, gathered.array, 1e-13, "untaped")
    assert np.all(untaped.array[[4, 14]] == 0.0)  # the two hidden positions


@pytest.mark.parametrize("cross_layers", [1, 2, 3])
def test_fuse_parameter_gradients_equal_the_gather_first_fuses(cross_layers):
    # the gradient oracle of the one fuse path: gathering where text meets image sums
    # the same terms as the fuse of batches gathered per pair first, in another order
    model = VLModel(micro_config(cross_layers=cross_layers), seed=5)
    rows = sum(map(len, SHARED_POSITIONS))
    weights = Tensor(rng_for(6, "fuse-oracle").normal(size=(rows, model.config.hidden_dim)))

    def gradients(fuse):
        # each pass encodes afresh, since a graph is backpropagated once
        for param in model.parameters():
            param.zero_grad()
        grids, visibilities, ids = batch_inputs(model)
        fused = fuse(model, model.encode_texts(ids), model.encode_images(grids, visibilities),
                     SHARED_PAIRS, SHARED_POSITIONS)
        tensor.tsum(tensor.mul(fused, weights)).backward()
        return [param.grad for param in model.parameters()]

    want_all = gradients(gather_first_fuse)
    got_all = gradients(VLModel.fuse)
    for name, want, got in zip(model.params, want_all, got_all):
        assert (want is None) == (got is None), name
        if name.endswith(".bk"):
            # the softmax cancels a key bias's gradient: rounding noise around zero
            assert np.abs(got).max() < 1e-14 and np.abs(want).max() < 1e-14, name
        elif want is not None:
            # an entry that cancels in a sum over rows keeps only the accuracy of
            # its terms, so rtol also applies to the parameter's largest entry
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max(), err_msg=name)


class TestHiddenRowsNeverComputed:
    # each stream carries only its visible rows between layers: a [PAD] row or a
    # hidden patch never reaches a layer norm or a GELU

    @staticmethod
    def row_counts(monkeypatch, model, run):
        """(gain name, rows) of each `layer_norm` call and rows of each `gelu` call of run()."""
        names = {id(param): name for name, param in model.params.items()}
        norms, gelus = [], []
        layer_norm, gelu = ops.layer_norm, ops.gelu

        def norm_spy(x, gain, bias):
            norms.append((names[id(gain)], x.shape[0]))
            return layer_norm(x, gain, bias)

        def gelu_spy(x):
            gelus.append(x.shape[0])
            return gelu(x)

        monkeypatch.setattr(ops, "layer_norm", norm_spy)
        monkeypatch.setattr(ops, "gelu", gelu_spy)
        run()
        return norms, gelus

    def test_text_encoder_sees_only_visible_rows(self, monkeypatch, micro):
        _, _, ids = batch_inputs(micro)  # 10, 3 and 5 tokens
        norms, gelus = self.row_counts(monkeypatch, micro, lambda: micro.encode_texts(ids))
        visible = sum(map(len, ids))
        assert len(norms) == 2 * micro.config.text_layers and gelus
        assert {rows for _, rows in norms} == set(gelus) == {visible}

    def test_image_encoder_sees_no_hidden_patch(self, monkeypatch, micro):
        grids, visibilities, _ = batch_inputs(micro)  # 4, 2 and 3 of 4 patches visible
        norms, gelus = self.row_counts(monkeypatch, micro,
                                       lambda: micro.encode_images(grids, visibilities))
        assert len(norms) == 2 * micro.config.vision_layers and gelus
        assert {rows for _, rows in norms} == set(gelus) == {3 + 9}  # a [CLS] row each

    def test_fuse_sees_only_each_pairs_visible_text_rows(self, monkeypatch):
        model = VLModel(micro_config(cross_layers=2), seed=5)
        grids, visibilities, ids = batch_inputs(model)
        texts, images = model.encode_texts(ids), model.encode_images(grids, visibilities)
        norms, gelus = self.row_counts(monkeypatch, model, lambda: model.fuse(
            texts, images, SHARED_PAIRS, SHARED_POSITIONS))
        pair_rows = int(texts.visible[SHARED_PAIRS[:, 0]].sum())
        assert pair_rows < SHARED_PAIRS.size // 2 * texts.visible.shape[1]
        rows = dict(norms)
        assert rows["cross.0.ln1_g"] == texts.visible.sum()  # once per distinct text
        assert rows["cross.0.lnx_g"] == rows["cross.0.ln2_g"] == gelus[0] == pair_rows
        assert rows["cross.1.ln1_g"] == pair_rows


class TestFrozen:
    # the scorer runs on `model.frozen()`: constant parameters over the model's own
    # arrays, so the tape's one rule (record only when an input requires a gradient)
    # keeps everything it computes off the tape
    PAIRS = SHARED_PAIRS

    def outputs(self, model):
        """Encodings, projections and fused rows of batch_inputs, pairs repeating inputs."""
        grids, visibilities, ids = batch_inputs(model)
        texts, images = model.encode_texts(ids), model.encode_images(grids, visibilities)
        fused = model.fuse(texts, images, self.PAIRS, [[0, 3]] * len(self.PAIRS))
        return [texts.states, images.states, model.project("txt", texts.cls_rows(3)),
                model.project("img", images.cls_rows(3)), fused]

    def test_parameters_are_the_models_arrays_as_constants(self):
        model = VLModel(micro_config(cross_layers=2), seed=5)
        frozen = model.frozen()
        assert type(frozen) is VLModel and frozen.config is model.config
        assert list(frozen.params) == list(model.params)
        for name, param in model.params.items():
            assert frozen.params[name].array is param.array, name
            assert not frozen.params[name].requires_grad and param.requires_grad, name

    def test_outputs_equal_the_trainable_models_and_record_nothing(self):
        model = VLModel(micro_config(cross_layers=2), seed=5)
        trainable = self.outputs(model)
        frozen = model.frozen()
        before = repr(tensor._SEQ)
        outputs = self.outputs(frozen)
        assert repr(tensor._SEQ) == before
        for expected, out in zip(trainable, outputs, strict=True):
            assert expected.requires_grad
            assert out._seq is None and not out.requires_grad
            assert np.array_equal(out.array, expected.array)
        tensor.tsum(outputs[-1]).backward()  # nothing recorded, nothing to propagate
        assert all(p.grad is None for p in model.parameters() + frozen.parameters())

    def test_trainable_model_still_learns_after_a_scorer_is_built(self):
        model = VLModel(micro_config(cross_layers=2), seed=5)
        scene = sd.generate_scene(2, 0, grid_size=model.config.patch_grid)
        tensor.tsum(self.outputs(model)[-1]).backward()
        expected = {name: p.grad.copy() for name, p in model.params.items() if p.grad is not None}
        assert expected
        for param in model.parameters():
            param.zero_grad()
        pending = tensor.tsum(self.outputs(model)[-1])  # recorded before scoring, swept after
        ev.model_scorer(model)(scene, sd.caption_of(scene).text)
        pending.backward()
        grads = {name: p.grad for name, p in model.params.items() if p.grad is not None}
        assert grads.keys() == expected.keys()
        for name, grad in grads.items():
            assert np.array_equal(grad, expected[name]), name

    @pytest.mark.parametrize("frozen", [False, True])
    def test_every_model_projects_cross_attention_keys_once_per_image(self, monkeypatch,
                                                                      frozen):
        # 8 pairs over 3 images: trainable or frozen, a fuse projects each image's
        # keys once, for its visible slots only, and gathers them per pair only where
        # text meets image
        model = VLModel(micro_config(cross_layers=2), seed=5)
        model = model.frozen() if frozen else model
        key_rows = []
        mha = VLModel._mha

        def recorded(self, prefix, x_q, keys, *rest):
            if prefix.endswith(".xattn"):
                key_rows.append(keys.states.shape[0])
            return mha(self, prefix, x_q, keys, *rest)

        monkeypatch.setattr(VLModel, "_mha", recorded)
        self.outputs(model)
        _, visibilities, _ = batch_inputs(model)
        hidden = sum(np.count_nonzero(~v) for v in visibilities if v is not None)
        assert key_rows == [3 * (model.config.num_patches + 1) - hidden] * 2 == [12] * 2


def test_fuse_rows_gradcheck():
    model = VLModel(micro_config(cross_layers=2), seed=5)
    grids, visibilities, ids = batch_inputs(model)
    positions = [[0, 1], [2, 0], [3]]
    weights = Tensor(rng_for(4, "fuse-rows-gc").normal(size=(5, model.config.hidden_dim)))

    def f():
        fused = model.fuse(model.encode_texts(ids), model.encode_images(grids, visibilities),
                           aligned_pairs(3), positions)
        return tensor.tsum(tensor.mul(fused, weights))

    inputs = [model.params[name] for name in
              ("text.emb", "cross.0.mlp_w2", "cross.1.attn.wk", "cross.1.xattn.wv",
               "cross.1.lnx_g", "cross.1.mlp_w1")]
    assert check_gradients(f, inputs, coords_per_input=10, rng=rng_for(8, "fuse-rows-gc")) < 1e-6


@pytest.mark.parametrize("rows", [
    [[], [], []],  # every list empty
    [[0], [-1], [0]],  # a negative position
    [[0], [SEQ], [0]],  # a position equal to the padded length
    [[0], [[0, 1]], [0]],  # a 2-D entry
    [[0], [0]],  # one list too few
    [[0], [0], [0], [0]],  # one list too many
])
def test_fuse_rejects_rows_outside_the_text_batch(micro, rows):
    # `rows` holds one list of text positions per sample; any malformed request is a ShapeError
    grids, _, ids = batch_inputs(micro)
    texts = micro.encode_texts(ids)
    assert texts.visible.shape == (3, SEQ)
    with pytest.raises(ShapeError):
        micro.fuse(texts, micro.encode_images(grids), aligned_pairs(3), rows)


def cross_cls_of(model, grid, ids):
    """The fused [CLS] row of one (image, text) pair, recorded on the tape."""
    return model.cross_cls(model.encode_texts([ids]), model.encode_images([grid]), ONE_PAIR)


class TestHeads:
    def test_unit_norm_projections(self, micro, grid):
        ids = micro.config.vocab.encode_wrapped("a red circle")
        image_feat = micro.project("img", micro.encode_images([grid]).cls_rows(1))
        text_feat = micro.project("txt", micro.encode_texts([ids]).cls_rows(1))
        assert abs(np.linalg.norm(image_feat.array) - 1.0) < 1e-9
        assert abs(np.linalg.norm(text_feat.array) - 1.0) < 1e-9

    @pytest.mark.parametrize("stream", ["img", "txt"])
    def test_project_stacks_single_row_projections(self, micro, stream):
        # one matmul over n rows may round differently from n one-row matmuls; the
        # rows have unit norm, so atol bounds the error relative to each row's length
        scenes = [sd.generate_scene(3, i, grid_size=micro.config.patch_grid) for i in range(4)]
        if stream == "img":
            inputs = [s.grid for s in scenes]
            batched, single = micro.encode_images, lambda grid: micro.encode_images([grid])
        else:
            vocab = micro.config.vocab
            inputs = [vocab.encode_wrapped(sd.caption_of(s).text) for s in scenes]
            batched, single = micro.encode_texts, lambda ids: micro.encode_texts([ids])
        stacked = micro.project(stream, batched(inputs).cls_rows(4)).array
        rows = np.concatenate([micro.project(stream, single(x).cls_rows(1)).array
                               for x in inputs])
        assert stacked.shape == (4, micro.config.proj_dim)
        np.testing.assert_allclose(stacked, rows, rtol=1e-14, atol=1e-14)

    def test_zero_raw_head_output_gives_centered_half_box(self, micro, grid):
        micro.params["head.bbox_w"].array[:] = 0.0
        micro.params["head.bbox_b"].array[:] = 0.0
        ids = micro.config.vocab.encode_wrapped("circle")
        corners = micro.bbox_corners(cross_cls_of(micro, grid, ids)).array[0]
        assert tuple(corners) == pytest.approx((0.25, 0.25, 0.75, 0.75), abs=1e-12)

    def test_predicted_box_always_valid(self, grid):
        model = VLModel(micro_config(), seed=33)
        rng = rng_for(7, "bbox-validity")
        ids = model.config.vocab.encode_wrapped("a red circle")
        for trial in range(50):
            model.params["head.bbox_w"].array[:] = rng.normal(0, 3, size=(8, 4))
            model.params["head.bbox_b"].array[:] = rng.normal(0, 3, size=4)
            x1, y1, x2, y2 = model.bbox_corners(cross_cls_of(model, grid, ids)).array[0]
            # positive area inside the image: the box clamped to it is a valid BBox
            assert max(0.0, x1) < min(1.0, x2)
            assert max(0.0, y1) < min(1.0, y2)

    def test_matching_probability_in_unit_interval(self, micro, grid):
        ids = micro.config.vocab.encode_wrapped("a red circle")
        prob = micro.matching_probabilities(cross_cls_of(micro, grid, ids))[0]
        assert 0.0 <= prob <= 1.0


class TestPositionTokens:
    def test_insertion_pattern_with_literal_pixel_values(self):
        # 32 bins make the bin tokens the pixel coordinates of a 32-pixel image
        assert POSITION_BINS == 32
        bbox = sd.BBox(3 / 32, 9 / 32, 25 / 32, 21 / 32)
        tokens = ["a", "red", "circle", "is", "above", "a", "blue", "square"]
        out = position_token_insert(tokens, bbox, insert_after=3)
        assert out == ["a", "red", "circle", "<", "3", "9", "25", "21", ">",
                       "is", "above", "a", "blue", "square"]

    def test_full_image_bbox_hits_bin_endpoints(self):
        out = position_token_insert(["circle"], FULL_IMAGE, insert_after=1)
        last = str(POSITION_BINS - 1)
        assert out == ["circle", "<", "0", "0", last, last, ">"]

    def test_quantize_round_trip_error_within_half_bin(self):
        bins = POSITION_BINS
        rng = rng_for(3, "roundtrip")
        for _ in range(1000):
            x1, y1 = rng.uniform(0, 0.9, size=2)
            box = sd.BBox(x1, y1, x1 + rng.uniform(0.05, 1 - x1 - 1e-6),
                          y1 + rng.uniform(0.05, 1 - y1 - 1e-6))
            for coord in box.corners():
                # the coordinate lies in its bin, so the bin centre is within half a bin
                index = quantize_coordinate(coord)
                assert index / bins <= coord <= (index + 1) / bins

    def test_model_enforces_max_len_after_insertion(self):
        cfg = micro_config(losses="pevl", max_len=8)
        model = VLModel(cfg, seed=1)
        scene = sd.generate_scene(1, 0, grid_size=cfg.patch_grid)
        sample = sd.DetectionSample(scene, "object_label", "a red circle", FULL_IMAGE, 3)
        # 3 words + 6 position tokens + [CLS]/[SEP]
        [ids] = obj.step_ids(model.config, sd.Batch("detection", (sample,)))
        with pytest.raises(SequenceLengthError):
            model.encode_texts([ids])


class TestGradientsThroughModel:
    def test_bbox_loss_reaches_cross_modal_weights(self, grid):
        from finegrain.objectives import bbox_loss_terms

        model = VLModel(micro_config(), seed=9)
        ids = model.config.vocab.encode_wrapped("circle")
        target = sd.BBox(0.1, 0.1, 0.6, 0.6)

        def f():
            return bbox_loss_terms(model.bbox_corners(cross_cls_of(model, grid, ids)), [target])

        inputs = [model.params["cross.0.xattn.wq"], model.params["head.bbox_w"]]
        err = check_gradients(f, inputs, coords_per_input=12, rng=rng_for(1, "gc"))
        assert err < 1e-3
        f().backward()
        assert np.any(model.params["cross.0.xattn.wq"].grad != 0.0)
        for p in model.parameters():
            p.zero_grad()


class TestCheckpoints:
    def test_round_trip_bit_identical(self, tmp_path):
        cfg = micro_config()
        source = VLModel(cfg, seed=21)
        path = tmp_path / "model.ckpt"
        fg_model.save_checkpoint(source, path, "cafe01")
        target = VLModel(cfg, seed=99)
        fg_model.load_checkpoint(target, path, expect_hash="cafe01")
        for name in source.params:
            assert np.array_equal(source.params[name].array, target.params[name].array)

    def test_saved_bytes_pinned_whatever_the_arrays_layout_and_byte_order(self, tmp_path):
        """Every byte of a saved v2 file is pinned, not only the values it loads back.

        A Fortran-ordered and a big-endian parameter must be written as their C-ordered
        little-endian values, so the file keeps its digest: handing the array's own
        buffer to the encoder fails on the first and writes wrong bytes for the second.
        """
        model = VLModel(micro_config(), seed=21)
        matrices = [p for p in model.params.values() if p.array.ndim == 2]
        matrices[0].array = np.asfortranarray(matrices[0].array)
        matrices[1].array = matrices[1].array.astype(">f8")
        assert not matrices[0].array.flags.c_contiguous
        path = tmp_path / "model.ckpt"
        fg_model.save_checkpoint(model, path, "cafe01")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "6fda0b07cf38184bf1fc80ea91aaa283d34bef811ca47fa3e372c50996f91599")

    def test_crlf_line_ends_load_bit_identically(self, tmp_path):
        cfg = micro_config()
        source = VLModel(cfg, seed=21)
        path = tmp_path / "model.ckpt"
        fg_model.save_checkpoint(source, path, "cafe01")
        crlf = tmp_path / "crlf.ckpt"  # as a save in text mode on Windows writes it
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        target = VLModel(cfg, seed=99)
        fg_model.load_checkpoint(target, crlf, expect_hash="cafe01")
        for name in source.params:
            assert np.array_equal(source.params[name].array, target.params[name].array)

    def test_runtime_shapes_match_the_table(self, tmp_path):
        cfg = micro_config()
        table = [(name, shape) for name, shape, _ in fg_model.param_shapes(cfg)]
        model = VLModel(cfg, seed=21)
        assert [(name, model.params[name].shape) for name, _ in table] == table
        path = tmp_path / "model.ckpt"
        fg_model.save_checkpoint(model, path, "cafe01")
        fg_model.load_checkpoint(model, path, expect_hash="cafe01")
        assert [(name, model.params[name].shape) for name, _ in table] == table

    def test_hash_mismatch_is_hard_error(self, tmp_path):
        cfg = micro_config()
        model = VLModel(cfg, seed=21)
        path = tmp_path / "model.ckpt"
        fg_model.save_checkpoint(model, path, "cafe01")
        with pytest.raises(DependencyError):
            fg_model.load_checkpoint(VLModel(cfg, seed=0), path, expect_hash="beef02")

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        fg_model.save_checkpoint(VLModel(micro_config(), seed=2), path, "cafe01")
        other = VLModel(micro_config(hidden_dim=16, mlp_dim=32), seed=2)
        with pytest.raises(DependencyError):
            fg_model.load_checkpoint(other, path, expect_hash="cafe01")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DependencyError):
            fg_model.load_checkpoint(VLModel(micro_config(), seed=2), tmp_path / "none.ckpt",
                                     expect_hash="cafe01")

    def test_truncated_or_malformed_file_rejected_without_partial_load(self, tmp_path):
        cfg = micro_config()
        good = tmp_path / "good.ckpt"
        fg_model.save_checkpoint(VLModel(cfg, seed=21), good, "cafe01")
        data = good.read_bytes()
        header_end = data.index(b"\n") + 1
        lines = data.split(b"\n")
        name, shape, payload = lines[1].split(b"\t")

        def with_payload(new):  # the file with the first parameter's payload replaced
            return b"\n".join([lines[0], b"\t".join([name, shape, new]), *lines[2:]])

        cases = {f"cut_{n}": data[:n]
                 for n in (0, 10, header_end, len(data) // 2, len(data) - 5, len(data) - 1)}
        cases["binary"] = bytes(range(256)) * 8
        # one value fewer than its shape
        cases["short_line"] = with_payload(base64.b64encode(base64.b64decode(payload)[:-8]))
        cases["bad_shape"] = data.replace(b"\t", b"\tx,", 1)
        # a lenient decoder would skip the "*" and load the line as it was
        cases["non_base64"] = with_payload(payload[:4] + b"*" + payload[4:])
        cases["non_utf8_name"] = data.replace(name + b"\t", b"\xff" + name + b"\t", 1)
        cases["four_fields"] = with_payload(payload + b"\t" + payload)
        cases["two_fields"] = b"\n".join([lines[0], name + b"\t" + payload, *lines[2:]])
        target = VLModel(cfg, seed=99)
        before = {name: p.array.copy() for name, p in target.params.items()}
        for label, payload in cases.items():
            path = tmp_path / f"{label}.ckpt"
            path.write_bytes(payload)
            with pytest.raises(DependencyError):
                fg_model.load_checkpoint(target, path, expect_hash="cafe01")
            for name, p in target.params.items():
                assert np.array_equal(p.array, before[name]), (label, name)

    @pytest.mark.parametrize("fault", ["repeated_line", "nan_value"])
    def test_repeated_or_non_finite_parameter_rejected_without_partial_load(self, tmp_path,
                                                                            fault):
        cfg = micro_config()
        good = tmp_path / "good.ckpt"
        fg_model.save_checkpoint(VLModel(cfg, seed=21), good, "cafe01")
        lines = good.read_bytes().split(b"\n")
        if fault == "repeated_line":  # read naively, the second copy would win
            lines.insert(-1, lines[1])
        else:
            name, shape, payload = lines[1].split(b"\t")
            values = np.frombuffer(base64.b64decode(payload), dtype="<f8").copy()
            values[0] = np.nan
            lines[1] = b"\t".join([name, shape, base64.b64encode(values.tobytes())])
        path = tmp_path / f"{fault}.ckpt"
        path.write_bytes(b"\n".join(lines))
        target = VLModel(cfg, seed=99)
        before = {name: p.array.copy() for name, p in target.params.items()}
        with pytest.raises(DependencyError):
            fg_model.load_checkpoint(target, path, expect_hash="cafe01")
        for name, p in target.params.items():
            assert np.array_equal(p.array, before[name]), name

    def test_interrupted_save_keeps_previous_file(self, tmp_path):
        model = VLModel(micro_config(), seed=21)
        path = tmp_path / "step_000001.ckpt"
        fg_model.save_checkpoint(model, path, "cafe01")
        saved = path.read_bytes()
        last = list(model.params)[-1]
        model.params[last].array = np.full(model.params[last].array.shape, object(), dtype=object)
        with pytest.raises(TypeError):  # no float64 bytes to encode, after most lines are out
            fg_model.save_checkpoint(model, path, "beef02")
        assert path.read_bytes() == saved
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_v1_checkpoint_rejected_without_partial_load(self, tmp_path):
        cfg = micro_config()
        source = VLModel(cfg, seed=21)
        lines = [f"{fg_model.CHECKPOINT_MAGIC} v1 cafe01\n"]
        for name, shape, _ in fg_model.param_shapes(cfg):
            values = " ".join(v.hex() for v in source.params[name].array.reshape(-1))
            lines.append(f"{name}\t{','.join(map(str, shape))}\t{values}\n")
        path = tmp_path / "v1.ckpt"
        path.write_text("".join(lines), encoding="utf-8")
        target = VLModel(cfg, seed=99)
        before = {name: p.array.copy() for name, p in target.params.items()}
        with pytest.raises(DependencyError, match="unsupported checkpoint version v1"):
            fg_model.load_checkpoint(target, path, expect_hash="cafe01")
        for name, p in target.params.items():
            assert np.array_equal(p.array, before[name]), name

    def test_extreme_values_round_trip_bit_exact_into_owned_arrays(self, tmp_path):
        cfg = micro_config()
        source = VLModel(cfg, seed=21)
        big = np.finfo(np.float64).max
        extremes = np.array([-0.0, 0.0, 5e-324, -5e-324, big, -big,
                             1.0, np.nextafter(1.0, 2.0), 0.1, np.nextafter(0.1, 0.0)])
        for param in source.params.values():
            flat = param.array.reshape(-1)
            flat[:len(extremes)] = extremes[:flat.size]
        path = tmp_path / "extremes.ckpt"
        fg_model.save_checkpoint(source, path, "cafe01")
        target = VLModel(cfg, seed=99)
        fg_model.load_checkpoint(target, path, expect_hash="cafe01")
        for name, param in source.params.items():
            loaded = target.params[name].array
            assert loaded.tobytes() == param.array.tobytes(), name  # tells -0.0 from 0.0
            assert loaded.flags.writeable and loaded.flags.owndata, name
