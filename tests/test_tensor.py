"""Tensor engine: forward values, gradient correctness, masking semantics."""

import collections
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from finegrain import ops, tensor
from finegrain.errors import DegenerateMaskError, ShapeError
from finegrain.tensor import Tensor

from gradcheck import check_gradients


def rng(seed=0):
    return np.random.default_rng(seed)


# fixed, non-uniform weights: each entry of the transpose gets its own gradient
TRANSPOSE_WEIGHTS = Tensor(np.arange(18.0).reshape(6, 3) - 7.5)


class TestTensorBasics:
    def test_flat_storage_matches_shape(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.array.reshape(-1).tolist() == [1.0, 2.0, 3.0, 4.0]
        assert math.prod(t.shape) == t.array.size

    def test_grad_absent_before_backward(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        assert t.grad is None

    def test_grad_same_length_as_data(self):
        t = Tensor([[1.0, 2.0, 3.0]], requires_grad=True)
        tensor.tsum(tensor.mul(t, t)).backward()
        assert t.grad.size == t.array.size

    def test_leaf_accumulates_from_all_consumers(self):
        x = Tensor([2.0], requires_grad=True)
        y = tensor.add(tensor.mul(x, x), tensor.scale(x, 3.0))  # x^2 + 3x
        tensor.tsum(y).backward()
        assert x.grad[0] == pytest.approx(2 * 2.0 + 3.0)

    def test_backward_requires_scalar(self):
        t = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(ShapeError):
            tensor.mul(t, t).backward()

    def test_backward_from_a_constant_root_does_nothing(self):
        x = Tensor([1.0, 2.0])
        root = tensor.tsum(x)
        root.backward()
        assert x.grad is None and root.grad is None

    def test_item_reads_one_element_only(self):
        assert Tensor(7.5).item() == 7.5
        assert Tensor([[7.5]]).item() == 7.5
        with pytest.raises(ValueError):
            Tensor(np.arange(3.0) + 7).item()

    def test_shared_subexpression_visited_once(self):
        x = Tensor([1.5], requires_grad=True)
        shared = tensor.mul(x, x)
        out = tensor.tsum(tensor.add(shared, shared))  # 2x^2
        out.backward()
        assert x.grad[0] == pytest.approx(4 * 1.5)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        assert np.array_equal(tensor.matmul(eye, a).array, a.array)

    def test_selector_row(self):
        sel = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert tensor.matmul(sel, b).array.tolist() == [[5.0, 6.0], [0.0, 0.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            tensor.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_vs_finite_differences(self):
        r = rng(7)
        a = Tensor(r.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(r.normal(size=(4, 2)), requires_grad=True)
        err = check_gradients(lambda: tensor.tsum(tensor.mul(m := tensor.matmul(a, b), m)), [a, b])
        assert err < 1e-3


class TestLinear:
    def test_gradient_vs_finite_differences(self):
        r = rng(11)
        x = Tensor(r.normal(size=(5, 4)), requires_grad=True)
        w = Tensor(r.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(r.normal(size=3), requires_grad=True)
        # a non-uniform downstream weight gives every row and bias entry its own gradient
        weights = Tensor(r.normal(size=(5, 3)))

        def f():
            out = ops.linear(x, w, b)
            return tensor.tsum(tensor.mul(tensor.mul(out, out), weights))

        assert check_gradients(f, [x, w, b]) < 1e-3

    def test_bit_identical_to_matmul_then_add(self):
        r = rng(12)
        arrays = r.normal(size=(6, 5)), r.normal(size=(5, 4)), r.normal(size=4)
        upstream = Tensor(r.normal(size=(6, 4)))

        def run(affine):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
            out = affine(x, w, b)
            tensor.tsum(tensor.mul(out, upstream)).backward()
            return out.array, x.grad, w.grad, b.grad

        fused = run(ops.linear)
        split = run(lambda x, w, b: tensor.add(tensor.matmul(x, w), b))
        for got, want in zip(fused, split):
            assert got.tobytes() == want.tobytes()

    def test_one_tape_node_per_call(self):
        x = Tensor(rng(13).normal(size=(3, 2)), requires_grad=True)
        w, b = Tensor(np.ones((2, 2)), requires_grad=True), Tensor(np.zeros(2))
        out = ops.linear(x, w, b)
        assert out._node.parents == (x, w, b)

    def test_bias_must_match_the_outputs(self):
        with pytest.raises(ShapeError, match="bias"):
            ops.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_vocab(self):
        logits = Tensor(np.zeros((3, 8)))
        loss = ops.softmax_cross_entropy(logits, [0, 3, 7])
        assert loss.item() == pytest.approx(math.log(8), abs=1e-12)

    def test_saturation_with_margin(self):
        logits = Tensor([[20.0, 0.0]])
        assert ops.softmax_cross_entropy(logits, [0]).item() < 1e-8

    def test_matches_hand_formula(self):
        row = np.array([1.0, 2.0, 0.5])
        expected = -(row[1] - np.log(np.exp(row).sum()))
        loss = ops.softmax_cross_entropy(Tensor(row[None, :]), [1])
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            ops.softmax_cross_entropy(Tensor(np.zeros((1, 4))), [4])

    def test_gradient(self):
        logits = Tensor(rng(3).normal(size=(4, 6)), requires_grad=True)
        err = check_gradients(lambda: ops.softmax_cross_entropy(logits, [1, 0, 5, 2]), [logits])
        assert err < 1e-3


class TestMaskedAttention:
    # k and v hold only the visible slots' key rows, sample-major

    def test_single_visible_key_forces_output(self):
        r = rng(11)
        q = Tensor(r.normal(size=(3, 4)))
        k = Tensor(r.normal(size=(1, 4)))
        v = Tensor(r.normal(size=(1, 4)))
        mask = np.zeros(5, dtype=bool)
        mask[2] = True
        out = ops.masked_attention(q, k, v, mask[None], heads=1)
        assert np.array_equal(out.array, np.tile(v.array[0], (3, 1)))

    def test_identical_keys_give_uniform_weights(self):
        q = rng(1).normal(size=(2, 4))
        k = np.tile(rng(2).normal(size=(1, 4)), (6, 1))
        weights = ops.masked_softmax(q @ k.T, np.ones(6, dtype=bool))
        assert np.allclose(weights, 1.0 / 6.0, atol=1e-15)

    def test_masked_weights_exactly_zero_and_visible_sum_to_one(self):
        logits = rng(5).normal(size=(3, 4))
        mask = np.array([True, False, True, False])
        w = ops.masked_softmax(logits, mask)
        assert np.all(w[:, [1, 3]] == 0.0)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_all_masked_row_rejected(self):
        with pytest.raises(DegenerateMaskError):
            ops.masked_softmax(np.zeros((2, 3)), np.zeros(3, dtype=bool))

    def test_gradients(self):
        r = rng(17)
        q = Tensor(r.normal(size=(3, 4)), requires_grad=True)
        k = Tensor(r.normal(size=(3, 4)), requires_grad=True)
        v = Tensor(r.normal(size=(3, 4)), requires_grad=True)
        mask = np.array([True, False, True, True, False])
        err = check_gradients(
            lambda: tensor.tsum(ops.masked_attention(q, k, v, mask[None], heads=1)), [q, k, v])
        assert err < 1e-3

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_heads_match_a_loop_over_column_blocks(self, heads):
        r = rng(19)
        q, k, v = r.normal(size=(3, 8)), r.normal(size=(5, 8)), r.normal(size=(5, 8))
        mask = r.random((1, 5)) < 0.6
        mask[:, 0] = True
        dh = 8 // heads
        expected = []
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            logits = np.where(mask, q[:, cols] @ k[:, cols].T / np.sqrt(dh), -np.inf)
            w = np.exp(logits - logits.max(axis=1, keepdims=True))
            expected.append(w / w.sum(axis=1, keepdims=True) @ v[:, cols])
        # the key mask carries the batch axis first: here one sample
        out = ops.masked_attention(Tensor(q), Tensor(k[mask[0]]), Tensor(v[mask[0]]), mask, heads)
        assert np.allclose(out.array, np.concatenate(expected, axis=1), rtol=0.0, atol=1e-12)

    def test_multi_head_gradients(self):
        r = rng(23)
        q = Tensor(r.normal(size=(3, 8)), requires_grad=True)
        k = Tensor(r.normal(size=(3, 8)), requires_grad=True)
        v = Tensor(r.normal(size=(3, 8)), requires_grad=True)
        mask = np.array([True, False, True, True, False])
        # uneven output weights show a head whose gradient lands in the wrong block
        weights = Tensor(r.normal(size=(3, 8)))
        err = check_gradients(
            lambda: tensor.tsum(tensor.mul(ops.masked_attention(q, k, v, mask[None], heads=2),
                                           weights)),
            [q, k, v])
        assert err < 1e-3

    def test_batched_gradients_with_per_sample_masks_and_a_padded_query(self):
        # batch 3 of self-attention over 4 positions, each sample with its own key mask;
        # sample 1's last position is a pad, hidden as a key and zeroed as a query row
        r = rng(31)
        mask = np.array([[True, True, False, True],
                         [True, True, True, False],
                         [False, True, True, True]])
        q = Tensor(r.normal(size=(12, 8)), requires_grad=True)
        k, v = (Tensor(r.normal(size=(9, 8)), requires_grad=True) for _ in range(2))
        keep = np.ones((12, 1))
        keep[7] = 0.0
        weights = Tensor(r.normal(size=(12, 8)) * keep)
        err = check_gradients(
            lambda: tensor.tsum(tensor.mul(ops.masked_attention(q, k, v, mask, heads=2), weights)),
            [q, k, v])
        assert err < 1e-3

    def test_batch_equals_one_call_per_sample(self):
        # forward and backward, bit for bit: the stacked matmul keeps each sample's arithmetic
        r = rng(37)
        q, k, v = r.normal(size=(6, 8)), r.normal(size=(6, 8)), r.normal(size=(6, 8))
        mask = np.array([[True, False, True, True, True], [False, False, True, True, False]])
        g = r.normal(size=(6, 8))

        def attend(parts, m, rows):
            leaves = [Tensor(p, requires_grad=True) for p in parts]
            out = ops.masked_attention(*leaves, m, heads=4)
            tensor.tsum(tensor.mul(out, Tensor(g[rows]))).backward()
            return out.array, [leaf.grad for leaf in leaves]

        out, grads = attend((q, k, v), mask, slice(None))
        for b, keys in enumerate((slice(0, 4), slice(4, 6))):  # each sample's visible keys
            rows = slice(3 * b, 3 * b + 3)
            single, single_grads = attend((q[rows], k[keys], v[keys]), mask[b:b + 1], rows)
            assert np.array_equal(out[rows], single)
            for batched, part, grad in zip(grads, (rows, keys, keys), single_grads):
                assert np.array_equal(batched[part], grad)

    def test_width_must_split_into_heads(self):
        x = Tensor(np.zeros((2, 6)))
        with pytest.raises(ShapeError):
            ops.masked_attention(x, x, x, np.ones(2, dtype=bool), heads=4)

    def test_wrong_length_key_mask_is_a_shape_error(self):
        q, kv = Tensor(np.zeros((2, 4))), Tensor(np.zeros((5, 4)))
        with pytest.raises(ShapeError):
            ops.masked_attention(q, kv, kv, np.ones((1, 3), dtype=bool), heads=1)

    def test_a_key_row_for_a_hidden_slot_is_a_shape_error(self):
        # a row for every slot of a mask with a hidden slot: k and v hold visible rows only
        q, kv = Tensor(np.zeros((2, 4))), Tensor(np.zeros((5, 4)))
        with pytest.raises(ShapeError):
            ops.masked_attention(q, kv, kv, np.array([[True, False, True, True, True]]), heads=1)

    @pytest.mark.parametrize("q_rows,kv_rows,mask_shape", [
        (4, 5, (2, 5)),  # keys for one sample, mask for two
        (3, 10, (2, 5)),  # query rows do not split into two samples
        (4, 10, (2, 2, 5)),  # a 3-D mask, here one per query that fits the rows
    ])
    def test_mask_batch_must_fit_the_stacked_rows(self, q_rows, kv_rows, mask_shape):
        q, kv = Tensor(np.zeros((q_rows, 4))), Tensor(np.zeros((kv_rows, 4)))
        with pytest.raises(ShapeError):
            ops.masked_attention(q, kv, kv, np.ones(mask_shape, dtype=bool), heads=1)

    def test_one_tape_node_per_call(self):
        r = rng(29)
        q = Tensor(r.normal(size=(3, 8)), requires_grad=True)
        kv = Tensor(r.normal(size=(5, 8)), requires_grad=True)
        before = next(tensor._SEQ)
        out = ops.masked_attention(q, kv, kv, np.ones((1, 5), dtype=bool), heads=4)
        assert out._node.seq == before + 1
        assert next(tensor._SEQ) == before + 2


class TestElementwiseOps:
    def test_layer_norm_constant_vector_is_zero_before_affine(self):
        x = Tensor(np.full((2, 8), 3.25))
        gain = Tensor(np.ones(8))
        bias = Tensor(np.zeros(8))
        assert np.all(ops.layer_norm(x, gain, bias).array == 0.0)

    def test_layer_norm_normalizes(self):
        x = Tensor(rng(23).normal(size=(4, 16)))
        out = ops.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.allclose(out.array.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(out.array.var(axis=-1), 1.0, atol=1e-3)

    def test_gelu_zero(self):
        assert ops.gelu(Tensor([0.0])).item() == 0.0

    def test_embed_round_trip(self):
        table = Tensor(rng(29).normal(size=(10, 4)))
        for i in (0, 3, 9):
            assert np.array_equal(ops.embed([i], table).array[0], table.array[i])

    def test_embed_gradient_scatters(self):
        table = Tensor(rng(31).normal(size=(6, 3)), requires_grad=True)
        tensor.tsum(ops.embed([2, 2, 4], table)).backward()
        g = table.grad
        assert np.all(g[2] == 2.0) and np.all(g[4] == 1.0)
        assert np.all(g[[0, 1, 3, 5]] == 0.0)

    def test_l2_normalize_unit_norm(self):
        x = Tensor(rng(37).normal(size=(5, 8)))
        norms = np.linalg.norm(ops.l2_normalize(x).array, axis=-1)
        assert np.allclose(norms, 1.0, atol=1e-9)

    @pytest.mark.parametrize(
        "build",
        [
            lambda x: tensor.tsum(ops.gelu(x)),
            lambda x: tensor.tsum(ops.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))),
            lambda x: tensor.tsum(ops.l2_normalize(x)),
            lambda x: tensor.tsum(tensor.sigmoid(x)),
            lambda x: tensor.tsum(tensor.exp(tensor.scale(x, 0.1))),
            lambda x: tensor.tsum(tensor.absolute(x)),
            lambda x: tensor.tsum(tensor.maximum(x, Tensor(np.zeros((3, 6))))),
            lambda x: tensor.tsum(tensor.minimum(x, Tensor(np.full((3, 6), 0.3)))),
            lambda x: tensor.tsum(tensor.slice_cols(x, 1, 4)),
            lambda x: tensor.tsum(tensor.take_rows(x, [0, 2, 2])),
            lambda x: tensor.tsum(tensor.mul(tensor.transpose(x), TRANSPOSE_WEIGHTS)),
        ],
        ids=[
            "gelu", "layer_norm", "l2_normalize", "sigmoid", "exp", "abs",
            "maximum", "minimum", "slice_cols", "take_rows", "transpose",
        ],
    )
    def test_op_gradients(self, build):
        x = Tensor(rng(41).normal(size=(3, 6)), requires_grad=True)
        assert check_gradients(lambda: build(x), [x]) < 1e-3

    @pytest.mark.parametrize("op,picks_a", [
        (tensor.maximum, [True, True, False]),
        (tensor.minimum, [True, False, True]),
    ], ids=["maximum", "minimum"])
    def test_max_min_is_one_node_and_ties_route_to_first_argument(self, op, picks_a):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([1.0, 0.0, 5.0], requires_grad=True)  # entry 0 ties
        out = op(a, b)
        assert out._node.parents == (a, b)
        tensor.tsum(out).backward()
        picks_a = np.array(picks_a)
        assert np.array_equal(out.array, np.where(picks_a, a.array, b.array))
        assert np.array_equal(a.grad, picks_a * 1.0)
        assert np.array_equal(b.grad, ~picks_a * 1.0)

    def test_concat_gradients(self):
        r = rng(43)
        a = Tensor(r.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(r.normal(size=(1, 3)), requires_grad=True)
        c = Tensor(r.normal(size=(1, 3)), requires_grad=True)
        err = check_gradients(
            lambda: tensor.tsum(tensor.mul(m := tensor.concat([a, b, c], 0), m)), [a, b, c]
        )
        assert err < 1e-3

    @pytest.mark.parametrize("rows, indices", [
        (5, [4, 0, 2]), (5, [0, 2, 2, 4, 0]), (5, []), (5, [-1, 0, -3]),
        (5, [-1, 4, 0, -5, 2, -1]), (0, []),
    ], ids=["distinct", "repeated", "empty", "negative", "negative-repeated", "zero-rows"])
    def test_take_rows_gradient_equals_the_scatter_add(self, rows, indices):
        # bytes, not only values: some upstream entries are -0.0, and the scatter-add
        # sums each element from 0.0, so a sum of -0.0 terms is 0.0.  When no row
        # repeats, the backward assigns each row its gradient, -0.0 included
        r = rng(47)
        x = Tensor(r.normal(size=(rows, 3)), requires_grad=True)
        upstream = r.normal(size=(len(indices), 3))
        upstream[::2, 1] = -0.0
        tensor.tsum(tensor.mul(tensor.take_rows(x, indices), Tensor(upstream))).backward()
        idx = np.asarray(indices, dtype=np.intp)
        scattered = np.zeros((rows, 3))
        np.add.at(scattered, idx, upstream)
        assert np.array_equal(x.grad, scattered)
        if len(set(idx % max(rows, 1))) < len(idx):
            assert x.grad.tobytes() == scattered.tobytes()
        else:
            assigned = np.zeros((rows, 3))
            assigned[idx] = upstream
            assert x.grad.tobytes() == assigned.tobytes()


def _plain_gelu(x, g):
    cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
    return x * cdf, (g * (cdf + x * pdf),)


def _plain_layer_norm(x, gain, bias, g):
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + ops.LAYER_NORM_EPS)
    xhat = centered * inv_std
    dxhat = g * gain
    dx = inv_std * (dxhat - dxhat.sum(axis=-1, keepdims=True) / d
                    - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d))
    axes = tuple(range(g.ndim - 1))
    return xhat * gain + bias, (dx, (g * xhat).sum(axis=axes), g.sum(axis=axes))


def _plain_masked_attention(q, k, v, mask, heads, g):
    batch, width = len(mask), q.shape[1]
    dh = width // heads

    def split(x):
        return x.reshape(batch, -1, heads, dh).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(-1, width)

    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    shifted = np.where(mask[:, None, None], qh @ kh.swapaxes(-1, -2) / np.sqrt(dh), -np.inf)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    weights /= weights.sum(axis=-1, keepdims=True)
    gw = (gh @ vh.swapaxes(-1, -2)) * weights
    gs = (gw - weights * gw.sum(axis=-1, keepdims=True)) / np.sqrt(dh)
    return merge(weights @ vh), (merge(gs @ kh), merge(gs.swapaxes(-1, -2) @ qh),
                                 merge(weights.swapaxes(-1, -2) @ gh))


def _laid_masked_attention(q, k, v, mask, heads, g, queries=None, samples=None):
    """`_plain_masked_attention` on the per-sample grid that `ops.masked_attention` lays out.

    Query sample j reads key sample `samples[j]` (j itself with None): its
    visible key rows are laid at their slots, zero in the hidden ones; the
    query rows and their upstream gradient `g` at the visible slots of
    `queries`, or all of them with None.  Returns the present query rows'
    values and gradients, and the key rows' gradients summed back by
    `np.add.at`, query sample after query sample.
    """
    samples = np.arange(len(mask)) if samples is None else np.asarray(samples)
    key_mask = mask[samples]
    # each query sample's key slots as rows of k and v, visible ones only
    key_rows = (np.cumsum(mask.reshape(-1)).reshape(mask.shape) - 1)[samples][key_mask]
    if queries is None:
        queries = np.ones((len(samples), len(q) // len(samples)), dtype=bool)
    present = queries.reshape(-1)

    def lay(x, slots, rows):
        grid = np.zeros((slots.size, x.shape[1]))
        grid[slots.reshape(-1)] = x[rows]
        return grid

    def summed(grad):
        full = np.zeros(k.shape)
        np.add.at(full, key_rows, grad[key_mask.reshape(-1)])
        return full

    values, (gq, gk, gv) = _plain_masked_attention(
        lay(q, queries, slice(None)), lay(k, key_mask, key_rows), lay(v, key_mask, key_rows),
        key_mask, heads, lay(g, queries, slice(None)))
    return values[present], (gq[present], summed(gk), summed(gv))


class TestKernelsMatchPlainFormulas:
    # the kernels build their results in their own buffers; values and gradients keep
    # the bytes of the plain expressions, evaluated in the same order

    @staticmethod
    def run(op, arrays, upstream):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = op(*leaves)
        tensor.tsum(tensor.mul(out, Tensor(upstream))).backward()
        return out.array, tuple(leaf.grad for leaf in leaves)

    @staticmethod
    def assert_same_bytes(got, want):
        (values, grads), (want_values, want_grads) = got, want
        assert values.tobytes() == want_values.tobytes()
        assert len(grads) == len(want_grads)
        for grad, want_grad in zip(grads, want_grads):
            assert grad.shape == want_grad.shape
            assert grad.tobytes() == want_grad.tobytes()

    def test_gelu(self):
        r = rng(61)
        x, g = r.normal(size=(7, 5)) * 3.0, r.normal(size=(7, 5))
        self.assert_same_bytes(self.run(ops.gelu, [x], g), _plain_gelu(x, g))

    def test_layer_norm(self):
        r = rng(62)
        arrays = r.normal(size=(9, 6)) * 2.0 + 1.0, r.normal(size=6), r.normal(size=6)
        g = r.normal(size=(9, 6))
        self.assert_same_bytes(self.run(ops.layer_norm, arrays, g),
                               _plain_layer_norm(*arrays, g))

    def test_masked_attention(self):
        r = rng(63)
        mask = np.array([[True, False, True, True, True], [False, False, True, True, False]])
        # head width 6: a scale by 1 / sqrt(6) is not exact, so the order of its rounding shows
        arrays = r.normal(size=(6, 12)), r.normal(size=(6, 12)), r.normal(size=(6, 12))
        g = r.normal(size=(6, 12))
        got = self.run(lambda q, k, v: ops.masked_attention(q, k, v, mask, heads=2), arrays, g)
        self.assert_same_bytes(got, _laid_masked_attention(*arrays, mask, 2, g))

    def test_masked_attention_of_present_rows(self):
        # self-attention given only its present query rows: values and the present rows'
        # gradients keep the bytes of the same rows of the call on every slot's query row
        r = rng(64)
        mask = np.array([[True, False, True, True, False],
                         [True, True, True, True, True],  # no slot hidden
                         [False, True, True, False, True]])
        present = mask.reshape(-1)
        q, k, v = r.normal(size=(15, 12)), r.normal(size=(11, 12)), r.normal(size=(11, 12))
        g = r.normal(size=(15, 12)) * present[:, None]  # hidden query rows get no gradient
        every = self.run(lambda q, k, v: ops.masked_attention(q, k, v, mask, heads=2),
                         (q, k, v), g)
        got = self.run(lambda q, k, v: ops.masked_attention(q, k, v, mask, heads=2, queries=mask),
                       (q[present], k, v), g[present])
        self.assert_same_bytes(got, (every[0][present], (every[1][0][present], *every[1][1:])))

    def test_masked_attention_of_gathered_samples(self):
        # with `samples` a query sample reads its key sample by index: the bytes of
        # the call on key rows gathered per query sample first, by `take_rows`
        r = rng(65)
        samples = np.array([1, 0, 1, 1])
        q, g = r.normal(size=(12, 8)), r.normal(size=(12, 8))
        for mask in (np.array([[True, False, True, True], [True, True, True, True]]),
                     np.ones((2, 4), dtype=bool)):  # a hidden slot, and none
            arrays = q, r.normal(size=(mask.sum(), 8)), r.normal(size=(mask.sum(), 8))
            rows = ops.present_rows(mask)[samples][mask[samples]]

            def gathered_first(q, k, v):
                return ops.masked_attention(q, tensor.take_rows(k, rows),
                                            tensor.take_rows(v, rows), mask[samples], heads=2)

            got = self.run(lambda q, k, v: ops.masked_attention(q, k, v, mask, heads=2,
                                                                samples=samples), arrays, g)
            self.assert_same_bytes(got, self.run(gathered_first, arrays, g))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_masked_attention_on_random_layouts(self, data):
        # over key masks, repeated `samples` and `queries` masks, the op keeps the bytes
        # of the plain formula on the grid it lays its rows into
        def bool_rows(count, seq):
            rows = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=seq,
                                                        max_size=seq),
                                               min_size=count, max_size=count)))
            rows[~rows.any(axis=1), 0] = True  # every sample keeps a visible slot
            return rows

        heads = data.draw(st.sampled_from([1, 2, 3]), label="heads")
        mask = bool_rows(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)))
        samples = queries = None
        if data.draw(st.booleans(), label="gathers samples"):
            samples = np.array(data.draw(st.lists(st.integers(0, len(mask) - 1), min_size=1,
                                                  max_size=5)))
        batch = len(mask) if samples is None else len(samples)
        if data.draw(st.booleans(), label="masks queries"):
            queries = bool_rows(batch, data.draw(st.integers(1, 4)))
        rows = batch * data.draw(st.integers(1, 3)) if queries is None else int(queries.sum())
        r = rng(data.draw(st.integers(0, 2**16), label="seed"))
        arrays = r.normal(size=(rows, 6)), r.normal(size=(mask.sum(), 6)), r.normal(
            size=(mask.sum(), 6))
        g = r.normal(size=(rows, 6))
        got = self.run(lambda q, k, v: ops.masked_attention(q, k, v, mask, heads, queries,
                                                            samples), arrays, g)
        self.assert_same_bytes(got, _laid_masked_attention(*arrays, mask, heads, g, queries,
                                                           samples))


class TestCheckGradients:
    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        err = check_gradients(lambda: tensor.tsum(tensor.mul(x, x)), [x])
        assert err < 1e-6
        tensor.tsum(tensor.mul(x, x)).backward()
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_constant_function_has_zero_gradient(self):
        x = Tensor([1.0, -1.0], requires_grad=True)
        err = check_gradients(lambda: Tensor(np.array(5.0)), [x])
        assert err == 0.0

    def test_constant_sharing_the_input_array_stays_put(self):
        start = np.array([[0.3, -1.2], [0.7, 2.0]])
        x = Tensor(start, requires_grad=True)  # Tensor keeps `start` itself, not a copy
        err = check_gradients(lambda: tensor.tsum(tensor.sub(x, Tensor(start))), [x])
        assert err < 1e-6
        assert x.array is start
        assert np.array_equal(start, [[0.3, -1.2], [0.7, 2.0]])


class TestDeterminism:
    def test_bit_identical_forward_and_gradients(self):
        def run():
            r = rng(1234)
            a = Tensor(r.normal(size=(4, 4)), requires_grad=True)
            b = Tensor(r.normal(size=(4, 4)), requires_grad=True)
            loss = ops.softmax_cross_entropy(tensor.matmul(ops.gelu(a), b), [0, 1, 2, 3])
            loss.backward()
            return loss.item(), a.grad.copy(), b.grad.copy()

        v1, ga1, gb1 = run()
        v2, ga2, gb2 = run()
        assert v1 == v2
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


def _reference_sweep(root):
    """Leaf gradients by the first backward algorithm: every reachable tensor in
    descending creation order (leaves last), summing what each one receives."""
    seen, order, stack = set(), [], [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            order.append(t)
            stack.extend(t._node.parents if t._node is not None else ())
    order.sort(key=lambda t: -1 if t._node is None else t._node.seq, reverse=True)
    pending, leaf_grads = {id(root): np.ones_like(root.array)}, {}
    for t in order:
        grad = pending.pop(id(t), None)
        if grad is None:
            continue
        if t._node is None:
            leaf_grads[id(t)] = grad.copy()
            continue
        for parent, pgrad in zip(t._node.parents, t._node.backward_fn(grad)):
            if pgrad is not None and parent.requires_grad:
                slot = pending.get(id(parent))
                pending[id(parent)] = pgrad if slot is None else slot + pgrad
    return leaf_grads


GRAPH_OPS = ("add", "mul", "matmul", "scale", "take_rows", "concat_axis0", "concat_axis1")


class TestBackwardSweep:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(min_value=1, max_value=3))
    def test_leaf_gradients_match_the_reference_sweep_bit_for_bit(self, data, n):
        r = rng(data.draw(st.integers(min_value=0, max_value=2**31 - 1)))
        leaves = [Tensor(r.normal(size=(n, n)), requires_grad=True) for _ in range(3)]
        shared = tensor.mul(leaves[0], leaves[0])  # a leaf read twice by one node
        pool = [*leaves, Tensor(r.normal(size=(n, n))), shared]

        def pick():
            return pool[data.draw(st.integers(min_value=0, max_value=len(pool) - 1))]

        def rows(count):  # n row indices into `count` rows, repeats allowed
            return data.draw(st.lists(st.integers(min_value=0, max_value=count - 1),
                                      min_size=n, max_size=n))

        for op in data.draw(st.lists(st.sampled_from(GRAPH_OPS), min_size=1, max_size=8)):
            if op == "scale":
                out = tensor.scale(pick(), 0.5)
            elif op == "take_rows":
                out = tensor.take_rows(pick(), rows(n))
            elif op == "concat_axis0":
                out = tensor.take_rows(tensor.concat([pick(), pick()], 0), rows(2 * n))
            elif op == "concat_axis1":
                out = tensor.matmul(tensor.concat([pick(), pick()], 1),
                                    tensor.concat([pick(), pick()], 0))
            else:
                out = getattr(tensor, op)(pick(), pick())
            pool.append(out)
        # `shared` is read by two nodes here, and by any op that picked it
        root = tensor.tsum(tensor.add(tensor.mul(shared, pool[-1]), shared))
        expected = _reference_sweep(root)
        root.backward()
        for leaf in leaves:
            want = expected.get(id(leaf))
            assert (leaf.grad is None) == (want is None)
            if want is not None:
                assert leaf.grad.tobytes() == want.tobytes()

    def test_each_backward_runs_at_most_once_and_only_with_a_gradient(self):
        calls = collections.Counter()

        def node(name, parents, routes):
            """A node that hands its gradient to the parents where `routes` holds, None elsewhere."""
            def backward(g):
                calls[name] += 1
                return tuple(g if route else None for route in routes)

            return tensor._result(parents[0].array.copy(), tuple(parents), backward)

        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        a = node("a", [x], [True])
        cut = node("cut", [y, x], [True, True])  # its only consumer returns None for it
        b = node("b", [a, cut, a], [True, False, True])
        c = node("c", [a, b], [True, True])
        tensor.tsum(node("d", [c, b], [True, True])).backward()
        assert calls == {"a": 1, "b": 1, "c": 1, "d": 1}
        assert y.grad is None
        assert np.array_equal(x.grad, [5.0, 5.0])  # a receives 1 from c and 2 + 2 from b


class TestOnePassTape:
    def test_intermediate_only_the_tape_held_is_freed_by_backward(self):
        x = Tensor([0.5, -1.0, 2.0], requires_grad=True)
        mid = tensor.exp(x)  # exp's backward saves its output array
        freed = weakref.ref(mid.array)
        root = tensor.tsum(tensor.mul(mid, mid))
        del mid
        assert freed() is not None
        root.backward()
        assert freed() is None
        assert np.array_equal(x.grad, 2.0 * np.exp(x.array) ** 2)

    def test_second_backward_from_the_same_root_raises(self):
        x = Tensor([1.5], requires_grad=True)
        root = tensor.tsum(tensor.mul(x, x))
        root.backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            root.backward()
        assert x.grad[0] == 3.0  # the failed sweep added nothing

    def test_new_root_over_a_spent_subgraph_raises(self):
        x = Tensor([1.5], requires_grad=True)
        shared = tensor.mul(x, x)
        tensor.tsum(shared).backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            tensor.tsum(tensor.scale(shared, 2.0)).backward()

    def test_leaf_accumulates_across_separately_built_graphs(self):
        x = Tensor([1.5, -2.0], requires_grad=True)
        tensor.tsum(tensor.mul(x, x)).backward()  # 2x
        tensor.tsum(tensor.scale(x, 3.0)).backward()  # 3
        assert np.array_equal(x.grad, [2.0 * 1.5 + 3.0, 2.0 * -2.0 + 3.0])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
# a 3.6e-7 gradient coordinate whose two-point difference error exceeded the bound
@example(n=3, m=3, p=3, seed=370)
def test_property_matmul_chain_gradients(n, m, p, seed):
    r = np.random.default_rng(seed)
    a = Tensor(r.normal(size=(n, m)), requires_grad=True)
    b = Tensor(r.normal(size=(m, p)), requires_grad=True)

    def f():
        prod = tensor.matmul(a, b)
        return tensor.tsum(ops.gelu(prod))

    assert check_gradients(f, [a, b]) < 1e-3


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_softmax_rows_sum_to_one(rows, cols, seed):
    r = np.random.default_rng(seed)
    logits = r.normal(size=(rows, cols)) * 3
    mask = r.random((rows, cols)) < 0.7
    mask[~mask.any(axis=1), 0] = True  # keep every row non-degenerate
    w = ops.masked_softmax(logits, mask)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(w[~mask] == 0.0)
