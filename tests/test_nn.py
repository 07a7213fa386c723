"""Attention, encoder/decoder layers, and convolutional positional encodings."""

import math

import numpy as np
import pytest

import hsiseg.autodiff as ad
from hsiseg.autodiff import Tensor, grad_check
from hsiseg.errors import ConfigError, ContractError
from hsiseg.nn import (
    GROUP_BUCKETS,
    AttentionConfig,
    MultiHeadAttention,
    PositionalConv1d,
    PositionalConv2d,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
    attention_head,
    group_buckets,
    uniform_init,
)

from helpers import zero_parameters


def mha_oracle(x1, x2, block):
    """Row-by-row re-evaluation of multi-head attention with plain floats."""
    heads = []
    d = block.cfg.head_dim
    for i in range(block.cfg.heads):
        cols = slice(i * d, (i + 1) * d)  # head i's columns of each projection
        q = x1 @ block.wq.data[:, cols] + block.bq.data[cols]
        k = x2 @ block.wk.data[:, cols] + block.bk.data[cols]
        v = x2 @ block.wv.data[:, cols] + block.bv.data[cols]
        out = np.zeros_like(q)
        for r in range(q.shape[0]):
            scores = [float(q[r] @ k[s]) / math.sqrt(d) for s in range(k.shape[0])]
            mx = max(scores)
            weights = [math.exp(s - mx) for s in scores]
            total = sum(weights)
            for s in range(k.shape[0]):
                out[r] += (weights[s] / total) * v[s]
        heads.append(out)
    return np.concatenate(heads, axis=1) @ block.wo.data + block.bo.data


def per_head_composition(x_q, x_kv, block, key_mask=None):
    """Multi-head attention as separate per-head projections on column slices,
    joined by concat; returns (output, per-head q/k/v weight and bias leaves)."""
    d = block.cfg.head_dim
    leaves = {name: [] for name in ("wq", "wk", "wv", "bq", "bk", "bv")}

    def leaf(name, cols):
        data = getattr(block, name).data
        t = Tensor(data[:, cols] if data.ndim == 2 else data[cols], requires_grad=True)
        leaves[name].append(t)
        return t

    heads = []
    for i in range(block.cfg.heads):
        cols = slice(i * d, (i + 1) * d)
        q = ad.matmul(x_q, leaf("wq", cols)) + leaf("bq", cols)
        k = ad.matmul(x_kv, leaf("wk", cols)) + leaf("bk", cols)
        v = ad.matmul(x_kv, leaf("wv", cols)) + leaf("bv", cols)
        heads.append(attention_head(q, k, v, key_mask))
    joined = ad.concat(heads, axis=-1)
    return ad.matmul(joined, block.wo) + block.bo, leaves


class TestAttentionHead:
    def test_single_token_passes_value_through(self):
        """One key: softmax of a scalar is 1, so the output is the value row."""
        rng = np.random.default_rng(0)
        q = Tensor(rng.standard_normal((1, 4)))
        k = Tensor(rng.standard_normal((1, 4)))
        v = Tensor(rng.standard_normal((1, 4)))
        out = attention_head(q, k, v)
        np.testing.assert_allclose(out.data, v.data)

    def test_identical_tokens_identical_rows(self):
        rng = np.random.default_rng(1)
        row = rng.standard_normal(4)
        q = Tensor(np.stack([row, row]))
        k = Tensor(rng.standard_normal((3, 4)))
        v = Tensor(rng.standard_normal((3, 4)))
        out = attention_head(q, k, v).data
        np.testing.assert_allclose(out[0], out[1])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        q = Tensor(rng.standard_normal((6, 3)) * 4)
        k = Tensor(rng.standard_normal((5, 3)) * 4)
        weights = attention_head(q, k, Tensor(np.eye(5))).data  # v = I reads the weights
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)

    def test_hand_evaluated_two_tokens_one_dim(self):
        """N=2, d=1: fully hand-computed scaled-dot-product attention."""
        q = Tensor(np.array([[1.0], [2.0]]))
        k = Tensor(np.array([[0.5], [-1.0]]))
        v = Tensor(np.array([[10.0], [20.0]]))
        out = attention_head(q, k, v).data
        for r, qv in enumerate((1.0, 2.0)):
            s0, s1 = qv * 0.5, qv * -1.0
            w0 = math.exp(s0) / (math.exp(s0) + math.exp(s1))
            expected = w0 * 10.0 + (1 - w0) * 20.0
            np.testing.assert_allclose(out[r, 0], expected, rtol=1e-12)

    def test_masked_keys_get_zero_weight(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.standard_normal((2, 3)))
        k = Tensor(rng.standard_normal((4, 3)))
        mask = np.array([True, False, True, False])
        masked = attention_head(q, k, Tensor(np.eye(4)), key_mask=mask).data  # v = I: the weights
        assert np.all(masked[:, ~mask] == 0)
        np.testing.assert_allclose(masked.sum(axis=-1), 1.0, atol=1e-12)

    def test_leading_axes_batch_independent_heads(self):
        """A (h, N, d) call equals h separate 2-D calls, mask included."""
        rng = np.random.default_rng(30)
        q = rng.standard_normal((3, 4, 2))
        k = rng.standard_normal((3, 5, 2))
        v = rng.standard_normal((3, 5, 2))
        mask = np.array([True, True, False, True, False])
        batched = attention_head(Tensor(q), Tensor(k), Tensor(v), key_mask=mask).data
        for i in range(3):
            single = attention_head(Tensor(q[i]), Tensor(k[i]), Tensor(v[i]), key_mask=mask).data
            np.testing.assert_allclose(batched[i], single, rtol=0, atol=1e-15)


class TestMultiHeadAttention:
    def test_head_dim_must_divide(self):
        with pytest.raises(ConfigError):
            AttentionConfig(channels=6, heads=4, mlp_ratio=2)

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        block = MultiHeadAttention(AttentionConfig(8, 2, 2), rng, "attn")
        with pytest.raises(ContractError):
            block(Tensor(np.zeros((1, 3, 8))), Tensor(np.zeros((1, 3, 6))))

    @pytest.mark.parametrize("q_shape,kv_shape,mask_shape", [
        ((3, 8), (3, 8), None),  # no batch axis
        ((2, 3, 8), (1, 3, 8), None),  # batch sizes differ
        ((1, 3, 8), (1, 3, 8), (3,)),  # mask without its batch axis
    ])
    def test_batch_and_mask_shapes_checked(self, q_shape, kv_shape, mask_shape):
        block = MultiHeadAttention(AttentionConfig(8, 2, 2), np.random.default_rng(4), "attn")
        mask = None if mask_shape is None else np.ones(mask_shape, bool)
        with pytest.raises(ContractError):
            block(Tensor(np.zeros(q_shape)), Tensor(np.zeros(kv_shape)), key_mask=mask)

    def test_batch_equals_per_image(self):
        """Cross-attention with a (B, Nk) key mask, and grouped self-attention
        with batch-wide group ids, give each image its own result."""
        rng = np.random.default_rng(34)
        block = MultiHeadAttention(AttentionConfig(8, 2, 2), rng, "attn")
        xq, xkv = rng.standard_normal((3, 5, 8)), rng.standard_normal((3, 4, 8))
        mask = np.array([[True, False, True, True], [False, False, True, False],
                         [True, True, True, True]])
        labels = np.array([[0, 1, 0, 3, 1], [2, 2, 2, 2, 2], [1, 0, 1, 0, 3]])
        cross = block(Tensor(xq), Tensor(xkv), key_mask=mask).data
        t = Tensor(xq)
        grouped = block(t, t, groups=labels + 4 * np.arange(3)[:, None]).data
        for i in range(3):
            one_q, one_kv = Tensor(xq[i:i + 1]), Tensor(xkv[i:i + 1])
            np.testing.assert_allclose(
                cross[i:i + 1], block(one_q, one_kv, key_mask=mask[i:i + 1]).data,
                rtol=0, atol=1e-13)
            np.testing.assert_allclose(
                grouped[i:i + 1], block(one_q, one_q, groups=labels[i:i + 1]).data,
                rtol=0, atol=1e-13)

    def test_single_head_is_projected_attention(self):
        rng = np.random.default_rng(5)
        block = MultiHeadAttention(AttentionConfig(4, 1, 2), rng, "attn")
        x = Tensor(rng.standard_normal((1, 5, 4)))
        q = ad.matmul(x, Tensor(block.wq.data[:, 0:4])) + Tensor(block.bq.data[0:4])
        k = ad.matmul(x, Tensor(block.wk.data[:, 0:4])) + Tensor(block.bk.data[0:4])
        v = ad.matmul(x, Tensor(block.wv.data[:, 0:4])) + Tensor(block.bv.data[0:4])
        manual = ad.matmul(attention_head(q, k, v), block.wo) + block.bo
        np.testing.assert_allclose(block(x, x).data, manual.data)

    def test_self_attention_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        block = MultiHeadAttention(AttentionConfig(8, 4, 2), rng, "attn")
        x = rng.standard_normal((7, 8))
        perm = rng.permutation(7)
        out = block(Tensor(x[None]), Tensor(x[None])).data[0]
        out_perm = block(Tensor(x[None, perm]), Tensor(x[None, perm])).data[0]
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)

    def test_cross_attention_key_permutation_invariance(self):
        rng = np.random.default_rng(7)
        block = MultiHeadAttention(AttentionConfig(8, 2, 2), rng, "attn")
        x1 = Tensor(rng.standard_normal((1, 3, 8)))
        x2 = rng.standard_normal((5, 8))
        out = block(x1, Tensor(x2[None])).data
        out_perm = block(x1, Tensor(x2[None, rng.permutation(5)])).data
        np.testing.assert_allclose(out_perm, out, atol=1e-10)

    def test_single_key_broadcasts_one_vector(self):
        rng = np.random.default_rng(8)
        block = MultiHeadAttention(AttentionConfig(6, 2, 2), rng, "attn")
        x1 = Tensor(rng.standard_normal((1, 4, 6)))
        x2 = Tensor(rng.standard_normal((1, 1, 6)))
        out = block(x1, x2).data[0]
        for r in range(1, 4):
            np.testing.assert_allclose(out[r], out[0])

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(9)
        block = MultiHeadAttention(AttentionConfig(8, 2, 2), rng, "attn")
        x1 = rng.standard_normal((3, 8))
        x2 = rng.standard_normal((5, 8))
        out = block(Tensor(x1[None]), Tensor(x2[None])).data[0]
        np.testing.assert_allclose(out, mha_oracle(x1, x2, block), atol=1e-12)

    def test_eight_parameter_tensors_for_any_head_count(self):
        rng = np.random.default_rng(15)
        for heads in (1, 2, 4, 8):
            block = MultiHeadAttention(AttentionConfig(8, heads, 2), rng, "attn")
            assert [p.shape for p in block.parameters()] == [(8, 8)] * 3 + [(8,)] * 3 \
                + [(8, 8), (8,)]

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_gradients_match_per_head_composition(self, heads):
        """Float64: the batched pass and a per-head loop over column slices
        agree on the output and on every gradient to 1e-12."""
        rng = np.random.default_rng(16 + heads)
        block = MultiHeadAttention(AttentionConfig(8, heads, 2), rng, "attn")
        for p in block.parameters():
            p.data = p.data + 0.1 * rng.standard_normal(p.shape)  # nonzero biases
        xq, xkv = rng.standard_normal((1, 3, 8)), rng.standard_normal((1, 5, 8))
        mask = np.array([True, False, True, True, False])
        w = Tensor(rng.standard_normal((1, 3, 8)))

        x1, x2 = Tensor(xq, requires_grad=True), Tensor(xkv, requires_grad=True)
        out = block(x1, x2, key_mask=mask[None])
        (out * w).sum().backward()
        fused = {p.name.split(".")[-1]: p.grad for p in block.parameters()}
        for p in block.parameters():
            p.grad = None

        r1, r2 = Tensor(xq, requires_grad=True), Tensor(xkv, requires_grad=True)
        ref, leaves = per_head_composition(r1, r2, block, key_mask=mask)
        (ref * w).sum().backward()

        np.testing.assert_allclose(out.data, ref.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x1.grad, r1.grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x2.grad, r2.grad, rtol=0, atol=1e-12)
        for name, parts in leaves.items():
            joined = np.concatenate([t.grad for t in parts], axis=-1)
            np.testing.assert_allclose(fused[name], joined, rtol=0, atol=1e-12, err_msg=name)
        for name in ("wo", "bo"):
            np.testing.assert_allclose(fused[name], getattr(block, name).grad,
                                       rtol=0, atol=1e-12, err_msg=name)

    def test_init_matches_per_head_draws(self):
        """The fused weights hold exactly the values that drawing (c, d)
        matrices head by head, q then k then v, and then wo gives from the
        same seed, so seeded nets start where per-head nets did."""
        c, heads = 8, 4
        d = c // heads
        block = MultiHeadAttention(AttentionConfig(c, heads, 2), np.random.default_rng(21), "attn")
        rng = np.random.default_rng(21)
        for i in range(heads):
            cols = slice(i * d, (i + 1) * d)
            for name in ("wq", "wk", "wv"):
                drawn = uniform_init(rng, (c, d), c)
                np.testing.assert_array_equal(getattr(block, name).data[:, cols], drawn)
        np.testing.assert_array_equal(block.wo.data, uniform_init(rng, (c, c), c))
        for name in ("bq", "bk", "bv", "bo"):
            assert getattr(block, name).dtype == np.float64
            assert not getattr(block, name).data.any()


class TestGroupedAttention:
    @pytest.mark.parametrize("labels", [
        [3, 0, 3, 3, 1, 0, 3, 7, 3, 1, 3, 5, 5, 3, 6, 3, 2, 3, 4, 3],  # skewed, 8 live
        [2] * 9,  # one live group
        [4, 0, 0, 1, 1, 1],  # fewer live groups than buckets
    ])
    def test_buckets_cover_each_token_once(self, labels):
        labels = np.array(labels)
        buckets = group_buckets(labels)
        live = np.unique(labels).size
        assert len(buckets) == min(GROUP_BUCKETS, live)
        seen, sizes = [], []
        for tokens, mask in buckets:
            assert tokens.shape == mask.shape and mask[:, 0].all()
            assert mask.sum(axis=1).max() == tokens.shape[1]  # padded to its own longest
            for row, live_slots in zip(tokens, mask):
                group = row[live_slots]
                assert np.unique(labels[group]).size == 1
                seen.extend(group)
                sizes.append(group.size)
        assert sorted(seen) == list(range(labels.size))
        assert sizes == sorted(sizes)  # buckets hold ascending size ranges

    def test_one_group_equals_plain_self_attention(self):
        rng = np.random.default_rng(30)
        block = MultiHeadAttention(AttentionConfig(8, 2, 2), rng, "attn")
        x = Tensor(rng.standard_normal((1, 7, 8)))
        np.testing.assert_allclose(block(x, x, groups=np.zeros((1, 7), int)).data,
                                   block(x, x).data, rtol=0, atol=1e-13)

    def test_each_group_attends_alone(self):
        rng = np.random.default_rng(31)
        block = MultiHeadAttention(AttentionConfig(8, 4, 2), rng, "attn")
        x = rng.standard_normal((12, 8))
        labels = np.array([1, 0, 1, 2, 2, 1, 0, 1, 5, 1, 2, 1])
        t = Tensor(x[None])
        out = block(t, t, groups=labels[None]).data[0]
        for g in np.unique(labels):
            rows = np.nonzero(labels == g)[0]
            alone = Tensor(x[None, rows])
            np.testing.assert_allclose(out[rows], block(alone, alone).data[0],
                                       rtol=0, atol=1e-13)

    def test_groups_need_self_attention(self):
        rng = np.random.default_rng(32)
        block = MultiHeadAttention(AttentionConfig(4, 2, 2), rng, "attn")
        x, y = Tensor(rng.standard_normal((1, 5, 4))), Tensor(rng.standard_normal((1, 5, 4)))
        labels = np.zeros((1, 5), int)
        with pytest.raises(ContractError):
            block(x, y, groups=labels)
        with pytest.raises(ContractError):
            block(x, x, key_mask=np.ones((1, 5), bool), groups=labels)
        with pytest.raises(ContractError):
            block(x, x, groups=np.zeros((1, 4), int))
        with pytest.raises(ContractError):
            block(x, x, groups=np.zeros(5, int))

    def test_grouped_layer_gradients_match_finite_differences(self):
        rng = np.random.default_rng(33)
        layer = TransformerEncoderLayer(AttentionConfig(4, 2, 2), rng, "layer")
        pos = Tensor(rng.standard_normal((1, 9, 4)))
        w = Tensor(rng.standard_normal((1, 9, 4)))
        labels = np.array([[0, 2, 2, 0, 2, 3, 2, 3, 6]])
        err = grad_check(lambda x: (layer(x, pos=pos, groups=labels) * w).sum(),
                         Tensor(rng.standard_normal((1, 9, 4))))
        assert err < 1e-4


class TestEncoderLayer:
    def test_zero_projections_identity_on_base(self):
        rng = np.random.default_rng(10)
        layer = TransformerEncoderLayer(AttentionConfig(8, 2, 2), rng, "layer")
        zero_parameters(layer)
        x = Tensor(rng.standard_normal((1, 6, 8)))
        p = Tensor(rng.standard_normal((1, 6, 8)))
        np.testing.assert_allclose(layer(x, pos=p).data, x.data + p.data)
        np.testing.assert_allclose(layer(x).data, x.data)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        layer = TransformerEncoderLayer(AttentionConfig(4, 2, 2), rng, "layer")
        pos = Tensor(rng.standard_normal((1, 4, 4)))
        w = Tensor(rng.standard_normal((1, 4, 4)))
        err = grad_check(lambda x: (layer(x, pos=pos) * w).sum(),
                         Tensor(rng.standard_normal((1, 4, 4))))
        assert err < 1e-4


class TestDecoderLayer:
    def test_zero_projections_identity(self):
        rng = np.random.default_rng(12)
        layer = TransformerDecoderLayer(AttentionConfig(8, 2, 2), rng, "layer")
        zero_parameters(layer)
        x = Tensor(rng.standard_normal((1, 5, 8)))
        memory = Tensor(rng.standard_normal((1, 3, 8)))
        np.testing.assert_allclose(layer(x, memory).data, x.data)

    def test_single_key_adds_shared_vector(self):
        rng = np.random.default_rng(13)
        layer = TransformerDecoderLayer(AttentionConfig(6, 2, 2), rng, "layer")
        zero_parameters(layer, (".mlp.w2", ".mlp.b2"))  # isolate the attention residual
        x = Tensor(rng.standard_normal((1, 4, 6)))
        memory = Tensor(rng.standard_normal((1, 1, 6)))
        delta = (layer(x, memory).data - x.data)[0]
        for r in range(1, 4):
            np.testing.assert_allclose(delta[r], delta[0], atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        layer = TransformerDecoderLayer(AttentionConfig(4, 2, 2), rng, "layer")
        memory = Tensor(rng.standard_normal((1, 3, 4)))
        w = Tensor(rng.standard_normal((1, 5, 4)))
        err = grad_check(lambda x: (layer(x, memory) * w).sum(),
                         Tensor(rng.standard_normal((1, 5, 4))))
        assert err < 1e-4


class TestPositionalEncodings:
    def test_identity_kernel_2d(self):
        rng = np.random.default_rng(15)
        pos = PositionalConv2d(3, rng, "pos2d")
        pos.weight.data[:] = 0
        pos.weight.data[:, 1, 1] = 1
        pos.bias.data[:] = 0
        f = Tensor(rng.standard_normal((1, 3, 5, 6)))
        np.testing.assert_allclose(pos(f).data, f.data)

    def test_sum_preserving_kernel_constant_interior(self):
        rng = np.random.default_rng(16)
        pos = PositionalConv2d(2, rng, "pos2d")
        pos.weight.data[:] = 1.0 / 9.0
        pos.bias.data[:] = 0
        f = Tensor(np.full((1, 2, 6, 6), 4.0))
        out = pos(f).data[0]
        np.testing.assert_allclose(out[:, 1:-1, 1:-1], 4.0)
        # zero-padded border rows see fewer taps
        assert np.all(out[:, 0, :] < 4.0)

    def test_zero_kernel_gives_bias_map(self):
        rng = np.random.default_rng(17)
        pos = PositionalConv2d(2, rng, "pos2d")
        pos.weight.data[:] = 0
        pos.bias.data[:] = np.array([1.5, -2.0])
        out = pos(Tensor(rng.standard_normal((1, 2, 4, 4)))).data[0]
        np.testing.assert_allclose(out[0], 1.5)
        np.testing.assert_allclose(out[1], -2.0)

    def test_identity_kernel_1d(self):
        rng = np.random.default_rng(18)
        pos = PositionalConv1d(4, rng, "pos1d")
        pos.weight.data[:] = 0
        pos.weight.data[:, 1] = 1
        pos.bias.data[:] = 0
        v = Tensor(rng.standard_normal((1, 5, 4)))
        np.testing.assert_allclose(pos(v).data, v.data)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_1d_matches_token_formula(self, n):
        """out[n] = b + sum_t w[:, t] * x[n + t - 1], zero outside the
        sequence; gradients of x, w and b follow from the same sum."""
        rng = np.random.default_rng(30 + n)
        pos = PositionalConv1d(3, rng, "pos1d")
        pos.bias.data[:] = rng.standard_normal(3)
        x = Tensor(rng.standard_normal((1, n, 3)), requires_grad=True)
        out = pos(x)
        g = rng.standard_normal((1, n, 3))
        (out * Tensor(g)).sum().backward()

        w = pos.weight.data
        g = g[0]
        xp = np.concatenate([np.zeros((1, 3)), x.data[0], np.zeros((1, 3))])
        want = pos.bias.data + sum(w[:, t] * xp[t:t + n] for t in range(3))
        dxp = np.zeros_like(xp)
        for t in range(3):
            dxp[t:t + n] += w[:, t] * g
        dw = np.stack([(g * xp[t:t + n]).sum(axis=0) for t in range(3)], axis=1)
        np.testing.assert_allclose(out.data[0], want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad[0], dxp[1:-1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(pos.weight.grad, dw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pos.bias.grad, g.sum(axis=0), rtol=0, atol=1e-12)
        assert pos.weight.shape == (3, 3)

    def test_single_token_sequence(self):
        rng = np.random.default_rng(19)
        pos = PositionalConv1d(3, rng, "pos1d")
        out = pos(Tensor(rng.standard_normal((1, 1, 3))))
        assert out.shape == (1, 1, 3)
