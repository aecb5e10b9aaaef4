import math

import numpy as np
import pytest

from emofuse import autodiff as ad
from emofuse.autodiff import Tensor, grad_check, named_parameters
from emofuse.attention import (
    AttentionUnitParams,
    FusionParams,
    FusionWiring,
    co_attention_unit,
    fuse,
    scaled_dot_attention,
    self_attention_unit,
)
from emofuse.exceptions import ShapeError
from tape_ops import mean, tensor_sum


# --- numpy oracle for one whole attention unit --------------------------------

def oracle_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def oracle_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def oracle_unit(query, context, p):
    q = query @ p.wq.data
    k = context @ p.wk.data
    v = context @ p.wv.data
    weights = oracle_softmax(q @ k.T / math.sqrt(q.shape[1]))
    a1 = oracle_layer_norm(query + weights @ v, p.norm1_gain.data, p.norm1_bias.data)
    ffn = np.maximum(a1 @ p.ffn_w1.data + p.ffn_b1.data, 0.0) @ p.ffn_w2.data + p.ffn_b2.data
    return oracle_layer_norm(a1 + ffn, p.norm2_gain.data, p.norm2_bias.data)


def one_post(t):
    """The layout of a single post holding every row of `t`."""
    return ad.Segments([t.data.shape[0]])


def attention_weights(q, k, mask=None):
    """Recover the weight matrix by attending onto an identity value matrix."""
    eye = Tensor(np.eye(k.data.shape[0]))
    return scaled_dot_attention(q, k, eye, one_post(q), one_post(k), mask=mask).data


class TestScaledDotAttention:
    def test_equal_scores_average_values(self):
        q = Tensor(np.zeros((2, 3)))
        k = Tensor(np.zeros((4, 3)))
        v = Tensor(np.arange(8.0).reshape(4, 2))
        out = scaled_dot_attention(q, k, v, one_post(q), one_post(k))
        np.testing.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (2, 1)), atol=1e-12)

    def test_single_key_returns_its_value(self):
        rng = np.random.default_rng(0)
        out = scaled_dot_attention(Tensor(rng.standard_normal((3, 4))),
                                   Tensor(rng.standard_normal((1, 4))),
                                   Tensor([[5.0, -1.0]]), ad.Segments([3]), ad.Segments([1]))
        np.testing.assert_allclose(out.data, np.tile([5.0, -1.0], (3, 1)), atol=1e-12)

    def test_two_by_two_hand_computation(self):
        q = Tensor([[1.0, 0.0], [0.0, 1.0]])
        k = Tensor([[1.0, 0.0], [0.0, 1.0]])
        v = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = scaled_dot_attention(q, k, v, one_post(q), one_post(k))
        s = 1.0 / math.sqrt(2.0)
        w_same = math.exp(s) / (math.exp(s) + math.exp(0.0))
        expected_row0 = w_same * v.data[0] + (1 - w_same) * v.data[1]
        expected_row1 = (1 - w_same) * v.data[0] + w_same * v.data[1]
        np.testing.assert_allclose(out.data, [expected_row0, expected_row1], atol=1e-12)

    def test_masked_keys_get_exactly_zero_weight(self):
        rng = np.random.default_rng(1)
        q, k = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((5, 4)))
        mask = np.array([True, False, True, False, True])
        weights = attention_weights(q, k, mask)
        assert (weights[:, ~mask] == 0.0).all()
        np.testing.assert_allclose(weights.sum(axis=1), np.ones(3), atol=1e-12)

    def test_all_keys_masked_rejected(self):
        q, k, v = Tensor(np.zeros((1, 2))), Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            scaled_dot_attention(q, k, v, one_post(q), one_post(k), mask=np.array([False, False]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            scaled_dot_attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))),
                                 Tensor(np.zeros((2, 4))), ad.Segments([2]), ad.Segments([2]))


class TestAttentionUnits:
    def make_params(self, d=4, d_ff=8, seed=2):
        return AttentionUnitParams.create(d, d_ff, np.random.default_rng(seed))

    def test_length_one_sequence(self):
        p = self.make_params()
        out = self_attention_unit(Tensor(np.random.default_rng(3).standard_normal((1, 4))), p,
                                  ad.Segments([1]))
        assert out.data.shape == (1, 4)
        assert np.isfinite(out.data).all()

    def test_identical_columns_stay_identical(self):
        p = self.make_params()
        row = np.random.default_rng(4).standard_normal(4)
        out = self_attention_unit(Tensor(np.stack([row, row])), p, ad.Segments([2]))
        np.testing.assert_allclose(out.data[0], out.data[1], atol=1e-12)

    def test_matches_numpy_oracle(self):
        p = self.make_params()
        x = np.random.default_rng(5).standard_normal((3, 4))
        out = self_attention_unit(Tensor(x), p, ad.Segments([3]))
        np.testing.assert_allclose(out.data, oracle_unit(x, x, p), atol=1e-10)

    def test_co_attention_matches_oracle(self):
        p = self.make_params()
        rng = np.random.default_rng(6)
        q, c = rng.standard_normal((2, 4)), rng.standard_normal((5, 4))
        out = co_attention_unit(Tensor(q), Tensor(c), p, ad.Segments([2]), ad.Segments([5]))
        np.testing.assert_allclose(out.data, oracle_unit(q, c, p), atol=1e-10)

    def test_co_attention_on_self_equals_self_attention(self):
        p = self.make_params()
        x = np.random.default_rng(7).standard_normal((4, 4))
        self_out = self_attention_unit(Tensor(x), p, ad.Segments([4]))
        co_out = co_attention_unit(Tensor(x), Tensor(x), p, ad.Segments([4]), ad.Segments([4]))
        np.testing.assert_array_equal(self_out.data, co_out.data)

    def test_output_length_follows_query(self):
        p = self.make_params()
        rng = np.random.default_rng(8)
        out = co_attention_unit(Tensor(rng.standard_normal((1, 4))),
                                Tensor(rng.standard_normal((6, 4))), p, ad.Segments([1]), ad.Segments([6]))
        assert out.data.shape == (1, 4)

    def test_output_length_follows_query_over_random_shapes(self):
        p = self.make_params()
        rng = np.random.default_rng(12)
        for _ in range(25):
            n_q, n_k = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            out = co_attention_unit(Tensor(rng.standard_normal((n_q, 4))),
                                    Tensor(rng.standard_normal((n_k, 4))), p,
                                    ad.Segments([n_q]), ad.Segments([n_k]))
            assert out.data.shape == (n_q, 4)

    def test_single_context_row_drives_every_output(self):
        p = self.make_params()
        rng = np.random.default_rng(9)
        q = rng.standard_normal((3, 4))
        c = rng.standard_normal((1, 4))
        out = co_attention_unit(Tensor(q), Tensor(c), p, ad.Segments([3]), ad.Segments([1]))
        np.testing.assert_allclose(out.data, oracle_unit(q, c, p), atol=1e-10)


def make_fusion_setup(wiring=FusionWiring(), seed=0, text_len=3, emoji_len=2, text_dim=10,
                      skip_dim=4, emoji_dim=6, d=8, d_ff=16):
    """Fusion params built for `wiring`, and one post's inputs."""
    rng = np.random.default_rng(seed)
    params = FusionParams.create(text_dim, emoji_dim, skip_dim, d, d_ff, rng, wiring)
    stacked = Tensor(rng.standard_normal((text_len, text_dim)))
    lstm2 = Tensor(rng.standard_normal((text_len, skip_dim)))
    emoji_raw = Tensor(rng.standard_normal((emoji_len, emoji_dim)), requires_grad=True)
    emoji_feats = emoji_raw + rng.standard_normal((emoji_len, emoji_dim))
    return params, stacked, lstm2, emoji_feats, emoji_raw


class TestFuse:
    def test_channel_shapes(self):
        params, stacked, lstm2, feats, raw = make_fusion_setup(text_len=5, emoji_len=2)
        channels = fuse([stacked], lstm2, feats, raw, params, one_post(stacked), one_post(feats))
        assert [(m.data.shape, s.rows) for m, s in channels] == [((5, 8), 5), ((2, 8), 2), ((5, 8), 5)]

    def test_bypass_emoji_uses_raw_projection(self):
        params, stacked, lstm2, feats, raw = make_fusion_setup(FusionWiring(bypass_emoji=True))
        _, (emoji, _), _ = fuse([stacked], lstm2, feats, raw, params, one_post(stacked), one_post(feats))
        np.testing.assert_array_equal(emoji.data, raw.data @ params.proj_emoji.data)

    def test_bypass_cross_uses_skip_projection(self):
        params, stacked, lstm2, feats, raw = make_fusion_setup(FusionWiring(bypass_cross=True))
        _, _, (cross, _) = fuse([stacked], lstm2, feats, raw, params, one_post(stacked), one_post(feats))
        np.testing.assert_array_equal(cross.data, lstm2.data @ params.proj_skip.data)

    def test_no_self_attention_passes_projection_through(self):
        params, stacked, lstm2, feats, raw = make_fusion_setup(FusionWiring(self_attend_text=False))
        (text, _), _, _ = fuse([stacked], lstm2, feats, raw, params, one_post(stacked), one_post(feats))
        np.testing.assert_array_equal(text.data, stacked.data @ params.proj_text.data)

    def test_dropping_emoji_duplicates_text_channel(self):
        params, stacked, lstm2, feats, raw = make_fusion_setup(FusionWiring(use_emoji=False))
        text_segments = one_post(stacked)
        channels = fuse([stacked], lstm2, None, None, params, text_segments, None)
        (text, first), (cross, second) = channels
        assert first is text_segments and second is text_segments
        np.testing.assert_array_equal(cross.data, text.data)

    def test_gradient_reaches_emoji_only_through_emoji_channels(self):
        params, stacked, lstm2, feats, raw = make_fusion_setup()
        (text, _), (emoji, _), _ = fuse([stacked], lstm2, feats, raw, params, one_post(stacked), one_post(feats))
        tensor_sum(text).backward()
        assert raw.grad is None
        tensor_sum(emoji).backward()
        assert raw.grad is not None and np.abs(raw.grad).sum() > 0

    def test_full_fuse_passes_grad_check(self):
        params, stacked, lstm2, _, raw = make_fusion_setup(seed=3)
        rng = np.random.default_rng(10)
        offset = rng.standard_normal(raw.data.shape)
        weights = rng.standard_normal((3, 8))

        def f(_):
            feats = raw + offset  # position offsets recomputed per evaluation
            (text, _), (emoji, _), (cross, _) = fuse([stacked], lstm2, feats, raw, params,
                                                     one_post(stacked), one_post(feats))
            total = mean(ad.mul(text, weights))
            total = total + mean(emoji)
            return total + mean(ad.mul(cross, weights))

        for _, tensor in named_parameters(params):
            err = grad_check(lambda t: f(None), tensor)
            assert err < 1e-4, f"fusion parameter failed grad check with {err}"
        assert grad_check(lambda t: f(None), raw) < 1e-4
