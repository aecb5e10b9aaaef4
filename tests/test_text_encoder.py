import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emofuse import autodiff as ad
from emofuse.autodiff import Segments, Tensor, grad_check, named_parameters
from emofuse.config import RunConfig
from emofuse.exceptions import ShapeError
from emofuse.model import SentimentModel
from emofuse.text_encoder import (
    BiLstmParams,
    LstmDirectionParams,
    TextEncoderParams,
    bilstm_layer,
    encode_text,
    positional_encoding,
)
from emofuse.tokenization import tokenize, split_modalities
from emofuse.vgae import EmojiEmbeddings
from tape_ops import concat, mean, sigmoid, tanh, tensor_sum, tslice


class TestPositionalEncoding:
    def test_position_zero_alternates_zero_one(self):
        pe = positional_encoding(0, 8)
        np.testing.assert_array_equal(pe, [0, 1, 0, 1, 0, 1, 0, 1])

    def test_direct_evaluation_pos1_d4(self):
        pe = positional_encoding(1, 4)
        expected = [math.sin(1.0), math.cos(1.0),
                    math.sin(1000.0 ** -0.5), math.cos(1000.0 ** -0.5)]
        np.testing.assert_allclose(pe, expected, atol=1e-12)
        # frozen values from evaluating the formulas by hand
        np.testing.assert_allclose(pe, [0.8415, 0.5403, 0.0316, 0.9995], atol=5e-5)

    def test_entries_bounded(self):
        for pos in (0, 3, 17, 500):
            assert np.abs(positional_encoding(pos, 12)).max() <= 1.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            positional_encoding(1, 5)

    def test_matches_formula_for_many_positions(self):
        base, d = 1000.0, 10
        for pos in (0, 1, 2, 11, 63):
            pe = positional_encoding(pos, d)
            for i in range(d // 2):
                angle = pos / base ** (2 * i / d)
                assert pe[2 * i] == pytest.approx(math.sin(angle), abs=1e-12)
                assert pe[2 * i + 1] == pytest.approx(math.cos(angle), abs=1e-12)

    @pytest.mark.parametrize("n, d", [(12, 6), (16, 16), (64, 300)])
    def test_array_of_positions_stacks_the_per_position_vectors(self, n, d):
        table = positional_encoding(np.arange(n), d)
        assert table.shape == (n, d)
        assert np.array_equal(table, np.stack([positional_encoding(p, d) for p in range(n)]))

    def test_fixed_offset_is_trigonometric_combination(self):
        # sin((pos+t)/f) = sin(pos/f)cos(t/f) + cos(pos/f)sin(t/f), same for cos
        base, d = 1000.0, 16
        rng = np.random.default_rng(0)
        for _ in range(20):
            pos, t = int(rng.integers(0, 200)), int(rng.integers(0, 50))
            pe_pos = positional_encoding(pos, d)
            pe_shift = positional_encoding(pos + t, d)
            for i in range(d // 2):
                freq = 1.0 / base ** (2 * i / d)
                s, c = pe_pos[2 * i], pe_pos[2 * i + 1]
                st, ct = math.sin(t * freq), math.cos(t * freq)
                assert pe_shift[2 * i] == pytest.approx(s * ct + c * st, abs=1e-10)
                assert pe_shift[2 * i + 1] == pytest.approx(c * ct - s * st, abs=1e-10)


class TestEmojiInputFeatures:
    """The position-encoded emoji rows the model feeds to fusion."""

    def make_model(self, word_table, dim=6, vectors=None):
        rng = np.random.default_rng(1)
        embeddings = EmojiEmbeddings(ids=["\U0001F600", "\U0001F622"],
                                     vectors=rng.standard_normal((2, dim)) if vectors is None else vectors)
        config = RunConfig(num_classes=2, lstm_hidden=3, fusion_dim=6, ffn_dim=12,
                           kernel_sizes=(2,), filters=2)
        return SentimentModel(config, word_table, embeddings, rng), embeddings

    def test_position_zero_adds_alternating_pattern(self, word_table):
        model, emb = self.make_model(word_table)
        _, emojis = split_modalities(tokenize("\U0001F600 hello"))
        feats, _, _ = model._emoji_rows([emojis])
        rms = np.sqrt(np.mean(emb.vectors ** 2))  # the model's table is scaled to unit RMS
        expected = emb.get("\U0001F600") / rms + np.array([0, 1, 0, 1, 0, 1])
        np.testing.assert_allclose(feats.data[0], expected, atol=1e-12)

    @pytest.mark.parametrize("scale", [0.006, 1.0, 40.0])
    def test_table_is_scaled_to_unit_rms(self, word_table, scale):
        vectors = scale * np.random.default_rng(2).standard_normal((2, 6))
        table = self.make_model(word_table, vectors=vectors)[0].emoji_table.vectors
        assert np.sqrt(np.mean(table ** 2)) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(table * np.sqrt(np.mean(vectors ** 2)), vectors, rtol=1e-12)

    def test_all_zero_table_stays_zero(self, word_table):
        model, _ = self.make_model(word_table, vectors=np.zeros((2, 6)))
        np.testing.assert_array_equal(model.emoji_table.vectors, np.zeros((2, 6)))

    def test_same_emoji_two_positions_differ_by_pe(self, word_table):
        model, _ = self.make_model(word_table)
        _, emojis = split_modalities(tokenize("\U0001F600 a b c d e f \U0001F600"))
        feats, _, _ = model._emoji_rows([emojis])
        diff = feats.data[0] - feats.data[1]
        expected = positional_encoding(0, 6) - positional_encoding(7, 6)
        np.testing.assert_allclose(diff, expected, atol=1e-12)

    def test_unknown_emoji_is_pure_positional(self, word_table):
        model, _ = self.make_model(word_table)
        _, emojis = split_modalities(tokenize("\U0001F916"))  # robot, not in table
        feats, _, _ = model._emoji_rows([emojis])
        np.testing.assert_allclose(feats.data[0], positional_encoding(0, 6), atol=1e-12)

    def test_positional_rows_memoized_on_first_use(self, word_table):
        """The position table is built on first use, once per model; row p is positional_encoding(p)."""
        model, emb = self.make_model(word_table)
        assert "_positions" not in vars(model)  # building it in __init__ would cost every setup
        text = "\U0001F600 a \U0001F622 b c \U0001F600 d e f g h i j k l \U0001F916"
        _, emojis = split_modalities(tokenize(text))
        for _ in range(2):
            feats, raw, _ = model._emoji_rows([emojis, emojis[:2]])
            pe = [positional_encoding(t.position, 6) for t in emojis + emojis[:2]]
            np.testing.assert_array_equal(feats.data, raw.data + np.array(pe))
        table = vars(model)["_positions"]
        assert table.shape == (model.config.max_len, 6)
        for position, row in enumerate(table):
            np.testing.assert_array_equal(row, positional_encoding(position, 6))


def scalar_lstm_unroll(xs, wx, wh, b):
    """Hand-unrolled single-unit LSTM over a scalar input sequence."""
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))
    h, c = 0.0, 0.0
    outputs = []
    for x in xs:
        zi = x * wx[0] + h * wh[0] + b[0]
        zf = x * wx[1] + h * wh[1] + b[1]
        zg = x * wx[2] + h * wh[2] + b[2]
        zo = x * wx[3] + h * wh[3] + b[3]
        c = sig(zf) * c + sig(zi) * math.tanh(zg)
        h = sig(zo) * math.tanh(c)
        outputs.append(h)
    return outputs


def reference_direction(inputs, params, hidden, reverse):
    """The per-time-step LSTM on the autodiff tape, one small node per op."""
    length = inputs.data.shape[0]
    h = Tensor(np.zeros((1, hidden)))
    c = Tensor(np.zeros((1, hidden)))
    order = range(length - 1, -1, -1) if reverse else range(length)
    outputs = [None] * length
    for t in order:
        x_t = tslice(inputs, np.s_[t:t + 1])
        gates = ad.linear(x_t, params.w_x) + ad.linear(h, params.w_h) + params.b
        i_gate = sigmoid(tslice(gates, np.s_[:, 0 * hidden:1 * hidden]))
        f_gate = sigmoid(tslice(gates, np.s_[:, 1 * hidden:2 * hidden]))
        g_cell = tanh(tslice(gates, np.s_[:, 2 * hidden:3 * hidden]))
        o_gate = sigmoid(tslice(gates, np.s_[:, 3 * hidden:4 * hidden]))
        c = ad.mul(f_gate, c) + ad.mul(i_gate, g_cell)
        h = ad.mul(o_gate, tanh(c))
        outputs[t] = h
    return concat(outputs, axis=0)  # aligned with input positions in both directions


def non_leaf_nodes(out):
    """The tape nodes behind `out` that an operation made (leaves excluded)."""
    seen, stack, count = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += bool(node._parents)
            stack.extend(node._parents)
    return count


def random_layer(rng, f_in, hidden):
    params = BiLstmParams.create(f_in, hidden, rng)
    for direction in (params.forward, params.backward):
        direction.b.data[:] = rng.standard_normal(4 * hidden)
    return params


def reference_layer(inputs, params):
    """Both directions of a one-post `bilstm_layer` by the per-step oracle."""
    return concat([reference_direction(inputs, params.forward, params.hidden, False),
                      reference_direction(inputs, params.backward, params.hidden, True)], axis=1)


def one_post_at_a_time(segments):
    """`bilstm_layer` run on each post of a chunk alone, the outputs stacked."""
    def layer(x, params):
        return concat([bilstm_layer(tslice(x, np.s_[int(start):int(start + length)]), params,
                                       Segments([length]))
                          for start, length in zip(segments.offsets, segments.lengths)], axis=0)
    return layer


def chunk_layer(segments):
    return lambda x, params: bilstm_layer(x, params, segments)


def values_and_grads(layer, x, params, weights):
    """layer(x, params) and the gradients of sum(output * weights) for x and every parameter."""
    tracked = [x] + [t for _, t in named_parameters(params)]
    for tensor in tracked:
        tensor.grad = None
    out = layer(x, params)
    tensor_sum(ad.mul(out, weights)).backward()
    return [out.data.copy()] + [t.grad for t in tracked]


class TestFusedDirection:
    """The fused layer, both directions in one node, against the per-step reference tape.

    The fused op sums in a different order (one input GEMM per direction,
    GEMM weight gradients, gates from tanh), so agreement is to a tolerance
    fixed in advance for float64.
    """

    @pytest.mark.parametrize("length", [1, 2, 7, 33])
    @pytest.mark.parametrize("backward_half", [False, True])
    @pytest.mark.parametrize("input_grad", [False, True])
    def test_matches_per_step_reference(self, length, backward_half, input_grad):
        """The loss reads one direction's half of the output, so the other's parameters get zero gradient.

        Backward is linear in the output gradient, so the two halves checked
        apart also check any loss that reads both.
        """
        rng = np.random.default_rng(length * 4 + 2 * backward_half + input_grad)
        hidden = 3
        params = random_layer(rng, 5, hidden)
        x = Tensor(rng.standard_normal((length, 5)), requires_grad=input_grad)
        weights = rng.standard_normal((length, 2 * hidden))
        weights[:, slice(0, hidden) if backward_half else slice(hidden, None)] = 0.0
        expected = values_and_grads(reference_layer, x, params, weights)
        fused = values_and_grads(chunk_layer(Segments([length])), x, params, weights)
        if not input_grad:
            assert expected[1] is None and fused[1] is None
            expected, fused = expected[:1] + expected[2:], fused[:1] + fused[2:]
        for want, got in zip(expected, fused):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        unread = params.forward if backward_half else params.backward
        assert not any(t.grad.any() for _, t in named_parameters(unread))

    @staticmethod
    def assert_chunk_matches_each_post_alone(lengths, rng, f_in, hidden):
        params = random_layer(rng, f_in, hidden)
        x = Tensor(rng.standard_normal((sum(lengths), f_in)), requires_grad=True)
        weights = rng.standard_normal((sum(lengths), 2 * hidden))
        packed = values_and_grads(chunk_layer(Segments(lengths)), x, params, weights)
        alone = values_and_grads(one_post_at_a_time(Segments(lengths)), x, params, weights)
        for got, want in zip(packed, alone):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("reverse_order", [False, True])
    def test_packed_chunk_matches_each_post_alone(self, reverse_order):
        lengths = [4, 1, 6, 2, 6]
        self.assert_chunk_matches_each_post_alone(lengths[::-1] if reverse_order else lengths,
                                                  np.random.default_rng(40 + reverse_order), 5, 3)

    @settings(max_examples=30, deadline=None)
    @given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
    def test_any_ragged_chunk_gives_each_post_its_alone_result(self, lengths, seed):
        self.assert_chunk_matches_each_post_alone(lengths, np.random.default_rng(seed), 4, 2)

    def test_tape_size_independent_of_length(self):
        """A layer adds two input GEMMs and one recurrence node, whatever the lengths."""
        rng = np.random.default_rng(9)
        params = BiLstmParams.create(4, 3, rng)
        for lengths in ([1], [3], [40], [5, 1, 9]):
            x = Tensor(rng.standard_normal((sum(lengths), 4)), requires_grad=True)
            assert non_leaf_nodes(bilstm_layer(x, params, Segments(lengths))) == 3

    def test_saturated_preactivations_stay_finite(self):
        """Pre-activations of +-1e3 saturate every gate without a warning or a non-finite value."""
        rng = np.random.default_rng(12)
        hidden, lengths = 3, [7, 2, 5]
        params = BiLstmParams.create(4, hidden, rng)
        for direction in (params.forward, params.backward):
            direction.w_x.data[:] = 0.0
            direction.b.data[:] = rng.choice([-1e3, 1e3], 4 * hidden)
        x = Tensor(rng.standard_normal((sum(lengths), 4)), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = values_and_grads(chunk_layer(Segments(lengths)), x, params,
                                      rng.standard_normal((sum(lengths), 2 * hidden)))
        assert all(np.isfinite(v).all() for v in values)
        assert np.abs(values[0]).max() < 1.0


class TestBiLstmLayer:
    def test_zero_parameters_give_zero_outputs(self):
        params = BiLstmParams(
            forward=LstmDirectionParams(w_x=Tensor(np.zeros((3, 4))), w_h=Tensor(np.zeros((1, 4))),
                                        b=Tensor(np.zeros(4))),
            backward=LstmDirectionParams(w_x=Tensor(np.zeros((3, 4))), w_h=Tensor(np.zeros((1, 4))),
                                         b=Tensor(np.zeros(4))),
            hidden=1,
        )
        out = bilstm_layer(Tensor(np.ones((4, 3))), params, Segments([4]))
        np.testing.assert_array_equal(out.data, np.zeros((4, 2)))

    def test_single_step_sequence(self):
        params = BiLstmParams.create(3, 2, np.random.default_rng(0))
        out = bilstm_layer(Tensor(np.ones((1, 3))), params, Segments([1]))
        assert out.data.shape == (1, 4)
        assert np.isfinite(out.data).all()

    def test_matches_scalar_unroll(self):
        rng = np.random.default_rng(2)
        wx_f = rng.standard_normal((1, 4))
        wh_f = rng.standard_normal((1, 4))
        b_f = rng.standard_normal(4)
        wx_b = rng.standard_normal((1, 4))
        wh_b = rng.standard_normal((1, 4))
        b_b = rng.standard_normal(4)
        params = BiLstmParams(
            forward=LstmDirectionParams(w_x=Tensor(wx_f), w_h=Tensor(wh_f), b=Tensor(b_f)),
            backward=LstmDirectionParams(w_x=Tensor(wx_b), w_h=Tensor(wh_b), b=Tensor(b_b)),
            hidden=1,
        )
        xs = [0.7, -1.3]
        out = bilstm_layer(Tensor(np.array(xs).reshape(2, 1)), params, Segments([2]))
        fwd = scalar_lstm_unroll(xs, wx_f[0], wh_f[0], b_f)
        bwd = scalar_lstm_unroll(xs[::-1], wx_b[0], wh_b[0], b_b)[::-1]
        np.testing.assert_allclose(out.data[:, 0], fwd, atol=1e-12)
        np.testing.assert_allclose(out.data[:, 1], bwd, atol=1e-12)

    def test_empty_sequence_rejected(self):
        params = BiLstmParams.create(3, 2, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            bilstm_layer(Tensor(np.zeros((0, 3))), params, Segments([1]))


class TestEncodeText:
    def test_output_shapes(self, word_table):
        params = TextEncoderParams.create(word_table.dimension, 4, np.random.default_rng(0))
        words, _ = split_modalities(tokenize("happy dog music"))
        levels = encode_text(words, word_table, params, Segments([3]))
        embeddings, lstm1, lstm2 = levels
        assert embeddings.data.shape == (3, 300)
        assert lstm1.data.shape == (3, 8)
        assert lstm2.data.shape == (3, 8)
        assert [t.data.shape[1] for t in levels] == [300, 8, 8]

    def test_stacked_is_feature_concatenation(self, word_table):
        """Projecting the levels block by block equals projecting their concatenation."""
        params = TextEncoderParams.create(word_table.dimension, 3, np.random.default_rng(1))
        words, _ = split_modalities(tokenize("sun and rain"))
        levels = encode_text(words, word_table, params, Segments([3]))
        proj = Tensor(np.random.default_rng(2).standard_normal((300 + 12, 5)))
        stacked = np.concatenate([t.data for t in levels], axis=1)
        np.testing.assert_allclose(ad.linear(levels, proj).data, stacked @ proj.data,
                                   rtol=1e-12, atol=1e-13)

    def test_unknown_words_look_up_zeros(self, word_table):
        params = TextEncoderParams.create(word_table.dimension, 2, np.random.default_rng(2))
        words, _ = split_modalities(tokenize("zzzzq xxrrk"))
        embeddings, _, _ = encode_text(words, word_table, params, Segments([2]))
        assert not embeddings.data.any()

    def test_word_order_changes_recurrent_features(self, word_table):
        params = TextEncoderParams.create(word_table.dimension, 3, np.random.default_rng(3))
        fwd, _ = split_modalities(tokenize("happy sad love"))
        rev, _ = split_modalities(tokenize("love sad happy"))
        _, lstm1_fwd, _ = encode_text(fwd, word_table, params, Segments([3]))
        _, lstm1_rev, _ = encode_text(rev, word_table, params, Segments([3]))
        assert not np.allclose(lstm1_fwd.data, lstm1_rev.data)

    def test_empty_words_rejected(self, word_table):
        params = TextEncoderParams.create(word_table.dimension, 2, np.random.default_rng(4))
        with pytest.raises(ShapeError):
            encode_text([], word_table, params, Segments([1]))


class TestBiLstmGradients:
    def test_stacked_layers_pass_grad_check(self):
        rng = np.random.default_rng(6)
        params = TextEncoderParams.create(3, 2, rng)
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        weights = rng.standard_normal((3, 4))

        def f(t):
            h1 = bilstm_layer(t, params.layer1, Segments([3]))
            h2 = bilstm_layer(h1, params.layer2, Segments([3]))
            return mean(ad.mul(h2, weights))

        assert grad_check(f, x) < 1e-4
        for _, tensor in named_parameters(params):
            assert grad_check(lambda t: f(x), tensor) < 1e-4

    def test_constant_input_passes_grad_check(self):
        rng = np.random.default_rng(7)
        params = BiLstmParams.create(3, 2, rng)
        x = Tensor(rng.standard_normal((4, 3)))  # word vectors: no gradient wanted
        weights = rng.standard_normal((4, 4))

        def f(_):
            return mean(ad.mul(bilstm_layer(x, params, Segments([4])), weights))

        for _, tensor in named_parameters(params):
            assert grad_check(f, tensor) < 1e-4
        assert x.grad is None
