import math

import numpy as np
import pytest

from emofuse import autodiff as ad
from emofuse.autodiff import Segments, Tensor, grad_check, named_parameters
from emofuse.exceptions import ShapeError
from emofuse.textcnn import TextCnnParams, classify_logits, conv_pool, cross_entropy_logits
from tape_ops import conv_relu, per_tap_logits, segment_max, tensor_sum, width_kernels


def width_banks(params):
    """Per channel, (width, kernels (n, k, d), bias (n,)) for each width, as numpy views."""
    return [list(zip(params.widths, width_kernels(bank.kernels.data, params.widths),
                     bank.bias.data.reshape(len(params.widths), -1)))
            for bank in params.banks]


def make_params(num_channels=3, d=4, sizes=(2, 3), filters=2, classes=2, seed=0):
    return TextCnnParams.create(num_channels, d, sizes, filters, classes,
                                np.random.default_rng(seed))


class TestConvChannel:
    """The per-tap oracle's convolution, by hand."""

    def test_hand_convolution(self):
        # d=1, input [1,2,3], kernel [1,1], no bias: maps to [3, 5]
        out = conv_relu(Tensor([[1.0], [2.0], [3.0]]), Tensor(np.ones((1, 2, 1))), Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data[:, 0], [3.0, 5.0])

    def test_kernel_spanning_whole_input_gives_length_one(self):
        out = conv_relu(Tensor(np.ones((3, 2))), Tensor(np.ones((2, 3, 2))), Tensor(np.zeros(2)))
        assert out.data.shape == (1, 2)

    def test_zero_kernel_positive_bias_gives_constant_relu(self):
        out = conv_relu(Tensor(np.random.default_rng(0).standard_normal((4, 2))),
                        Tensor(np.zeros((1, 2, 2))), Tensor([0.7]))
        np.testing.assert_allclose(out.data, np.full((3, 1), 0.7), atol=1e-15)

    def test_negative_preactivation_clamped(self):
        out = conv_relu(Tensor(np.ones((3, 2))), Tensor(np.zeros((1, 2, 2))), Tensor([-0.5]))
        np.testing.assert_array_equal(out.data, np.zeros((2, 1)))


class TestMaxOverTime:
    """The per-tap oracle's segment_max over one segment is max-pooling over time."""

    def test_takes_map_maximum(self):
        assert segment_max(Tensor([[3.0], [5.0]]), [0], [2]).data[0, 0] == 5.0

    def test_constant_map(self):
        assert segment_max(Tensor([[2.5], [2.5], [2.5]]), [0], [3]).data[0, 0] == 2.5

    def test_gradient_routes_to_first_argmax(self):
        x = Tensor([[4.0], [4.0]], requires_grad=True)
        tensor_sum(segment_max(x, [0], [2])).backward()
        np.testing.assert_array_equal(x.grad, [[1.0], [0.0]])

    def test_empty_map_rejected(self):
        with pytest.raises(ShapeError):
            segment_max(Tensor(np.zeros((0, 1))), [0], [1])

    def test_segments_pool_their_own_rows_ties_to_earliest(self):
        x = Tensor([[1.0, 7.0], [3.0, 7.0], [9.0, 0.0], [2.0, 2.0], [2.0, 5.0]], requires_grad=True)
        out = segment_max(x, [0, 3], [2, 2])
        np.testing.assert_array_equal(out.data, [[3.0, 7.0], [2.0, 5.0]])
        tensor_sum(out).backward()
        np.testing.assert_array_equal(x.grad, [[0, 1], [1, 0], [0, 0], [1, 0], [0, 1]])


class TestConvPool:
    """The fused conv+pool node against finite differences and the per-tap oracle."""

    @staticmethod
    def case(lengths, seed, sizes=(2, 3), d=4, num_channels=1):
        rng = np.random.default_rng(seed)
        params = make_params(num_channels=num_channels, d=d, sizes=sizes, filters=2, seed=seed)
        for bank in params.banks:
            bank.bias.data[:] = rng.standard_normal(bank.bias.data.shape)
        xs = [Tensor(rng.standard_normal((sum(lengths), d)), requires_grad=True)
              for _ in range(num_channels)]
        return params, xs, rng

    @pytest.mark.parametrize("lengths", [[5], [2], [4, 1, 3, 2]])
    @pytest.mark.parametrize("operand", ["input", "kernels", "bias"])
    def test_grad_check(self, lengths, operand):
        params, [x], rng = self.case(lengths, seed=len(lengths) + len(operand))
        bank, segments = params.banks[0], Segments(lengths)
        weights = rng.standard_normal((len(lengths), 2 * 2))

        def f(_):
            return tensor_sum(ad.mul(conv_pool(x, bank, params.widths, segments), weights))

        tensor = {"input": x, "kernels": bank.kernels, "bias": bank.bias}[operand]
        assert grad_check(f, tensor) < 1e-5

    def test_logits_and_gradients_match_per_tap_oracle(self):
        lengths = [6, 1, 3, 2, 9]
        params, xs, _ = self.case(lengths, seed=21, sizes=(3, 1, 2), d=6, num_channels=3)
        channels = [(x, Segments(lengths)) for x in xs]
        labels = [0, 1, 1, 0, 1]
        logits = classify_logits(channels, params)
        cross_entropy_logits(logits, labels).backward()
        fused = [x.grad for x in xs] + [params.dense_w.grad, params.dense_b.grad]
        for x in xs:
            x.grad = None
        params.dense_w.grad = params.dense_b.grad = None
        kernels = [[Tensor(k.copy(), requires_grad=True) for _, k, _ in channel]
                   for channel in width_banks(params)]
        biases = [[Tensor(b.copy(), requires_grad=True) for _, _, b in channel]
                  for channel in width_banks(params)]
        oracle = per_tap_logits(channels, kernels, biases, params.widths, params.dense_w, params.dense_b)
        cross_entropy_logits(oracle, labels).backward()
        np.testing.assert_allclose(logits.data, oracle.data, rtol=0, atol=1e-12)
        for got, want in zip(fused, [x.grad for x in xs] + [params.dense_w.grad, params.dense_b.grad]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for bank, channel_kernels, channel_biases in zip(params.banks, kernels, biases):
            for got, want in zip(width_kernels(bank.kernels.grad, params.widths), channel_kernels):
                np.testing.assert_allclose(got, want.grad, rtol=0, atol=1e-12)
            np.testing.assert_allclose(bank.bias.grad, np.concatenate([b.grad for b in channel_biases]),
                                       rtol=0, atol=1e-12)

    def test_post_scores_and_gradients_the_same_alone_as_in_a_chunk(self):
        lengths = [5, 1, 2, 4]
        params, [x], rng = self.case(lengths, seed=23)
        bank = params.banks[0]
        weights = rng.standard_normal((len(lengths), 2 * 2))
        chunk = conv_pool(x, bank, params.widths, Segments(lengths))
        tensor_sum(ad.mul(chunk, weights)).backward()
        chunk_gx, chunk_gk = x.grad, bank.kernels.grad
        bank.kernels.grad = None
        summed_gk = np.zeros_like(chunk_gk)
        for i, (start, length) in enumerate(zip(Segments(lengths).offsets, lengths)):
            post = Tensor(x.data[start:start + length], requires_grad=True)
            alone = conv_pool(post, bank, params.widths, Segments([length]))
            np.testing.assert_allclose(chunk.data[i], alone.data[0], rtol=1e-12, atol=1e-14)
            tensor_sum(ad.mul(alone, weights[i:i + 1])).backward()
            np.testing.assert_allclose(chunk_gx[start:start + length], post.grad, rtol=1e-12, atol=1e-14)
            summed_gk += bank.kernels.grad
            bank.kernels.grad = None
        np.testing.assert_allclose(chunk_gk, summed_gk, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("lengths", [[4], [3, 1, 4]])
    def test_ties_route_to_each_posts_earliest_tap(self, lengths):
        # zero kernels: every tap of a post scores the bias, so the first one wins
        params, [x], _ = self.case(lengths, seed=25, d=2)
        bank = params.banks[0]
        bank.kernels.data[:] = 0.0
        bank.bias.data[:] = 1.0
        tensor_sum(conv_pool(x, bank, params.widths, Segments(lengths))).backward()
        posts = np.split(x.data, np.cumsum(lengths)[:-1])
        first_rows = [np.vstack([post, np.zeros((3, 2))])[:3] for post in posts]  # rows 0-2 of each block
        expected = np.concatenate([sum(rows[dt] for rows in first_rows)[:, None].repeat(2, axis=1)
                                   for k in params.widths for dt in range(k)], axis=1)
        np.testing.assert_allclose(bank.kernels.grad, expected, rtol=1e-12, atol=1e-15)

    def test_depth_mismatch_rejected(self):
        params = make_params(num_channels=1, d=4)
        with pytest.raises(ShapeError, match="depth"):
            conv_pool(Tensor(np.zeros((3, 5))), params.banks[0], params.widths, Segments([3]))


def softmax_rows(scores):
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestClassify:
    def channels_for(self, params, lengths=(5, 2, 5), seed=1):
        rng = np.random.default_rng(seed)
        d = params.banks[0].kernels.data.shape[0]
        return [(Tensor(rng.standard_normal((n, d))), Segments([n])) for n in lengths]

    def test_output_is_one_score_row_per_post(self):
        params = make_params(classes=3)
        logits = classify_logits(self.channels_for(params), params)
        assert logits.data.shape == (1, 3)
        lengths = [4, 1, 3]
        chunk = [(Tensor(np.random.default_rng(2).standard_normal((8, 4))), Segments(lengths))] * 3
        assert classify_logits(chunk, params).data.shape == (3, 3)

    def test_zero_dense_layer_gives_uniform(self):
        params = make_params(classes=4)
        params.dense_w.data[:] = 0.0
        params.dense_b.data[:] = 0.0
        logits = classify_logits(self.channels_for(params), params)
        np.testing.assert_array_equal(softmax_rows(logits.data), np.full((1, 4), 0.25))

    def test_matches_straight_line_numpy_oracle(self):
        params = make_params(num_channels=1, d=3, sizes=(2,), filters=2, classes=2, seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3))
        got = classify_logits([(Tensor(x), Segments([4]))], params)

        [(_, kernels, bias)] = width_banks(params)[0]
        taps = np.stack([
            (x[t:t + 2] * kernels[f]).sum() + bias[f]
            for t in range(3) for f in range(2)
        ]).reshape(3, 2)
        pooled = np.maximum(taps, 0.0).max(axis=0)
        expected = pooled @ params.dense_w.data + params.dense_b.data
        np.testing.assert_allclose(got.data, expected[None], atol=1e-12)

    def test_short_channel_padded_to_largest_kernel(self):
        params = make_params(num_channels=1, d=3, sizes=(2, 3), filters=2)
        rng = np.random.default_rng(7)
        logits = classify_logits([(Tensor(rng.standard_normal((1, 3))), Segments([1]))], params)
        assert np.isfinite(logits.data).all()

    def test_appending_masked_padding_never_changes_output(self):
        # posts 1 and 2 are shorter than the widest kernel: zero rows pad
        # their blocks, and a tap made only of padding is never pooled
        params = make_params(num_channels=2, d=4, sizes=(2, 3), filters=3)
        for bank in params.banks:
            bank.bias.data[:] = 2.0  # a pooled padding-only tap would win
        rng = np.random.default_rng(8)
        lengths = [5, 1, 2, 4]
        posts = [rng.standard_normal((n, 4)) for n in lengths]
        chunk = classify_logits([(Tensor(np.vstack(posts)), Segments(lengths))] * 2, params)
        for post, length, row in zip(posts, lengths, chunk.data):
            alone = classify_logits([(Tensor(post), Segments([length]))] * 2, params).data
            np.testing.assert_allclose(row, alone[0], rtol=1e-12, atol=1e-14)
            padded = np.vstack([post, np.zeros((3, 4))])
            pooled = [
                np.max([np.maximum((padded[t:t + width] * kernels).sum(axis=(1, 2)) + bias, 0.0)
                        for t in range(max(length - width, 0) + 1)], axis=0)
                for channel in width_banks(params) for width, kernels, bias in channel]
            expected = np.concatenate(pooled) @ params.dense_w.data + params.dense_b.data
            np.testing.assert_allclose(row, expected, rtol=1e-12, atol=1e-12)

    def test_channel_count_mismatch_rejected(self):
        params = make_params(num_channels=3)
        with pytest.raises(ShapeError):
            classify_logits(self.channels_for(params, lengths=(4, 4)), params)

    def test_valid_length_layout_rejected_naming_segments(self):
        params = make_params(num_channels=1, d=4)
        with pytest.raises(ShapeError, match="Segments"):
            classify_logits([(Tensor(np.zeros((5, 4))), 5)], params)

    def test_full_classify_passes_grad_check(self):
        params = make_params(num_channels=3, d=8, sizes=(2, 3, 4), filters=2, seed=9)
        rng = np.random.default_rng(10)
        channels = [(Tensor(rng.standard_normal((5, 8))), Segments([5])) for _ in range(3)]

        def f(_):
            return cross_entropy_logits(classify_logits(channels, params), [1])

        for _, tensor in named_parameters(params):
            err = grad_check(lambda t: f(None), tensor)
            assert err < 1e-4, f"classifier parameter failed grad check with {err}"


class TestCrossEntropy:
    def test_certain_prediction_is_zero_loss(self):
        assert cross_entropy_logits(Tensor([[0.0, 800.0]]), [1]).item() == 0.0

    def test_uniform_four_classes(self):
        loss = cross_entropy_logits(Tensor(np.zeros((1, 4))), [2])
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy_logits(Tensor([[0.5, 0.5]]), [2])

    def test_logits_version_matches_probability_version(self):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((4, 5))
        labels = [3, 0, 4, 3]
        probs = softmax_rows(logits)
        expected = -sum(math.log(probs[i, label]) for i, label in enumerate(labels))
        assert cross_entropy_logits(Tensor(logits), labels).item() == pytest.approx(expected, abs=1e-12)

    def test_logits_version_stable_for_large_scores(self):
        loss = cross_entropy_logits(Tensor([[1000.0, 0.0]]), [0])
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_batch_mean_equals_mean_of_losses(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((3, 2))
        labels = [0, 1, 1]
        losses = [cross_entropy_logits(Tensor(logits[i:i + 1]), [label]).item()
                  for i, label in enumerate(labels)]
        total = cross_entropy_logits(Tensor(logits), labels).item()
        assert total / 3.0 == pytest.approx(np.mean(losses), abs=1e-15)

    def test_score_vector_rejected_naming_the_form(self):
        with pytest.raises(ShapeError, match=r"\(posts, classes\)"):
            cross_entropy_logits(Tensor([0.2, 0.8]), [1])
