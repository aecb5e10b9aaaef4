import math

import numpy as np
import pytest

from emofuse.autodiff import Segments, Tensor, grad_check, named_parameters
from emofuse.exceptions import ShapeError
from emofuse.textcnn import (
    ConvBank,
    TextCnnParams,
    classify_logits,
    conv_relu,
    cross_entropy_logits,
    segment_max,
)
from tape_ops import tensor_sum


def conv_channel(x, bank):
    return conv_relu(x, bank.kernels, bank.bias)


def make_params(num_channels=3, d=4, sizes=(2, 3), filters=2, classes=2, seed=0):
    return TextCnnParams.create(num_channels, d, sizes, filters, classes,
                                np.random.default_rng(seed))


class TestConvChannel:
    def test_hand_convolution(self):
        # d=1, input [1,2,3], kernel [1,1], no bias: maps to [3, 5]
        bank = ConvBank(kernels=Tensor(np.ones((1, 2, 1))), bias=Tensor(np.zeros(1)))
        out = conv_channel(Tensor([[1.0], [2.0], [3.0]]), bank)
        np.testing.assert_array_equal(out.data[:, 0], [3.0, 5.0])

    def test_kernel_spanning_whole_input_gives_length_one(self):
        bank = ConvBank(kernels=Tensor(np.ones((2, 3, 2))), bias=Tensor(np.zeros(2)))
        out = conv_channel(Tensor(np.ones((3, 2))), bank)
        assert out.data.shape == (1, 2)

    def test_zero_kernel_positive_bias_gives_constant_relu(self):
        bank = ConvBank(kernels=Tensor(np.zeros((1, 2, 2))), bias=Tensor([0.7]))
        out = conv_channel(Tensor(np.random.default_rng(0).standard_normal((4, 2))), bank)
        np.testing.assert_allclose(out.data, np.full((3, 1), 0.7), atol=1e-15)

    def test_negative_preactivation_clamped(self):
        bank = ConvBank(kernels=Tensor(np.zeros((1, 2, 2))), bias=Tensor([-0.5]))
        out = conv_channel(Tensor(np.ones((3, 2))), bank)
        np.testing.assert_array_equal(out.data, np.zeros((2, 1)))


class TestMaxOverTime:
    """segment_max over one segment is max-pooling over time."""

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


def softmax_rows(scores):
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestClassify:
    def channels_for(self, params, lengths=(5, 2, 5), seed=1):
        rng = np.random.default_rng(seed)
        d = params.banks[0][0].kernels.data.shape[2]
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

        bank = params.banks[0][0]
        taps = np.stack([
            (x[t:t + 2] * bank.kernels.data[f]).sum() + bank.bias.data[f]
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
        for channel in params.banks:
            for bank in channel:
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
                np.max([np.maximum((padded[t:t + bank.width] * bank.kernels.data).sum(axis=(1, 2))
                                   + bank.bias.data, 0.0)
                        for t in range(max(length - bank.width, 0) + 1)], axis=0)
                for channel in params.banks for bank in channel]
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
