import math

import numpy as np
import pytest

from emofuse import autodiff as ad
from emofuse.autodiff import Segments, Tensor, grad_check, named_parameters
from emofuse.exceptions import ShapeError
from emofuse.textcnn import (
    ConvBank,
    TextCnnParams,
    classify,
    classify_logits,
    conv_relu,
    cross_entropy,
    cross_entropy_logits,
    segment_max,
)


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
        ad.tensor_sum(segment_max(x, [0], [2])).backward()
        np.testing.assert_array_equal(x.grad, [[1.0], [0.0]])

    def test_empty_map_rejected(self):
        with pytest.raises(ShapeError):
            segment_max(Tensor(np.zeros((0, 1))), [0], [1])

    def test_segments_pool_their_own_rows_ties_to_earliest(self):
        x = Tensor([[1.0, 7.0], [3.0, 7.0], [9.0, 0.0], [2.0, 2.0], [2.0, 5.0]], requires_grad=True)
        out = segment_max(x, [0, 3], [2, 2])
        np.testing.assert_array_equal(out.data, [[3.0, 7.0], [2.0, 5.0]])
        ad.tensor_sum(out).backward()
        np.testing.assert_array_equal(x.grad, [[0, 1], [1, 0], [0, 0], [1, 0], [0, 1]])


class TestClassify:
    def channels_for(self, params, lengths=(5, 2, 5), seed=1):
        rng = np.random.default_rng(seed)
        d = params.banks[0][0].kernels.data.shape[2]
        return [(Tensor(rng.standard_normal((n, d))), n) for n in lengths]

    def test_output_is_probability_vector(self):
        params = make_params()
        probs = classify(self.channels_for(params), params)
        assert probs.data.shape == (2,)
        assert probs.data.sum() == pytest.approx(1.0, abs=1e-12)
        assert (probs.data > 0).all() and (probs.data < 1).all()

    def test_zero_dense_layer_gives_uniform(self):
        params = make_params(classes=4)
        params.dense_w.data[:] = 0.0
        params.dense_b.data[:] = 0.0
        probs = classify(self.channels_for(params), params)
        np.testing.assert_allclose(probs.data, np.full(4, 0.25), atol=1e-15)

    def test_matches_straight_line_numpy_oracle(self):
        params = make_params(num_channels=1, d=3, sizes=(2,), filters=2, classes=2, seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3))
        got = classify([(Tensor(x), 4)], params)

        bank = params.banks[0][0]
        taps = np.stack([
            (x[t:t + 2] * bank.kernels.data[f]).sum() + bank.bias.data[f]
            for t in range(3) for f in range(2)
        ]).reshape(3, 2)
        pooled = np.maximum(taps, 0.0).max(axis=0)
        logits = pooled @ params.dense_w.data + params.dense_b.data
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        np.testing.assert_allclose(got.data, expected, atol=1e-12)

    def test_short_channel_padded_to_largest_kernel(self):
        params = make_params(num_channels=1, d=3, sizes=(2, 3), filters=2)
        rng = np.random.default_rng(7)
        probs = classify([(Tensor(rng.standard_normal((1, 3))), 1)], params)
        assert np.isfinite(probs.data).all()

    def test_appending_masked_padding_never_changes_output(self):
        params = make_params(num_channels=2, d=4, sizes=(2, 3), filters=3)
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((2, 4))
        base = classify([(Tensor(a), 5), (Tensor(b), 2)], params)
        padded = classify([
            (Tensor(np.vstack([a, np.zeros((3, 4))])), 5),
            (Tensor(np.vstack([b, np.zeros((2, 4))])), 2),
        ], params)
        np.testing.assert_array_equal(base.data, padded.data)
        # a chunk: each post, posts 1 and 2 shorter than the widest kernel,
        # scores as it does alone with padded rows appended
        lengths = [5, 1, 2, 4]
        posts = [rng.standard_normal((n, 4)) for n in lengths]
        chunk = classify_logits([(Tensor(np.vstack(posts)), Segments(lengths))] * 2, params)
        for post, length, row in zip(posts, lengths, chunk.data):
            alone = np.vstack([post, np.zeros((3, 4))])
            np.testing.assert_allclose(row, classify_logits([(Tensor(alone), length)] * 2, params).data,
                                       rtol=1e-12, atol=1e-14)

    def test_channel_count_mismatch_rejected(self):
        params = make_params(num_channels=3)
        with pytest.raises(ShapeError):
            classify(self.channels_for(params, lengths=(4, 4)), params)

    def test_full_classify_passes_grad_check(self):
        params = make_params(num_channels=3, d=8, sizes=(2, 3, 4), filters=2, seed=9)
        rng = np.random.default_rng(10)
        channels = [(Tensor(rng.standard_normal((5, 8))), 5) for _ in range(3)]

        def f(_):
            return cross_entropy_logits(classify_logits(channels, params), 1)

        for _, tensor in named_parameters(params):
            err = grad_check(lambda t: f(None), tensor)
            assert err < 1e-4, f"classifier parameter failed grad check with {err}"


class TestCrossEntropy:
    def test_certain_prediction_is_zero_loss(self):
        assert cross_entropy(Tensor([0.0, 1.0]), 1).item() == 0.0

    def test_uniform_four_classes(self):
        loss = cross_entropy(Tensor([0.25] * 4), 2)
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor([0.5, 0.5]), 2)

    def test_logits_version_matches_probability_version(self):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal(5)
        probs = ad.row_softmax(Tensor(logits))
        a = cross_entropy(probs, 3).item()
        b = cross_entropy_logits(Tensor(logits), 3).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_logits_version_stable_for_large_scores(self):
        loss = cross_entropy_logits(Tensor([1000.0, 0.0]), 0)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_batch_mean_equals_mean_of_losses(self):
        rng = np.random.default_rng(12)
        losses = []
        for label in (0, 1, 1):
            logits = Tensor(rng.standard_normal(2))
            losses.append(cross_entropy_logits(logits, label).item())
        assert np.mean(losses) == pytest.approx(sum(losses) / 3.0, abs=1e-15)
