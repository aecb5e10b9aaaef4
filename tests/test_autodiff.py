import zlib

import numpy as np
import pytest

from emofuse import autodiff as ad
from emofuse.autodiff import AdamState, Tensor, adam_step, grad_check, load_tensors, save_tensors
from emofuse.exceptions import CheckpointError, EmofuseError, ShapeError


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.tensor_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        ad.tensor_sum(ad.mul(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_repeated_backward_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        for _ in range(2):
            ad.tensor_sum(ad.mul(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [12.0])

    def test_non_scalar_backward_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            ad.mul(x, 2.0).backward()

    def test_shared_parent_accumulates_both_paths(self):
        x = Tensor([2.0], requires_grad=True)
        y = ad.mul(x, x)  # both parents are x
        ad.tensor_sum(y).backward()
        np.testing.assert_array_equal(x.grad, [4.0])

    def test_constant_subgraphs_are_pruned(self):
        c = Tensor([1.0, 2.0])
        out = ad.mul(c, 3.0)
        assert out._parents == ()

    def test_matmul_backward_skips_constant_operand(self):
        rng = np.random.default_rng(0)
        a_data, b_data = rng.standard_normal((2, 3)), rng.standard_normal((3, 4))
        g = rng.standard_normal((2, 4))
        ga, gb = ad.matmul(Tensor(a_data), Tensor(b_data, requires_grad=True))._backward(g)
        assert ga is None
        np.testing.assert_array_equal(gb, a_data.T @ g)
        ga, gb = ad.matmul(Tensor(a_data, requires_grad=True), Tensor(b_data))._backward(g)
        assert gb is None
        np.testing.assert_array_equal(ga, g @ b_data.T)


class TestShapeErrors:
    def test_matmul_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_add_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


class TestElementwise:
    def test_relu_values(self):
        out = ad.relu(Tensor([-2.5, 0.0, 3.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])

    def test_row_softmax_uniform_on_zeros(self):
        out = ad.row_softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_row_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = ad.row_softmax(Tensor(rng.normal(0, 5, (10, 7))))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(10), atol=1e-12)
        assert (out.data > 0).all()

    def test_sigmoid_extremes_stay_finite(self):
        out = ad.sigmoid(Tensor([-800.0, 800.0]))
        assert np.isfinite(out.data).all()

    def test_sigmoid_values_match_two_branch_formula(self):
        def two_branch(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out
        edges = np.array([np.nan, -0.0, 0.0, -800.0, 800.0, np.inf, -np.inf, 5e-324, -5e-324, -36.0, 37.0])
        random = np.random.default_rng(0).normal(0.0, 20.0, (40, 30))
        for x in (edges, random):
            np.testing.assert_array_equal(ad._sigmoid_values(x), two_branch(x))


class TestGaussianSample:
    def test_near_zero_variance_returns_mean(self):
        mu = Tensor([1.0, -2.0], requires_grad=True)
        z = ad.gaussian_sample(mu, Tensor([-40.0, -40.0]), rng=np.random.default_rng(0))
        np.testing.assert_allclose(z.data, mu.data, atol=1e-8)

    def test_fixed_noise_reproducible(self):
        mu, logvar = Tensor([0.5]), Tensor([0.2])
        noise = np.array([0.3])
        z1 = ad.gaussian_sample(mu, logvar, noise=noise)
        z2 = ad.gaussian_sample(mu, logvar, noise=noise)
        np.testing.assert_array_equal(z1.data, z2.data)

    def test_gradients_flow_to_mu_and_logvar(self):
        mu = Tensor([0.5], requires_grad=True)
        logvar = Tensor([0.2], requires_grad=True)
        noise = np.array([0.7])
        ad.tensor_sum(ad.gaussian_sample(mu, logvar, noise=noise)).backward()
        np.testing.assert_allclose(mu.grad, [1.0])
        expected = 0.5 * np.exp(0.1) * 0.7
        np.testing.assert_allclose(logvar.grad, [expected], atol=1e-12)


class TestGradCheck:
    def test_sum_of_squares_tight(self):
        x = Tensor(np.array([0.4, -1.2, 2.0]), requires_grad=True)
        err = grad_check(lambda t: ad.tensor_sum(ad.mul(t, t)), x)
        assert err < 1e-8

    def test_three_layer_composite(self):
        rng = np.random.default_rng(3)
        w1 = Tensor(rng.standard_normal((4, 5)))
        w2 = Tensor(rng.standard_normal((5, 3)))
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)

        def f(t):
            h1 = ad.tanh(ad.matmul(t, w1))
            h2 = ad.sigmoid(ad.matmul(h1, w2))
            return ad.mean(ad.mul(h2, h2))

        assert grad_check(f, x) < 1e-5

    def test_softmax_matmul_chain(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.standard_normal((3, 4)))
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)

        def f(t):
            return ad.mean(ad.mul(ad.row_softmax(ad.matmul(t, w)), np.arange(8.0).reshape(2, 4)))

        assert grad_check(f, x) < 1e-5

    def test_relu_kink_coordinate_excluded(self):
        x = Tensor(np.array([1.0, 0.0, -1.0]), requires_grad=True)
        skip = np.abs(x.data) < 1e-12
        err = grad_check(lambda t: ad.tensor_sum(ad.relu(t)), x, skip=skip)
        assert err < 1e-10

    @pytest.mark.parametrize("op", ["exp", "log", "tanh", "layer_norm", "concat",
                                    "slice", "transpose", "conv", "conv_kernels", "conv_bias",
                                    "max_over_time", "mean"])
    def test_every_op_passes_grad_check(self, op):
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        if op == "log":
            x = Tensor(rng.uniform(0.5, 3.0, (3, 4)), requires_grad=True)
        else:
            x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        gain = Tensor(rng.uniform(0.5, 1.5, 4))
        bias = Tensor(rng.standard_normal(4))
        kernels = Tensor(rng.standard_normal((2, 2, 4)), requires_grad=op == "conv_kernels")
        cbias = Tensor(rng.standard_normal(2), requires_grad=op == "conv_bias")
        other = Tensor(rng.standard_normal((3, 4)))
        weights = Tensor(rng.standard_normal((3, 4)))
        conv_weights = rng.standard_normal((2, 2))  # (L - width + 1, filters)

        functions = {
            "exp": lambda t: ad.mean(ad.exp(t)),
            "log": lambda t: ad.mean(ad.log(t)),
            "tanh": lambda t: ad.mean(ad.mul(ad.tanh(t), weights)),
            "layer_norm": lambda t: ad.mean(ad.mul(ad.layer_norm(t, gain, bias), weights)),
            "concat": lambda t: ad.mean(ad.mul(ad.concat([t, other], axis=0),
                                               np.concatenate([weights.data, weights.data]))),
            "slice": lambda t: ad.mean(ad.mul(t[1:, :2], weights.data[1:, :2])),
            "transpose": lambda t: ad.mean(ad.mul(ad.transpose(t), weights.data.T)),
            "conv": lambda t: ad.mean(ad.conv1d_valid(t, kernels, cbias)),
            "conv_kernels": lambda k: ad.mean(ad.mul(ad.conv1d_valid(x, k, cbias), conv_weights)),
            "conv_bias": lambda b: ad.mean(ad.mul(ad.conv1d_valid(x, kernels, b), conv_weights)),
            "max_over_time": lambda t: ad.tensor_sum(ad.max_over_time(t)),
            "mean": lambda t: ad.mean(ad.mul(t, weights)),
        }
        checked = {"conv_kernels": kernels, "conv_bias": cbias}.get(op, x)
        assert grad_check(functions[op], checked) < 1e-5


class TestMaxOverTime:
    def test_vector_maximum(self):
        assert ad.max_over_time(Tensor([3.0, 5.0])).item() == 5.0

    def test_column_wise(self):
        out = ad.max_over_time(Tensor([[1.0, 9.0], [4.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [4.0, 9.0])

    def test_tie_routes_to_first(self):
        x = Tensor([2.0, 2.0, 1.0], requires_grad=True)
        ad.tensor_sum(ad.max_over_time(x)).backward()
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])

    def test_valid_limit(self):
        x = Tensor([[1.0], [9.0], [100.0]])
        assert ad.max_over_time(x, valid=2).data[0] == 9.0

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            ad.max_over_time(Tensor(np.zeros((0, 2))))


class TestAdam:
    def test_zero_gradient_from_fresh_state_keeps_params(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        state = AdamState.for_params([p], lr=0.1)
        p.grad = np.zeros(2)
        before = p.data.copy()
        adam_step([p], state)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_is_signed_lr(self):
        p = Tensor([1.0, 1.0], requires_grad=True)
        state = AdamState.for_params([p], lr=0.1)
        p.grad = np.array([0.5, -3.0])
        adam_step([p], state)
        np.testing.assert_allclose(p.data, [1.0 - 0.1, 1.0 + 0.1], atol=1e-6)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array(1.0), requires_grad=True)
        state = AdamState.for_params([p], lr=0.1)
        for _ in range(100):
            ad.zero_grads([p])
            ad.mul(p, p).backward()
            adam_step([p], state)
        assert abs(float(p.data)) < 0.05

    def test_missing_grad_treated_as_zero(self):
        p = Tensor([1.0], requires_grad=True)
        state = AdamState.for_params([p], lr=0.1)
        adam_step([p], state)
        np.testing.assert_array_equal(p.data, [1.0])


class TestDeterminism:
    def test_same_seed_same_parameters(self):
        a = ad.parameter((4, 3), np.random.default_rng(9))
        b = ad.parameter((4, 3), np.random.default_rng(9))
        np.testing.assert_array_equal(a.data, b.data)

    def test_glorot_bounds(self):
        w = ad.glorot((100, 50), np.random.default_rng(0))
        limit = np.sqrt(6.0 / 150)
        assert (np.abs(w) <= limit).all()


class TestTensorContainer:
    def test_round_trip(self, tmp_path):
        tensors = {
            "a.weight": np.arange(6.0).reshape(2, 3),
            "b.bias": np.array([1.5, -2.5]),
            "scalar": np.array(3.25),
        }
        path = tmp_path / "params.ntc"
        save_tensors(path, tensors)
        loaded = load_tensors(path)
        assert list(loaded) == list(tensors)
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], tensors[name])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ntc"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_tensors(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "future.ntc"
        path.write_bytes(b"EFTS" + (2).to_bytes(4, "little") + bytes(4))
        with pytest.raises(CheckpointError, match="version 2"):
            load_tensors(path)

    def test_every_truncation_raises_a_typed_error_naming_the_file(self, tmp_path):
        full = tmp_path / "full.ntc"
        save_tensors(full, {"w\u00e9ight": np.arange(6.0).reshape(2, 3), "bias": np.array([0.5]),
                            "scalar": np.array(2.0)})
        blob = full.read_bytes()
        path = tmp_path / "cut.ntc"
        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            with pytest.raises(EmofuseError) as err:
                load_tensors(path)
            assert isinstance(err.value, CheckpointError)
            assert str(path) in str(err.value)

    def test_oversized_field_rejected_without_reading(self, tmp_path):
        path = tmp_path / "huge.ntc"
        save_tensors(path, {"w": np.zeros(2)})
        valid = path.read_bytes()
        # layout: magic 0-3, version and count 4-11, name length 12-15, "w" 16,
        # ndim 17-20, shape 21-24, payload 25-40
        for offset in (12, 17, 21):
            blob = bytearray(valid)
            blob[offset:offset + 4] = (0xFFFFFFFF).to_bytes(4, "little")
            path.write_bytes(bytes(blob))
            with pytest.raises(CheckpointError, match="truncated"):
                load_tensors(path)

    def test_identical_content_identical_bytes(self, tmp_path):
        tensors = {"w": np.linspace(0, 1, 7)}
        save_tensors(tmp_path / "one.ntc", tensors)
        save_tensors(tmp_path / "two.ntc", tensors)
        assert (tmp_path / "one.ntc").read_bytes() == (tmp_path / "two.ntc").read_bytes()
