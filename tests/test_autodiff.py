import ast
import os
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import emofuse
from emofuse import autodiff as ad
from emofuse.attention import scaled_dot_attention
from emofuse.autodiff import AdamState, Segments, Tensor, adam_step, grad_check, load_tensors, save_tensors
from emofuse.exceptions import CheckpointError, EmofuseError, ShapeError
from emofuse.text_encoder import BiLstmParams, LstmDirectionParams, bilstm_layer
from emofuse.textcnn import ConvBank, conv_pool, cross_entropy_logits
from emofuse.vgae import LatentPosterior, VgaeTarget, vgae_loss
from tape_ops import ReferenceAdam, concat, conv_relu, mean, segment_max, sigmoid, sigmoid_values, tanh, tensor_sum, tslice


def _bilstm(w_h, x, w_x, b):  # both directions share one set of weights
    direction = LstmDirectionParams(w_x=w_x, w_h=w_h, b=b)
    return bilstm_layer(x, BiLstmParams(forward=direction, backward=direction, hidden=2), Segments([3]))


NOISE = np.random.default_rng(1).standard_normal((3, 2))
EDGES = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
# every op of the package that puts its result on the tape: the shapes of
# its tensor inputs, then the call; the first input is one of the result's parents
NODE_OPS = {
    "add": ([(2, 3), (3,)], ad.add),
    "mul": ([(2, 3), (3,)], ad.mul),
    "layer_norm": ([(2, 3), (3,), (3,), (2, 3)], ad.layer_norm),
    "linear": ([(2, 3), (3, 4), (4,)], lambda x, w, b: ad.linear(x, w, b, relu=True)),
    "scaled_dot_attention": ([(2, 4), (3, 4), (3, 2)],
                             lambda q, k, v: scaled_dot_attention(q, k, v, Segments([2]), Segments([3]))),
    "bilstm_layer": ([(2, 8), (3, 4), (4, 8), (8,)], _bilstm),
    "conv_pool": ([(5, 4), (4, 6), (4,)],
                  lambda x, k, b: conv_pool(x, ConvBank(kernels=k, bias=b), (1, 2), Segments([5]))),
    "cross_entropy_logits": ([(2, 3)], lambda s: cross_entropy_logits(s, [0, 2])),
    "vgae_loss": ([(3, 2), (3, 2)],
                  lambda mu, logvar: vgae_loss(LatentPosterior(mu=mu, logvar=logvar), NOISE, VgaeTarget(EDGES, 2))),
}


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        tensor_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        tensor_sum(ad.mul(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_repeated_backward_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        for _ in range(2):
            tensor_sum(ad.mul(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [12.0])

    def test_non_scalar_backward_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            ad.mul(x, 2.0).backward()

    def test_shared_parent_accumulates_both_paths(self):
        x = Tensor([2.0], requires_grad=True)
        y = ad.mul(x, x)  # both parents are x
        tensor_sum(y).backward()
        np.testing.assert_array_equal(x.grad, [4.0])

    @pytest.mark.parametrize("op", NODE_OPS)
    def test_constant_subgraphs_are_pruned(self, op):
        shapes, call = NODE_OPS[op]
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        arrays = [rng.standard_normal(shape) for shape in shapes]
        constant = call(*[Tensor(a) for a in arrays])
        assert not constant.requires_grad and constant._parents == ()
        first = Tensor(arrays[0], requires_grad=True)
        tracked = call(first, *[Tensor(a) for a in arrays[1:]])
        assert tracked.requires_grad and any(p is first for p in tracked._parents)
        assert tracked.data.tobytes() == constant.data.tobytes()

    def test_the_table_holds_every_op_that_builds_a_node(self):
        def calls_node(function):
            return any(isinstance(n, ast.Call) and "node" in (getattr(n.func, "id", None),
                                                             getattr(n.func, "attr", None))
                       for n in ast.walk(function))
        builders = {f.name for path in Path(emofuse.__file__).parent.glob("*.py")
                    for f in ast.parse(path.read_text(encoding="utf-8")).body
                    if isinstance(f, ast.FunctionDef) and calls_node(f)}
        assert builders == set(NODE_OPS)

    def test_the_constructor_builds_no_tracked_result(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(2), True, (Tensor(np.ones(2), requires_grad=True),), lambda g: (g,))

    def test_linear_backward_skips_constant_operand(self):
        rng = np.random.default_rng(0)
        a_data, b_data = rng.standard_normal((2, 3)), rng.standard_normal((3, 4))
        g = rng.standard_normal((2, 4))
        ga, gb = ad.linear(Tensor(a_data), Tensor(b_data, requires_grad=True))._backward(g)
        assert ga is None
        np.testing.assert_array_equal(gb, a_data.T @ g)
        ga, gb = ad.linear(Tensor(a_data, requires_grad=True), Tensor(b_data))._backward(g)
        assert gb is None
        np.testing.assert_array_equal(ga, g @ b_data.T)


class TestLinear:
    @pytest.mark.parametrize("rows, inner, cols", [(4, 32, 32), (185, 300, 300)])
    @pytest.mark.parametrize("case", ["tracked_x_tracked_w", "constant_x_non_leaf_w", "tracked_x_constant_w"])
    def test_one_matrix_is_numpys_products_bit_for_bit(self, case, rows, inner, cols):
        """One-matrix linear gives the bytes of x @ w, g @ w.T and x.T @ g."""
        rng = np.random.default_rng(zlib.crc32(f"{case}{rows}".encode()))
        x_data, w_data = rng.standard_normal((rows, inner)), rng.standard_normal((inner, cols))
        g = rng.standard_normal((rows, cols))
        x = Tensor(x_data, requires_grad=case != "constant_x_non_leaf_w")
        if case == "constant_x_non_leaf_w":  # the VGAE's a_norm @ hidden
            w = ad.mul(Tensor(w_data / 2.0, requires_grad=True), 2.0)
        else:
            w = Tensor(w_data, requires_grad=case == "tracked_x_tracked_w")
        out = ad.linear(x, w)
        assert out.data.tobytes() == (x_data @ w.data).tobytes()
        gx, gw = out._backward(g)
        assert (gx is None) == (not x.requires_grad) and (gw is None) == (not w.requires_grad)
        if gx is not None:
            assert gx.tobytes() == (g @ w.data.T).tobytes()
        if gw is not None:
            assert gw.tobytes() == (x_data.T @ g).tobytes()


class TestShapeErrors:
    def test_linear_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_add_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


class TestElementwise:
    def test_sigmoid_extremes_stay_finite(self):
        out = sigmoid(Tensor([-800.0, 800.0]))
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
            np.testing.assert_array_equal(sigmoid_values(x, np.exp(-np.abs(x))), two_branch(x))


class TestLayerNorm:
    def test_matches_mean_formula_bit_for_bit(self):
        """Row means from np.add.reduce / d are the bits ndarray.mean gives, forward and backward."""
        rng = np.random.default_rng(15)
        a = Tensor(rng.standard_normal((5, 7)) * 3.0 + 1.0, requires_grad=True)
        residual = Tensor(rng.standard_normal((5, 7)), requires_grad=True)
        gain, bias = Tensor(rng.uniform(0.5, 1.5, 7)), Tensor(rng.standard_normal(7))
        g = rng.standard_normal((5, 7))
        out = ad.layer_norm(a, gain, bias, residual)
        tensor_sum(ad.mul(out, g)).backward()

        x = a.data + residual.data
        centered = x - x.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-5)
        normed = centered * inv_std
        np.testing.assert_array_equal(out.data, normed * gain.data + bias.data)
        d_normed = g * gain.data
        dx = (d_normed - d_normed.mean(axis=-1, keepdims=True)
              - normed * (d_normed * normed).mean(axis=-1, keepdims=True)) * inv_std
        np.testing.assert_array_equal(a.grad, dx)
        np.testing.assert_array_equal(residual.grad, dx)


class TestGradCheck:
    def test_sum_of_squares_tight(self):
        x = Tensor(np.array([0.4, -1.2, 2.0]), requires_grad=True)
        err = grad_check(lambda t: tensor_sum(ad.mul(t, t)), x)
        assert err < 1e-8

    def test_three_layer_composite(self):
        rng = np.random.default_rng(3)
        w1 = Tensor(rng.standard_normal((4, 5)))
        w2 = Tensor(rng.standard_normal((5, 3)))
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)

        def f(t):
            h1 = tanh(ad.linear(t, w1))
            h2 = sigmoid(ad.linear(h1, w2))
            return mean(ad.mul(h2, h2))

        assert grad_check(f, x) < 1e-5

    def test_softmax_matmul_chain(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.standard_normal((3, 4)))
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)

        def f(t):
            return cross_entropy_logits(ad.linear(t, w), [3, 1])

        assert grad_check(f, x) < 1e-5

    def test_relu_kink_coordinate_excluded(self):
        x = Tensor(np.array([[1.0, 0.0, -1.0]]), requires_grad=True)
        skip = np.abs(x.data) < 1e-12
        err = grad_check(lambda t: tensor_sum(ad.linear(t, np.eye(3), relu=True)), x, skip=skip)
        assert err < 1e-10

    @pytest.mark.parametrize("op", ["tanh", "layer_norm", "concat",
                                    "slice", "conv", "conv_kernels", "conv_bias",
                                    "max_over_time", "mean", "linear", "linear_blocks",
                                    "add_layer_norm", "bilstm_layer", "segment_attention",
                                    "conv_padded", "segment_max", "cross_entropy_rows", "vgae_loss"])
    def test_every_op_passes_grad_check(self, op):
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        gain = Tensor(rng.uniform(0.5, 1.5, 4))
        bias = Tensor(rng.standard_normal(4))
        kernels = Tensor(rng.standard_normal((2, 2, 4)), requires_grad=op == "conv_kernels")
        cbias = Tensor(rng.standard_normal(2), requires_grad=op == "conv_bias")
        other = Tensor(rng.standard_normal((3, 4)))
        weights = Tensor(rng.standard_normal((3, 4)))
        conv_weights = rng.standard_normal((2, 2))  # (L - width + 1, filters)
        # chunk rules: three posts of 3, 1 and 3 rows packed into 7
        chunk = Segments([3, 1, 3])
        keys = Segments([2, 3, 1])
        packed = Tensor(rng.standard_normal((7, 4)), requires_grad=True)
        packed_weights = rng.standard_normal((7, 4))
        lstm = BiLstmParams.create(4, 2, rng)
        lstm.forward.b.data[:] = rng.standard_normal(8)
        lstm.backward.b.data[:] = rng.standard_normal(8)
        wide, wide_bias, wide_weights = Tensor(rng.standard_normal((4, 5))), rng.standard_normal(5), \
            rng.standard_normal((3, 5))
        block_w = Tensor(rng.standard_normal((8, 2)))
        starts, total, dest = chunk.blocks(2)  # the 1-row post gets one zero row
        tap_weights = rng.standard_normal((total - 1, 2))
        pool_weights = rng.standard_normal((3, 4))
        scores = Tensor(rng.standard_normal((7, 4)), requires_grad=True)
        labels = np.array([1, 0, 3, 1, 2, 0, 3])
        logvar = Tensor(rng.standard_normal((3, 4)) * 0.5, requires_grad=True)
        noise, target = rng.standard_normal((3, 4)), VgaeTarget(EDGES, 4)

        functions = {
            "tanh": lambda t: mean(ad.mul(tanh(t), weights)),
            "layer_norm": lambda t: mean(ad.mul(ad.layer_norm(t, gain, bias, other), weights)),
            "concat": lambda t: mean(ad.mul(concat([t, other], axis=0),
                                               np.concatenate([weights.data, weights.data]))),
            "slice": lambda t: mean(ad.mul(tslice(t, np.s_[1:, :2]), weights.data[1:, :2])),
            "conv": lambda t: mean(conv_relu(t, kernels, cbias)),
            "conv_kernels": lambda k: mean(ad.mul(conv_relu(x, k, cbias), conv_weights)),
            "conv_bias": lambda b: mean(ad.mul(conv_relu(x, kernels, b), conv_weights)),
            "max_over_time": lambda t: tensor_sum(segment_max(t, [0], [3])),
            "mean": lambda t: mean(ad.mul(t, weights)),
            "linear": lambda t: mean(ad.mul(ad.linear(t, wide, wide_bias, relu=True), wide_weights)),
            "linear_blocks": lambda t: mean(ad.mul(ad.linear([tslice(t, np.s_[:, :1]), other, tslice(t, np.s_[:, 1:])], block_w),
                                                      wide_weights[:, :2])),
            "add_layer_norm": lambda t: mean(ad.mul(ad.layer_norm(other, gain, bias, t),
                                                       weights)),
            "bilstm_layer": lambda _: mean(ad.mul(bilstm_layer(packed, lstm, chunk), packed_weights)),
            "segment_attention": lambda t: mean(ad.mul(scaled_dot_attention(
                t, tslice(t, np.s_[:6]), ad.mul(tslice(t, np.s_[:6]), 2.0), q_segments=chunk, k_segments=keys), packed_weights)),
            "conv_padded": lambda t: mean(ad.mul(conv_relu(t, kernels, cbias, (total, dest)),
                                                    tap_weights)),
            "segment_max": lambda t: mean(ad.mul(segment_max(t, [0, 3, 4], [3, 1, 2]), pool_weights)),
            "cross_entropy_rows": lambda t: ad.mul(cross_entropy_logits(t, labels), 0.3),
            "vgae_loss": lambda _: vgae_loss(LatentPosterior(mu=x, logvar=logvar), noise, target),
        }
        # the bilstm_layer case reads packed and every parameter in place
        checked = {"conv_kernels": [kernels], "conv_bias": [cbias],
                   "bilstm_layer": [packed] + [p for _, p in ad.named_parameters(lstm)],
                   "segment_attention": [packed], "conv_padded": [packed], "segment_max": [packed],
                   "cross_entropy_rows": [scores], "vgae_loss": [x, logvar]}.get(op, [x])
        for tensor in checked:
            assert grad_check(functions[op], tensor) < 1e-5


class TestMaxOverTime:
    """Max-pooling over time is segment_max over one segment."""

    def test_vector_maximum(self):
        assert segment_max(Tensor([[3.0], [5.0]]), [0], [2]).data[0, 0] == 5.0

    def test_column_wise(self):
        out = segment_max(Tensor([[1.0, 9.0], [4.0, 2.0]]), [0], [2])
        np.testing.assert_array_equal(out.data, [[4.0, 9.0]])

    def test_tie_routes_to_first(self):
        x = Tensor([[2.0], [2.0], [1.0]], requires_grad=True)
        tensor_sum(segment_max(x, [0], [3])).backward()
        np.testing.assert_array_equal(x.grad, [[1.0], [0.0], [0.0]])

    def test_valid_limit(self):
        x = Tensor([[1.0], [9.0], [100.0]])
        assert segment_max(x, [0], [2]).data[0, 0] == 9.0

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            segment_max(Tensor(np.zeros((0, 2))), [0], [1])


class TestLeafAccumulation:
    """Tensor.backward adds each leaf's gradient into `grad` as soon as a rule returns it."""

    def test_two_leaves_of_one_add_own_separate_gradients(self):
        a, b = Tensor([1.0, 2.0], requires_grad=True), Tensor([3.0, 4.0], requires_grad=True)
        tensor_sum(ad.mul(a + b, [1.0, -1.0])).backward()
        np.testing.assert_array_equal(a.grad, [1.0, -1.0])
        np.testing.assert_array_equal(b.grad, [1.0, -1.0])
        assert not np.shares_memory(a.grad, b.grad)

    def test_leaf_added_to_itself_owns_its_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x + x
        tensor_sum(ad.mul(y, [3.0, 5.0])).backward()
        np.testing.assert_array_equal(x.grad, [6.0, 10.0])
        assert not np.shares_memory(x.grad, y.data)

    def test_two_backward_calls_accumulate_their_sum(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        inputs = [rng.standard_normal((4, 3)) for _ in range(2)]
        single = []
        for x in inputs:
            w.grad = None
            tensor_sum(tanh(ad.linear(x, w))).backward()
            single.append(w.grad.copy())
        w.grad = None
        for x in inputs:
            tensor_sum(tanh(ad.linear(x, w))).backward()
        np.testing.assert_allclose(w.grad, single[0] + single[1], rtol=1e-15)

    def test_no_second_copy_of_a_large_gradient(self):
        w = Tensor(np.ones((2000, 2000)), requires_grad=True)
        loss = tensor_sum(ad.linear(np.ones((1, 2000)), w))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 1.5 * w.data.nbytes
        np.testing.assert_array_equal(w.grad[:2, :2], np.ones((2, 2)))


class TestAdam:
    def test_zero_gradient_from_fresh_state_keeps_params(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        state = AdamState([p], lr=0.1)
        p.grad = np.zeros(2)
        before = p.data.copy()
        adam_step(state)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_is_signed_lr(self):
        p = Tensor([1.0, 1.0], requires_grad=True)
        state = AdamState([p], lr=0.1)
        p.grad = np.array([0.5, -3.0])
        adam_step(state)
        np.testing.assert_allclose(p.data, [1.0 - 0.1, 1.0 + 0.1], atol=1e-6)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array(1.0), requires_grad=True)
        state = AdamState([p], lr=0.1)
        for _ in range(100):
            ad.zero_grads([p])
            ad.mul(p, p).backward()
            adam_step(state)
        assert abs(float(p.data)) < 0.05

    def test_missing_grad_treated_as_zero(self):
        p = Tensor([1.0], requires_grad=True)
        state = AdamState([p], lr=0.1)
        adam_step(state)
        np.testing.assert_array_equal(p.data, [1.0])

    def test_grouped_step_matches_per_tensor_oracle(self):
        rng = np.random.default_rng(12)
        # runs of small tensors, a tensor alone over the group bound, a 0-d
        # tensor, and two tensors that do not fit one group together
        shapes = [(3, 4), (), (ad.GROUP_FLOATS + 5,), (7,), (2, 3, 5), (200, 200), (150, 200), (1,)]
        values = [np.asarray(rng.normal(size=shape)) for shape in shapes]
        packed = [Tensor(v.copy(), requires_grad=True) for v in values]
        loose = [Tensor(v.copy(), requires_grad=True) for v in values]
        state = AdamState(packed, lr=0.01)
        oracle = ReferenceAdam(loose, lr=0.01)
        assert [(first, last) for _, _, first, last in state.groups] == [(0, 2), (2, 3), (3, 6), (6, 8)]
        assert all(p.data.base is state.data for p in packed)
        for step in range(5):
            for i, (a, b) in enumerate(zip(packed, loose)):
                missing = i == 3 or (i == 2 and step == 1)  # a None grad, in a run and alone
                g = None if missing else np.asarray(rng.normal(size=shapes[i]) * 10.0 ** rng.integers(-6, 3))
                a.grad = b.grad = g
            adam_step(state)
            oracle.step(loose)
            for a, b in zip(packed, loose):
                assert a.data.tobytes() == b.data.tobytes()
        assert state.m.tobytes() == b"".join(m.tobytes() for m in oracle.m)
        assert state.v.tobytes() == b"".join(v.tobytes() for v in oracle.v)

    def test_packing_is_idempotent(self):
        params = [Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True),
                  Tensor(np.ones(4), requires_grad=True)]
        arena = ad.pack_parameters(params)
        np.testing.assert_array_equal(arena, [0, 1, 2, 3, 4, 5, 1, 1, 1, 1])
        views = [p.data for p in params]
        assert ad.pack_parameters(params) is arena
        assert all(p.data is view for p, view in zip(params, views))
        assert ad.pack_parameters(params[::-1]) is not arena  # another order is another arena


class TestDeterminism:
    def test_same_seed_same_parameters(self):
        a = ad.parameter((4, 3), np.random.default_rng(9))
        b = ad.parameter((4, 3), np.random.default_rng(9))
        np.testing.assert_array_equal(a.data, b.data)

    def test_glorot_bounds(self):
        w = ad.glorot((100, 50), np.random.default_rng(0))
        limit = np.sqrt(6.0 / 150)
        assert (np.abs(w) <= limit).all()

    def test_importing_the_package_first_pins_one_blas_thread(self):
        """Only a child process can show this: conftest imports numpy before emofuse here."""
        pinned, _ = blas_probe("numpy", "1")
        assert blas_probe("emofuse", None) == (pinned, "1")
        assert blas_probe("emofuse", "2")[1] == "2"  # a count the user set is kept


# Hashes two products whose bits depend on the OpenBLAS thread count: x @ W
# over a column slice of W, and a weight gradient's x.T @ g. Its argument is
# the module imported first.
BLAS_PROBE = """
import hashlib, importlib, os, sys
importlib.import_module(sys.argv[1])
import numpy as np
rng = np.random.default_rng(0)
w = rng.standard_normal((300, 1200))
x, g = rng.standard_normal((700, 300)), rng.standard_normal((700, 1200))
products = (rng.standard_normal((70, 300)) @ w[:, :100], x.T @ g)
print(hashlib.sha256(b"".join(p.tobytes() for p in products)).hexdigest(), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def blas_probe(first_import, threads):
    """(hash, OPENBLAS_NUM_THREADS as the child sees it) from a child started with `threads`, or unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(emofuse.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", BLAS_PROBE, first_import],
                            env=env, capture_output=True, text=True, check=True)
    return tuple(result.stdout.split())


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_value_rejected_naming_the_file_and_tensor(self, tmp_path, bad):
        path = tmp_path / "bad.ntc"
        weight = np.arange(6.0).reshape(2, 3)
        weight[1, 2] = bad
        save_tensors(path, {"bias": np.array([0.5]), "w\u00e9ight": weight, "scalar": np.array(2.0)})
        with pytest.raises(CheckpointError, match="nan or inf") as err:
            load_tensors(path)
        assert str(path) in str(err.value) and repr("w\u00e9ight") in str(err.value)
        save_tensors(path, {"scalar": np.array(bad)})
        with pytest.raises(CheckpointError, match="'scalar' has a nan or inf value"):
            load_tensors(path)

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
