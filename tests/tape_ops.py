"""Small tape ops that only the tests use.

The per-step LSTM oracle (`reference_direction` in test_text_encoder)
runs on `sigmoid`, `tanh`, `tslice` and `concat`; the gradient checks
reduce an op's output to a scalar with `mean` or `tensor_sum`. The per-tap
TextCNN oracle (`per_tap_logits`) runs on `conv_relu`, one GEMM per kernel
tap, `segment_max` and `concat`. The models need none of them: their fused
nodes do this work in numpy, and `linear` reads a list of blocks without
concatenating them. Each op is checked by `grad_check` in test_autodiff.
`ReferenceAdam` is the per-tensor Adam loop that `autodiff.adam_step`'s
grouped update over the parameter arena must match bit for bit, and
`reference_objective` the five-node VGAE objective that the one node
`vgae.vgae_loss` must match bit for bit.
"""

import numpy as np

from emofuse import autodiff as ad
from emofuse.autodiff import Tensor, as_tensor
from emofuse.exceptions import ShapeError


def sigmoid_values(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|): no overflow.

    The numerator max(e, x >= 0) picks the branch without masked indexing.
    """
    return np.maximum(e, x >= 0) / (1.0 + e)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    data = sigmoid_values(a.data, np.exp(-np.abs(a.data)))
    return ad.node(data, (a,), lambda g: (g * data * (1.0 - data),))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)
    return ad.node(data, (a,), lambda g: (g * (1.0 - data * data),))


def tslice(a, key) -> Tensor:
    """Basic (non-fancy) indexing, a[key], with gradient scatter into the source."""
    a = as_tensor(a)
    data = a.data[key]

    def bw(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)
    return ad.node(data, (a,), bw)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of zero tensors")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    def bw(g):
        return tuple(np.split(g, np.cumsum([t.data.shape[axis] for t in tensors])[:-1], axis=axis))
    return ad.node(data, tuple(tensors), bw)


def mean(a) -> Tensor:
    a = as_tensor(a)
    data = np.asarray(a.data.mean())
    return ad.node(data, (a,), lambda g: (np.full(a.data.shape, float(g) / a.data.size),))


def tensor_sum(a) -> Tensor:
    a = as_tensor(a)
    data = np.asarray(a.data.sum())
    return ad.node(data, (a,), lambda g: (np.full(a.data.shape, float(g)),))


def conv_relu(x, kernels, bias, blocks=None) -> Tensor:
    """relu(valid cross-correlation over time + bias), one GEMM per kernel tap.

    x is (rows, d), kernels (n, k, d), bias (n,); the output is (taps, n)
    with tap t covering rows t to t + k - 1. `blocks` = (total, dest) first
    places row r of x at row dest[r] of a zero matrix of `total` rows (the
    chunk layout's zero padding). No im2col matrix is built; backward
    rebuilds the padded input rather than keeping it.
    """
    x, kernels, bias = as_tensor(x), as_tensor(kernels), as_tensor(bias)
    n, k, depth = kernels.data.shape
    total, dest = blocks if blocks is not None else (x.data.shape[0], None)
    if x.data.ndim != 2 or x.data.shape[1] != depth:
        raise ShapeError(f"conv_relu depth mismatch: input {x.data.shape}, kernels {kernels.data.shape}")
    if total < k:
        raise ShapeError(f"conv_relu input length {total} shorter than kernel {k}")
    taps = total - k + 1

    def padded():
        if dest is None:
            return x.data
        xp = np.zeros((total, depth))
        xp[dest] = x.data
        return xp

    xp = padded()
    data = xp[:taps] @ kernels.data[:, 0].T
    for dt in range(1, k):
        data += xp[dt:dt + taps] @ kernels.data[:, dt].T
    data += bias.data
    np.maximum(data, 0.0, out=data)

    def bw(g):
        g = g * (data > 0.0)  # subgradient 0 at the kink
        xp = padded()
        gx = None
        if x.requires_grad:
            gxp = np.zeros((total, depth))
            for dt in range(k):
                gxp[dt:dt + taps] += g @ kernels.data[:, dt]
            gx = gxp if dest is None else gxp[dest]
        gk = None
        if kernels.requires_grad:
            gk = np.empty_like(kernels.data)
            for dt in range(k):
                np.matmul(g.T, xp[dt:dt + taps], out=gk[:, dt])
        return (gx, gk, g.sum(axis=0) if bias.requires_grad else None)

    return ad.node(data, (x, kernels, bias), bw)


def segment_max(a, starts, counts) -> Tensor:
    """Column-wise maximum over rows starts[i] to starts[i] + counts[i] - 1, per segment.

    The output is (segments, columns). Segments must not overlap. Ties
    route the gradient to the earliest maximal row.
    """
    a = as_tensor(a)
    starts, counts = [int(s) for s in starts], [int(c) for c in counts]
    if (a.data.ndim != 2 or len(starts) != len(counts) or not starts or min(counts) < 1
            or min(starts) < 0 or max(s + c for s, c in zip(starts, counts)) > a.data.shape[0]):
        raise ShapeError(f"segment_max: segments at {starts} of {counts} rows do not fit shape {a.data.shape}")
    columns = np.arange(a.data.shape[1])
    if len(starts) == 1:
        first = starts[0]
        rows = a.data[first:first + counts[0]].argmax(axis=0)[None] + first
    else:
        starts, counts = np.array(starts), np.array(counts)
        ends = starts + counts
        index = starts[:, None] + np.arange(counts.max())
        inside = index < ends[:, None]
        index = np.where(inside, index, 0)
        window = a.data[index]  # (segments, width, columns)
        window[~inside] = -np.inf
        rows = np.take_along_axis(index, window.argmax(axis=1), axis=1)
    data = a.data[rows, columns]  # argmax takes the first maximum on ties

    def bw(g):
        full = np.zeros_like(a.data)
        full[rows, columns] = g
        return (full,)

    return ad.node(data, (a,), bw)


def width_kernels(kernels, widths):
    """Per width, the (n, k, d) kernels held in a channel's merged (d, sum(widths) * n) kernels."""
    depth, columns = kernels.shape
    n = columns // sum(widths)
    out, off = [], 0
    for k in widths:
        out.append(kernels[:, off:off + k * n].reshape(depth, k, n).transpose(2, 1, 0))
        off += k * n
    return out


def per_tap_logits(channels, kernels, biases, widths, dense_w, dense_b) -> Tensor:
    """`textcnn.classify_logits` on the per-tap path: conv_relu and segment_max per width.

    `kernels[c][j]` (n, k, d) and `biases[c][j]` (n,) are channel c's at
    width widths[j]; `channels` holds (matrix, Segments) pairs.
    """
    pooled = []
    for (matrix, segments), channel_kernels, channel_biases in zip(channels, kernels, biases):
        starts, total, dest = segments.blocks(max(widths))
        for k, kernel, bias in zip(widths, channel_kernels, channel_biases):
            maps = conv_relu(matrix, kernel, bias, (total, dest))
            pooled.append(segment_max(maps, starts, np.maximum(segments.lengths - k, 0) + 1))
    return ad.linear(concat(pooled, axis=1), dense_w, dense_b)


class ReferenceAdam:
    """Bias-corrected Adam with its moments and update kept per tensor."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self, params):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            step = self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= step


def reference_objective(posterior, noise, a_bin) -> Tensor:
    """The VGAE objective as five tape nodes: the chain `vgae.vgae_loss` fuses.

    The reparameterized sample z = mu + exp(logvar / 2) * noise, the logits
    S = z z^T with backward (g + g^T) z, the re-weighted softplus
    cross-entropy of S against `a_bin`, the KL term, and their sum, each
    with its own backward rule and in the fused node's operand order.
    """
    mu, logvar = posterior.mu, posterior.logvar
    std = np.exp(logvar.data * 0.5)
    z = ad.node(mu.data + std * noise, (mu, logvar), lambda g: (g, g * noise * std * 0.5))
    logits = ad.node(z.data @ z.data.T, (z,), lambda g: ((g + g.T) @ z.data,))
    n = a_bin.shape[0]
    total, positives = float(n * n), float(a_bin.sum())
    pos_weight = (total - positives) / positives
    norm = total / (2.0 * (total - positives))
    scale = norm / total
    s = logits.data
    signed = (1.0 - 2.0 * a_bin) * s  # -S on positives, S elsewhere
    e = np.exp(-np.abs(s))
    softplus = np.maximum(signed, 0.0) + np.log1p(e)
    weights = 1.0 + (pos_weight - 1.0) * a_bin
    bce = ad.node(scale * np.vdot(weights, softplus), (logits,),
                  lambda g: ((g * scale) * (weights * sigmoid_values(s, e) - pos_weight * a_bin),))
    var = np.exp(logvar.data)
    kl_scale = -1.0 / (2.0 * n)
    kl = ad.node(kl_scale * np.sum(1.0 + logvar.data - mu.data * mu.data - var), (mu, logvar),
                 lambda g: ((-2.0 * kl_scale * g) * mu.data, (kl_scale * g) * (1.0 - var)))
    return bce + kl
