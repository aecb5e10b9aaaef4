"""Convolutional classifier over the fused channels.

Each channel runs relu convolutions at several kernel widths; each
feature map is max-pooled over time, and a dense layer reads the pooled
features of all channels, one block of its rows per channel, to give the
class scores (logits), which the softmax cross-entropy reads. A channel's
kernels at every width are one weight, laid out tap-major, so the whole
convolution of a channel is one GEMM whose column blocks are summed along
shifted rows. Every channel comes with the `Segments` layout of a chunk of
posts: their rows are packed one after another, the posts share each
convolution, and each post is pooled over its own taps only. Posts shorter
than the widest kernel are zero-padded on the right, and taps that only
exist because of padding never win the pooling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ShapeError


@dataclass
class ConvBank:
    """One channel's kernels at every width, as one GEMM's weight.

    Column off_j + dt * n + f of `kernels` is tap dt of filter f at width
    widths[j], where off_j is n times the sum of the widths before j;
    `bias` holds the n biases of each width in turn.
    """

    kernels: Tensor  # d x (sum(widths) * n)
    bias: Tensor     # len(widths) * n


@dataclass
class TextCnnParams:
    """Per-channel convolution banks plus the dense output layer."""

    banks: list[ConvBank]        # one per channel
    dense_w: Tensor              # (num_channels * len(widths) * n) x num_classes
    dense_b: Tensor              # num_classes
    widths: tuple[int, ...]      # the kernel widths, in column order

    @classmethod
    def create(cls, num_channels: int, d: int, kernel_sizes, filters: int,
               num_classes: int, rng) -> "TextCnnParams":
        widths = tuple(int(k) for k in kernel_sizes)
        banks = []
        for _ in range(num_channels):
            kernels = np.empty((d, sum(widths) * filters))
            off = 0
            for k in widths:  # drawn per width as (n, k, d), then laid out tap-major
                kernels[:, off:off + k * filters].reshape(d, k, filters)[...] = \
                    ad.glorot((filters, k, d), rng).transpose(2, 1, 0)
                off += k * filters
            banks.append(ConvBank(kernels=Tensor(kernels, requires_grad=True),
                                  bias=ad.zeros_parameter((len(widths) * filters,))))
        total = num_channels * len(widths) * filters
        return cls(
            banks=banks,
            dense_w=ad.parameter((total, num_classes), rng),
            dense_b=ad.zeros_parameter((num_classes,)),
            widths=widths,
        )


def conv_pool(x: Tensor, bank: ConvBank, widths, segments: ad.Segments) -> Tensor:
    """Per post, the max over its taps of relu(convolution + bias) at every width: one node.

    x is (rows, d) with the posts of `segments` packed along its rows; the
    output is (posts, len(widths) * n), width by width. The input is padded
    as `segments.blocks(max(widths))` lays it out and multiplied by the
    merged kernels in one GEMM; tap t at width k sums column block dt of
    row t + dt for dt < k. A post pools the taps that start inside it, or
    the first tap if it is shorter than the width. Ties route the gradient
    to the earliest tap. Backward keeps only the pooled rows and rebuilds
    the padded input.
    """
    kernels, bias = bank.kernels, bank.bias
    depth, columns = kernels.data.shape
    n = bias.data.shape[0] // len(widths)
    if x.data.ndim != 2 or x.data.shape[1] != depth:
        raise ShapeError(f"conv_pool depth mismatch: input {x.data.shape}, kernels {kernels.data.shape}")
    starts, total, dest = segments.blocks(max(widths))

    def padded():
        if dest is None:
            return x.data
        xp = np.zeros((total, depth))
        xp[dest] = x.data
        return xp

    y = padded() @ kernels.data
    # the pre-activations, width j in columns j * n to (j + 1) * n - 1; rows
    # past a width's last tap are never read
    pre = np.empty((total, len(widths) * n))
    off = 0
    for j, k in enumerate(widths):
        taps = total - k + 1
        out = pre[:taps, j * n:(j + 1) * n]
        out[...] = y[:taps, off:off + n]
        for dt in range(1, k):
            out += y[dt:dt + taps, off + dt * n:off + (dt + 1) * n]
        out += bias.data[j * n:(j + 1) * n]
        off += k * n
    del y
    # relu is monotone, so pooling the pre-activations and then applying it
    # gives relu's max; where that max is 0, the gradient is 0 at any row
    counts = np.maximum(segments.lengths[:, None] - np.array(widths), 0) + 1  # (posts, widths)
    if segments.count == 1:
        rows = np.concatenate([pre[:c, j * n:(j + 1) * n].argmax(axis=0)
                               for j, c in enumerate(counts[0])])[None]
    else:
        index = np.minimum(starts[:, None] + np.arange(counts.max()), total - 1)
        window = pre[index].reshape(segments.count, -1, len(widths), n)
        window[np.arange(window.shape[1])[:, None] >= counts[:, None]] = -np.inf
        rows = (window.argmax(axis=1) + starts[:, None, None]).reshape(segments.count, -1)
    data = np.maximum(pre[rows, np.arange(len(widths) * n)], 0.0)
    def bw(g):
        g = g * (data > 0.0)  # subgradient 0 at the kink
        # kernel tap T (columns T * n to T * n + n - 1) belongs to width
        # tap_width[T] and reads row tap_shift[T] past its tap's start
        tap_width = np.repeat(np.arange(len(widths)), widths)
        tap_shift = np.concatenate([np.arange(k) for k in widths])
        per_tap = (segments.count, len(widths), n)
        dy = np.zeros((total, columns))
        dy[(rows.reshape(per_tap)[:, tap_width] + tap_shift[:, None]).reshape(segments.count, -1),
           np.arange(columns)] = g.reshape(per_tap)[:, tap_width].reshape(segments.count, -1)
        def input_grad():
            if not x.requires_grad:
                return None
            gxp = dy @ kernels.data.T
            return gxp if dest is None else gxp[dest]

        paired = x.requires_grad and kernels.requires_grad
        gx, gk = ad.both(input_grad, lambda: padded().T @ dy if kernels.requires_grad else None,
                         dy.size * depth if paired else 0)
        return (gx, gk, g.sum(axis=0) if bias.requires_grad else None)

    return ad.node(data, (x, kernels, bias), bw)


def classify_logits(channels, params: TextCnnParams) -> Tensor:
    """Raw class scores, (posts, classes), for a list of (matrix, Segments) channels.

    Each channel's `Segments` packs a chunk's posts into its matrix. Every
    post's rows are followed by zero rows up to the widest kernel; a tap
    starting at t is pooled only when it fits inside the post, and if the
    post is shorter than the kernel, the single tap covering all of it is
    used. So a post scores the same alone as in any chunk.
    """
    if len(channels) != len(params.banks):
        raise ShapeError(f"classifier has {len(params.banks)} channel banks, got {len(channels)} channels")
    pooled = []
    for (matrix, segments), bank in zip(channels, params.banks):
        if not isinstance(segments, ad.Segments):
            raise ShapeError(f"a channel's layout must be a Segments, got {type(segments).__name__}")
        if segments.rows != matrix.data.shape[0]:
            raise ShapeError(f"segments cover {segments.rows} rows, channel has {matrix.data.shape[0]}")
        pooled.append(conv_pool(matrix, bank, params.widths, segments))
    return ad.linear(pooled, params.dense_w, params.dense_b)


def cross_entropy_logits(logits: Tensor, labels) -> Tensor:
    """Summed negative log likelihood of each row's label, from raw scores via log-sum-exp.

    `logits` is (posts, classes) and `labels` holds one label per row. One
    tape node.
    """
    scores = logits.data
    if scores.ndim != 2:
        raise ShapeError(f"cross_entropy_logits expects (posts, classes) scores, got shape {scores.shape}")
    labels = np.asarray(labels, dtype=np.intp)
    posts, n = scores.shape
    if labels.shape != (posts,):
        raise ValueError(f"labels of shape {labels.shape} for {posts} rows of scores, expected one per row")
    if labels.min() < 0 or labels.max() >= n:
        raise ValueError(f"labels {labels.tolist()} out of range for {n} classes")
    rows = np.arange(posts)
    shifted = scores - scores.max(axis=1, keepdims=True)  # constant shift, gradient-neutral
    e = np.exp(shifted)
    sums = e.sum(axis=1)
    data = (np.log(sums) - shifted[rows, labels]).sum()
    def bw(g):
        d = e / sums[:, None]
        d[rows, labels] -= 1.0
        return (g * d,)

    return ad.node(data, (logits,), bw)
