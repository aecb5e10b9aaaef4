"""Convolutional classifier over the fused channels.

Each channel runs banks of relu convolutions at several kernel widths; each
feature map is max-pooled over time, the pooled features of all channels are
concatenated, and a dense layer gives the class scores (logits), which
the softmax cross-entropy reads. Every channel comes with the `Segments`
layout of a chunk of posts: their rows are packed one after another, the
posts share each convolution, and each post is pooled over its own taps
only. Posts shorter than the widest kernel are zero-padded on the right,
and taps that only exist because of padding never win the pooling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ShapeError


@dataclass
class ConvBank:
    kernels: Tensor  # n x k x d
    bias: Tensor     # n

    @property
    def width(self) -> int:
        return self.kernels.data.shape[1]


@dataclass
class TextCnnParams:
    """Per-channel convolution banks plus the dense output layer."""

    banks: list[list[ConvBank]]  # banks[channel][size_index]
    dense_w: Tensor              # (num_channels * len(sizes) * n) x num_classes
    dense_b: Tensor              # num_classes

    @classmethod
    def create(cls, num_channels: int, d: int, kernel_sizes, filters: int,
               num_classes: int, rng) -> "TextCnnParams":
        banks = []
        for _ in range(num_channels):
            channel = []
            for k in kernel_sizes:
                channel.append(ConvBank(
                    kernels=ad.parameter((filters, k, d), rng),
                    bias=ad.zeros_parameter((filters,)),
                ))
            banks.append(channel)
        total = num_channels * len(kernel_sizes) * filters
        return cls(
            banks=banks,
            dense_w=ad.parameter((total, num_classes), rng),
            dense_b=ad.zeros_parameter((num_classes,)),
        )

    @property
    def num_classes(self) -> int:
        return self.dense_w.data.shape[1]

    @property
    def max_kernel(self) -> int:
        return max(bank.width for channel in self.banks for bank in channel)


def conv_relu(x, kernels, bias, blocks=None) -> Tensor:
    """relu(valid cross-correlation over time + bias), one GEMM per kernel tap.

    x is (rows, d), kernels (n, k, d), bias (n,); the output is (taps, n)
    with tap t covering rows t to t + k - 1. `blocks` = (total, dest) first
    places row r of x at row dest[r] of a zero matrix of `total` rows (the
    chunk layout's zero padding). No im2col matrix is built; backward
    rebuilds the padded input rather than keeping it.
    """
    x, kernels, bias = ad.as_tensor(x), ad.as_tensor(kernels), ad.as_tensor(bias)
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
    if not (x.requires_grad or kernels.requires_grad or bias.requires_grad):
        return Tensor(data)

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

    return Tensor(data, True, (x, kernels, bias), bw)


def segment_max(a, starts, counts) -> Tensor:
    """Column-wise maximum over rows starts[i] to starts[i] + counts[i] - 1, per segment.

    The output is (segments, columns). Segments must not overlap. Ties
    route the gradient to the earliest maximal row.
    """
    a = ad.as_tensor(a)
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
    if not a.requires_grad:
        return Tensor(data)

    def bw(g):
        full = np.zeros_like(a.data)
        full[rows, columns] = g
        return (full,)

    return Tensor(data, True, (a,), bw)


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
    max_kernel = params.max_kernel
    for (matrix, segments), channel_banks in zip(channels, params.banks):
        matrix = ad.as_tensor(matrix)
        if not isinstance(segments, ad.Segments):
            raise ShapeError(f"a channel's layout must be a Segments, got {type(segments).__name__}")
        if segments.rows != matrix.data.shape[0]:
            raise ShapeError(f"segments cover {segments.rows} rows, channel has {matrix.data.shape[0]}")
        starts, total, dest = segments.blocks(max_kernel)
        for bank in channel_banks:
            maps = conv_relu(matrix, bank.kernels, bank.bias, (total, dest))
            pooled.append(segment_max(maps, starts, np.maximum(segments.lengths - bank.width, 0) + 1))
    return ad.linear(ad.concat(pooled, axis=1), params.dense_w, params.dense_b)


def cross_entropy_logits(logits, labels) -> Tensor:
    """Summed negative log likelihood of each row's label, from raw scores via log-sum-exp.

    `logits` is (posts, classes) and `labels` holds one label per row. One
    tape node.
    """
    logits = ad.as_tensor(logits)
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
    if not logits.requires_grad:
        return Tensor(data)

    def bw(g):
        d = e / sums[:, None]
        d[rows, labels] -= 1.0
        return (g * d,)

    return Tensor(data, True, (logits,), bw)
