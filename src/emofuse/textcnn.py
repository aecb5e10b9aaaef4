"""Convolutional classifier over the fused channels.

Each channel runs banks of relu convolutions at several kernel widths; each
feature map is max-pooled over time, the pooled features of all channels are
concatenated, and a dense softmax layer produces the class distribution.
Channels shorter than the widest kernel are zero-padded on the right, and
taps that only exist because of padding never win the pooling.
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


def conv_channel(x, bank: ConvBank) -> Tensor:
    """relu feature maps of one kernel bank over one channel, full depth per tap."""
    return ad.relu(ad.conv1d_valid(x, bank.kernels, bank.bias))


def max_over_time(feature_map, valid=None) -> Tensor:
    """Maximum of a feature map along time; `valid` limits pooling to real taps."""
    return ad.max_over_time(feature_map, valid=valid)


def _pad_rows(x: Tensor, target: int) -> Tensor:
    have = x.data.shape[0]
    if have >= target:
        return x
    return ad.concat([x, Tensor(np.zeros((target - have, x.data.shape[1])))], axis=0)


def classify_logits(channels, params: TextCnnParams) -> Tensor:
    """Raw class scores for a list of (matrix, valid_length) channels.

    A tap starting at t is pooled only when it fits inside the channel's
    valid length; if the channel is shorter than the kernel, the single tap
    covering all real content is used. Appending padded columns therefore
    never changes the output.
    """
    if len(channels) != len(params.banks):
        raise ShapeError(f"classifier has {len(params.banks)} channel banks, got {len(channels)} channels")
    pooled = []
    for (matrix, valid_length), channel_banks in zip(channels, params.banks):
        matrix = ad.as_tensor(matrix)
        if valid_length < 1 or valid_length > matrix.data.shape[0]:
            raise ShapeError(f"valid length {valid_length} out of range for channel shape {matrix.data.shape}")
        padded = _pad_rows(matrix, params.max_kernel)
        for bank in channel_banks:
            maps = conv_channel(padded, bank)
            valid_taps = max(valid_length - bank.width, 0) + 1
            pooled.append(max_over_time(maps, valid=valid_taps))
    features = ad.reshape(ad.concat(pooled, axis=0), (1, -1))
    logits = ad.matmul(features, params.dense_w) + params.dense_b
    return ad.reshape(logits, (-1,))


def classify(channels, params: TextCnnParams) -> Tensor:
    """Class probability vector; softmax over the dense layer's scores."""
    return ad.row_softmax(classify_logits(channels, params))


def cross_entropy(probs, label: int) -> Tensor:
    """Negative log likelihood of `label` under a probability vector."""
    probs = ad.as_tensor(probs)
    n = probs.data.shape[0]
    if not 0 <= label < n:
        raise ValueError(f"label {label} out of range for {n} classes")
    return ad.mul(ad.log(probs[label]), -1.0)


def cross_entropy_logits(logits, label: int) -> Tensor:
    """The same loss computed stably from raw scores via log-sum-exp."""
    logits = ad.as_tensor(logits)
    n = logits.data.shape[0]
    if not 0 <= label < n:
        raise ValueError(f"label {label} out of range for {n} classes")
    shift = float(logits.data.max())  # constant shift, gradient-neutral
    shifted = logits - shift
    return ad.log(ad.tensor_sum(ad.exp(shifted))) - shifted[label]
