"""Word-side and emoji-side input features.

The word side looks up pretrained vectors and runs two stacked bidirectional
LSTM layers, concatenating the embedding layer and both LSTM outputs along
the feature axis (a skip connection, so later stages see every level). The
emoji side's fixed sinusoidal positional encoding is defined here too; the
model adds it to each emoji's embedding at the emoji's absolute position in
the original mixed token stream.

Sequence features are stored time-major: shape (length, features).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ShapeError
from .tokenization import Token
from .vectors import read_vector_table


class WordEmbeddingTable:
    """Immutable word -> vector map; unknown words read as zero vectors."""

    def __init__(self, ids, matrix):
        self._rows = {word: matrix[i] for i, word in enumerate(ids)}
        self.dimension = matrix.shape[1]

    def __len__(self):
        return len(self._rows)

    def __contains__(self, word):
        return word in self._rows

    def get(self, word) -> np.ndarray | None:
        return self._rows.get(word)

    def lookup(self, word) -> np.ndarray:
        vec = self._rows.get(word)
        return vec if vec is not None else np.zeros(self.dimension)

    @classmethod
    def load(cls, path) -> "WordEmbeddingTable":
        ids, matrix = read_vector_table(path)
        return cls(ids, matrix)


def positional_encoding(pos: int, d_model: int, base: float = 1000.0) -> np.ndarray:
    """Sinusoidal position vector: sin at even entries, cos at odd entries.

    Entry 2i is sin(pos / base^(2i / d_model)) and entry 2i+1 the matching
    cos. The default base of 1000 is deliberate; switch it via `base` if a
    different scale is wanted.
    """
    if d_model % 2 != 0:
        raise ValueError(f"d_model must be even, got {d_model}")
    if pos < 0:
        raise ValueError(f"pos must be >= 0, got {pos}")
    out = np.empty(d_model, dtype=np.float64)
    for i in range(d_model // 2):
        angle = pos / base ** (2 * i / d_model)
        out[2 * i] = math.sin(angle)
        out[2 * i + 1] = math.cos(angle)
    return out


@dataclass
class LstmDirectionParams:
    """Packed gate weights, order (input, forget, cell, output) along columns."""

    w_x: Tensor  # f_in x 4h
    w_h: Tensor  # h x 4h
    b: Tensor    # 4h

    @classmethod
    def create(cls, f_in: int, hidden: int, rng) -> "LstmDirectionParams":
        return cls(
            w_x=ad.parameter((f_in, 4 * hidden), rng),
            w_h=ad.parameter((hidden, 4 * hidden), rng),
            b=ad.zeros_parameter((4 * hidden,)),
        )


@dataclass
class BiLstmParams:
    forward: LstmDirectionParams
    backward: LstmDirectionParams
    hidden: int

    @classmethod
    def create(cls, f_in: int, hidden: int, rng) -> "BiLstmParams":
        return cls(
            forward=LstmDirectionParams.create(f_in, hidden, rng),
            backward=LstmDirectionParams.create(f_in, hidden, rng),
            hidden=hidden,
        )


def _run_direction(inputs: Tensor, params: LstmDirectionParams, hidden: int, reverse: bool) -> Tensor:
    """One LSTM direction over the whole sequence as a single tape node.

    The input projection X @ W_x + b is one GEMM ahead of the recurrence;
    backward runs BPTT in numpy to the pre-activation gradients dZ (L, 4h),
    so each weight gradient is one GEMM over all time steps. Row t of the
    (L, hidden) output is aligned with input position t in both directions.
    """
    x = inputs.data[::-1] if reverse else inputs.data  # processing order
    w_h = params.w_h.data
    length = x.shape[0]
    z_in = x @ params.w_x.data + params.b.data
    acts = np.empty((length, 4 * hidden))       # i, f, o sigmoids; g tanh
    h_all = np.zeros((length + 1, hidden))       # h_all[t] is h_{t-1}
    c_all = np.zeros((length + 1, hidden))       # c_all[t] is c_{t-1}
    tanh_c = np.empty((length, hidden))
    cell = slice(2 * hidden, 3 * hidden)
    for t in range(length):
        z = z_in[t] + h_all[t] @ w_h
        a = acts[t]
        a[:] = ad._sigmoid_values(z)
        a[cell] = np.tanh(z[cell])
        c_all[t + 1] = a[hidden:2 * hidden] * c_all[t] + a[:hidden] * a[cell]
        tanh_c[t] = np.tanh(c_all[t + 1])
        h_all[t + 1] = a[3 * hidden:] * tanh_c[t]
    out = h_all[1:][::-1] if reverse else h_all[1:]
    parents = (inputs, params.w_x, params.w_h, params.b)
    if not any(p.requires_grad for p in parents):
        return Tensor(out)

    def bw(g):
        g = g[::-1] if reverse else g
        gates = acts.reshape(length, 4, hidden)
        i_g, f_g, g_c, o_g = gates[:, 0], gates[:, 1], gates[:, 2], gates[:, 3]
        # dZ = [dc, dc, dc, dh] * scale, with each gate's local derivative folded in
        scale = np.stack([g_c * i_g * (1.0 - i_g),
                          c_all[:-1] * f_g * (1.0 - f_g),
                          i_g * (1.0 - g_c * g_c),
                          tanh_c * o_g * (1.0 - o_g)], axis=1)
        dc_dh = o_g * (1.0 - tanh_c * tanh_c)
        dz = np.empty((length, 4, hidden))
        dz_flat = dz.reshape(length, 4 * hidden)
        w_h_t = w_h.T
        dh_next = np.zeros(hidden)
        dc_next = np.zeros(hidden)
        for t in range(length - 1, -1, -1):
            dh = g[t] + dh_next
            dc = dh * dc_dh[t] + dc_next
            np.multiply(scale[t, :3], dc, out=dz[t, :3])
            np.multiply(scale[t, 3], dh, out=dz[t, 3])
            dc_next = dc * f_g[t]
            dh_next = dz_flat[t] @ w_h_t
        dx = None
        if inputs.requires_grad:
            dx = dz_flat @ params.w_x.data.T
            dx = dx[::-1] if reverse else dx
        return (dx,
                x.T @ dz_flat if params.w_x.requires_grad else None,
                h_all[:-1].T @ dz_flat if params.w_h.requires_grad else None,
                dz_flat.sum(axis=0) if params.b.requires_grad else None)

    return Tensor(out, True, parents, bw)


def bilstm_layer(inputs, params: BiLstmParams) -> Tensor:
    """Both directions from zero states; output row t is [h_fwd(t), h_bwd(t)]."""
    inputs = ad.as_tensor(inputs)
    if inputs.data.ndim != 2 or inputs.data.shape[0] == 0:
        raise ShapeError(f"bilstm_layer needs a nonempty (L, f) input, got shape {inputs.data.shape}")
    fwd = _run_direction(inputs, params.forward, params.hidden, reverse=False)
    bwd = _run_direction(inputs, params.backward, params.hidden, reverse=True)
    return ad.concat([fwd, bwd], axis=1)


@dataclass
class TextEncoderParams:
    layer1: BiLstmParams
    layer2: BiLstmParams

    @classmethod
    def create(cls, word_dim: int, hidden: int, rng) -> "TextEncoderParams":
        return cls(
            layer1=BiLstmParams.create(word_dim, hidden, rng),
            layer2=BiLstmParams.create(2 * hidden, hidden, rng),
        )


@dataclass
class EncodedText:
    """Skip-connected text features; `stacked` concatenates all three levels."""

    embeddings: Tensor  # L x word_dim
    lstm1: Tensor       # L x 2h
    lstm2: Tensor       # L x 2h
    stacked: Tensor     # L x (word_dim + 4h)

    @property
    def length(self) -> int:
        return self.embeddings.data.shape[0]


def encode_text(words: list[Token], table: WordEmbeddingTable, params: TextEncoderParams) -> EncodedText:
    """Embedding lookups, two stacked Bi-LSTM layers, and their concatenation."""
    if not words:
        raise ShapeError("encode_text needs at least one word token")
    x = Tensor(np.stack([table.lookup(t.surface) for t in words]))
    h1 = bilstm_layer(x, params.layer1)
    h2 = bilstm_layer(h1, params.layer2)
    stacked = ad.concat([x, h1, h2], axis=1)
    return EncodedText(embeddings=x, lstm1=h1, lstm2=h2, stacked=stacked)
