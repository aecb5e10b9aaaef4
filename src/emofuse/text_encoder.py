"""Word-side and emoji-side input features.

The word side looks up pretrained vectors and runs two stacked bidirectional
LSTM layers, concatenating the embedding layer and both LSTM outputs along
the feature axis (a skip connection, so later stages see every level). The
emoji side's fixed sinusoidal positional encoding is defined here too; the
model adds it to each emoji's embedding at the emoji's absolute position in
the original mixed token stream.

Sequence features are stored time-major: shape (length, features). A chunk
of posts packs its posts' rows one after another in one matrix, laid out by
an `autodiff.Segments`; only the LSTM recurrence sees the post boundaries.
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
        self._index = {word: i for i, word in enumerate(ids)}
        self._matrix = matrix
        self.dimension = matrix.shape[1]

    def __len__(self):
        return len(self._index)

    def __contains__(self, word):
        return word in self._index

    def get(self, word) -> np.ndarray | None:
        i = self._index.get(word)
        return None if i is None else self._matrix[i]

    def rows(self, words) -> np.ndarray:
        """The vectors of `words` as one (len(words), dimension) matrix, gathered at once."""
        out = np.zeros((len(words), self.dimension))
        found = [(at, self._index[word]) for at, word in enumerate(words) if word in self._index]
        if found:
            at, index = zip(*found)
            out[list(at)] = self._matrix[list(index)]
        return out

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


def _recurrence(z: Tensor, w_h: Tensor, hidden: int, segments: ad.Segments, reverse: bool) -> Tensor:
    """The LSTM recurrence of one direction over a chunk, as one tape node.

    `z` holds each row's input pre-activations x W_x + b (rows, 4h); the
    gates of all the chunk's posts advance together as one (posts, 4h)
    matrix per time step. A post that has ended keeps stepping on filler
    input, but those steps come after all of its own, so they change none
    of its outputs, and their gradient is exactly zero. Backward runs BPTT
    in numpy to the pre-activation gradients dZ, so W_h's gradient is one
    GEMM over all steps and dZ goes back through the input GEMM. Output row
    r is the hidden state at input row r in both directions; with `reverse`
    each post starts at its own end.
    """
    zp = segments.time_major(z.data, reverse)  # (steps, posts, 4h)
    steps, posts = zp.shape[:2]
    w = w_h.data
    acts = np.empty((steps, posts, 4 * hidden))   # i, f, o sigmoids; g tanh
    h_all = np.zeros((steps + 1, posts, hidden))  # h_all[t] is h_{t-1}
    c_all = np.zeros((steps + 1, posts, hidden))  # c_all[t] is c_{t-1}
    tanh_c = np.empty((steps, posts, hidden))
    i_gate, f_gate, cell, o_gate = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    for t in range(steps):
        zt = zp[t] + h_all[t] @ w
        a = acts[t]
        a[...] = ad._sigmoid_values(zt)  # `...` indexing costs less than `:, `
        a[..., cell] = np.tanh(zt[..., cell])
        np.multiply(a[..., f_gate], c_all[t], out=c_all[t + 1])
        c_all[t + 1] += a[..., i_gate] * a[..., cell]
        np.tanh(c_all[t + 1], out=tanh_c[t])
        np.multiply(a[..., o_gate], tanh_c[t], out=h_all[t + 1])
    out = segments.from_time_major(h_all[1:], reverse)
    if not (z.requires_grad or w_h.requires_grad):
        return Tensor(out)

    def bw(g):
        gp = segments.time_major(g, reverse, zero_pad=True)
        gates = acts.reshape(steps, posts, 4, hidden)
        i_g, f_g, g_c, o_g = gates[:, :, 0], gates[:, :, 1], gates[:, :, 2], gates[:, :, 3]
        # dZ = [dc, dc, dc, dh] * scale, with each gate's local derivative folded in
        scale = np.stack([g_c * i_g * (1.0 - i_g),
                          c_all[:-1] * f_g * (1.0 - f_g),
                          i_g * (1.0 - g_c * g_c),
                          tanh_c * o_g * (1.0 - o_g)], axis=2)
        dc_dh = o_g * (1.0 - tanh_c * tanh_c)
        dz = np.empty((steps, posts, 4, hidden))
        dz_flat = dz.reshape(steps, posts, 4 * hidden)
        w_t = w.T
        dh_next = np.zeros((posts, hidden))
        dc_next = np.zeros((posts, hidden))
        for t in range(steps - 1, -1, -1):
            dh = gp[t] + dh_next
            dc = dh * dc_dh[t] + dc_next
            np.multiply(scale[t, ..., :3, :], dc[..., None, :], out=dz[t, ..., :3, :])
            np.multiply(scale[t, ..., 3, :], dh, out=dz[t, ..., 3, :])
            dc_next = dc * f_g[t]
            dh_next = dz_flat[t] @ w_t
        dw = None
        if w_h.requires_grad:
            dw = h_all[:-1].reshape(-1, hidden).T @ dz_flat.reshape(-1, 4 * hidden)
        return (segments.from_time_major(dz_flat, reverse) if z.requires_grad else None, dw)

    return Tensor(out, True, (z, w_h), bw)


def lstm_direction(inputs, params: LstmDirectionParams, hidden: int, reverse: bool,
                   segments: ad.Segments | None = None) -> Tensor:
    """One LSTM direction from zero states over every post of a chunk.

    The input GEMM runs once over all packed rows; only the recurrence sees
    post boundaries. `segments` defaults to one post of all the rows.
    """
    inputs = ad.as_tensor(inputs)
    segments = segments or ad.Segments([inputs.data.shape[0]])
    z = ad.linear(inputs, params.w_x, params.b)
    return _recurrence(z, params.w_h, hidden, segments, reverse)


def bilstm_layer(inputs, params: BiLstmParams, segments: ad.Segments | None = None) -> Tensor:
    """Both directions from zero states; output row t is [h_fwd(t), h_bwd(t)]."""
    inputs = ad.as_tensor(inputs)
    if inputs.data.ndim != 2 or inputs.data.shape[0] == 0:
        raise ShapeError(f"bilstm_layer needs a nonempty (L, f) input, got shape {inputs.data.shape}")
    if segments is not None and segments.rows != inputs.data.shape[0]:
        raise ShapeError(f"segments cover {segments.rows} rows, input has {inputs.data.shape[0]}")
    fwd = lstm_direction(inputs, params.forward, params.hidden, False, segments)
    bwd = lstm_direction(inputs, params.backward, params.hidden, True, segments)
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
    """Skip-connected text features: the embedding layer and both LSTM outputs."""

    embeddings: Tensor  # L x word_dim
    lstm1: Tensor       # L x 2h
    lstm2: Tensor       # L x 2h

    @property
    def levels(self) -> list[Tensor]:
        """The skip-connected text, read side by side: L x (word_dim + 4h) in all."""
        return [self.embeddings, self.lstm1, self.lstm2]


def encode_text(words: list[Token], table: WordEmbeddingTable, params: TextEncoderParams,
                segments: ad.Segments | None = None) -> EncodedText:
    """Embedding lookups and two stacked Bi-LSTM layers over a chunk's packed words.

    `words` holds every post's word tokens one post after another, as
    `segments` (default: one post) lays them out. The word rows are
    constants, so no gradient is computed for them.
    """
    if not words:
        raise ShapeError("encode_text needs at least one word token")
    x = Tensor(table.rows([t.surface for t in words]))
    h1 = bilstm_layer(x, params.layer1, segments)
    h2 = bilstm_layer(h1, params.layer2, segments)
    return EncodedText(embeddings=x, lstm1=h1, lstm2=h2)
