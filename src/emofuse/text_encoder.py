"""Word-side and emoji-side input features.

The word side looks up pretrained vectors and runs two stacked bidirectional
LSTM layers. It returns the embedding layer and both LSTM outputs as three
levels, a skip connection that later stages read side by side without
building the concatenation. The emoji side's fixed sinusoidal positional
encoding is defined here too; the model adds it to each emoji's embedding
at the emoji's absolute position in the original mixed token stream.

Sequence features are stored time-major: shape (length, features). A chunk
of posts packs its posts' rows one after another in one matrix, laid out by
the caller's `autodiff.Segments`. Only the recurrence of each Bi-LSTM layer
sees the post boundaries: one tape node steps both directions together,
with every gate computed by one tanh (sigmoid(x) = tanh(x / 2) / 2 + 1 / 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ShapeError
from .tokenization import Token
from .vectors import VectorTable


WordEmbeddingTable = VectorTable  # word -> pretrained vector; unknown words read as zero rows


PE_BASE = 1000.0  # the positional encoding's wavelength base


def positional_encoding(pos, d_model: int) -> np.ndarray:
    """Sinusoidal position vectors of shape pos.shape + (d_model,), for a position or an array of them.

    Entry 2i is sin(pos / PE_BASE^(2i / d_model)) and entry 2i+1 the
    matching cos. The denominators are Python float powers: numpy's array
    power can round their last bits differently.
    """
    if d_model % 2 != 0:
        raise ValueError(f"d_model must be even, got {d_model}")
    pos = np.asarray(pos, dtype=np.float64)
    if (pos < 0).any():
        raise ValueError(f"pos must be >= 0, got {pos.min()}")
    angles = pos[..., None] / np.array([PE_BASE ** (2 * i / d_model) for i in range(d_model // 2)])
    out = np.empty(pos.shape + (d_model,), dtype=np.float64)
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
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


def bilstm_layer(inputs: Tensor, params: BiLstmParams, segments: ad.Segments) -> Tensor:
    """Both directions from zero states; output row t is [h_fwd(t), h_bwd(t)].

    Each direction's input GEMM z = x W_x + b runs once over all packed
    rows. One tape node runs both recurrences, the only part that sees post
    boundaries (`segments`): one (2, posts, h) @ (2, h, 4h) GEMM per time
    step, the backward direction from each post's own end. Steps past a
    post's end come after all of its own, so they change none of its
    outputs and get exactly zero gradient. With the i, f, o columns of z
    and W_h halved once (exact), every gate is tanh(z) * half + shift:
    sigmoid(x) = tanh(x / 2) / 2 + 1 / 2 on i, f, o. Backward runs BPTT for
    both directions in one reverse loop to dZ, so each W_h gradient is one
    GEMM.
    """
    if inputs.data.ndim != 2 or inputs.data.shape[0] == 0:
        raise ShapeError(f"bilstm_layer needs a nonempty (L, f) input, got shape {inputs.data.shape}")
    if segments.rows != inputs.data.shape[0]:
        raise ShapeError(f"segments cover {segments.rows} rows, input has {inputs.data.shape[0]}")
    z_fwd = ad.linear(inputs, params.forward.w_x, params.forward.b)
    z_bwd = ad.linear(inputs, params.backward.w_x, params.backward.b)
    hidden, w_f, w_b = params.hidden, params.forward.w_h, params.backward.w_h
    half = np.array([0.5, 0.5, 1.0, 0.5]).repeat(hidden)  # gates i, f, g, o: g stays a tanh
    shift = 1.0 - half
    steps, posts = segments.width, segments.count
    acts = np.empty((steps, 2, posts, 4 * hidden))  # halved z, then the gates
    np.multiply(segments.time_major(z_fwd.data, False), half, acts[:, 0])
    np.multiply(segments.time_major(z_bwd.data, True), half, acts[:, 1])
    w = np.array([w_f.data, w_b.data]) * half
    h_all = np.zeros((steps + 1, 2, posts, hidden))  # h_all[t] is h_{t-1}
    c_all = np.zeros((steps + 1, 2, posts, hidden))  # c_all[t] is c_{t-1}
    tanh_c = np.empty((steps, 2, posts, hidden))
    i_g, f_g, g_c, o_g = (acts[..., k * hidden:(k + 1) * hidden] for k in range(4))
    # zip hands out each step's views, and ufuncs take `out` by position: both cost less
    for a, h, c, c_next, tc, h_next, i, f, g, o in zip(acts, h_all, c_all, c_all[1:], tanh_c,
                                                      h_all[1:], i_g, f_g, g_c, o_g):
        a += np.matmul(h, w)
        np.tanh(a, a)
        np.multiply(a, half, a)
        np.add(a, shift, a)
        np.multiply(f, c, c_next)
        c_next += i * g
        np.tanh(c_next, tc)
        np.multiply(o, tc, h_next)
    out = np.concatenate([segments.from_time_major(h_all[1:, 0], False),
                          segments.from_time_major(h_all[1:, 1], True)], axis=1)
    parents = (z_fwd, z_bwd, w_f, w_b)
    def bw(g):
        gp = np.empty((steps, 2, posts, hidden))
        gp[:, 0] = segments.time_major(g[:, :hidden], False, zero_pad=True)
        gp[:, 1] = segments.time_major(g[:, hidden:], True, zero_pad=True)
        # dZ = [dc, dc, dc, dh] * scale, with each gate's local derivative folded in
        scale = np.stack([g_c * i_g * (1.0 - i_g), c_all[:-1] * f_g * (1.0 - f_g),
                          i_g * (1.0 - g_c * g_c), tanh_c * o_g * (1.0 - o_g)], axis=3)
        dc_dh = o_g * (1.0 - tanh_c * tanh_c)
        dz = np.empty((steps, 2, posts, 4, hidden))
        dz_flat = dz.reshape(steps, 2, posts, 4 * hidden)
        w_t = np.array([w_f.data.T, w_b.data.T])
        dh_next = dc_next = np.zeros((2, posts, hidden))
        scale_c, scale_h, dz_c, dz_h = scale[..., :3, :], scale[..., 3, :], dz[..., :3, :], dz[..., 3, :]
        for g_t, dc_dh_t, f, sc, sh, dzc, dzh, dz_t in zip(gp[::-1], dc_dh[::-1], f_g[::-1], scale_c[::-1],
                                                           scale_h[::-1], dz_c[::-1], dz_h[::-1], dz_flat[::-1]):
            dh = g_t + dh_next
            dc = dh * dc_dh_t
            dc += dc_next
            np.multiply(sc, dc[..., None, :], dzc)
            np.multiply(sh, dh, dzh)
            dc_next = dc * f
            dh_next = np.matmul(dz_t, w_t)
        dw = [h_all[:-1, d].reshape(-1, hidden).T @ dz_flat[:, d].reshape(-1, 4 * hidden)
              if w_d.requires_grad else None for d, w_d in enumerate((w_f, w_b))]
        return (segments.from_time_major(dz_flat[:, 0], False) if z_fwd.requires_grad else None,
                segments.from_time_major(dz_flat[:, 1], True) if z_bwd.requires_grad else None, *dw)

    return ad.node(out, parents, bw)


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


def encode_text(words: list[Token], table: WordEmbeddingTable, params: TextEncoderParams,
                segments: ad.Segments) -> list[Tensor]:
    """Embedding lookups and two stacked Bi-LSTM layers over a chunk's packed words.

    `words` holds every post's word tokens one post after another, as
    `segments` lays them out. Returns the skip-connected text as its levels
    [embeddings, lstm1, lstm2], L x word_dim, L x 2h and L x 2h, read side
    by side. The word rows are constants, so no gradient is computed for
    them.
    """
    x = Tensor(table.rows([t.surface for t in words]))
    h1 = bilstm_layer(x, params.layer1, segments)
    h2 = bilstm_layer(h1, params.layer2, segments)
    return [x, h1, h2]
