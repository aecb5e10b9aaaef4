"""Hybrid attention: one self-attention unit over text, two co-attention units
across modalities.

All three units share one structure: scaled dot-product attention, a residual
into layer norm, a two-layer relu feed-forward block, and a second residual
into layer norm. The self-attention unit attends a sequence to itself; a
co-attention unit takes its queries from one modality and its keys and values
from the other, so the output keeps the query side's length; each takes
its caller's `Segments` layouts, so a chunk's posts attend within
themselves. Fusion reads the encoder's text levels and emits three
channels: the self-attended text, the emoji features conditioned on text,
and the text features conditioned on emojis, as the `ABLATIONS` row of a
selector wires them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ShapeError

_MASK_OFFSET = -1e30  # exp underflows to exactly 0, so masked keys get weight 0


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, q_segments: ad.Segments,
                         k_segments: ad.Segments, mask=None) -> Tensor:
    """softmax(q k^T / sqrt(d)) v within each post of a chunk, as one tape node.

    q packs every post's query rows and k, v its key rows, laid out by
    `q_segments` and `k_segments`; a query attends only to its own post's
    keys. `mask` (posts, key width), or (keys,) for one post, replaces the
    key mask the key layout implies: False keys get exactly zero weight.
    Raises if a post has every key masked. Backward gathers the padded q,
    k and v again instead of keeping copies.
    """
    if q.data.shape[1] != k.data.shape[1] or k.data.shape[0] != v.data.shape[0]:
        raise ShapeError(f"attention shapes incompatible: q {q.data.shape}, k {k.data.shape}, v {v.data.shape}")
    if (q_segments.count != k_segments.count or q_segments.rows != q.data.shape[0]
            or k_segments.rows != k.data.shape[0]):
        raise ShapeError(f"attention segments ({q_segments.count} posts over {q_segments.rows} query rows, "
                         f"{k_segments.count} over {k_segments.rows} key rows) do not fit q {q.data.shape}, "
                         f"k {k.data.shape}")
    single = q_segments.count == 1  # 2-D arrays, nothing gathered
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).reshape(k_segments.count, -1)
        if mask.shape != (k_segments.count, k_segments.width):
            raise ShapeError(f"mask shape {mask.shape} does not cover {k_segments.width} keys")
        if not mask.any(axis=1).all():
            raise ValueError("scaled_dot_attention: every key of a post is masked")
    elif not single:
        mask = k_segments.mask
    scale = 1.0 / np.sqrt(q.data.shape[1])

    def gather():
        return q_segments.padded(q.data), k_segments.padded(k.data), k_segments.padded(v.data)

    qp, kp, vp = gather()
    scores = (qp @ kp.swapaxes(-1, -2)) * scale
    if mask is not None and not mask.all():
        scores += np.where(mask, 0.0, _MASK_OFFSET)[0 if single else slice(None), None]
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    data = q_segments.packed(weights @ vp)
    def bw(g):
        qp, kp, vp = gather()
        gp = q_segments.padded(g, zero_pad=True)
        d_w = gp @ vp.swapaxes(-1, -2)
        d_s = weights * (d_w - (d_w * weights).sum(axis=-1, keepdims=True)) * scale
        return (q_segments.packed(d_s @ kp) if q.requires_grad else None,
                k_segments.packed(d_s.swapaxes(-1, -2) @ qp) if k.requires_grad else None,
                k_segments.packed(weights.swapaxes(-1, -2) @ gp) if v.requires_grad else None)

    return ad.node(data, (q, k, v), bw)


@dataclass
class AttentionUnitParams:
    """Projections, feed-forward weights, and the two layer-norm pairs of one unit."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    norm1_gain: Tensor
    norm1_bias: Tensor
    norm2_gain: Tensor
    norm2_bias: Tensor

    @classmethod
    def create(cls, d: int, d_ff: int, rng) -> "AttentionUnitParams":
        return cls(
            wq=ad.parameter((d, d), rng),
            wk=ad.parameter((d, d), rng),
            wv=ad.parameter((d, d), rng),
            ffn_w1=ad.parameter((d, d_ff), rng),
            ffn_b1=ad.zeros_parameter((d_ff,)),
            ffn_w2=ad.parameter((d_ff, d), rng),
            ffn_b2=ad.zeros_parameter((d,)),
            norm1_gain=ad.ones_parameter((d,)),
            norm1_bias=ad.zeros_parameter((d,)),
            norm2_gain=ad.ones_parameter((d,)),
            norm2_bias=ad.zeros_parameter((d,)),
        )


def self_attention_unit(x, p: AttentionUnitParams, segments: ad.Segments) -> Tensor:
    """Attend each post of a d-projected chunk to itself; the output keeps its rows."""
    return co_attention_unit(x, x, p, segments, segments)


def co_attention_unit(query_side, context_side, p: AttentionUnitParams, query_segments: ad.Segments,
                      context_segments: ad.Segments) -> Tensor:
    """Queries from one modality, keys/values from the other.

    The residual connects to the query side, so the output has the query
    side's rows. In a chunk, post i's queries read post i's context.
    """
    attended = scaled_dot_attention(ad.linear(query_side, p.wq), ad.linear(context_side, p.wk),
                                    ad.linear(context_side, p.wv), query_segments, context_segments)
    a1 = ad.layer_norm(attended, p.norm1_gain, p.norm1_bias, query_side)
    hidden = ad.linear(a1, p.ffn_w1, p.ffn_b1, relu=True)
    return ad.layer_norm(ad.linear(hidden, p.ffn_w2, p.ffn_b2), p.norm2_gain, p.norm2_bias, a1)


@dataclass(frozen=True)
class FusionWiring:
    """Which attention paths are live; each ablation is one row of `ABLATIONS`.

    use_emoji=False drops the emoji modality entirely (the cross channel
    degrades to the self-attended text). bypass_emoji replaces the
    text-conditioned emoji channel with projected raw emoji vectors;
    bypass_cross replaces the emoji-conditioned text channel with the
    projected second LSTM layer. self_attend_text=False feeds the projected
    stacked text straight through. The emoji channel attends over the
    self-attended text.
    """

    use_emoji: bool = True
    self_attend_text: bool = True
    bypass_emoji: bool = False
    bypass_cross: bool = False


# The one map from an ablation selector to its wiring: seven names, five rows.
_BYPASS_EMOJI, _BYPASS_CROSS = FusionWiring(bypass_emoji=True), FusionWiring(bypass_cross=True)
ABLATIONS = {
    "full": FusionWiring(),
    "N": FusionWiring(use_emoji=False),
    "T": _BYPASS_EMOJI,
    "E": _BYPASS_CROSS,
    "RA1": FusionWiring(self_attend_text=False),
    "RA2": _BYPASS_EMOJI,
    "RA3": _BYPASS_CROSS,
}


@dataclass
class FusionParams:
    """Input projections and attention units, only those `wiring` reads.

    The rest are None, so they are neither trained nor checkpointed.
    """

    proj_text: Tensor                      # stacked text dim x d
    proj_emoji: Tensor | None              # emoji dim x d
    proj_skip: Tensor | None               # lstm2 dim x d, the cross bypass
    unit_text: AttentionUnitParams | None
    unit_emoji: AttentionUnitParams | None
    unit_cross: AttentionUnitParams | None
    wiring: FusionWiring

    @classmethod
    def create(cls, text_dim: int, emoji_dim: int, skip_dim: int, d: int, d_ff: int, rng,
               wiring: FusionWiring) -> "FusionParams":
        emoji = wiring.use_emoji

        def unit(live):
            return AttentionUnitParams.create(d, d_ff, rng) if live else None

        return cls(
            proj_text=ad.parameter((text_dim, d), rng),
            proj_emoji=ad.parameter((emoji_dim, d), rng) if emoji else None,
            proj_skip=ad.parameter((skip_dim, d), rng) if emoji and wiring.bypass_cross else None,
            unit_text=unit(wiring.self_attend_text),
            unit_emoji=unit(emoji and not wiring.bypass_emoji),
            unit_cross=unit(emoji and not wiring.bypass_cross),
            wiring=wiring,
        )


def fuse(levels: list[Tensor], lstm2, emoji_feats, emoji_raw, params: FusionParams,
         text_segments: ad.Segments, emoji_segments: ad.Segments | None) -> list[tuple[Tensor, ad.Segments]]:
    """The classifier channels from both modalities, wired as `params.wiring` says.

    `levels` is the skip-connected text (the embedding rows and both LSTM
    outputs), projected block by block so their concatenation is never
    built. `lstm2` is the top level (feeding the bypass wiring),
    `emoji_feats` the position-encoded emoji rows and `emoji_raw` the same
    rows without position information; all emoji inputs are None when the
    wiring drops emojis. Text and emoji rows pack a chunk's posts as the
    two layouts say. The wiring is the params' own, never another's.
    Returns (matrix, layout) pairs, packed like the chunk: the
    self-attended text, the text-conditioned emoji features and the
    emoji-conditioned text, or the text channel twice when the wiring
    drops emojis.
    """
    wiring = params.wiring
    p_text = ad.linear(levels, params.proj_text)
    if wiring.self_attend_text:
        w_text = self_attention_unit(p_text, params.unit_text, text_segments)
    else:
        w_text = p_text
    if not wiring.use_emoji:
        return [(w_text, text_segments), (w_text, text_segments)]
    p_emoji = ad.linear(emoji_feats, params.proj_emoji)
    if wiring.bypass_emoji:
        w_emoji = ad.linear(emoji_raw, params.proj_emoji)
    else:
        w_emoji = co_attention_unit(p_emoji, w_text, params.unit_emoji, emoji_segments, text_segments)
    if wiring.bypass_cross:
        w_cross = ad.linear(lstm2, params.proj_skip)
    else:
        w_cross = co_attention_unit(p_text, p_emoji, params.unit_cross, text_segments, emoji_segments)
    return [(w_text, text_segments), (w_emoji, emoji_segments), (w_cross, text_segments)]
