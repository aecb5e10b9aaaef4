"""Hybrid attention: one self-attention unit over text, two co-attention units
across modalities.

All three units share one structure: scaled dot-product attention, a residual
into layer norm, a two-layer relu feed-forward block, and a second residual
into layer norm. The self-attention unit attends a sequence to itself; a
co-attention unit takes its queries from one modality and its keys and values
from the other, so the output keeps the query side's length. Fusion emits
three channels: the self-attended text, the emoji features conditioned on
text, and the text features conditioned on emojis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ShapeError

_MASK_OFFSET = -1e30  # exp underflows to exactly 0, so masked keys get weight 0


def scaled_dot_attention(q, k, v, mask=None) -> Tensor:
    """softmax(q k^T / sqrt(d)) v with optional key masking.

    `mask` is a boolean array over key positions; False keys receive exactly
    zero weight. Raises if every key is masked.
    """
    q, k, v = ad.as_tensor(q), ad.as_tensor(k), ad.as_tensor(v)
    if q.data.shape[1] != k.data.shape[1] or k.data.shape[0] != v.data.shape[0]:
        raise ShapeError(f"attention shapes incompatible: q {q.data.shape}, k {k.data.shape}, v {v.data.shape}")
    d = q.data.shape[1]
    scores = ad.mul(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(d))
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (k.data.shape[0],):
            raise ShapeError(f"mask shape {mask.shape} does not cover {k.data.shape[0]} keys")
        if not mask.any():
            raise ValueError("scaled_dot_attention: every key is masked")
        if not mask.all():
            scores = scores + np.where(mask, 0.0, _MASK_OFFSET)
    weights = ad.row_softmax(scores)
    return ad.matmul(weights, v)


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


def _feed_forward(x, p: AttentionUnitParams) -> Tensor:
    hidden = ad.relu(ad.matmul(x, p.ffn_w1) + p.ffn_b1)
    return ad.matmul(hidden, p.ffn_w2) + p.ffn_b2


def _attention_unit(query, context, p: AttentionUnitParams, context_mask=None) -> Tensor:
    attended = scaled_dot_attention(
        ad.matmul(query, p.wq), ad.matmul(context, p.wk), ad.matmul(context, p.wv),
        mask=context_mask,
    )
    a1 = ad.layer_norm(query + attended, p.norm1_gain, p.norm1_bias)
    return ad.layer_norm(a1 + _feed_forward(a1, p), p.norm2_gain, p.norm2_bias)


def self_attention_unit(x, p: AttentionUnitParams, mask=None) -> Tensor:
    """Attend a d-projected sequence to itself; output keeps its length."""
    x = ad.as_tensor(x)
    return _attention_unit(x, x, p, context_mask=mask)


def co_attention_unit(query_side, context_side, p: AttentionUnitParams, context_mask=None) -> Tensor:
    """Queries from one modality, keys/values from the other.

    The residual connects to the query side, so the output has the query
    side's length. With query_side == context_side this is exactly the
    self-attention unit.
    """
    return _attention_unit(ad.as_tensor(query_side), ad.as_tensor(context_side), p, context_mask)


@dataclass
class FusionParams:
    """Input projections plus the three attention units."""

    proj_text: Tensor   # stacked text dim x d
    proj_emoji: Tensor  # emoji dim x d
    proj_skip: Tensor   # lstm2 dim x d, used by the bypass wirings
    unit_text: AttentionUnitParams
    unit_emoji: AttentionUnitParams
    unit_cross: AttentionUnitParams

    @classmethod
    def create(cls, text_dim: int, emoji_dim: int, skip_dim: int, d: int, d_ff: int, rng) -> "FusionParams":
        return cls(
            proj_text=ad.parameter((text_dim, d), rng),
            proj_emoji=ad.parameter((emoji_dim, d), rng),
            proj_skip=ad.parameter((skip_dim, d), rng),
            unit_text=AttentionUnitParams.create(d, d_ff, rng),
            unit_emoji=AttentionUnitParams.create(d, d_ff, rng),
            unit_cross=AttentionUnitParams.create(d, d_ff, rng),
        )


@dataclass(frozen=True)
class FusionWiring:
    """Which attention paths are live; ablations flip these switches.

    use_emoji=False drops the emoji modality entirely (the cross channel
    degrades to the self-attended text). bypass_emoji replaces the
    text-conditioned emoji channel with projected raw emoji vectors;
    bypass_cross replaces the emoji-conditioned text channel with the
    projected second LSTM layer. self_attend_text=False feeds the projected
    stacked text straight through. emoji_reads_fused_text picks whether the
    emoji channel attends over the self-attended text or the raw projection.
    """

    use_emoji: bool = True
    self_attend_text: bool = True
    bypass_emoji: bool = False
    bypass_cross: bool = False
    emoji_reads_fused_text: bool = True


@dataclass
class FusedFeatures:
    """The classifier channels; `emoji` is None when the wiring drops it."""

    text: Tensor         # L x d, self-attended text
    emoji: Tensor | None  # N x d, text-conditioned emoji features
    cross: Tensor        # L x d, emoji-conditioned text features
    text_length: int
    emoji_length: int

    def channels(self) -> list[tuple[Tensor, int]]:
        out = [(self.text, self.text_length)]
        if self.emoji is not None:
            out.append((self.emoji, self.emoji_length))
        out.append((self.cross, self.text_length))
        return out


def fuse(stacked_text, lstm2, emoji_feats, emoji_raw, params: FusionParams,
         wiring: FusionWiring = FusionWiring(), text_mask=None, emoji_mask=None) -> FusedFeatures:
    """Produce the three classifier channels from both modalities.

    `stacked_text` is the skip-connected text matrix, `lstm2` its top LSTM
    level (feeding the bypass wiring), `emoji_feats` the position-encoded
    emoji rows and `emoji_raw` the same rows without position information.
    Masks flag valid positions when sequences carry right padding.
    """
    stacked_text = ad.as_tensor(stacked_text)
    text_len = stacked_text.data.shape[0]
    p_text = ad.matmul(stacked_text, params.proj_text)
    if wiring.self_attend_text:
        w_text = self_attention_unit(p_text, params.unit_text, mask=text_mask)
    else:
        w_text = p_text
    if not wiring.use_emoji:
        return FusedFeatures(text=w_text, emoji=None, cross=w_text,
                             text_length=text_len, emoji_length=0)
    emoji_feats = ad.as_tensor(emoji_feats)
    emoji_len = emoji_feats.data.shape[0]
    p_emoji = ad.matmul(emoji_feats, params.proj_emoji)
    if wiring.bypass_emoji:
        w_emoji = ad.matmul(ad.as_tensor(emoji_raw), params.proj_emoji)
    else:
        emoji_context = w_text if wiring.emoji_reads_fused_text else p_text
        w_emoji = co_attention_unit(p_emoji, emoji_context, params.unit_emoji, context_mask=text_mask)
    if wiring.bypass_cross:
        w_cross = ad.matmul(ad.as_tensor(lstm2), params.proj_skip)
    else:
        w_cross = co_attention_unit(p_text, p_emoji, params.unit_cross, context_mask=emoji_mask)
    return FusedFeatures(text=w_text, emoji=w_emoji, cross=w_cross,
                         text_length=text_len, emoji_length=emoji_len)
