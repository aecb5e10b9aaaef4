"""End-to-end sentiment model: text encoder, attention fusion, classifier.

The model owns every trainable parameter plus two frozen inputs: the
pretrained word table and the emoji embedding table, which the model keeps
scaled to unit root-mean-square. Both are constants on the tape: no
gradient is computed for them and the optimizer never sees them.
There is one forward path, over a chunk of posts whose word rows and emoji
rows are each packed into one matrix; a single post is a one-post chunk.
The config's `ablation` selects one row of `attention.ABLATIONS`; the model
allocates and trains only the tensors that wiring reads, so a checkpoint
stores only those.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import ABLATIONS, FusionParams, fuse
from .autodiff import Tensor
from .config import RunConfig
from .exceptions import ConfigError
from .text_encoder import (
    TextEncoderParams,
    WordEmbeddingTable,
    encode_text,
    positional_encoding,
)
from .textcnn import TextCnnParams, classify_logits
from .tokenization import Token, TokenSequence, WORD, split_modalities
from .vgae import EmojiEmbeddings


@dataclass
class ModelParams:
    encoder: TextEncoderParams
    no_emoji: Tensor | None  # 1 x emoji_dim, learned placeholder for emoji-free posts; None under `N`
    fusion: FusionParams
    cnn: TextCnnParams


class SentimentModel:
    """One trainable classifier instance bound to its frozen feature tables."""

    def __init__(self, config: RunConfig, word_table: WordEmbeddingTable,
                 embeddings: EmojiEmbeddings, rng):
        config.validate()
        emoji_dim = embeddings.dimension
        if emoji_dim % 2:
            raise ConfigError(f"the emoji table has odd dimension {emoji_dim}; "
                              "positional encoding needs an even one")
        self.config = config
        self.word_table = word_table
        # Frozen, off the tape, and scaled to unit root-mean-square: the
        # positional encoding added to each row has entries in [-1, 1], and
        # VGAE posterior means can be a hundred times smaller than that, so
        # the emoji that decides a label would drown in its position. An
        # all-zero table stays as it is.
        vectors = embeddings.vectors
        rms = np.sqrt(np.vdot(vectors, vectors) / vectors.size) if vectors.size else 0.0
        self.emoji_table = EmojiEmbeddings(embeddings.ids, vectors / rms if rms > 0.0 else vectors.copy())
        wiring = ABLATIONS[config.ablation]
        h = config.lstm_hidden
        word_dim = word_table.dimension
        self.params = ModelParams(
            encoder=TextEncoderParams.create(word_dim, h, rng),
            no_emoji=ad.parameter((1, emoji_dim), rng) if wiring.use_emoji else None,
            fusion=FusionParams.create(
                text_dim=word_dim + 4 * h,
                emoji_dim=emoji_dim,
                skip_dim=2 * h,
                d=config.fusion_dim,
                d_ff=config.ffn_dim,
                rng=rng,
                wiring=wiring,
            ),
            cnn=TextCnnParams.create(
                num_channels=3 if wiring.use_emoji else 2,
                d=config.fusion_dim,
                kernel_sizes=config.kernel_sizes,
                filters=config.filters,
                num_classes=config.num_classes,
                rng=rng,
            ),
        )

    def split(self, seq: TokenSequence) -> tuple[list[Token], list[Token]]:
        """One post's word and emoji tokens within max_len; never without a word.

        An emoji-only post gets a single empty word, which reads as a zero
        embedding row.
        """
        words, emojis = split_modalities(seq.tokens[: self.config.max_len])
        return words or [Token(kind=WORD, surface="", position=0)], emojis

    @functools.cached_property
    def _positions(self) -> np.ndarray:
        """Row p is positional_encoding(p) for p < max_len, built on first use."""
        return positional_encoding(np.arange(self.config.max_len), self.emoji_table.dimension)

    def _emoji_rows(self, chunk: list[list[Token]]) -> tuple[Tensor, Tensor, ad.Segments]:
        """Position-encoded and raw emoji rows of each post, packed, and their layout.

        The rows are constants except where an emoji-free post has the
        learned `no_emoji` row (without position information) instead; an
        unknown emoji keeps a zero raw row.
        """
        segments = ad.Segments([len(emojis) or 1 for emojis in chunk])
        if len(chunk) == 1 and not chunk[0]:
            return self.params.no_emoji, self.params.no_emoji, segments
        tokens = [token for emojis in chunk for token in emojis or [None]]  # None: a placeholder row
        raw_rows = Tensor(self.emoji_table.rows([t and t.surface for t in tokens]))
        pe = self._positions[[t.position if t else 0 for t in tokens]]
        if None in tokens:  # 0 + 1 * no_emoji and x + 0 * no_emoji are exact
            placeholder = np.array([t is None for t in tokens])
            pe[placeholder] = 0.0
            raw_rows = raw_rows + ad.mul(placeholder[:, None] * 1.0, self.params.no_emoji)
        return raw_rows + pe, raw_rows, segments

    def forward_logits(self, posts: list[TokenSequence]) -> Tensor:
        """Class scores (posts, classes) for a chunk of tokenized posts."""
        parts = [self.split(seq) for seq in posts]
        words = [token for post_words, _ in parts for token in post_words]
        text_segments = ad.Segments([len(post_words) for post_words, _ in parts])
        levels = encode_text(words, self.word_table, self.params.encoder, text_segments)
        emoji_feats = emoji_raw = emoji_segments = None
        if self.params.fusion.wiring.use_emoji:
            emoji_feats, emoji_raw, emoji_segments = self._emoji_rows([emojis for _, emojis in parts])
        channels = fuse(levels, levels[2], emoji_feats, emoji_raw, self.params.fusion,
                        text_segments, emoji_segments)
        return classify_logits(channels, self.params.cnn)

    def predict(self, seq: TokenSequence) -> int:
        return int(self.forward_logits([seq]).data.argmax())
