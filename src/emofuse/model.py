"""End-to-end sentiment model: text encoder, attention fusion, classifier.

The model owns every trainable parameter plus two frozen inputs: the
pretrained word table and the emoji embedding matrix. Both are constants on
the tape: no gradient is computed for them and the optimizer never sees them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import FusionParams, FusionWiring, FusedFeatures, fuse
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


def apply_ablation(selector: str, emoji_reads_fused_text: bool = True) -> FusionWiring:
    """Map an ablation selector to the fusion wiring it induces."""
    if selector == "full":
        return FusionWiring(emoji_reads_fused_text=emoji_reads_fused_text)
    if selector == "N":
        return FusionWiring(use_emoji=False, emoji_reads_fused_text=emoji_reads_fused_text)
    if selector in ("T", "RA2"):
        return FusionWiring(bypass_emoji=True, emoji_reads_fused_text=emoji_reads_fused_text)
    if selector in ("E", "RA3"):
        return FusionWiring(bypass_cross=True, emoji_reads_fused_text=emoji_reads_fused_text)
    if selector == "RA1":
        return FusionWiring(self_attend_text=False, emoji_reads_fused_text=emoji_reads_fused_text)
    raise ConfigError(f"unknown ablation selector {selector!r}")


@dataclass
class ModelParams:
    encoder: TextEncoderParams
    no_emoji: Tensor  # 1 x emoji_dim, learned placeholder for emoji-free posts
    fusion: FusionParams
    cnn: TextCnnParams

    def as_list(self):
        return (self.encoder.as_list() + [self.no_emoji]
                + self.fusion.as_list() + self.cnn.as_list())

    def named(self) -> dict[str, np.ndarray]:
        names = self._names()
        tensors = self.as_list()
        return {name: t.data for name, t in zip(names, tensors)}

    def _names(self) -> list[str]:
        names = []
        for layer in ("lstm1", "lstm2"):
            for direction in ("fwd", "bwd"):
                for part in ("wx", "wh", "b"):
                    names.append(f"encoder.{layer}.{direction}.{part}")
        names.append("no_emoji")
        names.extend(["fusion.proj_text", "fusion.proj_emoji", "fusion.proj_skip"])
        unit_parts = ("wq", "wk", "wv", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2",
                      "norm1_gain", "norm1_bias", "norm2_gain", "norm2_bias")
        for unit in ("unit_text", "unit_emoji", "unit_cross"):
            names.extend(f"fusion.{unit}.{part}" for part in unit_parts)
        for c, channel in enumerate(self.cnn.banks):
            for bank in channel:
                names.append(f"cnn.ch{c}.k{bank.width}.kernels")
                names.append(f"cnn.ch{c}.k{bank.width}.bias")
        names.extend(["cnn.dense_w", "cnn.dense_b"])
        return names


class SentimentModel:
    """One trainable classifier instance bound to its frozen feature tables."""

    def __init__(self, config: RunConfig, word_table: WordEmbeddingTable,
                 embeddings: EmojiEmbeddings, rng):
        config.validate()
        self.config = config
        self.word_table = word_table
        self.embedding_ids = list(embeddings.ids)
        self._emoji_index = {e: i for i, e in enumerate(self.embedding_ids)}
        self.emoji_matrix = Tensor(embeddings.vectors.copy())  # frozen, off the tape
        self.emoji_dim = embeddings.vectors.shape[1]
        self.wiring = apply_ablation(config.ablation, config.emoji_reads_fused_text)
        h = config.lstm_hidden
        word_dim = word_table.dimension
        self.params = ModelParams(
            encoder=TextEncoderParams.create(word_dim, h, rng),
            no_emoji=ad.parameter((1, self.emoji_dim), rng),
            fusion=FusionParams.create(
                text_dim=word_dim + 4 * h,
                emoji_dim=self.emoji_dim,
                skip_dim=2 * h,
                d=config.fusion_dim,
                d_ff=config.ffn_dim,
                rng=rng,
            ),
            cnn=TextCnnParams.create(
                num_channels=2 if not self.wiring.use_emoji else 3,
                d=config.fusion_dim,
                kernel_sizes=config.kernel_sizes,
                filters=config.filters,
                num_classes=config.num_classes,
                rng=rng,
            ),
        )

    def trainable(self) -> list[Tensor]:
        return self.params.as_list()

    def _emoji_rows(self, emojis: list[Token]) -> tuple[Tensor, Tensor]:
        """Position-encoded rows and raw embedding rows; constants unless no emoji stands in."""
        if not emojis:
            return self.params.no_emoji, self.params.no_emoji
        raw_rows = []
        zero_row = Tensor(np.zeros((1, self.emoji_dim)))
        for token in emojis:
            row_index = self._emoji_index.get(token.surface)
            if row_index is None:
                raw_rows.append(zero_row)
            else:
                raw_rows.append(self.emoji_matrix[row_index:row_index + 1])
        raw = ad.concat(raw_rows, axis=0) if len(raw_rows) > 1 else raw_rows[0]
        pe = np.stack([
            positional_encoding(t.position, self.emoji_dim, self.config.pe_base)
            for t in emojis
        ])
        return raw + pe, raw

    def fused_features(self, seq: TokenSequence) -> FusedFeatures:
        """The attention channels for one tokenized post."""
        words, emojis = split_modalities(seq.tokens[: self.config.max_len])
        if not words:
            # emoji-only post: a single zero-embedding row stands in for text
            words = [Token(kind=WORD, surface="", position=0)]
        encoded = encode_text(words, self.word_table, self.params.encoder)
        emoji_feats, emoji_raw = self._emoji_rows(emojis) if self.wiring.use_emoji else (None, None)
        return fuse(encoded.stacked, encoded.lstm2, emoji_feats, emoji_raw,
                    self.params.fusion, self.wiring)

    def forward_logits(self, seq: TokenSequence) -> Tensor:
        """Class scores for one tokenized post."""
        fused = self.fused_features(seq)
        return classify_logits(fused.channels(), self.params.cnn)

    def predict(self, seq: TokenSequence) -> int:
        return int(self.forward_logits(seq).data.argmax())

    # --- persistence ---------------------------------------------------------

    def state_tensors(self) -> dict[str, np.ndarray]:
        tensors = dict(self.params.named())
        tensors["emoji_matrix"] = self.emoji_matrix.data
        return tensors

    def load_state(self, tensors: dict[str, np.ndarray]):
        named = self.params.named()
        missing = sorted(set(named) - set(tensors))
        if missing:
            raise ConfigError(f"checkpoint missing tensors: {', '.join(missing[:5])}")
        for name, current in zip(self.params._names(), self.params.as_list()):
            stored = tensors[name]
            if stored.shape != current.data.shape:
                raise ConfigError(
                    f"checkpoint tensor {name} has shape {stored.shape}, expected {current.data.shape}")
            current.data = stored.copy()
        if "emoji_matrix" in tensors:
            if tensors["emoji_matrix"].shape != self.emoji_matrix.data.shape:
                raise ConfigError("checkpoint emoji matrix shape mismatch")
            self.emoji_matrix.data = tensors["emoji_matrix"].copy()


def build_model(config: RunConfig, word_table: WordEmbeddingTable,
                embeddings: EmojiEmbeddings, seed: int | None = None) -> SentimentModel:
    rng = np.random.default_rng(config.seed if seed is None else seed)
    return SentimentModel(config, word_table, embeddings, rng)
