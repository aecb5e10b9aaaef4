"""Emoji co-occurrence graph embeddings and attention-based sentiment fusion.

The package splits into three layers: corpus and knowledge ingestion
(tokenization, sense inventory, co-occurrence graph), a small float64
autodiff engine, and the trained components built on it (graph autoencoder,
text encoder, attention fusion, convolutional classifier). The CLI in
`emofuse.cli` drives the full pipeline.
"""

from .autodiff import Tensor, grad_check
from .config import RunConfig, load_config
from .exceptions import (
    CheckpointError,
    ConfigError,
    CorpusError,
    EmofuseError,
    InventoryError,
    ShapeError,
    TrainingError,
)
from .graph import CoocGraph, build_cooc_graph, count_cooccurrences
from .model import SentimentModel, apply_ablation, build_model
from .pipeline import EvalReport, evaluate, train_classifier
from .senses import SenseInventory, load_emojinet
from .text_encoder import WordEmbeddingTable, positional_encoding
from .tokenization import RawPost, Token, TokenSequence, tokenize
from .vgae import EmojiEmbeddings, VgaeConfig, train_vgae

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "ConfigError",
    "CoocGraph",
    "CorpusError",
    "EmofuseError",
    "EmojiEmbeddings",
    "EvalReport",
    "InventoryError",
    "RawPost",
    "RunConfig",
    "SenseInventory",
    "SentimentModel",
    "ShapeError",
    "Tensor",
    "Token",
    "TokenSequence",
    "TrainingError",
    "VgaeConfig",
    "WordEmbeddingTable",
    "apply_ablation",
    "build_cooc_graph",
    "build_model",
    "count_cooccurrences",
    "evaluate",
    "grad_check",
    "load_config",
    "load_emojinet",
    "positional_encoding",
    "tokenize",
    "train_classifier",
    "train_vgae",
]
