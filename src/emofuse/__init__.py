"""Emoji co-occurrence graph embeddings and attention-based sentiment fusion.

The package splits into three layers: corpus and knowledge ingestion
(tokenization, sense inventory, co-occurrence graph), a small float64
autodiff engine, and the trained components built on it (graph autoencoder,
text encoder, attention fusion, convolutional classifier). The CLI in
`emofuse.cli` drives the full pipeline.

Importing the package before numpy pins OpenBLAS to one thread, unless
OPENBLAS_NUM_THREADS is already set: some matrix products give other bits
at another thread count, so byte-identical reruns need a fixed one.
Training runs matrix products on up to two Python threads (a backward
rule's input and weight gradients, when both are large), each product one
OpenBLAS call of that count, so the bits do not depend on the pairing.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .attention import ABLATIONS
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
from .model import SentimentModel
from .pipeline import EvalReport, evaluate, train_classifier
from .senses import SenseInventory, load_emojinet
from .text_encoder import WordEmbeddingTable, positional_encoding
from .tokenization import RawPost, Token, TokenSequence, tokenize
from .vgae import EmojiEmbeddings, VgaeConfig, train_vgae

__version__ = "0.1.0"

__all__ = [
    "ABLATIONS",
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
    "build_cooc_graph",
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
