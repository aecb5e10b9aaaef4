"""Weighted, attributed emoji co-occurrence graph.

Every post contributes one count to every unordered pair of distinct emojis
it contains, so a post with n unique emojis forms an n-clique. Edge weights
multiply that pair count by the cosine similarity of the two emojis' TF-IDF
sense vectors; node attributes are the averaged keyword word vectors.
"""

from __future__ import annotations

import logging
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

import numpy as np

from .exceptions import CorpusError
from .senses import SenseInventory, cosine_similarity, node_attribute, tfidf_sense_vectors
from .tokenization import EMOJI, TokenSequence
from .vectors import read_vector_table, write_vector_table

logger = logging.getLogger("emofuse")


@dataclass
class CoocCounts:
    """Shard-mergeable co-occurrence statistics.

    `pairs` counts posts containing each unordered emoji pair; `occurrences`
    counts posts containing each emoji at least once.
    """

    pairs: Counter = field(default_factory=Counter)
    occurrences: Counter = field(default_factory=Counter)
    posts: int = 0

    def merge(self, other: "CoocCounts") -> "CoocCounts":
        merged = CoocCounts()
        merged.pairs = self.pairs + other.pairs
        merged.occurrences = self.occurrences + other.occurrences
        merged.posts = self.posts + other.posts
        return merged


def count_cooccurrences(posts: Iterable[TokenSequence]) -> CoocCounts:
    """Count unique-emoji pairs per post; single-emoji posts still register nodes."""
    counts = CoocCounts()
    for seq in posts:
        counts.posts += 1
        unique = sorted({s for k, s in zip(seq.kinds, seq.surfaces) if k == EMOJI})
        for emoji in unique:
            counts.occurrences[emoji] += 1
        for a, b in combinations(unique, 2):
            counts.pairs[(a, b)] += 1
    return counts


@dataclass
class CoocGraph:
    node_ids: list[str]
    pair_counts: dict[tuple[int, int], int]  # keyed (i, j) with i < j
    adjacency: np.ndarray  # N x N symmetric, zero diagonal
    attributes: np.ndarray  # N x word_dim
    occurrences: dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.node_ids)

    def index(self, emoji: str) -> int | None:
        try:
            return self.node_ids.index(emoji)
        except ValueError:
            return None


def build_adjacency(pair_counts, sense_vectors, node_ids) -> np.ndarray:
    """Edge weight = cosine(sense vectors) * pair count; symmetric, zero diagonal."""
    n = len(node_ids)
    index = {e: i for i, e in enumerate(node_ids)}
    a = np.zeros((n, n), dtype=np.float64)
    for (e1, e2), count in pair_counts.items():
        if e1 not in index or e2 not in index:
            continue
        i, j = index[e1], index[e2]
        if i == j:
            continue
        weight = cosine_similarity(sense_vectors.get(e1, {}), sense_vectors.get(e2, {})) * count
        a[i, j] = weight
        a[j, i] = weight
    return a


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric normalization with self-loops: D^(-1/2) (A + I) D^(-1/2)."""
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    with_loops = a + np.eye(a.shape[0])
    inv_sqrt = 1.0 / np.sqrt(with_loops.sum(axis=1))
    return with_loops * inv_sqrt[:, None] * inv_sqrt[None, :]


def binarize_edges(adjacency: np.ndarray) -> np.ndarray:
    """Reconstruction target: 1 where weight > 0 plus 1 on the diagonal."""
    binary = (np.asarray(adjacency) > 0).astype(np.float64)
    np.fill_diagonal(binary, 1.0)
    return binary


def build_cooc_graph(counts: CoocCounts, inventory: SenseInventory, word_table,
                     min_pair_count: int = 1) -> CoocGraph:
    """Assemble the graph from counts; node order is sorted for determinism.

    Emojis absent from the inventory stay in the graph with zero attributes
    and zero-similarity (hence zero-weight) edges.
    """
    node_ids = sorted(counts.occurrences)
    sense_vectors = tfidf_sense_vectors(inventory)
    index = {e: i for i, e in enumerate(node_ids)}
    kept_pairs = {
        pair: c for pair, c in counts.pairs.items() if c >= min_pair_count
    }
    adjacency = build_adjacency(kept_pairs, sense_vectors, node_ids)
    dim = word_table.dimension
    attributes = np.zeros((len(node_ids), dim), dtype=np.float64)
    for emoji, i in index.items():
        entry = inventory.get(emoji)
        if entry is not None:
            attributes[i] = node_attribute(entry, word_table)
    pair_counts = {
        (index[a], index[b]) if index[a] < index[b] else (index[b], index[a]): c
        for (a, b), c in kept_pairs.items()
    }
    logger.info("graph: %d nodes, %d weighted pairs from %d posts",
                len(node_ids), len(pair_counts), counts.posts)
    return CoocGraph(
        node_ids=node_ids,
        pair_counts=pair_counts,
        adjacency=adjacency,
        attributes=attributes,
        occurrences=dict(counts.occurrences),
    )


# --- persistence -------------------------------------------------------------
#
# nodes.txt       one emoji id per line; line order defines matrix indices
# edges.tsv       i <tab> j <tab> pair_count <tab> weight, with i < j
# attributes.txt  node attribute matrix in the embedding text format

NODES_FILE = "nodes.txt"
EDGES_FILE = "edges.tsv"
ATTRIBUTES_FILE = "attributes.txt"


def save_graph(graph: CoocGraph, directory):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, NODES_FILE), "w", encoding="utf-8") as fh:
        for node in graph.node_ids:
            fh.write(node + "\n")
    with open(os.path.join(directory, EDGES_FILE), "w", encoding="utf-8") as fh:
        for (i, j) in sorted(graph.pair_counts):
            count = graph.pair_counts[(i, j)]
            fh.write(f"{i}\t{j}\t{count}\t{float(graph.adjacency[i, j])!r}\n")
    write_vector_table(os.path.join(directory, ATTRIBUTES_FILE), graph.node_ids, graph.attributes)


def load_graph(directory) -> CoocGraph:
    nodes_path = os.path.join(directory, NODES_FILE)
    try:
        with open(nodes_path, "r", encoding="utf-8") as fh:
            node_ids = [line.rstrip("\n") for line in fh if line.strip()]
    except OSError as err:
        raise CorpusError(f"cannot read graph nodes {nodes_path}: {err}") from err
    n = len(node_ids)
    adjacency = np.zeros((n, n), dtype=np.float64)
    pair_counts: dict[tuple[int, int], int] = {}
    edges_path = os.path.join(directory, EDGES_FILE)
    try:
        with open(edges_path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 4:
                    raise CorpusError(f"{edges_path}:{line_no}: expected 4 tab-separated fields")
                i, j, count, weight = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
                pair_counts[(i, j)] = count
                adjacency[i, j] = weight
                adjacency[j, i] = weight
    except OSError as err:
        raise CorpusError(f"cannot read graph edges {edges_path}: {err}") from err
    attr_ids, attributes = read_vector_table(os.path.join(directory, ATTRIBUTES_FILE))
    if attr_ids != node_ids:
        raise CorpusError(f"attribute ids in {directory} do not match the node list")
    return CoocGraph(node_ids=node_ids, pair_counts=pair_counts,
                     adjacency=adjacency, attributes=attributes)
