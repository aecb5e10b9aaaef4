"""Weighted, attributed emoji co-occurrence graph.

Every post contributes one count to every unordered pair of distinct emojis
it contains, so a post with n unique emojis forms an n-clique. Edge weights
multiply that pair count by the cosine similarity of the two emojis' TF-IDF
sense vectors; node attributes are the averaged keyword word vectors.

A loaded inventory is read-only, so the sense vectors are computed once per
loaded inventory, and each emoji's attribute row once per inventory and word
table (see `_inventory_inputs`).
"""

from __future__ import annotations

import logging
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

import numpy as np

from .exceptions import CorpusError, reading
from .senses import SenseInventory, node_attribute, tfidf_sense_vectors
from .tokenization import TokenSequence
from .vectors import read_vector_table, write_vector_table

logger = logging.getLogger("emofuse")


@dataclass
class CoocCounts:
    """Co-occurrence statistics of a corpus.

    `pairs` counts posts containing each unordered emoji pair; `occurrences`
    counts posts containing each emoji at least once.
    """

    pairs: Counter = field(default_factory=Counter)
    occurrences: Counter = field(default_factory=Counter)
    posts: int = 0


def count_cooccurrences(posts: Iterable[TokenSequence]) -> CoocCounts:
    """Count unique-emoji pairs per post; single-emoji posts still register nodes."""
    counts = CoocCounts()
    for seq in posts:
        counts.posts += 1
        unique = sorted(seq.unique_emojis())
        counts.occurrences.update(unique)
        counts.pairs.update(combinations(unique, 2))
    return counts


@dataclass
class CoocGraph:
    node_ids: list[str]
    pair_counts: dict[tuple[int, int], int]  # keyed (i, j) with i < j
    adjacency: np.ndarray  # N x N symmetric, zero diagonal
    attributes: np.ndarray  # N x word_dim

    @property
    def size(self) -> int:
        return len(self.node_ids)


def build_adjacency(pair_counts, sense_vectors, node_ids) -> np.ndarray:
    """Edge weight = cosine(sense vectors) * pair count; symmetric, zero diagonal.

    The one place an edge weight is computed. `pair_counts` is keyed by node
    index pairs (i, j) with i < j. Each node's norm is computed once; a pair
    with an empty vector keeps weight 0. A nonzero TF-IDF weight over K
    entries is at least ln(K/(K-1)) > 1/K, so no square of one underflows.
    """
    n = len(node_ids)
    a = np.zeros((n, n), dtype=np.float64)
    vectors = [sense_vectors.get(node, {}) for node in node_ids]
    norms = [math.sqrt(sum(w * w for w in v.values())) for v in vectors]
    for (i, j), count in pair_counts.items():
        if not (norms[i] and norms[j]):
            continue
        short, long = vectors[i], vectors[j]
        if len(long) < len(short):
            short, long = long, short
        dot = sum(w * long[t] for t, w in short.items() if t in long)
        weight = dot / (norms[i] * norms[j]) * count
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


def _inventory_inputs(inventory: SenseInventory, word_table):
    """The inventory's TF-IDF sense vectors, and its attribute rows for `word_table`.

    Both are kept in `inventory.graph_inputs`, which only this function
    reads: `sense_vectors` from the first build over the inventory, and
    `rows`, each emoji's attribute row from the first build with it as a
    node, for `word_table`, the last table built with (matched by identity;
    a VectorTable is immutable). A loaded inventory is read-only, so
    neither goes stale.
    """
    kept = inventory.graph_inputs
    if "sense_vectors" not in kept:
        kept["sense_vectors"] = tfidf_sense_vectors(inventory)
    if kept.get("word_table") is not word_table:
        kept.update(word_table=word_table, rows={})
    return kept["sense_vectors"], kept["rows"]


def build_cooc_graph(counts: CoocCounts, inventory: SenseInventory, word_table,
                     min_pair_count: int = 1) -> CoocGraph:
    """Assemble the graph from counts; node order is sorted for determinism.

    Emojis absent from the inventory stay in the graph with zero attributes
    and zero-similarity (hence zero-weight) edges.
    """
    node_ids = sorted(counts.occurrences)
    sense_vectors, rows = _inventory_inputs(inventory, word_table)
    index = {e: i for i, e in enumerate(node_ids)}
    pair_counts = {
        tuple(sorted((index[a], index[b]))): c for (a, b), c in counts.pairs.items() if c >= min_pair_count
    }
    adjacency = build_adjacency(pair_counts, sense_vectors, node_ids)
    dim = word_table.dimension
    attributes = np.zeros((len(node_ids), dim), dtype=np.float64)
    for emoji, i in index.items():
        row = rows.get(emoji)
        if row is None:
            entry = inventory.get(emoji)
            if entry is None:
                continue
            row = rows[emoji] = node_attribute(entry, word_table)
        attributes[i] = row
    logger.info("graph: %d nodes, %d weighted pairs from %d posts",
                len(node_ids), len(pair_counts), counts.posts)
    return CoocGraph(
        node_ids=node_ids,
        pair_counts=pair_counts,
        adjacency=adjacency,
        attributes=attributes,
    )


# --- persistence -------------------------------------------------------------
#
# attributes.txt  node attribute matrix in the embedding text format; its row
#                 order (the table's ids) defines matrix indices
# edges.tsv       i <tab> j <tab> pair_count <tab> weight, with i < j, each pair once

EDGES_FILE = "edges.tsv"
ATTRIBUTES_FILE = "attributes.txt"


def save_graph(graph: CoocGraph, directory):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, EDGES_FILE), "w", encoding="utf-8") as fh:
        for (i, j) in sorted(graph.pair_counts):
            count = graph.pair_counts[(i, j)]
            fh.write(f"{i}\t{j}\t{count}\t{float(graph.adjacency[i, j])!r}\n")
    write_vector_table(os.path.join(directory, ATTRIBUTES_FILE), graph.node_ids, graph.attributes)


def load_graph(directory) -> CoocGraph:
    node_ids, attributes = read_vector_table(os.path.join(directory, ATTRIBUTES_FILE))
    n = len(node_ids)
    adjacency = np.zeros((n, n), dtype=np.float64)
    pair_counts: dict[tuple[int, int], int] = {}
    first_line: dict[tuple[int, int], int] = {}  # edge -> the line it is on
    edges_path = os.path.join(directory, EDGES_FILE)
    with reading(edges_path, CorpusError, "graph edges") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{edges_path}:{line_no}"
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise CorpusError(f"{where}: expected 4 tab-separated fields")
            try:
                i, j, count, weight = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
            except ValueError:
                raise CorpusError(f"{where}: expected integers i, j, pair_count and a weight") from None
            if not 0 <= i < j < n:
                raise CorpusError(f"{where}: edge ({i}, {j}) needs 0 <= i < j < {n}")
            first = first_line.setdefault((i, j), line_no)
            if first != line_no:
                raise CorpusError(f"{where}: edge ({i}, {j}) repeats line {first}")
            if count < 0:
                raise CorpusError(f"{where}: pair count {count} is negative")
            if not (math.isfinite(weight) and weight >= 0.0):
                raise CorpusError(f"{where}: weight {weight} is not a finite non-negative number")
            pair_counts[(i, j)] = count
            adjacency[i, j] = weight
            adjacency[j, i] = weight
    return CoocGraph(node_ids=node_ids, pair_counts=pair_counts,
                     adjacency=adjacency, attributes=attributes)
