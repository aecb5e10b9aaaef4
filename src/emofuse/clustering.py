"""Embedding similarity matrices and average-linkage hierarchical clustering.

Used to inspect learned emoji embeddings: the most frequent emojis are
ranked, their pairwise cosine similarities computed, and an agglomerative
clustering (average linkage over cosine distance) produces a dendrogram
whose leaf order arranges the similarity matrix for heatmap rendering.

The linkage keeps a symmetric matrix indexed by cluster id (n leaves, then
merge s in slot n + s; +inf on the diagonal and in dead slots). A merge is
one argmin, one weighted row and four +inf fills: O(n^2) numpy work. Ties
go to the row-major first minimum, the pair a < b with least a, then b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def cosine_matrix(vectors: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities; rows with zero norm get similarity 0."""
    v = np.asarray(vectors, dtype=np.float64)
    norms = np.sqrt((v * v).sum(axis=1))
    safe = np.where(norms > 0, norms, 1.0)
    unit = v / safe[:, None]
    sim = unit @ unit.T
    zero = norms == 0
    sim[zero, :] = 0.0
    sim[:, zero] = 0.0
    return sim


@dataclass(frozen=True)
class Merge:
    left: int      # cluster ids; 0..n-1 are leaves, n+step are merge results
    right: int
    distance: float


def average_linkage(distance: np.ndarray) -> list[Merge]:
    """Merge by smallest average distance; reads only the upper triangle, which must be finite."""
    d = np.asarray(distance, dtype=np.float64)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError(f"distance matrix must be square, got {d.shape}")
    lower = np.tri(n, dtype=bool)
    upper = np.where(lower, 0.0, d)
    if not np.isfinite(upper).all():
        i, j = divmod(int(np.isfinite(upper).argmin()), n)
        raise ValueError(f"distance[{i}, {j}] is {d[i, j]}, not finite")
    width = max(2 * n - 1, 0)
    m = np.full((width, width), np.inf)
    m[:n, :n] = np.where(lower, upper.T, upper)
    np.fill_diagonal(m, np.inf)
    sizes = [1] * n
    merges: list[Merge] = []
    for c in range(n, width):
        a, b = divmod(int(m.argmin()), width)
        best = float(m[a, b])
        if not -np.inf < best < np.inf:
            raise ValueError(f"average distance overflowed to {best} at merge {c - n}")
        size_a, size_b = sizes[a], sizes[b]
        # (d_a * size_a + d_b * size_b) / (size_a + size_b); another order moves low bits
        row = np.multiply(m[a], size_a, out=m[c])
        row += m[b] * size_b
        row /= size_a + size_b
        m[:, c] = row
        m[a] = m[:, a] = m[b] = m[:, b] = np.inf
        sizes.append(size_a + size_b)
        merges.append(Merge(left=a, right=b, distance=best))
    return merges


def leaf_order(merges: list[Merge], n: int) -> list[int]:
    """Dendrogram leaf order: expand each merge left before right."""
    if n == 1:
        return [0]
    children = {n + step: (m.left, m.right) for step, m in enumerate(merges)}
    order: list[int] = []
    stack = [n + len(merges) - 1]
    while stack:
        node = stack.pop()
        if node < n:
            order.append(node)
        else:
            left, right = children[node]
            stack.append(right)
            stack.append(left)
    return order


@dataclass
class ClusterResult:
    labels: list[str]        # leaf order
    similarity: np.ndarray   # reordered to match labels
    merges: list[Merge]      # over the pre-reorder indices
    ranked_ids: list[str]    # frequency order before clustering


def cluster_similarity(embeddings, occurrence_counts, top_k: int) -> ClusterResult:
    """Cluster the top_k most frequent emojis by embedding similarity.

    Frequency ranking is by descending occurrence count with lexicographic
    ties. Distance for the linkage is 1 - cosine similarity.
    """
    if top_k < 2:
        raise ValueError(f"top_k must be >= 2, got {top_k}")
    known = [e for e in embeddings.ids if e in occurrence_counts]
    ranked = sorted(known, key=lambda e: (-occurrence_counts[e], e))[:top_k]
    if len(ranked) < 2:
        raise ValueError(f"need at least 2 ranked emojis, got {len(ranked)}")
    similarity = cosine_matrix(embeddings.rows(ranked))
    merges = average_linkage(1.0 - similarity)
    order = leaf_order(merges, len(ranked))
    reordered = similarity[np.ix_(order, order)]
    return ClusterResult(
        labels=[ranked[i] for i in order],
        similarity=reordered,
        merges=merges,
        ranked_ids=ranked,
    )


def write_similarity_tsv(path, result: ClusterResult):
    """Leaf-ordered similarity matrix as TSV with row and column labels."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("emoji\t" + "\t".join(result.labels) + "\n")
        for label, row in zip(result.labels, result.similarity):
            fh.write(label)
            for value in row:
                fh.write(f"\t{float(value)!r}")
            fh.write("\n")
