import numpy as np
import pytest

from emofuse.clustering import (
    Merge,
    average_linkage,
    cluster_similarity,
    cosine_matrix,
    leaf_order,
    write_similarity_tsv,
)
from emofuse.vgae import EmojiEmbeddings


def reference_average_linkage(distance):
    """Average linkage over a dict of live pairs, rebuilt on every merge.

    The oracle for `average_linkage`: the minimum of (distance, (a, b)) over
    the live pairs a < b picks the merge, and each new pair's distance is
    value * size summed over the two merged clusters, then divided by the
    merged size.
    """
    d = np.asarray(distance, dtype=np.float64)
    n = d.shape[0]
    active = {i: [i] for i in range(n)}
    dist = {(a, b): float(d[a, b]) for a in range(n) for b in range(a + 1, n)}
    merges = []
    next_id = n
    while len(active) > 1:
        (a, b), best_distance = min(dist.items(), key=lambda item: (item[1], item[0]))
        size_a, size_b = len(active[a]), len(active[b])
        members = active.pop(a) + active.pop(b)
        del dist[(a, b)]
        updated = {}
        for (x, y), value in dist.items():
            if x in (a, b) or y in (a, b):
                other = y if x in (a, b) else x
                prior = updated.get(other)
                weighted = value * (size_a if a in (x, y) else size_b)
                updated[other] = weighted if prior is None else prior + weighted
        dist = {pair: value for pair, value in dist.items()
                if pair[0] not in (a, b) and pair[1] not in (a, b)}
        for other, weighted_sum in updated.items():
            dist[(min(other, next_id), max(other, next_id))] = weighted_sum / (size_a + size_b)
        active[next_id] = members
        merges.append(Merge(left=a, right=b, distance=best_distance))
        next_id += 1
    return merges


def merge_bits(merges):
    return [(m.left, m.right, float(m.distance).hex()) for m in merges]


def cosine_distances(vectors):
    return 1.0 - cosine_matrix(vectors)


def ternary_vectors(n, seed):
    """Vectors in {-1, 0, 1}^6 with about a fifth of the rows zero: many exact ties."""
    rng = np.random.default_rng(seed)
    v = rng.integers(-1, 2, (n, 6)).astype(np.float64)
    v[rng.random(n) < 0.2] = 0.0
    return v


class TestCosineMatrix:
    def test_unit_diagonal_for_nonzero_rows(self):
        rng = np.random.default_rng(0)
        sim = cosine_matrix(rng.standard_normal((4, 6)))
        np.testing.assert_allclose(np.diag(sim), np.ones(4), atol=1e-12)

    def test_orthogonal_rows_give_zero(self):
        sim = cosine_matrix(np.eye(3))
        np.testing.assert_allclose(sim, np.eye(3), atol=1e-15)

    def test_zero_norm_rows_have_zero_similarity(self):
        sim = cosine_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert sim[1, 1] == 0.0 and sim[0, 1] == 0.0

    def test_duplicate_rows_fully_similar(self):
        sim = cosine_matrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert sim[0, 1] == pytest.approx(1.0, abs=1e-12)


class TestAverageLinkage:
    def test_two_tight_pairs_merge_first(self):
        points = np.array([[0.0], [0.1], [10.0], [10.1]])
        dist = np.abs(points - points.T)
        merges = average_linkage(dist)
        first_two = {frozenset((m.left, m.right)) for m in merges[:2]}
        assert first_two == {frozenset((0, 1)), frozenset((2, 3))}

    def test_merge_count(self):
        dist = np.random.default_rng(1).uniform(1, 2, (5, 5))
        dist = (dist + dist.T) / 2
        np.fill_diagonal(dist, 0.0)
        assert len(average_linkage(dist)) == 4

    def test_average_linkage_distance_formula(self):
        # three points on a line: clusters {0,1} then distance to 2 averages
        dist = np.array([
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 4.0],
            [5.0, 4.0, 0.0],
        ])
        merges = average_linkage(dist)
        assert (merges[0].left, merges[0].right) == (0, 1)
        assert merges[1].distance == pytest.approx(4.5)

    def test_deterministic_tie_break(self):
        dist = np.ones((4, 4)) - np.eye(4)
        merges = average_linkage(dist)
        assert (merges[0].left, merges[0].right) == (0, 1)


class TestAverageLinkageOracle:
    @pytest.mark.parametrize("n", range(2, 71))
    def test_cosine_distances_match_reference(self, n):
        dist = cosine_distances(np.random.default_rng(100 + n).standard_normal((n, 32)))
        assert merge_bits(average_linkage(dist)) == merge_bits(reference_average_linkage(dist))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 34, 64])
    def test_ternary_vectors_with_zero_rows_match_reference(self, n):
        dist = cosine_distances(ternary_vectors(n, seed=n))
        assert merge_bits(average_linkage(dist)) == merge_bits(reference_average_linkage(dist))

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16])
    def test_all_ties_match_reference(self, n):
        dist = np.ones((n, n)) - np.eye(n)
        assert merge_bits(average_linkage(dist)) == merge_bits(reference_average_linkage(dist))

    def test_two_leaves(self):
        dist = np.array([[0.0, 0.25], [0.75, 0.0]])
        assert average_linkage(dist) == reference_average_linkage(dist) == [Merge(0, 1, 0.25)]

    def test_single_leaf_has_no_merges(self):
        assert average_linkage(np.zeros((1, 1))) == []


class TestAverageLinkageRejects:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            average_linkage(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_entry_named(self, bad):
        dist = np.array([[0.0, 1.0, 2.0, 3.0],
                         [1.0, 0.0, bad, bad],
                         [2.0, 3.0, 0.0, 1.0],
                         [3.0, 1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match=r"distance\[1, 2\]"):
            average_linkage(dist)

    def test_nan_is_not_merged_first(self):
        with pytest.raises(ValueError, match=r"distance\[0, 1\] is nan"):
            average_linkage([[0.0, np.nan, 2.0], [np.nan, 0.0, 1.0], [2.0, 1.0, 0.0]])

    def test_lower_triangle_is_not_read(self):
        dist = np.array([[0.0, 1.0, 5.0], [np.nan, 0.0, 4.0], [np.inf, np.nan, 0.0]])
        assert average_linkage(dist) == [Merge(0, 1, 1.0), Merge(2, 3, 4.5)]

    def test_overflowing_average_rejected(self):
        dist = np.array([[0.0, 1.0, 1.5e308], [1.0, 0.0, 1.6e308], [1.5e308, 1.6e308, 0.0]])
        with pytest.raises(ValueError, match="overflowed"), pytest.warns(RuntimeWarning):
            average_linkage(dist)


class TestLeafOrder:
    def test_all_leaves_present_once(self):
        rng = np.random.default_rng(2)
        dist = rng.uniform(0.5, 2.0, (6, 6))
        dist = (dist + dist.T) / 2
        np.fill_diagonal(dist, 0.0)
        order = leaf_order(average_linkage(dist), 6)
        assert sorted(order) == list(range(6))


def two_group_embeddings(per_group=4, dim=8, seed=3):
    rng = np.random.default_rng(seed)
    base_a, base_b = rng.standard_normal(dim), rng.standard_normal(dim)
    rows, ids = [], []
    for g, base in enumerate((base_a, base_b)):
        for i in range(per_group):
            rows.append(base + rng.normal(0, 0.01, dim))
            ids.append(f"g{g}e{i}")
    return EmojiEmbeddings(ids=ids, vectors=np.stack(rows))


class TestClusterSimilarity:
    def test_groups_stay_contiguous_in_leaf_order(self):
        emb = two_group_embeddings()
        counts = {e: 10 - i for i, e in enumerate(emb.ids)}
        result = cluster_similarity(emb, counts, top_k=8)
        groups = ["".join(label[1] for label in result.labels)]
        assert groups[0] in ("00001111", "11110000")

    def test_within_group_merges_happen_first(self):
        emb = two_group_embeddings()
        counts = {e: 1 for e in emb.ids}
        result = cluster_similarity(emb, counts, top_k=8)
        for merge in result.merges[:6]:
            if merge.left < 8 and merge.right < 8:
                assert result.ranked_ids[merge.left][1] == result.ranked_ids[merge.right][1]

    def test_duplicate_embeddings_adjacent(self):
        rng = np.random.default_rng(4)
        row = rng.standard_normal(5)
        emb = EmojiEmbeddings(ids=["a", "b", "c"],
                              vectors=np.stack([row, rng.standard_normal(5), row]))
        result = cluster_similarity(emb, {"a": 3, "b": 2, "c": 1}, top_k=3)
        pos_a, pos_c = result.labels.index("a"), result.labels.index("c")
        assert abs(pos_a - pos_c) == 1
        first = result.merges[0]
        i, j = result.ranked_ids.index("a"), result.ranked_ids.index("c")
        assert (first.left, first.right) == (min(i, j), max(i, j))
        assert abs(first.distance) <= 1e-12

    def test_frequency_ranking_selects_top_k(self):
        emb = two_group_embeddings()
        counts = {e: i for i, e in enumerate(emb.ids)}  # later ids more frequent
        result = cluster_similarity(emb, counts, top_k=3)
        assert len(result.labels) == 3
        assert set(result.ranked_ids) == set(emb.ids[-3:])

    def test_top_k_below_two_rejected(self):
        emb = two_group_embeddings()
        with pytest.raises(ValueError):
            cluster_similarity(emb, {e: 1 for e in emb.ids}, top_k=1)

    def test_tsv_is_symmetric_and_labeled(self, tmp_path):
        emb = two_group_embeddings()
        counts = {e: 1 for e in emb.ids}
        result = cluster_similarity(emb, counts, top_k=8)
        path = tmp_path / "matrix.tsv"
        write_similarity_tsv(path, result)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        header = lines[0].split("\t")
        assert header[0] == "emoji" and header[1:] == result.labels
        values = np.array([[float(x) for x in line.split("\t")[1:]] for line in lines[1:]])
        np.testing.assert_allclose(values, values.T, atol=1e-12)
        row_labels = [line.split("\t")[0] for line in lines[1:]]
        assert row_labels == result.labels
