import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from emofuse.exceptions import CorpusError, EmofuseError
from emofuse.graph import (
    CoocGraph,
    binarize_edges,
    build_adjacency,
    build_cooc_graph,
    count_cooccurrences,
    load_graph,
    normalize_adjacency,
    save_graph,
)
from emofuse.senses import load_emojinet
from emofuse.text_encoder import WordEmbeddingTable
from emofuse.tokenization import tokenize

from conftest import INVENTORY_PATH


# --- independent scalar oracles ---------------------------------------------

def brute_force_pairs(texts):
    """Recount pairs with plain loops over raw texts."""
    pairs = Counter()
    for text in texts:
        unique = sorted({t.surface for t in tokenize(text) if t.kind == "emoji"})
        for a, b in combinations(unique, 2):
            pairs[(a, b)] += 1
    return pairs


def brute_force_tfidf(docs):
    """Scalar TF-IDF over {emoji: [terms]} documents."""
    total = len(docs)
    df = {}
    for terms in docs.values():
        for term in set(terms):
            df[term] = df.get(term, 0) + 1
    out = {}
    for key, terms in docs.items():
        vec = {}
        for term in terms:
            vec[term] = vec.get(term, 0) + 1
        out[key] = {t: c * math.log(total / df[t]) for t, c in vec.items()
                    if c * math.log(total / df[t]) != 0.0}
    return out


def brute_force_cosine(a, b):
    dot = 0.0
    for term, weight in a.items():
        if term in b:
            dot += weight * b[term]
    na = math.sqrt(sum(w * w for w in a.values()))
    nb = math.sqrt(sum(w * w for w in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


class TestCountCooccurrences:
    def test_three_unique_emojis_form_triangle(self):
        counts = count_cooccurrences([tokenize("\U0001F600 \U0001F622 \U0001F355")])
        assert len(counts.pairs) == 3
        assert all(c == 1 for c in counts.pairs.values())

    def test_repeats_within_post_count_once(self):
        counts = count_cooccurrences([tokenize("\U0001F600 \U0001F600 \U0001F622")])
        assert sum(counts.pairs.values()) == 1

    def test_two_posts_accumulate(self):
        texts = ["\U0001F600 \U0001F622", "\U0001F600 \U0001F622"]
        counts = count_cooccurrences([tokenize(t) for t in texts])
        assert counts.pairs == brute_force_pairs(texts)
        assert list(counts.pairs.values()) == [2]

    def test_single_emoji_posts_register_nodes(self):
        counts = count_cooccurrences([tokenize("just \U0001F600")])
        assert counts.pairs == Counter()
        assert counts.occurrences["\U0001F600"] == 1


def one_pair_weight(a, b, count):
    """build_adjacency's weight for one pair of nodes with sense vectors `a` and `b`."""
    return build_adjacency({(0, 1): count}, {"p": a, "q": b}, ["p", "q"])[0, 1]


tfidf_vec = st.dictionaries(
    st.sampled_from(list("abcdef")),
    st.floats(min_value=1e-6, max_value=1e4),  # TF-IDF's range: ln(K/(K-1)) up to count * ln K
    max_size=6,
)


class TestBuildAdjacency:
    def test_weight_is_cosine_times_count(self):
        # cosine({x:1}, {x:1, y:sqrt(3)}) = 1/2, count 4 -> weight 2
        vectors = {"a": {"x": 1.0}, "b": {"x": 1.0, "y": math.sqrt(3.0)}}
        a = build_adjacency({(0, 1): 4}, vectors, ["a", "b"])
        assert a[0, 1] == pytest.approx(2.0, abs=1e-12)
        assert a[1, 0] == a[0, 1]

    @pytest.mark.parametrize("a, b, weight", [
        pytest.param({"x": 2.0, "y": 1.0}, {"x": 2.0, "y": 1.0}, 3.0, id="identical"),
        pytest.param({"x": 1.0}, {"y": 1.0}, 0.0, id="disjoint"),
        # dot 1, norms sqrt(2) and 1; the dot product runs over the shorter vector, second or first
        pytest.param({"x": 1.0, "y": 1.0}, {"x": 1.0}, 3.0 / math.sqrt(2.0), id="overlap"),
        pytest.param({"x": 1.0}, {"x": 1.0, "y": 1.0}, 3.0 / math.sqrt(2.0), id="overlap-first-shorter"),
        pytest.param({}, {"x": 1.0}, 0.0, id="empty-first"),
        pytest.param({"x": 1.0}, {}, 0.0, id="empty-second"),
    ])
    def test_one_pair_weight_is_cosine_times_count(self, a, b, weight):
        assert one_pair_weight(a, b, count=3) == pytest.approx(weight, abs=1e-12)

    @given(tfidf_vec, tfidf_vec)
    def test_weight_symmetric_in_node_order_and_bounded_by_count(self, a, b):
        ab, ba = one_pair_weight(a, b, count=1), one_pair_weight(b, a, count=1)
        assert ab == pytest.approx(ba, abs=1e-12)
        assert 0.0 <= ab <= 1.0 + 1e-12

    def test_every_weight_is_cosine_times_count_bit_for_bit(self):
        # TF-IDF-like weights, where another way to sum the norms or the dot
        # product would differ in the last bit for some pairs
        rng = np.random.default_rng(0)
        vectors = {}
        for k in range(10):
            terms = rng.choice(list("abcdefgh"), size=int(rng.integers(1, 7)), replace=False)
            vectors[f"v{k}"] = {str(t): float(rng.integers(1, 4)) * math.log(rng.uniform(1.5, 9.0))
                                for t in terms}
        vectors["empty"] = {}
        node_ids = sorted(vectors) + ["absent"]
        pairs = {(i, j): 1 + i + 3 * j for i, j in combinations(range(len(node_ids)), 2)}
        a = build_adjacency(pairs, vectors, node_ids)
        for (i, j), count in pairs.items():
            # the oracle's order: each norm over its vector's own order, the
            # dot product over the shorter vector (node i's on a tie)
            u, v = vectors.get(node_ids[i], {}), vectors.get(node_ids[j], {})
            norm_u = math.sqrt(sum(w * w for w in u.values()))
            norm_v = math.sqrt(sum(w * w for w in v.values()))
            short, long = (v, u) if len(v) < len(u) else (u, v)
            dot = 0.0
            for term, weight in short.items():
                if term in long:
                    dot += weight * long[term]
            expected = dot / (norm_u * norm_v) * count if u and v else 0.0
            assert a[i, j] == expected and a[j, i] == expected, (node_ids[i], node_ids[j])

    def test_never_cooccurring_pair_is_zero(self):
        a = build_adjacency({}, {"a": {"x": 1.0}, "b": {"x": 1.0}}, ["a", "b"])
        assert a[0, 1] == 0.0

    def test_weight_bounded_by_count(self, inventory, word_table):
        texts = ["\U0001F600 \U0001F602 fun", "\U0001F600 \U0001F602", "\U0001F622 \U0001F494 sad"]
        counts = count_cooccurrences([tokenize(t) for t in texts])
        node_ids = sorted(counts.occurrences)
        a = build_cooc_graph(counts, inventory, word_table).adjacency
        index = {e: i for i, e in enumerate(node_ids)}
        for (e1, e2), count in counts.pairs.items():
            assert a[index[e1], index[e2]] <= count + 1e-12

    def test_full_matrix_matches_brute_force(self, inventory, word_table):
        texts = [
            "\U0001F600 \U0001F602 nice", "\U0001F600 \U0001F622",
            "\U0001F622 \U0001F494 loss", "\U0001F600 \U0001F602 \U0001F494",
            "❤ \U0001F494 ache",
        ]
        counts = count_cooccurrences([tokenize(t) for t in texts])
        node_ids = sorted(counts.occurrences)
        production = build_cooc_graph(counts, inventory, word_table).adjacency

        docs = {}
        for e in node_ids:
            entry = inventory.get(e)
            terms = []
            if entry is not None:
                for sense in entry.senses:
                    terms.extend(t.surface for t in tokenize(sense) if t.kind == "word")
            docs[e] = terms
        # oracle idf counts all inventory documents, mirroring production
        all_docs = {}
        for key, entry in inventory.entries.items():
            terms = []
            for sense in entry.senses:
                terms.extend(t.surface for t in tokenize(sense) if t.kind == "word")
            all_docs[key] = terms
        oracle_vectors = brute_force_tfidf(all_docs)
        oracle_pairs = brute_force_pairs(texts)
        n = len(node_ids)
        expected = np.zeros((n, n))
        for (e1, e2), count in oracle_pairs.items():
            i, j = node_ids.index(e1), node_ids.index(e2)
            w = brute_force_cosine(oracle_vectors.get(e1, {}), oracle_vectors.get(e2, {})) * count
            expected[i, j] = expected[j, i] = w
        np.testing.assert_allclose(production, expected, atol=1e-12)


class TestNormalizeAdjacency:
    def test_isolated_node(self):
        np.testing.assert_array_equal(normalize_adjacency(np.zeros((1, 1))), [[1.0]])

    def test_two_connected_nodes(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(normalize_adjacency(a), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 2, (5, 5))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        perm = rng.permutation(5)
        direct = normalize_adjacency(a[np.ix_(perm, perm)])
        permuted = normalize_adjacency(a)[np.ix_(perm, perm)]
        np.testing.assert_allclose(direct, permuted, atol=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 3, (6, 6))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        t = normalize_adjacency(a)
        np.testing.assert_allclose(t, t.T, atol=1e-15)
        assert (t >= 0).all() and (t <= 1 + 1e-12).all()


class TestBinarizeEdges:
    def test_positive_weight_becomes_one(self):
        a = np.array([[0.0, 2.37], [2.37, 0.0]])
        binary = binarize_edges(a)
        assert binary[0, 1] == 1.0

    def test_zero_stays_zero_off_diagonal(self):
        binary = binarize_edges(np.zeros((3, 3)))
        assert binary.sum() == 3.0  # diagonal only

    def test_diagonal_is_one(self):
        binary = binarize_edges(np.zeros((4, 4)))
        np.testing.assert_array_equal(np.diag(binary), np.ones(4))


class TestGraphRoundTrip:
    def test_save_load_identity(self, tmp_path, inventory, word_table):
        texts = ["\U0001F600 \U0001F602 fun", "\U0001F622 \U0001F494", "\U0001F600 \U0001F622"]
        counts = count_cooccurrences([tokenize(t) for t in texts])
        graph = build_cooc_graph(counts, inventory, word_table)
        save_graph(graph, tmp_path / "g")
        loaded = load_graph(tmp_path / "g")
        assert loaded.node_ids == graph.node_ids
        assert loaded.pair_counts == graph.pair_counts
        np.testing.assert_array_equal(loaded.adjacency, graph.adjacency)
        np.testing.assert_array_equal(loaded.attributes, graph.attributes)

    def test_directory_holds_only_attributes_and_edges(self, tmp_path, inventory, word_table):
        """Node order is attributes.txt's row order; no separate node list is written."""
        counts = count_cooccurrences([tokenize("\U0001F622 \U0001F600 \U0001F602")])
        graph = build_cooc_graph(counts, inventory, word_table)
        save_graph(graph, tmp_path / "g")
        assert sorted(p.name for p in (tmp_path / "g").iterdir()) == ["attributes.txt", "edges.tsv"]
        loaded = load_graph(tmp_path / "g")
        assert loaded.node_ids == graph.node_ids == sorted(graph.node_ids)
        assert loaded.pair_counts == graph.pair_counts
        np.testing.assert_array_equal(loaded.adjacency, graph.adjacency)

    def test_min_pair_count_filters(self, inventory, word_table):
        texts = ["\U0001F600 \U0001F602", "\U0001F600 \U0001F602", "\U0001F622 \U0001F494"]
        counts = count_cooccurrences([tokenize(t) for t in texts])
        graph = build_cooc_graph(counts, inventory, word_table, min_pair_count=2)
        assert len(graph.pair_counts) == 1

    def test_unknown_emoji_gets_zero_attributes(self, tmp_path, word_table):
        inv = load_emojinet(write_minimal_inventory(tmp_path))
        counts = count_cooccurrences([tokenize("\U0001F600 \U0001FAE0")])  # second not in inventory
        graph = build_cooc_graph(counts, inv, word_table)
        i = graph.node_ids.index("\U0001FAE0")
        assert not graph.attributes[i].any()
        assert graph.adjacency.sum() == 0.0  # cosine against empty vector


class TestInventoryInputsKeptOnTheInventory:
    """Sense vectors come once per loaded inventory, attribute rows once per inventory and word table."""

    TEXTS = ["\U0001F600 \U0001F602 fun", "\U0001F622 \U0001F494 \U0001F600", "❤ \U0001F494 ache",
             "\U0001F525 \U0001FAE0 hot"]

    def counts(self, texts):
        return count_cooccurrences([tokenize(t) for t in texts])

    def test_repeated_builds_equal_a_fresh_inventorys_bit_for_bit(self, word_table):
        inventory = load_emojinet(INVENTORY_PATH)
        full = self.counts(self.TEXTS)
        # the first build meets some nodes, the later ones add the rest
        builds = [build_cooc_graph(c, inventory, word_table) for c in (self.counts(self.TEXTS[:1]), full, full)]
        fresh = build_cooc_graph(full, load_emojinet(INVENTORY_PATH), word_table)
        assert fresh.attributes.any() and fresh.adjacency.any()
        for graph in builds[1:]:
            assert graph.node_ids == fresh.node_ids
            assert graph.pair_counts == fresh.pair_counts
            assert graph.adjacency.tobytes() == fresh.adjacency.tobytes()
            assert graph.attributes.tobytes() == fresh.attributes.tobytes()

    def test_another_word_table_gets_its_own_attributes(self, word_table):
        inventory = load_emojinet(INVENTORY_PATH)
        counts = self.counts(self.TEXTS)
        other = WordEmbeddingTable(word_table.ids, 2.0 * word_table.vectors + 1.0)
        first = build_cooc_graph(counts, inventory, word_table)
        second = build_cooc_graph(counts, inventory, other)
        expected = build_cooc_graph(counts, load_emojinet(INVENTORY_PATH), other)
        assert second.attributes.tobytes() == expected.attributes.tobytes()
        assert not np.array_equal(second.attributes, first.attributes)
        again = build_cooc_graph(counts, inventory, word_table)
        assert again.attributes.tobytes() == first.attributes.tobytes()

    def test_loaded_entries_are_read_only(self, inventory):
        with pytest.raises(TypeError):
            inventory.entries["\U0001FAE0"] = inventory.get("\U0001F600")


def write_two_node_graph(directory, edges_text):
    """A saved two-node graph whose edges.tsv is then replaced by `edges_text`."""
    graph = CoocGraph(node_ids=["a", "b"], pair_counts={(0, 1): 2},
                      adjacency=np.array([[0.0, 0.5], [0.5, 0.0]]), attributes=np.zeros((2, 3)))
    save_graph(graph, directory)
    (directory / "edges.tsv").write_text(edges_text, encoding="utf-8")


class TestLoadGraphErrors:
    @pytest.mark.parametrize("line", [
        "0\t5\t1\t0.5",     # index out of range
        "-1\t1\t1\t0.5",    # negative index
        "1\t0\t1\t0.5",     # i > j
        "0\t0\t1\t0.5",     # i == j
        "x\t1\t1\t0.5",     # index not an integer
        "0\t1\t1.5\t0.5",   # count not an integer
        "0\t1\t2\theavy",   # weight not a number
        "0\t1\t-3\t0.5",    # negative count
        "0\t1\t2\t-0.5",    # negative weight
        "0\t1\t2\tnan",
        "0\t1\t2\tinf",
        "0\t1\t2",          # too few fields
    ])
    def test_bad_edge_line_names_file_and_line(self, tmp_path, line):
        write_two_node_graph(tmp_path, "0\t1\t2\t0.5\n" + line + "\n")
        with pytest.raises(CorpusError, match=r"edges\.tsv:2"):
            load_graph(tmp_path)

    def test_repeated_edge_names_both_lines(self, tmp_path):
        write_two_node_graph(tmp_path, "0\t1\t2\t0.5\n\n0\t1\t99\t0.25\n")
        with pytest.raises(CorpusError, match=r"edges\.tsv:3: edge \(0, 1\) repeats line 1$"):
            load_graph(tmp_path)

    def test_zero_weight_edge_loads(self, tmp_path):
        write_two_node_graph(tmp_path, "0\t1\t2\t0.0\n")
        assert load_graph(tmp_path).pair_counts == {(0, 1): 2}


@given(st.one_of(st.text(alphabet="01235-.xnaif\t\n e", max_size=40), st.binary(max_size=40)))
def test_edge_file_fuzz_raises_only_typed_errors(tmp_path_factory, content):
    directory = tmp_path_factory.mktemp("fuzz_graph")
    write_two_node_graph(directory, "")
    path = directory / "edges.tsv"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    try:
        graph = load_graph(directory)
    except EmofuseError:
        return
    for (i, j), count in graph.pair_counts.items():
        assert 0 <= i < j < 2 and count >= 0
    assert np.isfinite(graph.adjacency).all() and (graph.adjacency >= 0).all()


def write_minimal_inventory(tmp_path):
    import json
    path = tmp_path / "mini.json"
    path.write_text(json.dumps([{
        "unicode": "U+1F600", "name": "grin", "shortcode": ":g:",
        "description": "", "keywords": ["happy"], "senses": ["happy (adjective)"],
    }]), encoding="utf-8")
    return path
