"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The labeled corpora here are synthetic with labels that are a pure
function of the attached emoji, so the emoji pathway is what gets graded.
"""

import math
import os
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from conftest import (
    INVENTORY_PATH,
    WORD_VECTORS_PATH,
    make_emoji_labeled_posts,
    write_jsonl,
)
import emofuse
from emofuse import autodiff as ad
from emofuse.attention import (ABLATIONS, FusionParams, co_attention_unit, fuse, scaled_dot_attention,
                               self_attention_unit)
from emofuse.attention import AttentionUnitParams
from emofuse.autodiff import Segments, Tensor, grad_check, named_parameters
from emofuse.clustering import cluster_similarity, write_similarity_tsv
from emofuse.config import RunConfig
from emofuse.graph import (
    CoocGraph,
    binarize_edges,
    build_cooc_graph,
    count_cooccurrences,
    normalize_adjacency,
)
from emofuse.model import SentimentModel
from emofuse.pipeline import evaluate, train_classifier
from emofuse.text_encoder import TextEncoderParams, bilstm_layer, positional_encoding
from emofuse.textcnn import TextCnnParams, classify_logits, cross_entropy_logits
from emofuse.tokenization import tokenize
from emofuse.vgae import (
    EmojiEmbeddings,
    VgaeConfig,
    VgaeParams,
    VgaeTarget,
    decode,
    edge_auc,
    encode,
    train_vgae,
    vgae_loss,
)
from tape_ops import mean, sigmoid

PASS = "[acceptance] criterion {n} ({name}): PASS ({detail})"


# --- criterion 1: gradient integrity ------------------------------------------

def test_criterion_1_gradient_integrity(word_table):
    started = time.time()
    worst = {}

    # (a) vgae loss on a 5-node graph with frozen sampling noise
    rng = np.random.default_rng(21)
    n = 5
    adjacency = np.zeros((n, n))
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]:
        adjacency[i, j] = adjacency[j, i] = rng.uniform(0.5, 1.5)
    a_norm = Tensor(normalize_adjacency(adjacency))
    a_bin = binarize_edges(adjacency)
    x = Tensor(rng.standard_normal((n, 4)))
    vparams = VgaeParams.create(4, 3, 2, rng)
    noise = rng.standard_normal((n, 2))
    target = VgaeTarget(a_bin, 2)

    def vgae_objective(_):
        posterior = encode(a_norm, ad.linear(a_norm, x), vparams)
        return vgae_loss(posterior, noise, target)

    worst["vgae_loss"] = max(
        grad_check(lambda t: vgae_objective(None), tensor)
        for _, tensor in named_parameters(vparams))

    # (b) fuse at L=3, N_e=2, d=8
    rng = np.random.default_rng(22)
    fparams = FusionParams.create(10, 6, 4, 8, 16, rng, ABLATIONS["full"])
    stacked = Tensor(rng.standard_normal((3, 10)))
    lstm2 = Tensor(rng.standard_normal((3, 4)))
    emoji_raw = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
    offset = rng.standard_normal((2, 6))
    mix = rng.standard_normal((3, 8))

    def fuse_objective(_):
        (text, _), (emoji, _), (cross, _) = fuse([stacked], lstm2, emoji_raw + offset, emoji_raw, fparams,
                                                 Segments([3]), Segments([2]))
        return (mean(ad.mul(text, mix)) + mean(emoji)
                + mean(ad.mul(cross, mix)))

    worst["fuse"] = max(
        grad_check(lambda t: fuse_objective(None), tensor)
        for tensor in [t for _, t in named_parameters(fparams)] + [emoji_raw])

    # (c) classify at d=8, n=2 filters, kernel sizes (2, 3, 4)
    rng = np.random.default_rng(23)
    cparams = TextCnnParams.create(3, 8, (2, 3, 4), 2, 2, rng)
    channels = [(Tensor(rng.standard_normal((5, 8))), Segments([5])) for _ in range(3)]

    def classify_objective(_):
        return cross_entropy_logits(classify_logits(channels, cparams), [1])

    worst["classify"] = max(
        grad_check(lambda t: classify_objective(None), tensor)
        for _, tensor in named_parameters(cparams))

    # (d) two stacked Bi-LSTM layers at L=3, h=2
    rng = np.random.default_rng(24)
    eparams = TextEncoderParams.create(3, 2, rng)
    lstm_in = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    mix2 = rng.standard_normal((3, 4))

    def lstm_objective(_):
        h2 = bilstm_layer(bilstm_layer(lstm_in, eparams.layer1, Segments([3])), eparams.layer2, Segments([3]))
        return mean(ad.mul(h2, mix2))

    worst["bilstm"] = max(
        grad_check(lambda t: lstm_objective(None), tensor)
        for tensor in [t for _, t in named_parameters(eparams)] + [lstm_in])

    elapsed = time.time() - started
    for name, err in worst.items():
        assert err < 1e-4, f"{name} worst relative error {err}"
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + f", {elapsed:.1f}s"
    print(PASS.format(n=1, name="gradient integrity", detail=detail))


# --- criterion 2: edge-weight oracle ------------------------------------------

def test_criterion_2_edge_weight_oracle(inventory, word_table):
    emojis = ["\U0001F600", "\U0001F602", "\U0001F622", "\U0001F494", "❤"]
    texts = [
        f"nice day {emojis[0]} {emojis[1]}",
        f"{emojis[0]} {emojis[1]} again {emojis[1]}",
        f"sad times {emojis[2]} {emojis[3]}",
        f"{emojis[3]} {emojis[4]} ouch",
        f"{emojis[0]} {emojis[2]}",
        f"{emojis[4]} love {emojis[0]}",
        f"all of them {emojis[0]} {emojis[1]} {emojis[2]}",
        f"wet {emojis[2]}",
        f"{emojis[3]} {emojis[4]}",
        f"{emojis[1]} {emojis[4]} song",
    ]
    counts = count_cooccurrences([tokenize(t) for t in texts])
    graph = build_cooc_graph(counts, inventory, word_table)

    # independent scalar recomputation: recount, re-derive tf-idf, cosine, product
    pair_oracle = Counter()
    for text in texts:
        unique = sorted({t.surface for t in tokenize(text) if t.kind == "emoji"})
        for a, b in combinations(unique, 2):
            pair_oracle[(a, b)] += 1

    docs = {}
    for key, entry in inventory.entries.items():
        terms = []
        for sense in entry.senses:
            terms.extend(t.surface for t in tokenize(sense) if t.kind == "word")
        docs[key] = terms
    df = {}
    for terms in docs.values():
        for term in set(terms):
            df[term] = df.get(term, 0) + 1
    tfidf = {}
    for key, terms in docs.items():
        vec = {}
        for term in terms:
            vec[term] = vec.get(term, 0) + 1
        tfidf[key] = {t: c * math.log(len(docs) / df[t]) for t, c in vec.items()
                      if c * math.log(len(docs) / df[t]) != 0.0}

    def cosine(a, b):
        dot = sum(w * b[t] for t, w in a.items() if t in b)
        na = math.sqrt(sum(w * w for w in a.values()))
        nb = math.sqrt(sum(w * w for w in b.values()))
        return 0.0 if na == 0.0 or nb == 0.0 else dot / (na * nb)

    node_ids = sorted(counts.occurrences)
    expected = np.zeros((len(node_ids), len(node_ids)))
    for (a, b), count in pair_oracle.items():
        i, j = node_ids.index(a), node_ids.index(b)
        w = cosine(tfidf.get(a, {}), tfidf.get(b, {})) * count
        expected[i, j] = expected[j, i] = w

    assert graph.node_ids == node_ids
    np.testing.assert_allclose(graph.adjacency, expected, atol=1e-12)
    print(PASS.format(n=2, name="edge-weight oracle",
                      detail=f"{len(node_ids)} nodes, max abs diff "
                             f"{np.abs(graph.adjacency - expected).max():.1e}"))


# --- criterion 3: graph autoencoder learning ----------------------------------

def test_criterion_3_vgae_learning():
    rng = np.random.default_rng(100)
    n = 20
    adjacency = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            same = (i < 10) == (j < 10)
            if rng.random() < (0.8 if same else 0.05):
                weight = rng.uniform(0.5, 2.0)
                adjacency[i, j] = adjacency[j, i] = weight
    attributes = np.zeros((n, 8))
    attributes[:10, :4] = 1.0
    attributes[10:, 4:] = 1.0
    attributes += rng.normal(0, 0.1, attributes.shape)
    graph = CoocGraph(node_ids=[f"e{i}" for i in range(n)], pair_counts={},
                      adjacency=adjacency, attributes=attributes)

    started = time.time()
    embeddings, _, history = train_vgae(
        graph, VgaeConfig(hidden=32, latent=16, epochs=50, lr=0.01), np.random.default_rng(0))
    elapsed = time.time() - started

    assert history[-1] < history[0], f"loss went {history[0]} -> {history[-1]}"
    scores = sigmoid(decode(embeddings.vectors, np.empty((n, n)))).data
    auc = edge_auc(scores, binarize_edges(adjacency), np.random.default_rng(1))
    assert auc > 0.9, f"reconstruction AUC {auc}"
    assert elapsed < 60.0
    print(PASS.format(n=3, name="vgae learning",
                      detail=f"loss {history[0]:.3f}->{history[-1]:.3f}, AUC {auc:.3f}, {elapsed:.1f}s"))


# --- criteria 4 and 5: end-to-end overfit and ablation trend -------------------

OVERFIT_CONFIG = dict(
    num_classes=2, epochs=20, lr=0.01, batch_size=16, max_len=16,
    lstm_hidden=8, fusion_dim=16, ffn_dim=32, kernel_sizes=(2, 3), filters=4,
    vgae_hidden=32, vgae_latent=16, vgae_epochs=50, vgae_lr=0.01, seed=0,
)

GRAPH_POSITIVE = ["\U0001F600", "\U0001F389", "\U0001F4AF", "\U0001F525"]
GRAPH_NEGATIVE = ["\U0001F622", "\U0001F44E", "\U0001F621", "\U0001F494"]


@pytest.fixture(scope="module")
def pipeline_embeddings(inventory, word_table):
    """Emoji embeddings trained by the real graph pipeline on a synthetic corpus.

    The unlabeled corpus co-occurs 2-3 same-sentiment emojis per post, so
    the graph splits into two dense clusters and the autoencoder separates
    them; weak or isolated nodes would otherwise collapse to zero vectors.
    """
    rng = np.random.default_rng(40)
    words = ["happy", "sad", "love", "rain", "sun", "party", "dog", "music"]
    texts = []
    for _ in range(300):
        count = int(rng.integers(3, 7))
        tokens = [words[i] for i in rng.integers(0, len(words), count)]
        group = GRAPH_POSITIVE if rng.random() < 0.5 else GRAPH_NEGATIVE
        picks = rng.choice(len(group), size=int(rng.integers(2, 4)), replace=False)
        for p in picks:
            tokens.insert(int(rng.integers(0, len(tokens) + 1)), group[p])
        texts.append(" ".join(tokens))
    counts = count_cooccurrences([tokenize(t) for t in texts])
    graph = build_cooc_graph(counts, inventory, word_table)
    config = VgaeConfig(hidden=OVERFIT_CONFIG["vgae_hidden"], latent=OVERFIT_CONFIG["vgae_latent"],
                        epochs=OVERFIT_CONFIG["vgae_epochs"], lr=OVERFIT_CONFIG["vgae_lr"])
    embeddings, _, _ = train_vgae(graph, config, np.random.default_rng(0))
    return embeddings


@pytest.fixture(scope="module")
def overfit_corpus():
    return (make_emoji_labeled_posts(200, seed=11), make_emoji_labeled_posts(60, seed=12))


def train_variant(ablation, embeddings, word_table, corpus):
    train_posts, test_posts = corpus
    config = RunConfig(ablation=ablation, **OVERFIT_CONFIG)
    model = SentimentModel(config, word_table, embeddings, np.random.default_rng(0))
    history = train_classifier(model, train_posts, np.random.default_rng(0))
    report = evaluate(model, test_posts)
    return history, report


@pytest.fixture(scope="module")
def full_model_results(pipeline_embeddings, word_table, overfit_corpus):
    return train_variant("full", pipeline_embeddings, word_table, overfit_corpus)


def test_criterion_4_end_to_end_overfit(full_model_results):
    started = time.time()
    history, _ = full_model_results
    best = max(h.accuracy for h in history)
    assert best >= 0.95, f"train accuracy peaked at {best}"
    assert len(history) == 20
    print(PASS.format(n=4, name="end-to-end overfit",
                      detail=f"train accuracy {best:.3f} within {len(history)} epochs"))


def test_criterion_5_ablation_trend(pipeline_embeddings, word_table, overfit_corpus,
                                    full_model_results):
    _, full_report = full_model_results
    _, n_report = train_variant("N", pipeline_embeddings, word_table, overfit_corpus)
    _, ra2_report = train_variant("RA2", pipeline_embeddings, word_table, overfit_corpus)
    assert full_report.accuracy >= n_report.accuracy, (
        f"full {full_report.accuracy} < N-model {n_report.accuracy}")
    assert ra2_report.accuracy <= full_report.accuracy, (
        f"RA2 {ra2_report.accuracy} > full {full_report.accuracy}")
    print(PASS.format(n=5, name="ablation trend",
                      detail=f"full {full_report.accuracy:.3f} >= N {n_report.accuracy:.3f}, "
                             f"RA2 {ra2_report.accuracy:.3f} <= full"))


# --- criterion 6: attention invariants ----------------------------------------

def test_criterion_6_attention_invariants():
    rng = np.random.default_rng(60)
    unit = AttentionUnitParams.create(4, 8, rng)
    cases = 1000
    for case in range(cases):
        n_q = int(rng.integers(1, 5))
        n_k = int(rng.integers(1, 6))
        q = Tensor(rng.normal(0, 2, (n_q, 4)))
        k = Tensor(rng.normal(0, 2, (n_k, 4)))
        mask = rng.random(n_k) < 0.7
        if not mask.any():
            mask[int(rng.integers(0, n_k))] = True
        weights = scaled_dot_attention(q, k, Tensor(np.eye(n_k)), Segments([n_q]), Segments([n_k]),
                                       mask=mask).data
        sums = weights.sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-12, f"case {case}: row sums {sums}"
        assert (weights[:, ~mask] == 0.0).all(), f"case {case}: masked key got weight"
        x = Tensor(rng.normal(0, 1, (n_q, 4)))
        self_out = self_attention_unit(x, unit, Segments([n_q]))
        co_out = co_attention_unit(x, x, unit, Segments([n_q]), Segments([n_q]))
        assert np.array_equal(self_out.data, co_out.data), f"case {case}: units diverge"
    print(PASS.format(n=6, name="attention invariants", detail=f"{cases} randomized cases"))


# --- criterion 7: positional encoding -----------------------------------------

def test_criterion_7_positional_encoding():
    base, d = 1000.0, 16
    rng = np.random.default_rng(70)
    for _ in range(50):
        pos = int(rng.integers(0, 300))
        pe = positional_encoding(pos, d)
        for i in range(d // 2):
            angle = pos / base ** (2 * i / d)
            assert abs(pe[2 * i] - math.sin(angle)) <= 1e-12
            assert abs(pe[2 * i + 1] - math.cos(angle)) <= 1e-12
    # fixed-offset property: PE(pos+t) is a trigonometric combination of PE(pos)
    for _ in range(50):
        pos, t = int(rng.integers(0, 300)), int(rng.integers(0, 80))
        pe_pos = positional_encoding(pos, d)
        pe_shift = positional_encoding(pos + t, d)
        for i in range(d // 2):
            freq = 1.0 / base ** (2 * i / d)
            s, c = pe_pos[2 * i], pe_pos[2 * i + 1]
            st, ct = math.sin(t * freq), math.cos(t * freq)
            assert abs(pe_shift[2 * i] - (s * ct + c * st)) <= 1e-10
            assert abs(pe_shift[2 * i + 1] - (c * ct - s * st)) <= 1e-10
    print(PASS.format(n=7, name="positional encoding", detail="values 1e-12, shifts 1e-10"))


# --- criterion 8: CLI determinism ----------------------------------------------

CLI_CONFIG = """
unlabeled_corpus = unlabeled.txt
inventory = {inventory}
word_vectors = {vectors}
train_data = train.jsonl
test_data = test.jsonl
graph_dir = graph
embeddings = out/embeddings.txt
output_dir = out
seed = 7
vgae_hidden = 12
vgae_latent = 6
vgae_epochs = 8
epochs = 2
lr = 0.01
batch_size = 8
max_len = 12
lstm_hidden = 3
fusion_dim = 6
ffn_dim = 12
kernel_sizes = 2
filters = 2
top_k = 4
"""


def _populate_cli_dir(root):
    rng = np.random.default_rng(80)
    words = ["happy", "sad", "love", "rain", "sun", "party"]
    pos = ["\U0001F600", "\U0001F389"]
    neg = ["\U0001F622", "\U0001F44E"]
    with open(os.path.join(root, "unlabeled.txt"), "w", encoding="utf-8") as fh:
        for _ in range(40):
            count = int(rng.integers(3, 6))
            tokens = [words[i] for i in rng.integers(0, len(words), count)]
            group = pos if rng.random() < 0.5 else neg
            for p in rng.choice(len(group), size=int(rng.integers(1, 3)), replace=False):
                tokens.insert(int(rng.integers(0, len(tokens) + 1)), group[p])
            fh.write(" ".join(tokens) + "\n")
    write_jsonl(os.path.join(root, "train.jsonl"), make_emoji_labeled_posts(16, seed=81))
    write_jsonl(os.path.join(root, "test.jsonl"), make_emoji_labeled_posts(8, seed=82))
    with open(os.path.join(root, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write(CLI_CONFIG.format(inventory=INVENTORY_PATH, vectors=WORD_VECTORS_PATH))


def _run_cli(cwd, *args):
    # The child runs from `cwd`, where a relative PYTHONPATH entry such as
    # `src` resolves to nothing: put the directory that holds the emofuse
    # this process imported first, absolute, and keep everything else.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(emofuse.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "emofuse", *args],
                            cwd=cwd, env=env, capture_output=True, text=True)
    assert result.returncode == 0, f"{args} failed: {result.stderr}"


def test_criterion_8_cli_determinism(tmp_path):
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    subcommands = [
        ("build-graph",), ("train-vgae",), ("train-classifier",),
        ("evaluate",), ("cluster-viz",),
        ("export-embeddings", "--set", "checkpoint=out/vgae.ntc",
         "--set", "embeddings=out/exported.txt"),
    ]
    for d in dirs:
        d.mkdir()
        _populate_cli_dir(d)
        for subcommand in subcommands:
            _run_cli(d, subcommand[0], "--config", "run.cfg", *subcommand[1:])

    compared = 0
    for rel_dir in ("graph", "out"):
        names = sorted(os.listdir(dirs[0] / rel_dir))
        assert names == sorted(os.listdir(dirs[1] / rel_dir))
        for name in names:
            a = (dirs[0] / rel_dir / name).read_bytes()
            b = (dirs[1] / rel_dir / name).read_bytes()
            assert a == b, f"{rel_dir}/{name} differs between identical runs"
            compared += 1
    print(PASS.format(n=8, name="determinism",
                      detail=f"{compared} artifacts byte-identical across reruns"))


# --- criterion 9: clustering pipeline ------------------------------------------

def test_criterion_9_clustering_pipeline(tmp_path):
    rng = np.random.default_rng(90)
    base_a, base_b = rng.standard_normal(12), rng.standard_normal(12)
    ids, rows = [], []
    for g, base in enumerate((base_a, base_b)):
        for i in range(4):
            ids.append(f"group{g}_{i}")
            rows.append(base + rng.normal(0, 0.02, 12))
    embeddings = EmojiEmbeddings(ids=ids, vectors=np.stack(rows))
    counts = {e: 100 - i for i, e in enumerate(ids)}

    result = cluster_similarity(embeddings, counts, top_k=8)

    # first merges join leaves of the same group
    early_leaf_merges = [m for m in result.merges if m.left < 8 and m.right < 8]
    for merge in early_leaf_merges:
        assert result.ranked_ids[merge.left][:6] == result.ranked_ids[merge.right][:6]
    # leaves of each group are contiguous in the dendrogram order
    group_string = "".join(label[5] for label in result.labels)
    assert group_string in ("00001111", "11110000")

    path = tmp_path / "matrix.tsv"
    write_similarity_tsv(path, result)
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split("\t")
    assert header[0] == "emoji" and header[1:] == result.labels
    values = np.array([[float(v) for v in line.split("\t")[1:]] for line in lines[1:]])
    np.testing.assert_allclose(values, values.T, atol=1e-12)
    print(PASS.format(n=9, name="clustering pipeline",
                      detail=f"leaf order {group_string}, symmetric {values.shape} TSV"))
