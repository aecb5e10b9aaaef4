"""The benchmark workloads, their output checks, and the closed loop that runs them.

Every workload runs every stage of the paper's two-stage pipeline through
emofuse's public API: build the co-occurrence graph, train the VGAE, cluster
emoji embeddings, train the classifier, predict each held-out post, and
evaluate. The workloads differ in which stages get paper-sized inputs; the
others run at the acceptance suite's sizes, so that every end-to-end metric
has a value on every workload. Each workload is a closed loop with one
client: one call in flight, the next started when it returns, iterations
repeated while another one fits in the run's seconds.
"""

from __future__ import annotations

import logging
import math
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from emofuse import tokenization
from emofuse.clustering import cluster_similarity
from emofuse.config import RunConfig
from emofuse.exceptions import EmofuseError
from emofuse.graph import build_cooc_graph, count_cooccurrences
from emofuse.model import SentimentModel
from emofuse.pipeline import evaluate, train_classifier
from emofuse.senses import load_emojinet
from emofuse.text_encoder import WordEmbeddingTable
from emofuse.tokenization import EMOJI, load_labeled_dataset, load_unlabeled_corpus
from emofuse.vgae import EmojiEmbeddings, VgaeConfig, train_vgae

from generate import DEFECT_EMOJIS, canonical, pair_oracle

# The acceptance suite's OVERFIT_CONFIG classifier (criterion 4).
TINY_CLASSIFIER = dict(num_classes=2, epochs=20, lr=0.01, batch_size=16, max_len=16,
                       lstm_hidden=8, fusion_dim=16, ffn_dim=32, kernel_sizes=(2, 3), filters=4)
TINY_VGAE = (32, 16, 50)
PAPER_VGAE = (256, 300, 50)
CLUSTER_TOP_K = 64
SETUP_SECONDS = 1.0  # set up again until this much time is spent, at least SETUP_MIN times
SETUP_MIN = 5


@dataclass(frozen=True)
class Workload:
    name: str
    graph_posts: int
    vgae: tuple[int, int, int]  # hidden, latent, epochs
    classifier: dict            # RunConfig fields over its defaults
    train_posts: int
    heldout_posts: int
    graph_rounds: int           # build_graph, train_vgae, cluster rounds per iteration
    clusters_per_round: int
    inventory_size: int = 0     # 0: the shipped sample inventory and its tiny corpora
    missing_emojis: int = 0     # corpus emojis left out of the generated inventory
    emoji_dim: int = 0          # 0: the classifier reads the VGAE embeddings
    post_words: tuple[int, int] = (4, 8)
    post_emojis: tuple[int, int] = (1, 1)
    accuracy_target: float | None = None  # best train accuracy the classifier must reach


# BENCHMARK.json records why each workload exists. In short: pipeline-tiny
# is bound by per-op tape overhead, classifier-paper by backward and GEMMs on
# ragged posts, graph-paper by the tokenizer and the dense N x N VGAE.
WORKLOADS = {w.name: w for w in (
    Workload(
        # One iteration (about 55 s on a 2-core VM) is the whole pipeline in
        # order; the 20-epoch training call alone is about 50 s of it.
        name="pipeline-tiny",
        graph_posts=300, vgae=TINY_VGAE, classifier=TINY_CLASSIFIER,
        train_posts=200, heldout_posts=200, accuracy_target=0.95,
        graph_rounds=40, clusters_per_round=10,
    ),
    Workload(
        # Each training call is one epoch over the same 32 ragged posts, one
        # full batch of the paper's 32, and keeps training the same model.
        name="classifier-paper",
        graph_posts=300, vgae=TINY_VGAE, classifier=dict(num_classes=2, epochs=1),
        train_posts=32, heldout_posts=16, inventory_size=300, missing_emojis=24,
        emoji_dim=300, post_words=(8, 80), post_emojis=(0, 4),
        graph_rounds=2, clusters_per_round=3,
    ),
    Workload(
        name="graph-paper",
        graph_posts=20000, vgae=PAPER_VGAE, classifier=dict(TINY_CLASSIFIER, epochs=4),
        train_posts=64, heldout_posts=100, inventory_size=300, missing_emojis=24,
        emoji_dim=16, graph_rounds=1, clusters_per_round=10,
    ),
)}


@dataclass
class Results:
    """What one pass of the loop measured and checked.

    Timed calls are kept as (start, end) perf_counter intervals, so that
    metrics can scale each one by the host speed measured next to it.
    """

    build: list[tuple[float, float, int]] = field(default_factory=list)  # start, end, posts
    vgae_epochs: list[tuple[float, float, int]] = field(default_factory=list)  # start, end, epochs
    train_epochs: list[tuple[float, float, int]] = field(default_factory=list)  # start, end, post-epochs
    train_post_epochs: list[int] = field(default_factory=list)
    train_s: list[float] = field(default_factory=list)
    predict: list[tuple[float, float]] = field(default_factory=list)
    evaluate_s: list[float] = field(default_factory=list)
    cluster: list[tuple[float, float]] = field(default_factory=list)
    iteration_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    exact_failures: int = 0
    failures: Counter = field(default_factory=Counter)
    histories: list[tuple[str, list[float]]] = field(default_factory=list)
    nonfinite_epochs: list[int] = field(default_factory=list)
    graph_nodes: int = 0
    graph_pairs: int = 0
    emoji_tokens: int = 0
    tokens: int = 0
    eval_accuracy: float = float("nan")

    def check(self, stage: str, ok: bool, exact: bool):
        """Count one stage call. An `exact` check failing means a wrong answer, not a diverged one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[stage] += 1
            if exact:
                self.exact_failures += 1


class EpochClock(logging.Handler):
    """Reads the end of each training epoch off the program's per-epoch log record.

    `train_classifier` and `train_vgae` log one INFO record per epoch, so a
    call of E epochs yields E intervals: many samples from one long call.
    """

    FUNCTIONS = ("train_classifier", "train_vgae")

    def __init__(self):
        super().__init__(logging.INFO)
        self.ends: list[float] = []
        self.logger = logging.getLogger("emofuse")
        self.level_before = self.logger.level

    def emit(self, record):
        if record.funcName in self.FUNCTIONS:
            self.ends.append(time.perf_counter())

    def __enter__(self):
        self.logger.addHandler(self)
        self.logger.setLevel(logging.INFO)
        return self

    def __exit__(self, *exc):
        self.logger.removeHandler(self)
        self.logger.setLevel(self.level_before)

    def epochs(self, began: float, ended: float, epochs: int) -> list[tuple[float, float, int]]:
        """(start, end, 1) per epoch of the call, or (began, ended, epochs) if records are missing."""
        if len(self.ends) != epochs:
            return [(began, ended, epochs)]
        return [(start, end, 1) for start, end in zip([began] + self.ends[:-1], self.ends)]


@dataclass
class GraphState:
    """The latest graph-stage outputs, which later stages read."""

    graph: object = None
    counts: object = None
    vectors: EmojiEmbeddings | None = None


@dataclass
class Loaded:
    inventory: object
    word_table: WordEmbeddingTable
    emoji_table: EmojiEmbeddings | None
    model: SentimentModel


def classifier_config(workload: Workload, seed: int) -> RunConfig:
    return RunConfig(seed=seed, **workload.classifier)


def setup(workload: Workload, inputs, word_vectors: str, seed: int, tracer) -> Loaded:
    """Load the inventory and tables and build the classifier: what `setup_s` times."""
    with tracer.span("stage.setup"):
        with tracer.span("senses.load"):
            inventory = load_emojinet(inputs.inventory_path)
        with tracer.span("vectors.read"):
            word_table = WordEmbeddingTable.load(word_vectors)
        table = None
        if inputs.emoji_table_path is not None:
            with tracer.span("vectors.read"):
                table = EmojiEmbeddings.load(inputs.emoji_table_path)
            rows = table
        else:
            # the real model is built on each iteration's VGAE output; this one
            # has the same parameter shapes, so setup pays the same allocation
            ids = sorted(inventory.entries)
            rows = EmojiEmbeddings(ids=ids, vectors=np.zeros((len(ids), workload.vgae[1])))
        with tracer.span("model.build"):
            model = SentimentModel(classifier_config(workload, seed), word_table, rows,
                                   np.random.default_rng(seed))
    return Loaded(inventory, word_table, table, model)


def pairs_match(graph, emoji_sets) -> bool:
    """Graph pair counts against the generator's own emoji sets.

    Every pair in the graph must carry the generator's count. Every pair of
    emojis the tokenizer covers must be in the graph; pairs with an emoji from
    DEFECT_EMOJIS may be missing, since tokenization.emoji_recall reports those.
    """
    ids = graph.node_ids
    got = {(ids[i], ids[j]): c for (i, j), c in graph.pair_counts.items()}
    oracle = pair_oracle(emoji_sets)
    defects = {canonical(e) for e in DEFECT_EMOJIS}
    if any(oracle.get(pair) != count for pair, count in got.items()):
        return False
    return all(got.get(pair) == count for pair, count in oracle.items()
               if not defects.intersection(pair))


class Runner:
    """One workload's inputs and loaded state; `run` is the closed loop."""

    def __init__(self, workload: Workload, inputs, loaded: Loaded, seed: int):
        self.workload = workload
        self.inputs = inputs
        self.loaded = loaded
        self.seed = seed
        self.texts = list(load_unlabeled_corpus(inputs.unlabeled_path))
        self.train_posts, _ = load_labeled_dataset(inputs.train_path)
        self.heldout_posts, _ = load_labeled_dataset(inputs.heldout_path)
        self.config = classifier_config(workload, seed)
        self.clock = EpochClock()

    def run(self, seconds: float, tracer) -> Results:
        """Iterate while the next iteration, as long as the last, ends within `seconds`."""
        results = Results()
        start = time.perf_counter()
        with self.clock:
            for k in range(1 << 30):
                began = time.perf_counter()
                try:
                    self.iteration(k, results, tracer)
                except EmofuseError:
                    # a typed refusal by the program: the call failed, the run goes on
                    traceback.print_exc(file=sys.stderr)
                    results.check("raised", ok=False, exact=False)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    results.check("raised", ok=False, exact=True)
                now = time.perf_counter()
                results.iteration_s.append(now - began)
                if now - start + results.iteration_s[-1] > seconds:
                    return results

    def iteration(self, k: int, results: Results, tracer):
        """The pipeline in order: rounds of graph, VGAE and clusters, then the classifier's stages."""
        w, state = self.workload, GraphState()
        for _ in range(w.graph_rounds):
            self.build_graph(results, tracer, state)
            self.train_vgae(results, tracer, state)
            for _ in range(w.clusters_per_round):
                self.cluster(results, tracer, state)
        self.classifier_stages(k, results, tracer, state.vectors)

    def build_graph(self, results: Results, tracer, state: GraphState):
        with tracer.span("stage.build_graph"):
            began = time.perf_counter()
            sequences = [tokenization.tokenize(text) for text in self.texts]
            with tracer.span("graph.count"):
                state.counts = count_cooccurrences(sequences)
            state.graph = build_cooc_graph(state.counts, self.loaded.inventory, self.loaded.word_table)
            results.build.append((began, time.perf_counter(), len(self.texts)))
        results.check("build_graph", pairs_match(state.graph, self.inputs.corpus.emoji_sets), exact=True)
        results.graph_nodes, results.graph_pairs = state.graph.size, len(state.graph.pair_counts)
        results.tokens = sum(len(seq) for seq in sequences)
        results.emoji_tokens = sum(1 for seq in sequences for t in seq if t.kind == EMOJI)

    def train_vgae(self, results: Results, tracer, state: GraphState):
        hidden, latent, epochs = self.workload.vgae
        self.clock.ends.clear()
        with tracer.span("stage.train_vgae"):
            began = time.perf_counter()
            state.vectors, _, history = train_vgae(state.graph, VgaeConfig(hidden, latent, epochs),
                                                   np.random.default_rng(self.seed))
            ended = time.perf_counter()
        results.vgae_epochs += self.clock.epochs(began, ended, epochs)
        results.histories.append(("vgae", history))
        nonfinite = sum(not math.isfinite(loss) for loss in history)
        results.nonfinite_epochs.append(nonfinite)
        results.check("train_vgae", nonfinite == 0 and bool(np.isfinite(state.vectors.vectors).all()),
                      exact=False)

    def cluster(self, results: Results, tracer, state: GraphState):
        vectors = state.vectors
        with tracer.span("stage.cluster"):
            began = time.perf_counter()
            clusters = cluster_similarity(vectors, state.counts.occurrences,
                                          min(CLUSTER_TOP_K, len(vectors.ids)))
            results.cluster.append((began, time.perf_counter()))
        results.check("cluster", bool(np.isfinite(clusters.similarity).all()), exact=False)

    def classifier_stages(self, k: int, results: Results, tracer, vgae_embeddings):
        """Train on the training set, predict each held-out post, evaluate the held-out set.

        A workload with a generated emoji table keeps training the model it
        set up; the others build a fresh model on this iteration's VGAE output.
        """
        w, loaded, config = self.workload, self.loaded, self.config
        if loaded.emoji_table is None:
            model = SentimentModel(config, loaded.word_table, vgae_embeddings,
                                   np.random.default_rng(self.seed))
        else:
            model = loaded.model
        posts = self.train_posts
        self.clock.ends.clear()
        with tracer.span("stage.train_classifier"):
            began = time.perf_counter()
            history = train_classifier(model, posts, np.random.default_rng(self.seed + k))
            ended = time.perf_counter()
        results.train_s.append(ended - began)
        results.train_epochs += [(start, end, n * len(posts))
                                 for start, end, n in self.clock.epochs(began, ended, config.epochs)]
        results.train_post_epochs.append(len(posts) * config.epochs)
        results.histories.append(("classifier", [h.loss for h in history]))
        ok = all(math.isfinite(h.loss) for h in history)
        if w.accuracy_target is not None:
            ok = ok and max(h.accuracy for h in history) >= w.accuracy_target
        results.check("train_classifier", ok, exact=False)

        heldout = self.heldout_posts
        correct = self.predict(results, tracer, model, heldout)
        with tracer.span("stage.evaluate"):
            began = time.perf_counter()
            report = evaluate(model, heldout)
            results.evaluate_s.append(time.perf_counter() - began)
        results.eval_accuracy = report.accuracy
        results.check("evaluate", report.total == len(heldout)
                      and report.accuracy == correct / len(heldout), exact=True)

    def predict(self, results: Results, tracer, model, posts) -> int:
        """One model.predict call per post, timed alone; returns how many were right."""
        correct = 0
        with tracer.span("stage.predict"):
            for post in posts:
                sequence = tokenization.tokenize(post.text)
                began = time.perf_counter()
                label = model.predict(sequence)
                results.predict.append((began, time.perf_counter()))
                results.check("predict", 0 <= label < self.config.num_classes, exact=True)
                correct += label == post.label
        return correct
