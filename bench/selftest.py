"""Self-tests of the benchmark's own code.

    python3 bench/selftest.py

Run from the repository root; it imports emofuse from src/. The file name
keeps it out of the program's pytest collection.
"""

from __future__ import annotations

import dataclasses
import filecmp
import json
import os
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import generate  # noqa: E402
import hostspeed  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from emofuse import model as emofuse_model  # noqa: E402
from emofuse.graph import build_cooc_graph, count_cooccurrences  # noqa: E402
from emofuse.senses import load_emojinet  # noqa: E402
from emofuse.text_encoder import WordEmbeddingTable  # noqa: E402
from emofuse.tokenization import tokenize  # noqa: E402

DATA = os.path.join(ROOT, "data")
OUT = os.path.join(ROOT, ".bench_out")
WORD_VECTORS = os.path.join(DATA, "toy_word_vectors.txt")


def scratch_dir():
    """A temporary directory inside the checkout, as the benchmark itself uses."""
    os.makedirs(OUT, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT)


def shrunk(name: str) -> workloads.Workload:
    """A workload's shape at a size that runs in about a second."""
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(
        w, graph_posts=60, vgae=(8, 4, 3), train_posts=6, heldout_posts=4,
        classifier=dict(w.classifier, epochs=2, batch_size=4),
        graph_rounds=1, clusters_per_round=1,
        inventory_size=min(w.inventory_size, 30), emoji_dim=min(w.emoji_dim, 8),
        accuracy_target=None)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_files_other_seed_other_files(self):
        spec = shrunk("classifier-paper")
        with scratch_dir() as tmp:
            dirs = [os.path.join(tmp, d) for d in ("a", "b", "c")]
            for directory, seed in zip(dirs, (5, 5, 6)):
                generate.make_inputs(spec, seed, directory, DATA)
            names = sorted(os.listdir(dirs[0]))
            self.assertEqual(names, ["emoji_table.txt", "heldout.jsonl", "inventory.json",
                                     "train.jsonl", "unlabeled.txt"])
            _, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
            self.assertEqual((mismatch, errors), ([], []))
            _, mismatch, _ = filecmp.cmpfiles(dirs[0], dirs[2], names, shallow=False)
            self.assertTrue(mismatch)

    def test_work_shape_does_not_depend_on_seed(self):
        vocab = generate.read_vocabulary(WORD_VECTORS)
        groups, missing = (["\U0001F600"], ["\U0001F622"]), ["\U0001F680"]

        def shapes(seed):
            posts = generate.grouped_labeled(np.random.default_rng(seed), 40, vocab, groups, missing,
                                             (8, 80), (0, 4))
            return sorted((len(text.split()), text.count("\U0001F680")) for text, _ in posts)

        self.assertEqual(shapes(1), shapes(2))
        self.assertEqual(sum(m for _, m in shapes(1)), 8)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        span = tracing.Span
        spans = [
            span("root", 0.0, 10.0, -1, 0),
            span("a", 1.0, 4.0, 0, 0),
            span("a.child", 2.0, 3.0, 1, 0),
            span("b", 5.0, 9.0, 0, 0),
            span("b.x", 5.0, 7.0, 3, 0),
            span("b.y", 6.0, 8.0, 3, 0),  # overlaps b.x: covered once
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 1.0, 2.0, 2.0])

    def test_stage_of_nested(self):
        span = tracing.Span
        spans = [span("stage.train", 0, 5, -1, 0), span("model.forward", 1, 2, 0, 0),
                 span("text_encoder.encode", 1, 1.5, 1, 0), span("other", 6, 7, -1, 0)]
        self.assertEqual(tracing.stage_of(spans), ["stage.train"] * 3 + [""])


class PairOracleTest(unittest.TestCase):
    def test_hand_counted(self):
        oracle = generate.pair_oracle([frozenset("abc"), frozenset("ab"), frozenset("a")])
        self.assertEqual(oracle, {("a", "b"): 2, ("a", "c"): 1, ("b", "c"): 1})

    def test_matches_the_program_on_a_tiny_corpus(self):
        corpus = generate.tiny_unlabeled(np.random.default_rng(3), 80)
        counts = count_cooccurrences([tokenize(t) for t in corpus.texts])
        graph = build_cooc_graph(counts, load_emojinet(os.path.join(DATA, "sample_inventory.json")),
                                 WordEmbeddingTable.load(WORD_VECTORS))
        self.assertTrue(workloads.pairs_match(graph, corpus.emoji_sets))
        wrong = [frozenset(s | {"\U0001F600", "\U0001F622"}) for s in corpus.emoji_sets]
        self.assertFalse(workloads.pairs_match(graph, wrong))


class EpochClockTest(unittest.TestCase):
    def test_one_interval_per_epoch(self):
        clock = workloads.EpochClock()
        clock.ends = [1.5, 2.0, 4.0]
        self.assertEqual(clock.epochs(1.0, 4.0, 3), [(1.0, 1.5, 1), (1.5, 2.0, 1), (2.0, 4.0, 1)])
        self.assertEqual(clock.epochs(1.0, 4.0, 2), [(1.0, 4.0, 2)])  # records missing: whole call

    def test_sees_every_training_epoch(self):
        with scratch_dir() as tmp:
            spec = shrunk("graph-paper")
            inputs = generate.make_inputs(spec, 2, tmp, DATA)
            loaded = workloads.setup(spec, inputs, WORD_VECTORS, 2, tracing.NullTracer())
            runner = workloads.Runner(spec, inputs, loaded, 2)
            with runner.clock:
                results = workloads.Results()
                runner.iteration(0, results, tracing.NullTracer())
                self.assertEqual(len(runner.clock.ends), spec.classifier["epochs"])
            self.assertEqual(len(results.vgae_epochs), spec.vgae[2])
            self.assertEqual(len(results.train_epochs), spec.classifier["epochs"])


class HostSpeedTest(unittest.TestCase):
    def test_scales_by_the_neighbouring_bursts(self):
        host = hostspeed.HostSpeed()
        nominal, halo = hostspeed.NOMINAL_S, hostspeed.HALO
        host.starts = [0.0, 10.0, 10.0 + halo, 10.0 + 3 * halo, 20.0]
        host.ends = [start + cost * nominal for start, cost in zip(host.starts, (1, 2, 4, 8, 1))]
        # the bursts within HALO of the interval: median of 2 and 4; the one
        # at 10.0 + HALO runs inside it and is taken out of its length
        start, end = 10.0 + 0.4 * halo, 10.0 + 1.6 * halo
        self.assertAlmostEqual(host.net(start, end), end - start - 4 * nominal)
        self.assertAlmostEqual(host.scaled(start, end), (end - start - 4 * nominal) / 3)
        # none within HALO: the burst nearest to the start
        self.assertAlmostEqual(host.scaled(3.0, 4.0), 1.0)
        self.assertAlmostEqual(host.scaled(18.0, 18.5), 0.5)

    def test_bursts_run_inside_a_long_call(self):
        with hostspeed.HostSpeed() as host:
            began = time.perf_counter()
            while time.perf_counter() - began < 4 * hostspeed.INTERVAL:
                pass
            ended = time.perf_counter()
        self.assertGreaterEqual(len(host.costs), 2)
        self.assertLess(host.net(began, ended), ended - began)


class MetricNamesTest(unittest.TestCase):
    """Both result kinds carry exactly the names BENCHMARK.json declares."""

    def test_every_workload_prints_declared_names(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
        self.assertEqual(sorted(w["name"] for w in declared["workloads"]), sorted(workloads.WORKLOADS))
        original_forward = emofuse_model.SentimentModel.forward_logits
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name), scratch_dir() as tmp:
                spec = shrunk(name)
                inputs = generate.make_inputs(spec, 1, tmp, DATA)
                null = tracing.NullTracer()
                loaded = workloads.setup(spec, inputs, WORD_VECTORS, 1, null)
                with hostspeed.HostSpeed() as host:
                    began = time.perf_counter()
                    untraced = workloads.Runner(spec, inputs, loaded, 1).run(0.0, null)
                e2e = metrics.end_to_end(untraced, [(began, began + 0.1)], 1.0, host.scaled)
                self.assertEqual(set(e2e), {m["name"] for m in declared["end_to_end"]})

                tracer = tracing.Tracer()
                tracer.install()
                try:
                    loaded = workloads.setup(spec, inputs, WORD_VECTORS, 1, tracer)
                    traced = workloads.Runner(spec, inputs, loaded, 1).run(0.0, tracer)
                finally:
                    tracer.uninstall()
                self.assertIs(emofuse_model.SentimentModel.forward_logits, original_forward)
                layers = metrics.per_layer(traced, untraced, tracer.spans, inputs.corpus.inserted)
                self.assertEqual(set(layers), {m["name"] for m in declared["per_layer"]})
                self.assertTrue(run.histories_identical(traced.histories, untraced.histories))


if __name__ == "__main__":
    unittest.main()
