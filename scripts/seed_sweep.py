#!/usr/bin/env python3
"""Count how often the classifier misses its train-accuracy target across seeds.

    python3 scripts/seed_sweep.py [--seeds 7 603 ...] [--shuffles 7]

For each corpus seed, the benchmark's generator (bench/generate.py) writes a
pipeline-tiny corpus. The graph is built and the VGAE trained once, as the
benchmark does. Then a classifier at the acceptance dims is trained once per
shuffle seed `seed + k`, k = 0 .. shuffles - 1, each on a fresh model drawn
from `seed`. One line per run gives the best train accuracy over the epochs,
the held-out accuracy and the final loss; the last line counts the runs whose
best train accuracy is below the benchmark's target for the workload (0.95)
and states the BLAS thread count. Like bench/run.py, the script pins that
count before numpy loads: other counts can give other low bits, and so
another miss count.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]

import generate  # noqa: E402  (bench/generate.py)
from emofuse.config import RunConfig  # noqa: E402
from emofuse.graph import build_cooc_graph, count_cooccurrences  # noqa: E402
from emofuse.model import SentimentModel  # noqa: E402
from emofuse.pipeline import evaluate, train_classifier  # noqa: E402
from emofuse.senses import load_emojinet  # noqa: E402
from emofuse.text_encoder import WordEmbeddingTable  # noqa: E402
from emofuse.tokenization import load_labeled_dataset, load_unlabeled_corpus, tokenize  # noqa: E402
from emofuse.vgae import VgaeConfig, train_vgae  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEEDS = (7, 603, 1301, 11, 2301, 1, 2, 3, 4, 5, 6)


def sweep_corpus(seed: int, shuffles: int, word_table, directory: str):
    """Yield (k, best train accuracy, held-out accuracy, final loss) for one corpus seed."""
    spec = WORKLOADS["pipeline-tiny"]
    inputs = generate.make_inputs(spec, seed, directory, os.path.join(ROOT, "data"))
    inventory = load_emojinet(inputs.inventory_path)
    counts = count_cooccurrences(tokenize(text) for text in load_unlabeled_corpus(inputs.unlabeled_path))
    graph = build_cooc_graph(counts, inventory, word_table)
    hidden, latent, epochs = spec.vgae
    vectors, _, _ = train_vgae(graph, VgaeConfig(hidden, latent, epochs), np.random.default_rng(seed))
    train, _ = load_labeled_dataset(inputs.train_path)
    heldout, _ = load_labeled_dataset(inputs.heldout_path)
    config = RunConfig(seed=seed, **spec.classifier)
    for k in range(shuffles):
        model = SentimentModel(config, word_table, vectors, np.random.default_rng(seed))
        history = train_classifier(model, train, np.random.default_rng(seed + k))
        yield (k, max(h.accuracy for h in history), evaluate(model, heldout).accuracy,
               history[-1].loss)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    parser.add_argument("--shuffles", type=int, default=7)
    args = parser.parse_args(argv)
    target = WORKLOADS["pipeline-tiny"].accuracy_target
    word_table = WordEmbeddingTable.load(os.path.join(ROOT, "data", "toy_word_vectors.txt"))
    runs = misses = 0
    print("corpus\tshuffle\tbest_train\theldout\tfinal_loss\tmiss")
    with tempfile.TemporaryDirectory() as directory:
        for seed in args.seeds:
            for k, best, heldout, loss in sweep_corpus(seed, args.shuffles, word_table, directory):
                miss = best < target
                runs += 1
                misses += miss
                print(f"{seed}\t{seed + k}\t{best:.4f}\t{heldout:.4f}\t{loss:.6f}\t{'MISS' if miss else ''}",
                      flush=True)
    print(f"misses: {misses} of {runs} runs below best train accuracy {target}, "
          f"{BLAS_THREADS} BLAS thread")
    return 0


if __name__ == "__main__":
    sys.exit(main())
