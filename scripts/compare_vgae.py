"""Check that two emofuse trees train the VGAE alike, and time each on the benchmark's graphs.

Usage: python3 scripts/compare_vgae.py PARENT_SRC [CHANGE_SRC]

Each argument is a directory that holds an `emofuse` package; CHANGE_SRC
defaults to this checkout's `src`. The benchmark's generator
(bench/generate.py) writes the inputs of each of its three workloads for
seed SEED, and this checkout builds each workload's graph once and saves it
with `save_graph`. Each round, each tree loads every graph in its own
subprocess, with that tree first on PYTHONPATH and OPENBLAS_NUM_THREADS=1,
and trains `train_vgae` on it CALLS times at the workload's hidden, latent
and epoch sizes, seeded with SEED; the two trees alternate which runs first.

A run's time per epoch is the median gap between consecutive epoch log
records, so setup before the first epoch is left out; its minor page faults
per call are the median over the calls of `resource.getrusage` around each.
One line per graph gives each tree's median over the rounds, the first and
third quartiles of each tree's ms/epoch, the change's speed-up of the
medians, in how many rounds the change was faster than the parent run
beside it, and whether both trees gave bit-equal loss histories and
embeddings; the exit status is 1 on any difference.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile

import numpy as np

from spread import quartiles, wins

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]

import generate  # noqa: E402  (bench/generate.py)
from emofuse.graph import build_cooc_graph, count_cooccurrences, save_graph  # noqa: E402
from emofuse.senses import load_emojinet  # noqa: E402
from emofuse.text_encoder import WordEmbeddingTable  # noqa: E402
from emofuse.tokenization import load_unlabeled_corpus, tokenize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
ROUNDS = 5
CALLS = 3

# Run in each tree's subprocess: argv is the graph directory, hidden, latent,
# epochs, seed, the call count and the path prefix of the outputs.
WORKER = """
import json, logging, resource, statistics, sys, time
import numpy as np
from emofuse.graph import load_graph
from emofuse.vgae import VgaeConfig, train_vgae
graph_dir, out = sys.argv[1], sys.argv[7]
hidden, latent, epochs, seed, calls = (int(a) for a in sys.argv[2:7])
graph = load_graph(graph_dir)
stamps = []

class Stamp(logging.Handler):
    def emit(self, record):
        stamps.append(time.perf_counter())

logger = logging.getLogger("emofuse")
logger.addHandler(Stamp())
logger.setLevel(logging.INFO)
logger.propagate = False
gaps, faults = [], []
for _ in range(calls):
    stamps.clear()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    embeddings, _, history = train_vgae(graph, VgaeConfig(hidden, latent, epochs), np.random.default_rng(seed))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    gaps += [b - a for a, b in zip(stamps, stamps[1:])]
np.save(out + ".npy", embeddings.vectors)
with open(out + ".json", "w", encoding="utf-8") as fh:
    json.dump(history, fh)
print(json.dumps({"epoch_ms": 1e3 * statistics.median(gaps), "faults": statistics.median(faults)}))
"""


def build_graphs(directory: str) -> dict[str, tuple[str, int]]:
    """Each workload's graph directory and node count, built once from the generator's inputs."""
    word_table = WordEmbeddingTable.load(os.path.join(ROOT, "data", "toy_word_vectors.txt"))
    graphs = {}
    for name, spec in WORKLOADS.items():
        inputs = generate.make_inputs(spec, SEED, os.path.join(directory, name), os.path.join(ROOT, "data"))
        counts = count_cooccurrences(tokenize(text) for text in load_unlabeled_corpus(inputs.unlabeled_path))
        graph = build_cooc_graph(counts, load_emojinet(inputs.inventory_path), word_table)
        graph_dir = os.path.join(directory, name, "graph")
        save_graph(graph, graph_dir)
        graphs[name] = (graph_dir, graph.size)
    return graphs


def run_tree(tree: str, graph_dir: str, sizes: tuple[int, int, int], out: str) -> dict[str, float]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath(tree), env.get("PYTHONPATH")]))
    args = [sys.executable, "-c", WORKER, graph_dir, *(str(v) for v in sizes), str(SEED), str(CALLS), out]
    result = subprocess.run(args, env=env, capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(f"{tree}: training on {graph_dir} exited {result.returncode}:\n{result.stderr}")
    return json.loads(result.stdout)


def same_outputs(paths: list[str]) -> tuple[bool, bool]:
    """Whether the two runs' loss histories, then embeddings, are bit-equal."""
    histories = []
    for path in paths:
        with open(path + ".json", encoding="utf-8") as fh:
            histories.append(json.load(fh))
    first, second = (np.load(path + ".npy") for path in paths)
    embeddings = first.shape == second.shape and first.tobytes() == second.tobytes()
    return histories[0] == histories[1], embeddings


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        sys.exit(__doc__.strip().splitlines()[2])
    trees = [argv[0], argv[1] if len(argv) == 2 else os.path.join(ROOT, "src")]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "emofuse", "__init__.py")):
            sys.exit(f"{tree} holds no emofuse package")
    equal = True
    print(f"{'graph':<17} {'nodes':>5} {'parent ms/epoch':>16} {'parent IQR':>15} {'change ms/epoch':>16} "
          f"{'change IQR':>15} {'speed-up':>9} {'wins':>5} {'parent faults':>14} {'change faults':>14}  "
          f"history  embeddings")
    with tempfile.TemporaryDirectory() as tmp:
        for name, (graph_dir, nodes) in build_graphs(tmp).items():
            runs: list[list[dict[str, float]]] = [[], []]
            outs = [os.path.join(tmp, name, f"tree{k}") for k in range(2)]
            for r in range(ROUNDS):
                for k in (0, 1) if r % 2 == 0 else (1, 0):
                    runs[k].append(run_tree(trees[k], graph_dir, WORKLOADS[name].vgae, outs[k]))
            history, embeddings = same_outputs(outs)
            equal = equal and history and embeddings
            times = [[run["epoch_ms"] for run in runs[k]] for k in (0, 1)]
            ms = [statistics.median(t) for t in times]
            faults = [statistics.median(run["faults"] for run in runs[k]) for k in (0, 1)]
            print(f"{name:<17} {nodes:>5} {ms[0]:>16.3f} {quartiles(times[0], 3):>15} {ms[1]:>16.3f} "
                  f"{quartiles(times[1], 3):>15} {ms[0] / ms[1]:>8.2f}x {wins(*times):>5} "
                  f"{faults[0]:>14.0f} {faults[1]:>14.0f}  {'equal' if history else 'DIFFER':<7}  "
                  f"{'equal' if embeddings else 'DIFFER'}", flush=True)
    print("histories and embeddings bit-equal on every graph" if equal else "outputs differ")
    return 0 if equal else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
