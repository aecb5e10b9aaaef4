"""Check that two emofuse trees write byte-equal CLI artifacts.

Usage: python3 scripts/compare_cli_artifacts.py PARENT_SRC [CHANGE_SRC]

Each argument is a directory that holds an `emofuse` package; CHANGE_SRC
defaults to this checkout's `src`. Three passes each write their inputs once
and copy them into one run directory per tree, so both trees read the same
paths and echo the same ones into `classifier_meta.json` and
`eval_report.json`:

- criterion-8: the inputs of acceptance criterion 8
  (`tests/test_acceptance._populate_cli_dir`), a 40-post corpus over 4 emojis;
- graph-paper: the same, but with `unlabeled_corpus` and `inventory` taken
  from the benchmark's generator (bench/generate.py) for the graph-paper
  workload and seed 7, a graph of about 320 nodes and 12,000 pairs;
- ablation-T: criterion 8's inputs with `ablation = T` appended to `run.cfg`,
  the wiring that reads the raw emoji rows, so its checkpoint stores
  `proj_emoji` but no `unit_emoji`.

Criterion 8's six subcommands then run in each directory, with that tree
first on PYTHONPATH and OPENBLAS_NUM_THREADS=1. One line is printed per pass
and file of `graph/` and `out/`; the exit status is 1 on any difference or
missing file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]

import generate  # noqa: E402  (bench/generate.py)
from conftest import WORD_VECTORS_PATH  # noqa: E402
from test_acceptance import CLI_CONFIG, _populate_cli_dir  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# criterion 8's pipeline, in its order
SUBCOMMANDS = [
    ("build-graph",), ("train-vgae",), ("train-classifier",), ("evaluate",), ("cluster-viz",),
    ("export-embeddings", "--set", "checkpoint=out/vgae.ntc", "--set", "embeddings=out/exported.txt"),
]
ARTIFACT_DIRS = ("graph", "out")
SEED = 7


def populate_graph_paper(inputs: str) -> None:
    """Criterion 8's inputs with the graph-paper workload's corpus and inventory for SEED."""
    _populate_cli_dir(inputs)
    beside = os.path.join(os.path.dirname(inputs), "generated")  # so that the run directories do not copy it
    generated = generate.make_inputs(WORKLOADS["graph-paper"], SEED, beside, os.path.join(ROOT, "data"))
    shutil.copyfile(generated.unlabeled_path, os.path.join(inputs, "unlabeled.txt"))
    with open(os.path.join(inputs, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write(CLI_CONFIG.format(inventory=generated.inventory_path, vectors=WORD_VECTORS_PATH))


def populate_ablation_t(inputs: str) -> None:
    """Criterion 8's inputs, training the `T` wiring."""
    _populate_cli_dir(inputs)
    with open(os.path.join(inputs, "run.cfg"), "a", encoding="utf-8") as fh:
        fh.write("ablation = T\n")


PASSES = {"criterion-8": _populate_cli_dir, "graph-paper": populate_graph_paper,
          "ablation-T": populate_ablation_t}


def run_pipeline(tree: str, cwd: str) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath(tree), env.get("PYTHONPATH")]))
    for subcommand in SUBCOMMANDS:
        result = subprocess.run([sys.executable, "-m", "emofuse", subcommand[0], "--config", "run.cfg",
                                 *subcommand[1:]], cwd=cwd, env=env, capture_output=True, text=True)
        if result.returncode != 0:
            sys.exit(f"{tree}: {subcommand[0]} exited {result.returncode}:\n{result.stderr}")


def compare(pass_name: str, parent: str, change: str) -> bool:
    """Print one line per artifact; True when every one is present in both and byte-equal."""
    equal = True
    for rel_dir in ARTIFACT_DIRS:
        names = sorted(set(os.listdir(os.path.join(parent, rel_dir))) |
                       set(os.listdir(os.path.join(change, rel_dir))))
        for name in names:
            paths = [os.path.join(run, rel_dir, name) for run in (parent, change)]
            if not all(os.path.isfile(p) for p in paths):
                status = "missing in " + ("parent" if not os.path.isfile(paths[0]) else "change")
            else:
                with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
                    status = "equal" if a.read() == b.read() else "DIFFERS"
            equal = equal and status == "equal"
            print(f"{status:>17}  {pass_name:<11}  {rel_dir}/{name}", flush=True)
    return equal


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        sys.exit(__doc__.strip().splitlines()[2])
    trees = [argv[0], argv[1] if len(argv) == 2 else os.path.join(ROOT, "src")]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "emofuse", "__init__.py")):
            sys.exit(f"{tree} holds no emofuse package")
    equal = True
    for pass_name, populate in PASSES.items():
        with tempfile.TemporaryDirectory() as tmp:
            inputs = os.path.join(tmp, "inputs")
            os.mkdir(inputs)
            populate(inputs)
            runs = []
            for label, tree in zip(("parent", "change"), trees):
                run = os.path.join(tmp, label)
                shutil.copytree(inputs, run)
                run_pipeline(tree, run)
                runs.append(run)
            equal = compare(pass_name, *runs) and equal
    print("all artifacts byte-equal on every pass" if equal else "artifacts differ")
    return 0 if equal else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
