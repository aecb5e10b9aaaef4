import json

import numpy as np
import pytest

from conftest import INVENTORY_PATH, WORD_VECTORS_PATH, make_emoji_labeled_posts, write_jsonl
from emofuse import vgae
from emofuse.cli import cli_main
from emofuse.vgae import EmojiEmbeddings


def write_unlabeled(path, seed=30, n=50):
    rng = np.random.default_rng(seed)
    words = ["happy", "sad", "love", "rain", "sun", "party", "dog", "music"]
    pos = ["\U0001F600", "\U0001F389"]
    neg = ["\U0001F622", "\U0001F44E"]
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(n):
            count = int(rng.integers(3, 7))
            tokens = [words[i] for i in rng.integers(0, len(words), count)]
            group = pos if rng.random() < 0.5 else neg
            picks = rng.choice(len(group), size=int(rng.integers(1, 3)), replace=False)
            for p in picks:
                tokens.insert(int(rng.integers(0, len(tokens) + 1)), group[p])
            fh.write(" ".join(tokens) + "\n")


CONFIG_TEMPLATE = """
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
vgae_epochs = 10
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


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_unlabeled(tmp_path / "unlabeled.txt")
    write_jsonl(tmp_path / "train.jsonl", make_emoji_labeled_posts(16, seed=31))
    write_jsonl(tmp_path / "test.jsonl", make_emoji_labeled_posts(8, seed=32))
    (tmp_path / "run.cfg").write_text(
        CONFIG_TEMPLATE.format(inventory=INVENTORY_PATH, vectors=WORD_VECTORS_PATH),
        encoding="utf-8")
    return tmp_path


class TestCliErrors:
    def test_missing_config_flag_names_it(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["evaluate"])
        assert exc.value.code != 0
        assert "--config" in capsys.readouterr().err

    def test_unknown_subcommand_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["frobnicate", "--config", "x"])
        assert exc.value.code != 0
        assert "usage" in capsys.readouterr().err.lower()

    def test_nonexistent_config_path(self, tmp_path, capsys):
        code = cli_main(["build-graph", "--config", str(tmp_path / "missing.cfg")])
        assert code != 0
        assert "error" in capsys.readouterr().err.lower()

    def test_missing_required_config_key(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n", encoding="utf-8")
        code = cli_main(["build-graph", "--config", str(path)])
        assert code != 0
        assert "unlabeled_corpus" in capsys.readouterr().err


class TestCliPipeline:
    def test_full_workflow(self, workspace, capsys):
        assert cli_main(["build-graph", "--config", "run.cfg"]) == 0
        assert (workspace / "graph" / "nodes.txt").exists()
        assert (workspace / "graph" / "edges.tsv").exists()
        assert (workspace / "graph" / "attributes.txt").exists()

        assert cli_main(["train-vgae", "--config", "run.cfg"]) == 0
        assert (workspace / "out" / "embeddings.txt").exists()
        assert (workspace / "out" / "vgae_history.csv").exists()
        emb = EmojiEmbeddings.load(workspace / "out" / "embeddings.txt")
        assert emb.dimension == 6

        assert cli_main(["train-classifier", "--config", "run.cfg"]) == 0
        assert (workspace / "out" / "classifier.ntc").exists()
        assert (workspace / "out" / "train_history.csv").exists()

        assert cli_main(["evaluate", "--config", "run.cfg"]) == 0
        report_path = workspace / "out" / "eval_report.json"
        assert report_path.exists()
        report = json.loads(report_path.read_text(encoding="utf-8"))
        confusion = np.array(report["confusion"])
        assert report["accuracy"] == pytest.approx(np.trace(confusion) / confusion.sum())
        stdout = capsys.readouterr().out
        assert '"accuracy"' in stdout

        assert cli_main(["export-embeddings", "--config", "run.cfg",
                         "--set", "checkpoint=out/vgae.ntc",
                         "--set", "embeddings=out/exported.txt"]) == 0
        assert (workspace / "out" / "exported.txt").read_bytes() == \
            (workspace / "out" / "embeddings.txt").read_bytes()

        assert cli_main(["cluster-viz", "--config", "run.cfg"]) == 0
        matrix = (workspace / "out" / "cluster_matrix.tsv").read_text(encoding="utf-8")
        assert matrix.startswith("emoji\t")

    def test_seed_flag_overrides_config(self, workspace):
        assert cli_main(["build-graph", "--config", "run.cfg"]) == 0
        assert cli_main(["train-vgae", "--config", "run.cfg",
                         "--set", "output_dir=a", "--seed", "1"]) == 0
        assert cli_main(["train-vgae", "--config", "run.cfg",
                         "--set", "output_dir=b", "--seed", "2"]) == 0
        a = (workspace / "a" / "embeddings.txt").read_text(encoding="utf-8")
        b = (workspace / "b" / "embeddings.txt").read_text(encoding="utf-8")
        assert a != b

    def test_evaluate_rejects_label_overflow(self, workspace, capsys):
        assert cli_main(["build-graph", "--config", "run.cfg"]) == 0
        assert cli_main(["train-vgae", "--config", "run.cfg"]) == 0
        assert cli_main(["train-classifier", "--config", "run.cfg"]) == 0
        bad = workspace / "bad_test.jsonl"
        bad.write_text('{"text": "hi \U0001F600", "label": 5}\n', encoding="utf-8")
        code = cli_main(["evaluate", "--config", "run.cfg", "--set", "test_data=bad_test.jsonl"])
        assert code != 0
        assert "classes" in capsys.readouterr().err

    def test_nonfinite_vgae_loss_exits_1_without_embeddings(self, workspace, capsys, monkeypatch):
        assert cli_main(["build-graph", "--config", "run.cfg"]) == 0
        original = vgae.vgae_loss
        monkeypatch.setattr(vgae, "vgae_loss", lambda *args: original(*args) * float("nan"))
        assert cli_main(["train-vgae", "--config", "run.cfg"]) == 1
        assert "error: vgae loss is nan at epoch 1/10" in capsys.readouterr().err
        assert not (workspace / "out" / "embeddings.txt").exists()

    def test_truncated_checkpoints_exit_1_with_the_file_named(self, workspace, capsys):
        assert cli_main(["build-graph", "--config", "run.cfg"]) == 0
        assert cli_main(["train-vgae", "--config", "run.cfg"]) == 0
        assert cli_main(["train-classifier", "--config", "run.cfg"]) == 0
        capsys.readouterr()
        for name in ("vgae.ntc", "classifier.ntc"):
            path = workspace / "out" / name
            path.write_bytes(path.read_bytes()[:-3])
        code = cli_main(["export-embeddings", "--config", "run.cfg", "--set", "checkpoint=out/vgae.ntc"])
        assert code == 1
        assert "error: tensor container out/vgae.ntc is truncated" in capsys.readouterr().err
        assert cli_main(["evaluate", "--config", "run.cfg"]) == 1
        assert "classifier.ntc is truncated" in capsys.readouterr().err
