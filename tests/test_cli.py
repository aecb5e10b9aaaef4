import json

import numpy as np
import pytest

from conftest import INVENTORY_PATH, WORD_VECTORS_PATH, make_emoji_labeled_posts, write_jsonl
from emofuse import vgae
from emofuse.autodiff import load_tensors, save_tensors
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

    def test_non_utf8_config_exits_1_naming_the_file_and_byte(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"seed = 1\n# caf\xe9\n")
        assert cli_main(["train-vgae", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {path} is not UTF-8 text: byte 14")
        assert "Traceback" not in err

    def test_missing_required_config_key(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n", encoding="utf-8")
        code = cli_main(["build-graph", "--config", str(path)])
        assert code != 0
        assert "unlabeled_corpus" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("build-graph", "unlabeled_corpus"),
        ("train-vgae", "graph_dir"),
        ("train-classifier", "train_data"),
        ("evaluate", "test_data"),
        ("export-embeddings", "checkpoint"),
        ("cluster-viz", "embeddings"),
    ])
    def test_each_subcommand_requires_its_keys(self, workspace, capsys, command, key):
        assert cli_main([command, "--config", "run.cfg", "--set", f"{key}="]) == 1
        assert f"config key {key!r} is required" in capsys.readouterr().err

    @pytest.mark.parametrize("command, setting", [
        ("train-classifier", "batch_size=0"),
        ("cluster-viz", "top_k=1"),
        ("build-graph", "top_k=0"),
        ("train-classifier", "ffn_dim=-2"),
        ("train-classifier", "lr=-1"),
        ("train-classifier", "lr=nan"),
        ("train-classifier", "epochs=-1"),
        ("train-vgae", "vgae_hidden=-3"),
        ("train-vgae", "vgae_hidden=0"),
        ("train-vgae", "vgae_latent=0"),
        ("train-vgae", "vgae_lr=-1"),
        ("train-vgae", "vgae_epochs=-2"),
    ])
    def test_out_of_range_setting_exits_1_naming_the_key(self, workspace, capsys, command, setting):
        assert cli_main([command, "--config", "run.cfg", "--set", setting]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and setting.split("=")[0] in err

    def test_negative_seed_exits_1_naming_it(self, workspace, capsys):
        assert cli_main(["build-graph", "--config", "run.cfg"]) == 0
        assert cli_main(["train-vgae", "--config", "run.cfg", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err

    def test_odd_emoji_table_dimension_exits_1(self, workspace, capsys):
        (workspace / "odd.txt").write_text("1 5\n\U0001F600 1 2 3 4 5\n", encoding="utf-8")
        code = cli_main(["train-classifier", "--config", "run.cfg", "--set", "embeddings=odd.txt"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: odd.txt: the emoji table has odd dimension 5")
        assert not (workspace / "out" / "classifier.ntc").exists()

    def test_odd_emoji_matrix_in_a_checkpoint_exits_1_naming_the_file(self, workspace, capsys):
        for command in ("build-graph", "train-vgae", "train-classifier"):
            assert cli_main([command, "--config", "run.cfg"]) == 0
        path = workspace / "out" / "classifier.ntc"
        tensors = load_tensors(path)
        tensors["emoji_matrix"] = tensors["emoji_matrix"][:, :5]  # same row count as the id list
        save_tensors(path, tensors)
        capsys.readouterr()
        assert cli_main(["evaluate", "--config", "run.cfg"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: checkpoint {path.relative_to(workspace)}: the emoji table has odd dimension 5")

    def test_cluster_viz_on_a_corpus_without_two_embedded_emojis_names_it(self, workspace, capsys):
        assert cli_main(["build-graph", "--config", "run.cfg"]) == 0
        assert cli_main(["train-vgae", "--config", "run.cfg"]) == 0
        (workspace / "plain.txt").write_text("no emoji here\nnor here \U0001F600\n", encoding="utf-8")
        capsys.readouterr()
        code = cli_main(["cluster-viz", "--config", "run.cfg", "--set", "unlabeled_corpus=plain.txt"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: plain.txt: 1 of the embedded emojis")
        assert not (workspace / "out" / "cluster_matrix.tsv").exists()


class TestCliPipeline:
    def test_full_workflow(self, workspace, capsys):
        assert cli_main(["build-graph", "--config", "run.cfg"]) == 0
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

    def test_evaluate_reads_the_metadata_beside_a_set_checkpoint(self, workspace, capsys):
        assert cli_main(["build-graph", "--config", "run.cfg"]) == 0
        assert cli_main(["train-vgae", "--config", "run.cfg"]) == 0
        assert cli_main(["train-classifier", "--config", "run.cfg"]) == 0
        assert cli_main(["evaluate", "--config", "run.cfg"]) == 0
        report = workspace / "out" / "eval_report.json"
        expected = report.read_text(encoding="utf-8")
        report.unlink()
        (workspace / "saved").mkdir()
        (workspace / "out" / "classifier.ntc").rename(workspace / "saved" / "model.ntc")
        meta = (workspace / "out" / "classifier_meta.json").rename(workspace / "saved" / "model_meta.json")
        assert cli_main(["evaluate", "--config", "run.cfg", "--set", "checkpoint=saved/model.ntc"]) == 0
        assert report.read_text(encoding="utf-8") == expected
        meta.unlink()
        capsys.readouterr()
        assert cli_main(["evaluate", "--config", "run.cfg", "--set", "checkpoint=saved/model.ntc"]) == 1
        assert "saved/model_meta.json" in capsys.readouterr().err

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

    def test_export_with_mismatched_hidden_names_the_tensor(self, workspace, capsys):
        assert cli_main(["build-graph", "--config", "run.cfg"]) == 0
        assert cli_main(["train-vgae", "--config", "run.cfg"]) == 0
        assert list(load_tensors(workspace / "out" / "vgae.ntc")) == [
            "vgae.w_in", "vgae.w_mu", "vgae.w_logvar"]
        capsys.readouterr()
        code = cli_main(["export-embeddings", "--config", "run.cfg", "--set", "checkpoint=out/vgae.ntc",
                         "--set", "vgae_hidden=8", "--set", "embeddings=out/exported.txt"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: out/vgae.ntc: tensor vgae.w_in has shape" in err
        assert not (workspace / "out" / "exported.txt").exists()

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

    def test_nonfinite_checkpoint_values_exit_1_naming_the_file_and_tensor(self, workspace, capsys):
        for command in ("build-graph", "train-vgae", "train-classifier"):
            assert cli_main([command, "--config", "run.cfg"]) == 0
        for name, tensor, bad in (("vgae.ntc", "vgae.w_mu", np.nan), ("classifier.ntc", "cnn.dense_w", np.inf)):
            path = workspace / "out" / name
            tensors = load_tensors(path)
            tensors[tensor].flat[0] = bad
            save_tensors(path, tensors)
        capsys.readouterr()
        code = cli_main(["export-embeddings", "--config", "run.cfg", "--set", "checkpoint=out/vgae.ntc",
                         "--set", "embeddings=out/exported.txt"])
        assert code == 1
        assert "error: tensor container out/vgae.ntc: tensor 'vgae.w_mu' has a nan or inf value" \
            in capsys.readouterr().err
        assert not (workspace / "out" / "exported.txt").exists()
        assert cli_main(["evaluate", "--config", "run.cfg"]) == 1
        assert "classifier.ntc: tensor 'cnn.dense_w' has a nan or inf value" in capsys.readouterr().err
        assert not (workspace / "out" / "eval_report.json").exists()

    def test_nonfinite_exported_means_exit_1_without_a_file(self, workspace, capsys):
        """Finite but huge weights overflow the posterior means; export must not write inf rows."""
        assert cli_main(["build-graph", "--config", "run.cfg"]) == 0
        assert cli_main(["train-vgae", "--config", "run.cfg"]) == 0
        path = workspace / "out" / "vgae.ntc"
        tensors = load_tensors(path)
        for name in ("vgae.w_in", "vgae.w_mu"):
            tensors[name] = tensors[name] * 1e200
        save_tensors(path, tensors)
        capsys.readouterr()
        with np.errstate(all="ignore"):
            code = cli_main(["export-embeddings", "--config", "run.cfg", "--set", "checkpoint=out/vgae.ntc",
                             "--set", "embeddings=out/exported.txt"])
        assert code == 1
        assert "error: vgae embeddings are not finite" in capsys.readouterr().err
        assert not (workspace / "out" / "exported.txt").exists()

    def test_odd_vgae_latent_trains(self, workspace):
        """Only the classifier, which adds positions, needs an even emoji dimension."""
        assert cli_main(["build-graph", "--config", "run.cfg"]) == 0
        assert cli_main(["train-vgae", "--config", "run.cfg", "--set", "vgae_latent=5"]) == 0
        assert EmojiEmbeddings.load(workspace / "out" / "embeddings.txt").dimension == 5

    @pytest.mark.parametrize("meta", [
        "[]",
        "{}",
        '{"config": 3, "emoji_ids": []}',
        '{"config": {}}',
        '{"config": {}, "emoji_ids": "abc"}',
        '{"config": {}, "emoji_ids": [1, 2]}',
        '{"config": {}, "emoji_ids": ["a", "a"]}',
        '{"config": {"kernel_sizes": 5}, "emoji_ids": []}',
        pytest.param("[" * 200_000, id="nested-too-deeply"),
    ])
    def test_bad_classifier_metadata_exits_1_naming_the_file(self, workspace, capsys, meta):
        assert cli_main(["build-graph", "--config", "run.cfg"]) == 0
        assert cli_main(["train-vgae", "--config", "run.cfg"]) == 0
        assert cli_main(["train-classifier", "--config", "run.cfg"]) == 0
        path = workspace / "out" / "classifier_meta.json"
        path.write_text(meta, encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["evaluate", "--config", "run.cfg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "classifier_meta.json" in err

    @pytest.mark.parametrize("reshape", [lambda m: m[:, 0], lambda m: m[:, :, None]], ids=["1-D", "3-D"])
    def test_emoji_matrix_not_2d_exits_1_naming_the_file(self, workspace, capsys, reshape):
        for command in ("build-graph", "train-vgae", "train-classifier"):
            assert cli_main([command, "--config", "run.cfg"]) == 0
        path = workspace / "out" / "classifier.ntc"
        tensors = load_tensors(path)
        tensors["emoji_matrix"] = reshape(tensors["emoji_matrix"])  # same row count as the id list
        save_tensors(path, tensors)
        capsys.readouterr()
        assert cli_main(["evaluate", "--config", "run.cfg"]) == 1
        assert "classifier.ntc has no emoji matrix matching its id list" in capsys.readouterr().err

    def test_stored_negative_seed_exits_1_naming_the_file(self, workspace, capsys):
        for command in ("build-graph", "train-vgae", "train-classifier"):
            assert cli_main([command, "--config", "run.cfg"]) == 0
        path = workspace / "out" / "classifier_meta.json"
        meta = json.loads(path.read_text(encoding="utf-8"))
        meta["config"]["seed"] = -1
        path.write_text(json.dumps(meta), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["evaluate", "--config", "run.cfg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "classifier_meta.json" in err and "seed must be >= 0" in err

    @pytest.mark.parametrize("key, value", [("seed", "a"), ("max_len", 12.5), ("num_classes", 2.0)])
    def test_mistyped_classifier_metadata_exits_1_naming_the_file_and_key(self, workspace, capsys, key, value):
        for command in ("build-graph", "train-vgae", "train-classifier"):
            assert cli_main([command, "--config", "run.cfg"]) == 0
        path = workspace / "out" / "classifier_meta.json"
        meta = json.loads(path.read_text(encoding="utf-8"))
        meta["config"][key] = value
        path.write_text(json.dumps(meta), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["evaluate", "--config", "run.cfg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "classifier_meta.json" in err and repr(key) in err
