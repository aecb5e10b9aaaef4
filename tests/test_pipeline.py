import json
import math
import re

import numpy as np
import pytest

from conftest import make_emoji_labeled_posts
from emofuse.attention import ABLATIONS, FusionWiring
from emofuse import autodiff as ad
from emofuse.autodiff import load_tensors, named_parameters, save_tensors
from emofuse.cli import load_classifier, save_classifier
from emofuse.config import RunConfig, apply_overrides, config_from_dict, load_config
from emofuse.exceptions import ConfigError, TrainingError
from emofuse import pipeline
from emofuse.model import SentimentModel
from emofuse.pipeline import evaluate, train_classifier, write_csv
from emofuse.textcnn import cross_entropy_logits
from emofuse.tokenization import RawPost, tokenize
from emofuse.vgae import EmojiEmbeddings
from tape_ops import width_kernels


def tiny_config(**overrides):
    base = dict(num_classes=2, epochs=2, lr=0.01, batch_size=8, max_len=12,
                lstm_hidden=3, fusion_dim=6, ffn_dim=12, kernel_sizes=(2,), filters=2)
    base.update(overrides)
    return RunConfig(**base)


def tiny_embeddings(dim=6, seed=0):
    rng = np.random.default_rng(seed)
    ids = ["\U0001F600", "\U0001F389", "\U0001F622", "\U0001F44E"]
    return EmojiEmbeddings(ids=ids, vectors=rng.normal(0, 0.5, (len(ids), dim)))


class TestConfig:
    def test_defaults_match_reference_settings(self):
        config = RunConfig()
        assert config.vgae_hidden == 256
        assert config.vgae_latent == 300
        assert config.vgae_epochs == 50
        assert config.epochs == 20

    def test_load_and_comment_handling(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 9  # reproducibility\n\nkernel_sizes = 2,3\nablation = RA2\n",
                        encoding="utf-8")
        config = load_config(path)
        assert config.seed == 9
        assert config.kernel_sizes == (2, 3)
        assert config.ablation == "RA2"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("not_a_key = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="not_a_key"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = soon\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_file_errors_name_path_and_line_and_overrides_keep_their_messages(self, tmp_path):
        path = tmp_path / "run.cfg"
        for text, line, message in (("seed = 1\n# note\nepochs = many\n", 3, "bad value for epochs: "),
                                    ("bogus = 1\n", 1, "unknown config key 'bogus'"),
                                    ("\nseed 9\n", 2, "'seed 9' is not of the form key=value")):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert str(err.value).startswith(f"{path}:{line}: {message}")
        for setting, message in (("epochs=many", "bad value for epochs: invalid literal"),
                                 ("bogus=1", "unknown config key 'bogus'"),
                                 ("seed9", "override 'seed9' is not of the form key=value")):
            with pytest.raises(ConfigError) as err:
                apply_overrides(RunConfig(), [setting])
            assert str(err.value).startswith(message)

    def test_overrides(self):
        config = apply_overrides(RunConfig(), ["seed=4", "lr=0.5", "ablation=N"])
        assert (config.seed, config.lr, config.ablation) == (4, 0.5, "N")

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["bogus=1"])

    def test_validate_rejects_bad_ablation(self):
        with pytest.raises(ConfigError):
            RunConfig(ablation="Z").validate()

    @pytest.mark.parametrize("value", [0, -5])
    def test_validate_bounds_min_pair_count(self, value):
        # below 1 a pair count threshold would keep every pair, as 1 does
        with pytest.raises(ConfigError, match=f"min_pair_count must be >= 1, got {value}"):
            RunConfig(min_pair_count=value).validate()

    def test_round_trip_through_dict(self):
        config = tiny_config(ablation="RA1", seed=3)
        rebuilt = config_from_dict(config.as_dict())
        assert rebuilt == config

    def test_retired_min_count_is_unknown_but_dropped_from_stored_configs(self, tmp_path):
        for setting in ("min_count=99", "emoji_reads_fused_text=true"):
            with pytest.raises(ConfigError, match=setting.split("=")[0]):
                apply_overrides(RunConfig(), [setting])
        path = tmp_path / "run.cfg"
        path.write_text("min_count = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="min_count"):
            load_config(path)
        # metadata written before they were retired
        stored = {**tiny_config(seed=3).as_dict(), "min_count": 1, "pe_base": 1000.0,
                  "emoji_reads_fused_text": True}
        assert config_from_dict(stored) == tiny_config(seed=3)
        # a retired key at a value no longer built names the key, in the metadata file too
        for key, value in (("emoji_reads_fused_text", False), ("pe_base", 500.0)):
            with pytest.raises(ConfigError, match=key):
                config_from_dict({**stored, key: value})
        meta = tmp_path / "classifier_meta.json"
        meta.write_text(json.dumps({"config": {**stored, "emoji_reads_fused_text": False},
                                    "emoji_ids": ["\U0001F600"]}), encoding="utf-8")
        with pytest.raises(ConfigError, match="emoji_reads_fused_text") as err:
            load_classifier(tmp_path / "classifier.ntc", None)
        assert str(meta) in str(err.value)


class TestApplyAblation:
    """`ABLATIONS` maps the seven selectors to five wirings."""

    def test_full_is_identity_wiring(self):
        assert ABLATIONS["full"] == FusionWiring()

    def test_selector_table(self):
        assert ABLATIONS["N"] == FusionWiring(use_emoji=False)
        assert ABLATIONS["T"] is ABLATIONS["RA2"] == FusionWiring(bypass_emoji=True)
        assert ABLATIONS["E"] is ABLATIONS["RA3"] == FusionWiring(bypass_cross=True)
        assert ABLATIONS["RA1"] == FusionWiring(self_attend_text=False)
        assert len(ABLATIONS) == 7 and len(set(ABLATIONS.values())) == 5


class TestTrainClassifier:
    def test_history_is_deterministic(self, word_table):
        posts = make_emoji_labeled_posts(12, seed=1)
        runs = []
        for _ in range(2):
            model = SentimentModel(tiny_config(), word_table, tiny_embeddings(),
                                   np.random.default_rng(0))
            history = train_classifier(model, posts, np.random.default_rng(0))
            runs.append([(h.loss, h.accuracy) for h in history])
        assert runs[0] == runs[1]

    def test_zero_epochs_keeps_initial_params(self, word_table):
        posts = make_emoji_labeled_posts(6, seed=2)
        model = SentimentModel(tiny_config(epochs=0), word_table, tiny_embeddings(),
                               np.random.default_rng(1))
        reference = SentimentModel(tiny_config(epochs=0), word_table, tiny_embeddings(),
                                   np.random.default_rng(1))
        history = train_classifier(model, posts, np.random.default_rng(0))
        assert history == []
        for (name, got), (_, want) in zip(named_parameters(model.params),
                                          named_parameters(reference.params)):
            np.testing.assert_array_equal(got.data, want.data, err_msg=name)

    def test_empty_dataset_rejected(self, word_table):
        model = SentimentModel(tiny_config(), word_table, tiny_embeddings(),
                               np.random.default_rng(0))
        with pytest.raises(TrainingError):
            train_classifier(model, [], np.random.default_rng(0))

    def test_out_of_range_label_rejected(self, word_table):
        model = SentimentModel(tiny_config(), word_table, tiny_embeddings(),
                               np.random.default_rng(0))
        posts = [RawPost(text="hi \U0001F600", label=7)]
        with pytest.raises(TrainingError, match="label"):
            train_classifier(model, posts, np.random.default_rng(0))

    def test_loss_decreases_on_tiny_set(self, word_table):
        posts = make_emoji_labeled_posts(16, seed=3)
        model = SentimentModel(tiny_config(epochs=4), word_table, tiny_embeddings(),
                               np.random.default_rng(2))
        history = train_classifier(model, posts, np.random.default_rng(2))
        assert history[-1].loss < history[0].loss

    def test_nonfinite_loss_raises_naming_the_epoch(self, word_table, monkeypatch):
        posts = make_emoji_labeled_posts(8, seed=5)
        original, calls = pipeline.cross_entropy_logits, []

        def poisoned(logits, labels):
            calls.append(len(labels))
            loss = original(logits, labels)
            return loss * math.nan if len(calls) == 2 else loss  # the chunk of epoch 2
        monkeypatch.setattr(pipeline, "cross_entropy_logits", poisoned)
        model = SentimentModel(tiny_config(epochs=3), word_table, tiny_embeddings(),
                               np.random.default_rng(0))
        with pytest.raises(TrainingError, match="epoch 2/3"):
            train_classifier(model, posts, np.random.default_rng(0))
        assert calls == [8, 8]  # 8 short posts: one batch, one chunk per epoch

    def test_batches_are_sorted_and_cut_at_the_row_budget(self, word_table, monkeypatch):
        posts = make_emoji_labeled_posts(8, seed=6)
        model = SentimentModel(tiny_config(epochs=1), word_table, tiny_embeddings(),
                               np.random.default_rng(0))
        rows = {p.text: len(model.split(tokenize(p.text))[0]) for p in posts}
        chunks = []
        original = model.forward_logits
        monkeypatch.setattr(model, "forward_logits",
                            lambda seqs: chunks.append([len(model.split(s)[0]) for s in seqs]) or original(seqs))
        monkeypatch.setattr(pipeline, "CHUNK_ROWS", 12)
        train_classifier(model, posts, np.random.default_rng(0))
        assert sorted(n for chunk in chunks for n in chunk) == sorted(rows.values())
        flat = [n for chunk in chunks for n in chunk]
        assert flat == sorted(flat)
        assert all(sum(chunk) <= 12 for chunk in chunks)
        # greedy: the next post would not have fit
        for chunk, following in zip(chunks, chunks[1:]):
            assert sum(chunk) + following[0] > 12

    def test_emoji_matrix_stays_frozen(self, word_table):
        posts = make_emoji_labeled_posts(8, seed=4)
        embeddings = tiny_embeddings()
        model = SentimentModel(tiny_config(), word_table, embeddings, np.random.default_rng(3))
        before = model.emoji_table.vectors.copy()  # the table scaled to unit root-mean-square
        train_classifier(model, posts, np.random.default_rng(3))
        np.testing.assert_array_equal(model.emoji_table.vectors, before)
        assert not any(np.shares_memory(p.data, model.emoji_table.vectors)
                       for _, p in named_parameters(model.params))


CHUNK_TEXTS = [
    "happy dog \U0001F600 music sun",
    "plain words only here today",             # emoji-free: the learned placeholder row
    "\U0001F622 \U0001F600",                   # emoji-only: one zero word row
    "sad \U0001F389",                          # one word, shorter than the widest kernel
    " ".join(["love"] * 14) + " \U0001F600",   # cut at max_len, its emoji with it
    "\U0001F916 rain party",                    # an emoji the table does not know
    "sun \U0001F44E fire \U0001F622 dog \U0001F389 very",
]


class TestChunks:
    """A chunk of posts gives every post the logits and gradients it gets alone."""

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_chunk_matches_one_post_chunks(self, word_table, ablation):
        config = tiny_config(ablation=ablation, kernel_sizes=(2, 4), max_len=12)
        model = SentimentModel(config, word_table, tiny_embeddings(), np.random.default_rng(0))
        noise = np.random.default_rng(1)
        for _, tensor in named_parameters(model.params):  # no zero biases or unit gains
            tensor.data += noise.normal(0.0, 0.1, tensor.data.shape)
        params = [t for _, t in named_parameters(model.params)]
        seqs = [tokenize(text) for text in CHUNK_TEXTS]
        labels = [0, 1, 1, 0, 1, 0, 1]

        logits = model.forward_logits(seqs)
        cross_entropy_logits(logits, labels).backward()
        chunk_grads = [t.grad for t in params]
        # the wiring allocates nothing it does not train
        assert [name for name, t in named_parameters(model.params) if t.grad is None] == []
        ad.zero_grads(params)
        alone = []
        for seq, label in zip(seqs, labels):
            one = model.forward_logits([seq])
            cross_entropy_logits(one, [label]).backward()
            alone.append(one.data[0])

        np.testing.assert_allclose(logits.data, np.stack(alone), rtol=1e-12, atol=1e-13)
        for (name, tensor), got in zip(named_parameters(model.params), chunk_grads):
            assert (got is None) == (tensor.grad is None), name
            if got is not None:
                np.testing.assert_allclose(got, tensor.grad, rtol=1e-12, atol=1e-13, err_msg=name)


class StubModel:
    """Minimal object satisfying the evaluate contract."""

    def __init__(self, predictions, num_classes=2):
        self.config = RunConfig(num_classes=num_classes, seed=5)
        self._predictions = iter(predictions)

    def predict(self, seq):
        return next(self._predictions)


class TestEvaluate:
    def test_perfect_predictor(self):
        posts = [RawPost(text=f"p{i}", label=i % 2) for i in range(10)]
        report = evaluate(StubModel([p.label for p in posts]), posts)
        assert report.accuracy == 1.0
        assert report.confusion[0][1] == 0 and report.confusion[1][0] == 0

    def test_constant_predictor_on_balanced_set(self):
        posts = [RawPost(text=f"p{i}", label=i % 2) for i in range(10)]
        report = evaluate(StubModel([0] * 10), posts)
        assert report.accuracy == 0.5
        assert report.recall[0] == 1.0 and report.recall[1] == 0.0

    def test_accuracy_consistent_with_confusion(self):
        posts = [RawPost(text=f"p{i}", label=i % 2) for i in range(8)]
        report = evaluate(StubModel([1, 0, 1, 1, 0, 0, 1, 0]), posts)
        confusion = np.array(report.confusion)
        assert report.accuracy == pytest.approx(np.trace(confusion) / confusion.sum())

    def test_report_json_is_deterministic(self):
        posts = [RawPost(text=f"p{i}", label=i % 2) for i in range(4)]
        a = evaluate(StubModel([0, 1, 0, 1]), posts).to_json()
        b = evaluate(StubModel([0, 1, 0, 1]), posts).to_json()
        assert a == b

    def test_empty_set_rejected(self):
        with pytest.raises(TrainingError):
            evaluate(StubModel([]), [])


class TestModelPersistence:
    def test_state_round_trip(self, word_table, tmp_path):
        posts = make_emoji_labeled_posts(6, seed=5)
        config = tiny_config(epochs=1)
        model = SentimentModel(config, word_table, tiny_embeddings(), np.random.default_rng(4))
        train_classifier(model, posts, np.random.default_rng(4))
        save_classifier(model, tmp_path / "classifier.ntc")
        clone = load_classifier(tmp_path / "classifier.ntc", word_table)
        seq = tokenize(posts[0].text)
        np.testing.assert_array_equal(model.forward_logits([seq]).data,
                                      clone.forward_logits([seq]).data)

    def test_loaded_model_trains_on_as_the_saved_one(self, word_table, tmp_path):
        config = tiny_config(epochs=1)
        posts = make_emoji_labeled_posts(6, seed=7)
        model = SentimentModel(config, word_table, tiny_embeddings(), np.random.default_rng(5))
        train_classifier(model, posts, np.random.default_rng(5))
        save_classifier(model, tmp_path / "classifier.ntc")
        loaded = load_classifier(tmp_path / "classifier.ntc", word_table)
        runs = []
        for name, trained in (("saved", model), ("loaded", loaded)):
            history = train_classifier(trained, posts, np.random.default_rng(6))
            path = tmp_path / name / "classifier.ntc"
            path.parent.mkdir()
            save_classifier(trained, path)
            runs.append(([(h.loss, h.accuracy) for h in history], path.read_bytes(),
                         path.with_name("classifier_meta.json").read_bytes()))
        assert runs[0] == runs[1]

    def test_missing_tensor_rejected(self, word_table, tmp_path):
        model = SentimentModel(tiny_config(), word_table, tiny_embeddings(), np.random.default_rng(0))
        path = tmp_path / "classifier.ntc"
        save_classifier(model, path)
        tensors = load_tensors(path)
        tensors.pop("cnn.dense_w")
        save_tensors(path, tensors)
        with pytest.raises(ConfigError, match="missing"):
            load_classifier(path, word_table)

    def test_emoji_only_post_is_classifiable(self, word_table):
        model = SentimentModel(tiny_config(), word_table, tiny_embeddings(),
                               np.random.default_rng(0))
        assert model.predict(tokenize("\U0001F600 \U0001F389")) in (0, 1)

    def test_emoji_free_post_uses_learned_placeholder(self, word_table):
        from emofuse.textcnn import cross_entropy_logits
        model = SentimentModel(tiny_config(), word_table, tiny_embeddings(),
                               np.random.default_rng(0))
        logits = model.forward_logits([tokenize("plain words only")])
        cross_entropy_logits(logits, [0]).backward()
        assert model.params.no_emoji.grad is not None
        assert np.abs(model.params.no_emoji.grad).sum() > 0

    def test_history_csv_round_trip(self, tmp_path, word_table):
        posts = make_emoji_labeled_posts(6, seed=6)
        model = SentimentModel(tiny_config(epochs=2), word_table, tiny_embeddings(),
                               np.random.default_rng(5))
        history = train_classifier(model, posts, np.random.default_rng(5))
        path = tmp_path / "history.csv"
        write_csv(path, ("epoch", "loss", "accuracy"), [(s.epoch, s.loss, s.accuracy) for s in history])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,loss,accuracy"
        assert len(lines) == 3
        assert float(lines[1].split(",")[1]) == history[0].loss


def per_width_state(state, kernel_sizes):
    """`state` with each channel's merged conv tensors split per width, as stored before they merged.

    `cnn.banks.<c>.kernels` (d, sum(sizes) * n) becomes `cnn.banks.<c>.<j>.kernels`
    (n, k, d) for each width j, and the bias likewise.
    """
    out = {}
    for name, value in state.items():
        match = re.fullmatch(r"cnn\.banks\.(\d+)\.(kernels|bias)", name)
        if match is None:
            out[name] = value
            continue
        channel, part = match.groups()
        parts = (width_kernels(value, kernel_sizes) if part == "kernels"
                 else value.reshape(len(kernel_sizes), -1))
        for size_index, tensor in enumerate(parts):
            out[f"cnn.banks.{channel}.{size_index}.{part}"] = np.ascontiguousarray(tensor)
    return out


def parent_format_key(name, kernel_sizes):
    """The key the earlier hand-kept name list gave a tensor (encoder.lstm1.fwd.wx, cnn.ch0.k3.bias)."""
    match = re.fullmatch(r"encoder\.layer(\d)\.(forward|backward)\.(w_x|w_h|b)", name)
    if match:
        layer, direction, part = match.groups()
        short = {"forward": "fwd", "backward": "bwd"}[direction]
        return f"encoder.lstm{layer}.{short}.{part.replace('_', '')}"
    match = re.fullmatch(r"cnn\.banks\.(\d+)\.(\d+)\.(kernels|bias)", name)
    if match:
        channel, size, part = match.groups()
        return f"cnn.ch{channel}.k{kernel_sizes[int(size)]}.{part}"
    return name


class TestParameterRegistry:
    """named_parameters is the one source of names, optimizer order and checkpoint keys."""

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_names_unique_for_every_ablation(self, word_table, ablation):
        model = SentimentModel(tiny_config(kernel_sizes=(2, 3, 4), ablation=ablation),
                               word_table, tiny_embeddings(), np.random.default_rng(0))
        walked = list(named_parameters(model.params))
        names = [name for name, _ in walked]
        counts = {"full": 56, "N": 30, "T": 45, "RA2": 45, "E": 46, "RA3": 46, "RA1": 45}
        assert len(set(names)) == len(names) == counts[ablation]
        assert len({id(t) for _, t in walked}) == len(walked)
        assert all(t.requires_grad for _, t in walked)
        assert names[0] == "encoder.layer1.forward.w_x"
        assert "cnn.banks.0.kernels" in names
        assert names[-2:] == ["cnn.dense_w", "cnn.dense_b"]

    def test_walk_order_is_adam_and_checkpoint_order(self, word_table, tmp_path, monkeypatch):
        config = tiny_config(epochs=1, kernel_sizes=(2, 3))
        model = SentimentModel(config, word_table, tiny_embeddings(), np.random.default_rng(2))
        seen = []
        adam_step = ad.adam_step

        def recording_step(state):
            seen.append(state)
            adam_step(state)

        monkeypatch.setattr(ad, "adam_step", recording_step)
        train_classifier(model, make_emoji_labeled_posts(4, seed=3), np.random.default_rng(2))
        walked = list(named_parameters(model.params))
        state = seen[0]
        assert len(state.params) == len(walked)
        offset = 0  # each tensor is the next slice of the arena, as the moments are
        for (_, tensor), slot in zip(walked, state.params):
            assert slot is tensor and tensor.data.base is state.data
            assert np.shares_memory(tensor.data, state.data[offset:offset + tensor.data.size])
            offset += tensor.data.size
        assert offset == state.data.size == state.m.size == state.v.size
        names = [name for name, _ in walked]
        save_classifier(model, tmp_path / "c.ntc")
        assert list(load_tensors(tmp_path / "c.ntc")) == names + ["emoji_matrix"]

    def test_state_round_trip_reloads_the_same_bytes(self, word_table, tmp_path):
        config = tiny_config(epochs=1)
        model = SentimentModel(config, word_table, tiny_embeddings(), np.random.default_rng(4))
        train_classifier(model, make_emoji_labeled_posts(4, seed=5), np.random.default_rng(4))
        save_classifier(model, tmp_path / "a.ntc")
        clone = load_classifier(tmp_path / "a.ntc", word_table)
        save_classifier(clone, tmp_path / "b.ntc")
        assert (tmp_path / "a.ntc").read_bytes() == (tmp_path / "b.ntc").read_bytes()
        assert (tmp_path / "a_meta.json").read_bytes() == (tmp_path / "b_meta.json").read_bytes()

    def test_checkpoint_with_proj_skip_and_retired_keys_loads_bit_identical(self, word_table, tmp_path):
        """A `full` checkpoint from before each wiring stored only its own tensors still loads."""
        config = tiny_config(epochs=1)
        model = SentimentModel(config, word_table, tiny_embeddings(), np.random.default_rng(4))
        train_classifier(model, make_emoji_labeled_posts(4, seed=5), np.random.default_rng(4))
        path, meta = tmp_path / "classifier.ntc", tmp_path / "classifier_meta.json"
        save_classifier(model, path)
        skip = np.random.default_rng(6).normal(size=(2 * config.lstm_hidden, config.fusion_dim))
        # unused by `full`, stored all the same
        save_tensors(path, {**load_tensors(path), "fusion.proj_skip": skip})
        echo = {**config.as_dict(), "pe_base": 1000.0, "emoji_reads_fused_text": True}
        meta.write_text(json.dumps({"config": echo, "emoji_ids": model.emoji_table.ids}), encoding="utf-8")
        loaded = load_classifier(path, word_table)
        assert loaded.params.fusion.proj_skip is None
        seqs = [tokenize(text) for text in CHUNK_TEXTS]
        np.testing.assert_array_equal(loaded.forward_logits(seqs).data, model.forward_logits(seqs).data)

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_every_wiring_survives_a_save_and_a_load(self, word_table, tmp_path, ablation):
        model = SentimentModel(tiny_config(epochs=1, ablation=ablation), word_table, tiny_embeddings(),
                               np.random.default_rng(4))
        train_classifier(model, make_emoji_labeled_posts(4, seed=5), np.random.default_rng(4))
        save_classifier(model, tmp_path / "a.ntc")
        loaded = load_classifier(tmp_path / "a.ntc", word_table)
        seqs = [tokenize(text) for text in CHUNK_TEXTS]
        np.testing.assert_array_equal(loaded.forward_logits(seqs).data, model.forward_logits(seqs).data)
        save_classifier(loaded, tmp_path / "b.ntc")
        for name in ("{}.ntc", "{}_meta.json"):
            assert (tmp_path / name.format("a")).read_bytes() == (tmp_path / name.format("b")).read_bytes()

    def test_parent_format_checkpoint_names_a_missing_key(self, word_table, tmp_path):
        config = tiny_config(kernel_sizes=(3,))
        model = SentimentModel(config, word_table, tiny_embeddings(), np.random.default_rng(0))
        path = tmp_path / "classifier.ntc"
        save_classifier(model, path)
        state = {parent_format_key(name, config.kernel_sizes): value
                 for name, value in per_width_state(load_tensors(path), config.kernel_sizes).items()}
        assert "cnn.ch0.k3.kernels" in state and "encoder.lstm1.fwd.wx" in state
        save_tensors(path, state)
        with pytest.raises(ConfigError, match="missing tensor encoder.layer1.forward.w_x") as err:
            load_classifier(path, word_table)
        assert str(path) in str(err.value)

    def test_per_width_conv_checkpoint_names_the_merged_key(self, word_table, tmp_path):
        config = tiny_config(kernel_sizes=(2, 3))
        model = SentimentModel(config, word_table, tiny_embeddings(), np.random.default_rng(0))
        path = tmp_path / "classifier.ntc"
        save_classifier(model, path)
        state = per_width_state(load_tensors(path), config.kernel_sizes)
        assert state["cnn.banks.0.1.kernels"].shape == (config.filters, 3, config.fusion_dim)
        save_tensors(path, state)
        with pytest.raises(ConfigError, match=r"missing tensor cnn\.banks\.0\.kernels") as err:
            load_classifier(path, word_table)
        assert str(path) in str(err.value)

    def test_shape_mismatch_names_the_tensor_and_loads_nothing(self, word_table):
        model = SentimentModel(tiny_config(), word_table, tiny_embeddings(), np.random.default_rng(0))
        before = {name: t.data.copy() for name, t in named_parameters(model.params)}
        state = {name: np.zeros_like(value) for name, value in before.items()}
        state["fusion.unit_cross.wq"] = np.zeros((2, 2))
        with pytest.raises(ConfigError, match=r"run\.ntc: tensor fusion\.unit_cross\.wq has shape"):
            ad.load_parameters(model.params, state, "run.ntc")
        for name, tensor in named_parameters(model.params):
            np.testing.assert_array_equal(tensor.data, before[name])
