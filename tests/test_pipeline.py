import math

import numpy as np
import pytest

from conftest import make_emoji_labeled_posts
from emofuse.attention import FusionWiring
from emofuse.config import RunConfig, apply_overrides, load_config
from emofuse.exceptions import ConfigError, TrainingError
from emofuse import pipeline
from emofuse.model import SentimentModel, apply_ablation, build_model
from emofuse.pipeline import evaluate, train_classifier, write_history_csv
from emofuse.tokenization import RawPost, tokenize
from emofuse.vgae import EmojiEmbeddings


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

    def test_overrides(self):
        config = apply_overrides(RunConfig(), ["seed=4", "lr=0.5", "emoji_reads_fused_text=false"])
        assert (config.seed, config.lr, config.emoji_reads_fused_text) == (4, 0.5, False)

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["bogus=1"])

    def test_validate_rejects_bad_ablation(self):
        with pytest.raises(ConfigError):
            RunConfig(ablation="Z").validate()

    def test_round_trip_through_dict(self):
        config = tiny_config(ablation="RA1", seed=3)
        from emofuse.config import config_from_dict
        rebuilt = config_from_dict(config.as_dict())
        assert rebuilt == config


class TestApplyAblation:
    def test_full_is_identity_wiring(self):
        assert apply_ablation("full") == FusionWiring()

    def test_selector_table(self):
        assert apply_ablation("N").use_emoji is False
        assert apply_ablation("T").bypass_emoji is True
        assert apply_ablation("RA2").bypass_emoji is True
        assert apply_ablation("E").bypass_cross is True
        assert apply_ablation("RA3").bypass_cross is True
        assert apply_ablation("RA1").self_attend_text is False

    def test_unknown_selector_rejected(self):
        with pytest.raises(ConfigError):
            apply_ablation("XX")


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
        for got, want in zip(model.trainable(), reference.trainable()):
            np.testing.assert_array_equal(got.data, want.data)

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

        def poisoned(logits, label):
            calls.append(None)
            loss = original(logits, label)
            return loss * math.nan if len(calls) == len(posts) + 3 else loss  # a post of epoch 2
        monkeypatch.setattr(pipeline, "cross_entropy_logits", poisoned)
        model = SentimentModel(tiny_config(epochs=3), word_table, tiny_embeddings(),
                               np.random.default_rng(0))
        with pytest.raises(TrainingError, match="epoch 2/3"):
            train_classifier(model, posts, np.random.default_rng(0))

    def test_emoji_matrix_stays_frozen(self, word_table):
        posts = make_emoji_labeled_posts(8, seed=4)
        embeddings = tiny_embeddings()
        model = SentimentModel(tiny_config(), word_table, embeddings, np.random.default_rng(3))
        train_classifier(model, posts, np.random.default_rng(3))
        np.testing.assert_array_equal(model.emoji_matrix.data, embeddings.vectors)
        assert model.emoji_matrix.grad is None


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
    def test_state_round_trip(self, word_table):
        posts = make_emoji_labeled_posts(6, seed=5)
        config = tiny_config(epochs=1)
        model = SentimentModel(config, word_table, tiny_embeddings(), np.random.default_rng(4))
        train_classifier(model, posts, np.random.default_rng(4))
        state = model.state_tensors()
        clone = build_model(config, word_table, tiny_embeddings(), seed=99)
        clone.load_state(state)
        seq = tokenize(posts[0].text)
        np.testing.assert_array_equal(model.forward_logits(seq).data,
                                      clone.forward_logits(seq).data)

    def test_missing_tensor_rejected(self, word_table):
        config = tiny_config()
        model = SentimentModel(config, word_table, tiny_embeddings(), np.random.default_rng(0))
        state = model.state_tensors()
        state.pop("cnn.dense_w")
        clone = SentimentModel(config, word_table, tiny_embeddings(), np.random.default_rng(1))
        with pytest.raises(ConfigError, match="missing"):
            clone.load_state(state)

    def test_emoji_only_post_is_classifiable(self, word_table):
        model = SentimentModel(tiny_config(), word_table, tiny_embeddings(),
                               np.random.default_rng(0))
        assert model.predict(tokenize("\U0001F600 \U0001F389")) in (0, 1)

    def test_emoji_free_post_uses_learned_placeholder(self, word_table):
        from emofuse.textcnn import cross_entropy_logits
        model = SentimentModel(tiny_config(), word_table, tiny_embeddings(),
                               np.random.default_rng(0))
        logits = model.forward_logits(tokenize("plain words only"))
        cross_entropy_logits(logits, 0).backward()
        assert model.params.no_emoji.grad is not None
        assert np.abs(model.params.no_emoji.grad).sum() > 0

    def test_history_csv_round_trip(self, tmp_path, word_table):
        posts = make_emoji_labeled_posts(6, seed=6)
        model = SentimentModel(tiny_config(epochs=2), word_table, tiny_embeddings(),
                               np.random.default_rng(5))
        history = train_classifier(model, posts, np.random.default_rng(5))
        path = tmp_path / "history.csv"
        write_history_csv(path, history)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,loss,accuracy"
        assert len(lines) == 3
        assert float(lines[1].split(",")[1]) == history[0].loss
