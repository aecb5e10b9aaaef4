"""`autodiff.both`: the backward rules' paired products, on two threads and in order.

A pair of products runs on the worker thread and the caller's thread only
when its work reaches `autodiff.PAIR_WORK`; these tests set that bound to 0
to force the threaded path at small sizes and compare it, bit for bit, with
the bound set out of reach. Every join and wait has a timeout.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import emofuse
from conftest import FILLER_WORDS, WORD_VECTORS_PATH, make_emoji_labeled_posts
from emofuse import autodiff as ad
from emofuse.autodiff import Segments, Tensor, grad_check
from emofuse.config import RunConfig
from emofuse.model import SentimentModel
from emofuse.pipeline import train_classifier
from emofuse.textcnn import TextCnnParams, conv_pool
from emofuse.vgae import EmojiEmbeddings
from tape_ops import mean, tslice

WAIT = 30.0  # seconds any one join or wait may take
NEVER = 1 << 62  # a PAIR_WORK no product reaches: every pair runs in order


@pytest.fixture
def threaded(monkeypatch):
    """Every pair of products runs on two threads."""
    monkeypatch.setattr(ad, "PAIR_WORK", 0)


def gradients(paired, monkeypatch, make):
    """The backward outputs of the node `make()` builds, for a seeded upstream gradient."""
    monkeypatch.setattr(ad, "PAIR_WORK", 0 if paired else NEVER)
    out = make()
    g = np.random.default_rng(1).standard_normal(out.data.shape)
    return [None if pg is None else pg.tobytes() for pg in out._backward(g)]


def linear_one(rng):
    x = Tensor(rng.standard_normal((185, 300)), requires_grad=True)
    w = Tensor(rng.standard_normal((300, 100)), requires_grad=True)
    b = Tensor(np.zeros(100), requires_grad=True)
    return lambda: ad.linear(x, w, b, relu=True)


def linear_blocks(rng):
    blocks = [Tensor(rng.standard_normal((40, n)), requires_grad=True) for n in (30, 1, 50)]
    w = Tensor(rng.standard_normal((81, 7)), requires_grad=True)
    return lambda: ad.linear(blocks, w)


def conv(rng):
    params = TextCnnParams.create(1, 12, (2, 3, 5), 6, 2, rng)
    x = Tensor(rng.standard_normal((11, 12)), requires_grad=True)
    segments = Segments([4, 1, 6])  # the one-row post is zero-padded to the widest kernel
    return lambda: conv_pool(x, params.banks[0], params.widths, segments)


RULES = {"linear_one_matrix": linear_one, "linear_blocks": linear_blocks, "conv_pool": conv}


class TestBoth:
    def test_below_the_bound_runs_in_order_on_the_caller(self):
        calls = []
        out = ad.both(lambda: calls.append(threading.current_thread()) or 1,
                      lambda: calls.append(threading.current_thread()) or 2, ad.PAIR_WORK - 1)
        assert out == (1, 2)
        assert calls == [threading.current_thread()] * 2

    def test_at_the_bound_first_runs_on_the_worker(self):
        where = {}
        out = ad.both(lambda: where.setdefault("first", threading.current_thread()) and 1,
                      lambda: where.setdefault("second", threading.current_thread()) and 2, ad.PAIR_WORK)
        assert out == (1, 2)
        assert where["second"] is threading.current_thread()
        assert where["first"] is not threading.current_thread()
        assert where["first"].name.startswith("emofuse-both")

    def test_an_error_of_second_waits_for_first(self, threaded):
        started, release, finished = threading.Event(), threading.Event(), threading.Event()

        def first():
            started.set()
            assert release.wait(WAIT)
            time.sleep(0.1)  # a caller that did not wait would return before this ends
            finished.set()

        def second():
            assert started.wait(WAIT)
            release.set()
            raise ValueError("second")

        with pytest.raises(ValueError, match="second"):
            ad.both(first, second, 0)
        assert finished.is_set()

    def test_an_error_of_first_is_raised_after_second(self, threaded):
        done = []

        def first():
            raise KeyError("first")

        with pytest.raises(KeyError, match="first"):
            ad.both(first, lambda: done.append(1), 0)
        assert done == [1]

    def test_when_both_raise_second_error_is_raised(self, threaded):
        def first():
            raise KeyError("first")

        def second():
            raise ValueError("second")

        with pytest.raises(ValueError, match="second"):
            ad.both(first, second, 0)
        assert ad.both(lambda: 1, lambda: 2, 0) == (1, 2)  # the worker still serves

    def test_a_forked_child_starts_its_own_worker(self):
        """The parent's worker thread does not exist in a child; submitting to it would hang."""
        assert ad.both(lambda: 1, lambda: 2, ad.PAIR_WORK) == (1, 2)  # the parent's worker runs
        child = multiprocessing.get_context("fork").Process(target=_pair_in_child)
        child.start()
        child.join(WAIT)
        if child.is_alive():
            child.kill()
            child.join(WAIT)
            pytest.fail("the forked child hung in both()")
        assert child.exitcode == 0


def _pair_in_child():
    os._exit(0 if ad.both(lambda: 1, lambda: 2, ad.PAIR_WORK) == (1, 2) else 1)


class TestThreadedBackwardIsBitEqual:
    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_gradients_match_the_serial_path(self, rule, monkeypatch):
        make = RULES[rule](np.random.default_rng(7))
        serial = gradients(False, monkeypatch, make)
        assert all(g is not None for g in serial)
        assert gradients(True, monkeypatch, make) == serial

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_grad_check_passes(self, rule, threaded):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((7, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        bank = TextCnnParams.create(1, 4, (2, 3), 2, 2, rng).banks[0]
        segments = Segments([3, 1, 3])
        weights = rng.standard_normal((7, 3))
        functions = {
            "linear_one_matrix": lambda: mean(ad.mul(ad.linear(x, w, relu=True), weights)),
            "linear_blocks": lambda: mean(ad.mul(
                ad.linear([tslice(x, np.s_[:, :1]), tslice(x, np.s_[:, 1:])], w), weights)),
            "conv_pool": lambda: mean(ad.mul(conv_pool(x, bank, (2, 3), segments), weights[:3, :2].repeat(2, 1))),
        }
        for tensor in (x, w) if rule.startswith("linear") else (x, bank.kernels):
            assert grad_check(lambda _: functions[rule](), tensor) < 1e-5

    def test_training_history_and_parameters_match(self, word_table, monkeypatch):
        ids = ["\U0001F600", "\U0001F389", "\U0001F622", "\U0001F494"]
        embeddings = EmojiEmbeddings(ids=ids, vectors=np.random.default_rng(0).normal(0, 0.5, (4, 6)))
        config = RunConfig(num_classes=2, epochs=2, lr=0.01, batch_size=8, max_len=12, lstm_hidden=3,
                           fusion_dim=6, ffn_dim=12, kernel_sizes=(2, 3), filters=2)
        posts = make_emoji_labeled_posts(16, seed=5)
        runs = []
        for bound in (NEVER, 0):
            monkeypatch.setattr(ad, "PAIR_WORK", bound)
            model = SentimentModel(config, word_table, embeddings, np.random.default_rng(0))
            history = train_classifier(model, posts, np.random.default_rng(0))
            runs.append(([(h.loss, h.accuracy) for h in history],
                         [p.data.tobytes() for _, p in ad.named_parameters(model.params)]))
        assert runs[0] == runs[1]

    def test_stress_under_a_short_switch_interval(self, threaded):
        """Callers outnumber the cores and share the one worker; every pair keeps its bits."""
        make = linear_one(np.random.default_rng(11))
        node = make()
        g = np.random.default_rng(12).standard_normal(node.data.shape)
        masked = g * (node.data > 0.0)
        expected = (masked @ node._parents[1].data.T).tobytes(), (node._parents[0].data.T @ masked).tobytes()
        failures = []

        def caller():
            for _ in range(20):
                gx, gw, _ = make()._backward(g)
                if (gx.tobytes(), gw.tobytes()) != expected:
                    failures.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, daemon=True) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(WAIT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert failures == []


# Trains the acceptance-dims classifier (criterion 4's OVERFIT_CONFIG) on
# posts as long as max_len, whose chunks hold the widest products that
# config makes, and the acceptance-dims VGAE; prints the thread count after
# that and after one product pair at PAIR_WORK.
ACCEPTANCE_DIMS = """
import sys, threading
from emofuse import autodiff as ad
import numpy as np
from emofuse.config import RunConfig
from emofuse.graph import CoocGraph
from emofuse.model import SentimentModel
from emofuse.pipeline import train_classifier
from emofuse.text_encoder import WordEmbeddingTable
from emofuse.tokenization import RawPost
from emofuse.vgae import EmojiEmbeddings, VgaeConfig, train_vgae

words, vectors_path = sys.argv[1].split(), sys.argv[2]
rng = np.random.default_rng(0)
n = 40
adjacency = np.triu(rng.uniform(0.5, 2.0, (n, n)) * (rng.random((n, n)) < 0.3), 1)
graph = CoocGraph(node_ids=[f"e{i}" for i in range(n)], pair_counts={},
                  adjacency=adjacency + adjacency.T, attributes=rng.standard_normal((n, 300)))
train_vgae(graph, VgaeConfig(hidden=32, latent=16, epochs=50, lr=0.01), np.random.default_rng(0))
config = RunConfig(num_classes=2, epochs=2, lr=0.01, batch_size=16, max_len=16, lstm_hidden=8,
                   fusion_dim=16, ffn_dim=32, kernel_sizes=(2, 3), filters=4)
emojis = ["\\U0001F600", "\\U0001F622"]
posts = [RawPost(text=" ".join([emojis[i % 2]] + [words[(i + j) % len(words)] for j in range(16)]),
                 label=i % 2) for i in range(32)]
table = EmojiEmbeddings(ids=emojis, vectors=rng.standard_normal((2, 16)))
model = SentimentModel(config, WordEmbeddingTable.load(vectors_path), table, np.random.default_rng(0))
train_classifier(model, posts, np.random.default_rng(0))
print(threading.active_count())
ad.both(lambda: None, lambda: None, ad.PAIR_WORK)
print(threading.active_count())
"""


def test_acceptance_dims_start_no_thread():
    """pipeline-tiny's products stay below PAIR_WORK, so its runs start no second thread."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(emofuse.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", ACCEPTANCE_DIMS, " ".join(FILLER_WORDS), WORD_VECTORS_PATH],
                            env=env, capture_output=True, text=True, timeout=300, check=True)
    assert result.stdout.split() == ["1", "2"]  # the second line shows the probe sees a worker
