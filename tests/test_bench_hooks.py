"""The benchmark imports and wraps program names, which must keep existing.

`bench/tracing.py` replaces functions such as `clustering.average_linkage`
with span-recording wrappers and puts the originals back afterwards. A
renamed or removed attribute makes `install` raise `AttributeError`, and a
wrapper left behind would time every later call. `bench/workloads.py` and
`bench/selftest.py` import classes such as `WordEmbeddingTable`,
`EmojiEmbeddings` and `VgaeConfig` by name; importing them here, running
nothing, catches a rename before a benchmark run does. The wrappers also
read sizes off their call's arguments, so a model forward under the tracer
checks that those reads still count what they name.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from emofuse.config import RunConfig
from emofuse.graph import build_cooc_graph, count_cooccurrences
from emofuse.model import SentimentModel
from emofuse.senses import load_emojinet
from emofuse.tokenization import tokenize
from emofuse.vgae import EmojiEmbeddings

from conftest import INVENTORY_PATH

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores_every_attribute(monkeypatch):
    tracer = load_tracing(monkeypatch).Tracer()
    try:
        tracer.install()
        wrapped = list(tracer._restore)
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original, f"{owner}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    names = {f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in wrapped}
    assert {"emofuse.clustering.cosine_matrix", "emofuse.clustering.average_linkage"} <= names
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, f"{owner}.{attr} still wrapped"


def test_fuse_and_encode_spans_count_the_chunk_rows(monkeypatch, word_table):
    config = RunConfig(num_classes=2, max_len=16, lstm_hidden=8, fusion_dim=16, ffn_dim=32,
                       kernel_sizes=(2, 3), filters=4, seed=0)  # the acceptance dims
    rng = np.random.default_rng(0)
    emojis = ["\U0001F600", "\U0001F389"]
    model = SentimentModel(config, word_table, EmojiEmbeddings(emojis, rng.standard_normal((2, 16))), rng)
    # 2 + 2 word rows; 2 emoji rows plus the emoji-free post's placeholder row
    chunk = [tokenize("happy \U0001F600 sun \U0001F389"), tokenize("sad rain")]
    tracer = load_tracing(monkeypatch).Tracer()
    try:
        tracer.install()
        model.forward_logits(chunk)
    finally:
        tracer.uninstall()
    counts = {span.name: span.count for span in tracer.spans}
    assert counts["attention.fuse"] == 3
    assert counts["text_encoder.encode"] == 4


@pytest.mark.parametrize("name", ["workloads", "selftest"])
def test_bench_modules_import(monkeypatch, name):
    monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])  # selftest prepends to this copy
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as checked out
    before = set(sys.modules)
    try:
        importlib.import_module(name)
    finally:
        for added in set(sys.modules) - before:  # bench's generic names (run, metrics) leave with it
            if Path(getattr(sys.modules[added], "__file__", None) or "").parent == BENCH:
                del sys.modules[added]


def test_builds_over_one_inventory_record_one_tfidf_span(monkeypatch, word_table):
    """The sense vectors are kept on the inventory, so a traced run has one `senses.tfidf` span per load."""
    tracer = load_tracing(monkeypatch).Tracer()
    inventory = load_emojinet(INVENTORY_PATH)
    counts = count_cooccurrences([tokenize("\U0001F600 \U0001F602 \U0001F622")])
    try:
        tracer.install()
        for _ in range(2):
            build_cooc_graph(counts, inventory, word_table)
    finally:
        tracer.uninstall()
    names = [span.name for span in tracer.spans]
    assert names.count("senses.tfidf") == 1
    assert names.count("senses.node_attribute") == 3  # each node's row, on the first build
    assert names.count("graph.build_adjacency") == 2
