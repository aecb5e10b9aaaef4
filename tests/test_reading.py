"""Every loader opens its input through `exceptions.reading`, so one rule covers a file it cannot read.

A missing file raises the loader's own error type naming the file. A text
file that is not UTF-8 does too, naming the offset of the first bad byte
from the start of the file, not from the start of the buffer that held it.
"""

import json
from itertools import combinations

import numpy as np
import pytest

from emofuse.autodiff import load_tensors
from emofuse.cli import load_classifier
from emofuse.config import load_config
from emofuse.exceptions import CheckpointError, ConfigError, CorpusError, InventoryError
from emofuse.graph import ATTRIBUTES_FILE, EDGES_FILE, load_graph
from emofuse.senses import load_emojinet
from emofuse.tokenization import load_labeled_dataset, load_unlabeled_corpus
from emofuse.vectors import read_vector_table, write_vector_table

EDGE_NODES = 64


def load_graph_edges(path):
    """load_graph on the directory holding the edges file `path`, beside a valid attributes table."""
    ids = [f"e{i}" for i in range(EDGE_NODES)]
    write_vector_table(path.parent / ATTRIBUTES_FILE, ids, np.zeros((EDGE_NODES, 2)))
    return load_graph(path.parent)


def inventory_entry(i):
    return json.dumps({"unicode": f"U+{0x1F300 + i:X}", "name": "café \U0001F600", "shortcode": f":e{i}:",
                       "description": "d", "keywords": ["k"], "senses": ["s"]}, ensure_ascii=False)


# name: (file name, error type, load one path, valid text past any read buffer, what follows it with a bad byte)
TEXT_LOADERS = {
    "labeled-corpus": ("posts.jsonl", CorpusError, load_labeled_dataset,
                       '{"text": "café \U0001F600", "label": 1}\n' * 1000, b'{"text": "\xc3(", "label": 0}\n'),
    "corpus": ("posts.txt", CorpusError, lambda path: list(load_unlabeled_corpus(path)),
               "café \U0001F600\n" * 2000, b"caf\xc3(\n"),
    "vector-table": ("vectors.txt", CorpusError, read_vector_table,
                     "1001 2\n" + "".join(f"café{i} 0.5 -1.25\n" for i in range(1000)), b"caf\xc3( 0.5 1\n"),
    "graph-edges": (EDGES_FILE, CorpusError, load_graph_edges,
                    "".join(f"{i}\t{j}\t1\t0.5\n" for i, j in combinations(range(EDGE_NODES), 2)),
                    b"0\t1\t1\t0.\xc3(\n"),
    "inventory": ("inventory.json", InventoryError, load_emojinet,
                  "[" + ", ".join(inventory_entry(i) for i in range(100)), b', {"name": "caf\xc3("}]'),
    "config": ("run.cfg", ConfigError, load_config, "seed = 1  # café \U0001F600\n" * 1000, b"# caf\xc3(\n"),
    "classifier-metadata": ("classifier_meta.json", ConfigError,
                            lambda path: load_classifier(path.with_name("classifier.ntc"), None),
                            '{"config": {}, "emoji_ids": [' + '"café \U0001F600", ' * 1000, b'"caf\xc3("]}'),
}
LOADERS = {**{name: case[:3] for name, case in TEXT_LOADERS.items()},
           "tensor-container": ("classifier.ntc", CheckpointError, load_tensors)}


@pytest.mark.parametrize("name", LOADERS)
def test_a_missing_file_raises_the_loaders_error_naming_it(tmp_path, name):
    file_name, error, load = LOADERS[name]
    path = tmp_path / file_name
    with pytest.raises(error, match="cannot read") as err:
        load(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("name", TEXT_LOADERS)
def test_offset_counts_from_the_start_of_the_file(tmp_path, name):
    file_name, error, load, head, tail = TEXT_LOADERS[name]
    path = tmp_path / file_name
    head = head.encode("utf-8")
    assert len(head) > 8192  # past a read buffer
    path.write_bytes(head + tail)
    offset = len(head) + tail.index(b"\xc3(")
    with pytest.raises(error, match=f"is not UTF-8 text: byte {offset}:") as err:
        load(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("name", TEXT_LOADERS)
def test_utf16_byte_order_mark_is_byte_0(tmp_path, name):
    file_name, error, load, head, _ = TEXT_LOADERS[name]
    path = tmp_path / file_name
    path.write_bytes(b"\xff\xfe" + head[:200].encode("utf-16-le"))
    with pytest.raises(error, match="is not UTF-8 text: byte 0:") as err:
        load(path)
    assert str(path) in str(err.value)
