"""Command-line pipeline driver.

Subcommands cover the full workflow: build the emoji co-occurrence graph
from an unlabeled corpus, train the graph autoencoder, train and evaluate
the sentiment classifier, export embeddings, and emit the clustering matrix
for heatmap rendering. Every subcommand takes --config plus repeatable
--set key=value overrides; --seed shortcuts seed control. All randomness
flows from that seed, so reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .autodiff import load_parameters, load_tensors, named_parameters, save_tensors
from .clustering import cluster_similarity, write_similarity_tsv
from .config import RunConfig, apply_overrides, config_from_dict, load_config
from .exceptions import ConfigError, CorpusError, EmofuseError, read_json
from .graph import build_cooc_graph, count_cooccurrences, load_graph, save_graph
from .model import SentimentModel
from .pipeline import evaluate, train_classifier, write_csv
from .senses import load_emojinet
from .text_encoder import WordEmbeddingTable
from .tokenization import load_labeled_dataset, load_unlabeled_corpus, tokenize
from .vgae import EmojiEmbeddings, VgaeParams, embed_nodes, train_vgae

logger = logging.getLogger("emofuse")

GRAPH_CHECKPOINT = "vgae.ntc"
EMBEDDINGS_FILE = "embeddings.txt"
CLASSIFIER_CHECKPOINT = "classifier.ntc"
VGAE_PREFIX = "vgae"  # graph checkpoint keys are vgae.w_in, vgae.w_mu, vgae.w_logvar


def _out_path(config: RunConfig, name: str) -> str:
    os.makedirs(config.output_dir, exist_ok=True)
    return os.path.join(config.output_dir, name)


def _meta_path(checkpoint: str) -> str:
    """Where a classifier checkpoint's metadata sits: beside it, `_meta.json` for its extension."""
    return os.path.splitext(checkpoint)[0] + "_meta.json"


def cmd_build_graph(config: RunConfig) -> int:
    inventory = load_emojinet(config.inventory)
    table = WordEmbeddingTable.load(config.word_vectors)
    posts = (tokenize(text) for text in load_unlabeled_corpus(config.unlabeled_corpus))
    counts = count_cooccurrences(posts)
    graph = build_cooc_graph(counts, inventory, table, min_pair_count=config.min_pair_count)
    save_graph(graph, config.graph_dir)
    print(f"graph: {graph.size} nodes, {len(graph.pair_counts)} edges -> {config.graph_dir}")
    return 0


def cmd_train_vgae(config: RunConfig) -> int:
    graph = load_graph(config.graph_dir)
    rng = np.random.default_rng(config.seed)
    embeddings, params, history = train_vgae(graph, config.vgae(), rng)
    embeddings_path = _out_path(config, EMBEDDINGS_FILE)
    embeddings.save(embeddings_path)
    save_tensors(_out_path(config, GRAPH_CHECKPOINT),
                 {name: p.data for name, p in named_parameters(params, VGAE_PREFIX)})
    write_csv(_out_path(config, "vgae_history.csv"), ("epoch", "loss"), enumerate(history, start=1))
    final_loss = history[-1] if history else float("nan")
    print(f"vgae: {len(embeddings.ids)} embeddings of dim {embeddings.dimension} "
          f"-> {embeddings_path} (final loss {final_loss})")
    return 0


def cmd_export_embeddings(config: RunConfig) -> int:
    graph = load_graph(config.graph_dir)
    params = VgaeParams.create(graph.attributes.shape[1], config.vgae_hidden, config.vgae_latent,
                               np.random.default_rng(config.seed))
    load_parameters(params, load_tensors(config.checkpoint), config.checkpoint, VGAE_PREFIX)
    embeddings = embed_nodes(graph, params)
    path = config.embeddings or _out_path(config, EMBEDDINGS_FILE)
    embeddings.save(path)
    print(f"embeddings: {len(embeddings.ids)} x {embeddings.dimension} -> {path}")
    return 0


def cmd_train_classifier(config: RunConfig) -> int:
    posts, _ = load_labeled_dataset(config.train_data)
    table = WordEmbeddingTable.load(config.word_vectors)
    embeddings = EmojiEmbeddings.load(config.embeddings)
    rng = np.random.default_rng(config.seed)
    try:
        model = SentimentModel(config, table, embeddings, rng)
    except ConfigError as err:
        raise ConfigError(f"{config.embeddings}: {err}") from None
    history = train_classifier(model, posts, rng)
    save_classifier(model, _out_path(config, CLASSIFIER_CHECKPOINT))
    write_csv(_out_path(config, "train_history.csv"), ("epoch", "loss", "accuracy"),
              [(s.epoch, s.loss, s.accuracy) for s in history])
    final = history[-1] if history else None
    summary = f"loss {final.loss} acc {final.accuracy}" if final else "no epochs"
    print(f"classifier: {len(posts)} posts, {config.epochs} epochs ({summary}) -> {config.output_dir}")
    return 0


def save_classifier(model: SentimentModel, checkpoint: str):
    """Write the model's tensors to `checkpoint` and its config and emoji ids to the metadata beside it."""
    tensors = {name: p.data for name, p in named_parameters(model.params)}
    tensors["emoji_matrix"] = model.emoji_table.vectors
    save_tensors(checkpoint, tensors)
    meta = {"config": model.config.as_dict(), "emoji_ids": model.emoji_table.ids}
    with open(_meta_path(checkpoint), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, ensure_ascii=False)


def load_classifier(checkpoint, word_table: WordEmbeddingTable) -> SentimentModel:
    """Rebuild a trained model from its tensor container and the metadata beside it."""
    meta_path = _meta_path(checkpoint)
    meta = read_json(meta_path, ConfigError, "classifier metadata")
    if not isinstance(meta, dict):
        raise ConfigError(f"classifier metadata {meta_path} is not a JSON object")
    if not isinstance(meta.get("config"), dict):
        raise ConfigError(f"classifier metadata {meta_path} has no config object")
    ids = meta.get("emoji_ids")
    if not isinstance(ids, list) or not all(isinstance(e, str) for e in ids):
        raise ConfigError(f"classifier metadata {meta_path}: emoji_ids must be a list of strings")
    if len(set(ids)) != len(ids):
        raise ConfigError(f"classifier metadata {meta_path}: emoji_ids repeats an id")
    try:
        config = config_from_dict(meta["config"]).validate()
    except ConfigError as err:
        raise ConfigError(f"classifier metadata {meta_path}: {err}") from None
    tensors = load_tensors(checkpoint)
    matrix = tensors.get("emoji_matrix")
    if matrix is None or matrix.ndim != 2 or matrix.shape[0] != len(ids):
        raise ConfigError(f"checkpoint {checkpoint} has no emoji matrix matching its id list")
    stored = EmojiEmbeddings(ids, matrix)
    try:
        model = SentimentModel(config, word_table, stored, np.random.default_rng(config.seed))
    except ConfigError as err:
        raise ConfigError(f"checkpoint {checkpoint}: {err}") from None
    load_parameters(model.params, tensors, checkpoint)
    model.emoji_table = stored  # building rescaled the saved matrix, which moves its low bits
    return model


def cmd_evaluate(config: RunConfig) -> int:
    checkpoint = config.checkpoint or _out_path(config, CLASSIFIER_CHECKPOINT)
    table = WordEmbeddingTable.load(config.word_vectors)
    model = load_classifier(checkpoint, table)
    posts, _ = load_labeled_dataset(config.test_data)
    report = evaluate(model, posts)
    text = report.to_json()
    print(text)
    with open(_out_path(config, "eval_report.json"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return 0


def cmd_cluster_viz(config: RunConfig) -> int:
    embeddings = EmojiEmbeddings.load(config.embeddings)
    posts = (tokenize(text) for text in load_unlabeled_corpus(config.unlabeled_corpus))
    counts = count_cooccurrences(posts)
    embedded = sum(e in counts.occurrences for e in embeddings.ids)
    if embedded < 2:
        raise CorpusError(f"{config.unlabeled_corpus}: {embedded} of the embedded emojis occur "
                          "in the corpus, cluster-viz needs at least 2")
    result = cluster_similarity(embeddings, counts.occurrences, config.top_k)
    matrix_path = _out_path(config, "cluster_matrix.tsv")
    write_similarity_tsv(matrix_path, result)
    leaves_path = _out_path(config, "cluster_leaves.txt")
    with open(leaves_path, "w", encoding="utf-8") as fh:
        for label in result.labels:
            fh.write(label + "\n")
    print(f"clustering: {len(result.labels)} emojis -> {matrix_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emofuse",
        description="Emoji co-occurrence graph embeddings and text/emoji sentiment classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {  # name: (handler, config keys it requires, help)
        "build-graph": (cmd_build_graph, ("unlabeled_corpus", "inventory", "word_vectors", "graph_dir"),
                        "Build the weighted emoji co-occurrence graph from an unlabeled corpus."),
        "train-vgae": (cmd_train_vgae, ("graph_dir",),
                       "Train the graph autoencoder and export emoji embeddings."),
        "train-classifier": (cmd_train_classifier, ("train_data", "word_vectors", "embeddings"),
                             "Train the fusion classifier on a labeled corpus."),
        "evaluate": (cmd_evaluate, ("test_data", "word_vectors"),
                     "Evaluate a trained classifier on a labeled corpus."),
        "export-embeddings": (cmd_export_embeddings, ("graph_dir", "checkpoint"),
                              "Re-export embeddings from a graph autoencoder checkpoint."),
        "cluster-viz": (cmd_cluster_viz, ("embeddings", "unlabeled_corpus"),
                        "Emit the clustered similarity matrix of the most frequent emojis."),
    }
    for name, (handler, required, help_text) in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the run configuration file")
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a config key (repeatable)")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.set_defaults(handler=handler, required=required)
    return parser


def cli_main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        config = apply_overrides(load_config(args.config), args.set)
        if args.seed is not None:
            config.seed = args.seed
        config.validate()
        for name in args.required:
            if not getattr(config, name):
                raise ConfigError(f"config key {name!r} is required for this subcommand")
        return args.handler(config)
    except (EmofuseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(cli_main())
