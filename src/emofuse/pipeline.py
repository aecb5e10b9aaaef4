"""Classifier training and evaluation over labeled corpora.

Training is minibatch Adam on the softmax cross-entropy, with per-epoch loss
and running accuracy recorded. Each minibatch is sorted by length and cut
into chunks of at most CHUNK_ROWS packed text rows; one forward and one
backward pass cover a whole chunk. A fixed seed fixes the parameter draws
and the shuffle order, so two identical runs produce identical histories,
checkpoints, and reports. Prediction runs the same forward pass on a
one-post chunk.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .exceptions import TrainingError
from .model import SentimentModel
from .textcnn import cross_entropy_logits
from .tokenization import RawPost, tokenize

logger = logging.getLogger("emofuse")

# Packed text rows per training chunk. Larger chunks amortize more per-step
# work but keep a larger tape alive: memory, not speed, sets this bound.
CHUNK_ROWS = 192


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


@dataclass
class EvalReport:
    accuracy: float
    precision: list[float]
    recall: list[float]
    confusion: list[list[int]]
    total: int
    seed: int
    config: dict

    def to_json(self) -> str:
        payload = {
            "accuracy": self.accuracy,
            "per_class": [
                {"class": c, "precision": p, "recall": r}
                for c, (p, r) in enumerate(zip(self.precision, self.recall))
            ],
            "confusion": self.confusion,
            "total": self.total,
            "seed": self.seed,
            "config": self.config,
        }
        return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)


def _check_labels(posts: list[RawPost], num_classes: int):
    for i, post in enumerate(posts):
        if not 0 <= post.label < num_classes:
            raise TrainingError(f"post {i} label {post.label} out of range for {num_classes} classes")


def _chunks(batch, rows):
    """Cut a minibatch, sorted by text rows (ties by post index), greedily into
    chunks of at most CHUNK_ROWS rows; a longer post is a chunk of its own."""
    chunk, used = [], 0
    for i in sorted(batch, key=lambda i: (rows[i], i)):
        if chunk and used + rows[i] > CHUNK_ROWS:
            yield chunk
            chunk, used = [], 0
        chunk.append(i)
        used += rows[i]
    if chunk:
        yield chunk


def train_classifier(model: SentimentModel, posts: list[RawPost], rng) -> list[EpochStats]:
    """Train in place for config.epochs; returns the per-epoch history.

    The loss of a minibatch is the mean of its posts' losses, whichever
    chunks they fall in. An epoch whose mean loss is not finite raises
    TrainingError.
    """
    if not posts:
        raise TrainingError("cannot train on an empty dataset")
    config = model.config
    _check_labels(posts, config.num_classes)
    sequences = [tokenize(p.text) for p in posts]
    rows = [len(model.split(seq)[0]) for seq in sequences]
    labels = np.array([p.label for p in posts])
    opt = ad.AdamState(model.params, lr=config.lr)
    history: list[EpochStats] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(posts))
        total_loss = 0.0
        correct = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            ad.zero_grads(opt.params)
            scale = 1.0 / len(batch)
            for chunk in _chunks(batch, rows):
                logits = model.forward_logits([sequences[i] for i in chunk])
                loss = ad.mul(cross_entropy_logits(logits, labels[chunk]), scale)
                loss.backward()
                total_loss += loss.item() * len(batch)
                correct += int((logits.data.argmax(axis=1) == labels[chunk]).sum())
                del logits, loss  # free this chunk's tape before the next forward
            ad.adam_step(opt)
        stats = EpochStats(
            epoch=epoch + 1,
            loss=total_loss / len(posts),
            accuracy=correct / len(posts),
        )
        if not math.isfinite(stats.loss):
            raise TrainingError(f"classifier loss is {stats.loss} at epoch {stats.epoch}/{config.epochs}")
        history.append(stats)
        logger.info("classifier epoch %d/%d loss %.6f acc %.4f",
                    stats.epoch, config.epochs, stats.loss, stats.accuracy)
    return history


def evaluate(model: SentimentModel, posts: list[RawPost]) -> EvalReport:
    """Argmax predictions over a labeled set; accuracy from the confusion matrix."""
    if not posts:
        raise TrainingError("cannot evaluate an empty dataset")
    num_classes = model.config.num_classes
    _check_labels(posts, num_classes)
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    for post in posts:
        predicted = model.predict(tokenize(post.text))
        confusion[post.label, predicted] += 1
    total = int(confusion.sum())
    accuracy = float(np.trace(confusion)) / total
    col_sums = confusion.sum(axis=0)
    row_sums = confusion.sum(axis=1)
    precision = [
        float(confusion[c, c]) / col_sums[c] if col_sums[c] else 0.0
        for c in range(num_classes)
    ]
    recall = [
        float(confusion[c, c]) / row_sums[c] if row_sums[c] else 0.0
        for c in range(num_classes)
    ]
    return EvalReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        confusion=confusion.tolist(),
        total=total,
        seed=model.config.seed,
        config=model.config.as_dict(),
    )


def write_csv(path, header, rows):
    """One comma-separated line of column names, then one line per row, each value by repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")
