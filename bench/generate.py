"""Seeded input generator for the benchmark workloads.

Every input a workload feeds the program is made here from the workload
seed and written to files in the formats emofuse's loaders read: a JSON
inventory, a plain-text unlabeled corpus, JSON-lines labeled corpora and an
embedding table in the "<count> <dim>" text format. The generator never
imports emofuse, so the answers it keeps (which emojis each post holds) are
independent of the code under test.

A small share of the inserted emojis are ones emofuse's tokenizer drops or
turns into a word (mahjong tile, copyright sign, keycap digit, ...); they
make `tokenization.emoji_recall` report that gap. Shapes that decide how
much work a run does (post lengths, emoji counts) are drawn as a fixed
multiset that the seed only shuffles, so run time does not swing with the
seed while content does.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

# Emojis emofuse's tokenizer drops or reads as a word: mahjong tile,
# copyright sign + VS16, keycap one, negative squared A + VS16, squared
# katakana koko, double exclamation mark + VS16.
DEFECT_EMOJIS = ("\U0001F004", "\u00A9\uFE0F", "1\uFE0F\u20E3",
                 "\U0001F170\uFE0F", "\U0001F201", "\u203C\uFE0F")
DEFECT_SHARE = 0.03

# Single-scalar pictographs inside the tokenizer's ranges. Skin-tone
# modifiers (U+1F3FB..U+1F3FF) are left out: alone they fold to nothing.
_PICTOGRAPH_RANGES = ((0x1F300, 0x1F3FA), (0x1F400, 0x1F5FF), (0x1F600, 0x1F64F),
                      (0x1F680, 0x1F6C5), (0x1F910, 0x1F9FF))

# The shipped sample inventory's two sentiment groups, used as the
# acceptance suite uses them: graph posts co-occur emojis of one group,
# labeled posts carry one emoji whose group decides the label.
TINY_GRAPH_GROUPS = (("\U0001F600", "\U0001F389", "\U0001F4AF", "\U0001F525"),
                     ("\U0001F622", "\U0001F44E", "\U0001F621", "\U0001F494"))
TINY_LABEL_GROUPS = (("\U0001F622", "\U0001F494"), ("\U0001F600", "\U0001F389"))
TINY_WORDS = ("happy", "sad", "love", "rain", "sun", "party", "dog", "music", "fire",
              "think", "today", "really", "very", "people", "friend", "song", "food",
              "sleep", "hope", "idea")

# Words outside the shipped word-vector table; they read as zero vectors.
OOV_WORDS = tuple(f"zq{k}x" for k in range(40))


@dataclass
class UnlabeledCorpus:
    texts: list[str]
    emoji_sets: list[frozenset]  # canonical emojis the generator put in each post
    inserted: int                # emoji occurrences inserted, defect emojis included


@dataclass
class WorkloadInputs:
    """Paths of the written files plus the generator's own answers."""

    unlabeled_path: str
    train_path: str
    heldout_path: str
    inventory_path: str
    emoji_table_path: str | None  # None: the classifier reads the VGAE output
    corpus: UnlabeledCorpus


def canonical(emoji: str) -> str:
    """The key a correct tokenizer gives an inserted emoji: VS15/VS16 removed."""
    return emoji.replace("\uFE0F", "").replace("\uFE0E", "")


def pictograph_pool() -> list[str]:
    return [chr(cp) for lo, hi in _PICTOGRAPH_RANGES for cp in range(lo, hi + 1)]


def read_vocabulary(word_vectors_path: str) -> list[str]:
    with open(word_vectors_path, "r", encoding="utf-8") as fh:
        fh.readline()
        return [line.split(" ", 1)[0] for line in fh if line.strip()]


def stratified(rng, values, n: int) -> np.ndarray:
    """n values cycling through `values`, shuffled: one multiset for every seed."""
    return rng.permutation(np.resize(np.asarray(list(values)), n))


def pair_oracle(emoji_sets, keep=None) -> Counter:
    """Posts containing each unordered pair of distinct emojis, from known sets."""
    pairs: Counter = Counter()
    for emojis in emoji_sets:
        kept = sorted(e for e in emojis if keep is None or e in keep)
        for a, b in combinations(kept, 2):
            pairs[(a, b)] += 1
    return pairs


def _insert(rng, words, emojis, front=False) -> str:
    tokens = list(words)
    for emoji in emojis:
        tokens.insert(0 if front else int(rng.integers(0, len(tokens) + 1)), emoji)
    return " ".join(tokens)


def _swap_in_defects(rng, emojis: list[str]) -> list[str]:
    return [DEFECT_EMOJIS[int(rng.integers(0, len(DEFECT_EMOJIS)))]
            if rng.random() < DEFECT_SHARE else e for e in emojis]


def _corpus(rng, word_lists, emoji_lists) -> UnlabeledCorpus:
    texts, sets, inserted = [], [], 0
    for words, emojis in zip(word_lists, emoji_lists):
        emojis = _swap_in_defects(rng, emojis)
        texts.append(_insert(rng, words, emojis))
        sets.append(frozenset(canonical(e) for e in emojis))
        inserted += len(emojis)
    return UnlabeledCorpus(texts, sets, inserted)


def tiny_unlabeled(rng, n_posts: int) -> UnlabeledCorpus:
    """3-6 words and 2-3 same-group emojis per post, over the shipped inventory."""
    words = TINY_WORDS[:8]
    word_counts = stratified(rng, range(3, 7), n_posts)
    emoji_counts = stratified(rng, (2, 3), n_posts)
    word_lists, emoji_lists = [], []
    for i in range(n_posts):
        word_lists.append([words[j] for j in rng.integers(0, len(words), word_counts[i])])
        group = TINY_GRAPH_GROUPS[int(rng.random() < 0.5)]
        picks = rng.choice(len(group), size=int(emoji_counts[i]), replace=False)
        emoji_lists.append([group[p] for p in picks])
    return _corpus(rng, word_lists, emoji_lists)


def zipf_unlabeled(rng, n_posts: int, pool: list[str], vocab: list[str],
                   words=(8, 30), emojis=(1, 5), exponent=1.1) -> UnlabeledCorpus:
    """Posts whose emojis follow a Zipf-like law over `pool` in a seeded rank order."""
    ranked = [pool[i] for i in rng.permutation(len(pool))]
    weights = 1.0 / np.arange(1, len(ranked) + 1) ** exponent
    word_counts = stratified(rng, range(words[0], words[1] + 1), n_posts)
    emoji_counts = stratified(rng, range(emojis[0], emojis[1] + 1), n_posts)
    vocab = list(vocab) + list(OOV_WORDS)
    all_words = rng.integers(0, len(vocab), int(word_counts.sum()))
    all_emojis = rng.choice(len(ranked), size=int(emoji_counts.sum()), p=weights / weights.sum())
    word_lists, emoji_lists, w, e = [], [], 0, 0
    for n_words, n_emojis in zip(word_counts, emoji_counts):
        word_lists.append([vocab[j] for j in all_words[w:w + n_words]])
        emoji_lists.append([ranked[j] for j in all_emojis[e:e + n_emojis]])
        w += n_words
        e += n_emojis
    return _corpus(rng, word_lists, emoji_lists)


def tiny_labeled(rng, n_posts: int) -> list[tuple[str, int]]:
    """Matched pairs: the same 4-8 words once with a label-1 and once with a label-0 emoji.

    The words carry no signal by construction, so only the emoji decides
    the label (the acceptance suite's overfit corpus, with stratified lengths).
    """
    word_counts = stratified(rng, range(4, 9), (n_posts + 1) // 2)
    posts = []
    for count in word_counts:
        words = [TINY_WORDS[j] for j in rng.integers(0, len(TINY_WORDS), count)]
        for label in (1, 0):
            group = TINY_LABEL_GROUPS[label]
            posts.append((_insert(rng, words, [group[int(rng.integers(0, len(group)))]], front=True),
                          label))
    return posts[:n_posts]


def grouped_labeled(rng, n_posts: int, vocab: list[str], groups, missing: list[str],
                    words: tuple[int, int], emojis: tuple[int, int]) -> list[tuple[str, int]]:
    """Balanced labels; each post's emojis come from its label's group, every fourth
    post with emojis has one from `missing` instead.

    The (length, emoji count, missing count) of each post come from one fixed
    list that the seed only shuffles, so every seed gives the same work.
    """
    lengths = np.linspace(words[0], words[1], n_posts).round().astype(int)
    counts = np.resize(np.arange(emojis[0], emojis[1] + 1), n_posts)
    shapes = [(int(length), int(count), int(count > 0 and i % 4 == 0))
              for i, (length, count) in enumerate(zip(lengths, counts))]
    labels = stratified(rng, range(len(groups)), n_posts)
    vocab = list(vocab) + list(OOV_WORDS)
    posts = []
    for k, label in zip(rng.permutation(n_posts), labels):
        length, count, n_missing = shapes[k]
        chosen = [vocab[j] for j in rng.integers(0, len(vocab), length)]
        group = groups[label]
        picked = ([group[int(rng.integers(0, len(group)))] for _ in range(count - n_missing)]
                  + [missing[int(rng.integers(0, len(missing)))] for _ in range(n_missing)])
        posts.append((_insert(rng, chosen, picked), int(label)))
    return posts


def make_inventory(rng, ids: list[str], vocab: list[str]) -> list[dict]:
    entries = []
    for i, emoji in enumerate(ids):
        keywords = [str(w) for w in rng.choice(vocab, size=int(rng.integers(3, 6)), replace=False)]
        senses = [f"{w} ({pos})" for w, pos in zip(
            rng.choice(vocab, size=int(rng.integers(3, 7)), replace=False),
            rng.choice(("noun", "verb", "adjective"), size=6))]
        entries.append({
            "unicode": " ".join(f"U+{ord(ch):X}" for ch in emoji),
            "name": f"generated emoji {i}",
            "shortcode": f":gen{i}:",
            "description": f"Generated entry {i} for benchmark inputs.",
            "keywords": keywords,
            "senses": senses,
        })
    return entries


# --- writers: the formats emofuse's loaders read ---------------------------------

def write_inventory(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, ensure_ascii=False, indent=1)


def write_unlabeled(path, texts):
    with open(path, "w", encoding="utf-8") as fh:
        for text in texts:
            fh.write(text + "\n")


def write_labeled(path, posts):
    with open(path, "w", encoding="utf-8") as fh:
        for text, label in posts:
            fh.write(json.dumps({"text": text, "label": label}, ensure_ascii=False) + "\n")


def write_table(path, ids, matrix):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for name, row in zip(ids, matrix):
            fh.write(name + " " + " ".join(f"{v:.6f}" for v in row) + "\n")


def make_inputs(spec, seed: int, directory: str, data_dir: str) -> WorkloadInputs:
    """Generate and write one workload's inputs for `seed` into `directory`."""
    rng = np.random.default_rng(seed)
    os.makedirs(directory, exist_ok=True)

    def path(name):
        return os.path.join(directory, name)

    vocab = read_vocabulary(os.path.join(data_dir, "toy_word_vectors.txt"))
    table_path = None
    if spec.inventory_size == 0:
        inventory_path = os.path.join(data_dir, "sample_inventory.json")
        corpus = tiny_unlabeled(rng, spec.graph_posts)
        train = tiny_labeled(rng, spec.train_posts)
        heldout = tiny_labeled(rng, spec.heldout_posts)
    else:
        pool = pictograph_pool()
        chosen = rng.choice(len(pool), size=spec.inventory_size + spec.missing_emojis, replace=False)
        ids = [pool[i] for i in chosen[:spec.inventory_size]]
        missing = [pool[i] for i in chosen[spec.inventory_size:]]
        inventory_path = path("inventory.json")
        write_inventory(inventory_path, make_inventory(rng, ids, vocab))
        corpus = zipf_unlabeled(rng, spec.graph_posts, ids + missing, vocab)
        half = len(ids) // 2
        groups = (ids[:half], ids[half:])
        train = grouped_labeled(rng, spec.train_posts, vocab, groups, missing,
                                spec.post_words, spec.post_emojis)
        heldout = grouped_labeled(rng, spec.heldout_posts, vocab, groups, missing,
                                  spec.post_words, spec.post_emojis)
        table_path = path("emoji_table.txt")
        write_table(table_path, ids, rng.standard_normal((len(ids), spec.emoji_dim)) * 0.1)
    unlabeled_path, train_path, heldout_path = path("unlabeled.txt"), path("train.jsonl"), path("heldout.jsonl")
    write_unlabeled(unlabeled_path, corpus.texts)
    write_labeled(train_path, train)
    write_labeled(heldout_path, heldout)
    return WorkloadInputs(unlabeled_path=unlabeled_path, train_path=train_path,
                          heldout_path=heldout_path, inventory_path=inventory_path,
                          emoji_table_path=table_path, corpus=corpus)
