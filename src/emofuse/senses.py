"""Emoji sense inventory: TF-IDF sense vectors and averaged keyword attributes.

Each inventory entry carries the emoji's name, shortcode, description,
keywords, and sense definitions. Sense definitions feed the TF-IDF vectors
that weight graph edges; keywords feed the averaged word-vector node
attributes. A loaded inventory is read-only, so `emofuse.graph` computes
what it derives from an inventory once per load and keeps it there.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .exceptions import InventoryError
from .tokenization import fold_emoji, not_utf8, tokenize, WORD

logger = logging.getLogger("emofuse")

_MANDATORY_KEYS = ("unicode", "name", "shortcode", "description", "keywords", "senses")


@dataclass(frozen=True)
class EmojiSenseEntry:
    codepoints: str  # canonical emoji character sequence
    name: str
    shortcode: str
    description: str
    keywords: tuple[str, ...]
    senses: tuple[str, ...]

    @property
    def degraded(self) -> bool:
        """True when the entry has no senses or no keywords to work with."""
        return not self.senses or not self.keywords


@dataclass(frozen=True)
class SenseInventory:
    """Emoji key -> entry; `entries` is a read-only view of a copy.

    `graph_inputs` is an opaque slot that `emofuse.graph` owns; nothing else reads it.
    """

    entries: Mapping[str, EmojiSenseEntry] = field(default_factory=dict)
    graph_inputs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    def __len__(self):
        return len(self.entries)

    def __contains__(self, emoji: str) -> bool:
        return fold_emoji(emoji) in self.entries

    def get(self, emoji: str) -> EmojiSenseEntry | None:
        return self.entries.get(fold_emoji(emoji))


_CODEPOINT = re.compile(r"[Uu]\+([0-9A-Fa-f]+)")


def _parse_codepoints(value: str) -> str:
    """Accept "U+1F355"-style notation (space separated) or a literal emoji.

    In the notation every part must be U+ (either case) and hex digits up to
    10FFFF; a ValueError names the first part that is not.
    """
    value = value.strip()
    if not value.upper().startswith("U+"):
        return fold_emoji(value)
    chars = []
    for part in value.split():
        match = _CODEPOINT.fullmatch(part)
        if match is None or int(match[1], 16) > 0x10FFFF:
            raise ValueError(f"{part!r} is not a U+ code point")
        chars.append(chr(int(match[1], 16)))
    return fold_emoji("".join(chars))


def load_emojinet(path) -> SenseInventory:
    """Load a JSON array of sense-inventory entries keyed by emoji.

    Raises InventoryError for I/O problems, duplicate emoji keys, entries
    missing mandatory fields, a unicode field that is not a string of
    code points or an emoji, a name, shortcode or description that is not a
    string, or keywords/senses that are not lists of strings. Other keys are
    ignored. Entries with empty senses load but are flagged degraded.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise InventoryError(f"cannot read inventory {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise InventoryError(f"inventory {path} is not valid JSON: {err}") from err
    except UnicodeDecodeError as err:
        raise InventoryError(f"inventory {not_utf8(path, err)}") from None
    if not isinstance(data, list):
        raise InventoryError(f"inventory {path} must be a JSON array of entries")
    entries: dict[str, EmojiSenseEntry] = {}
    for pos, item in enumerate(data):
        if not isinstance(item, dict):
            raise InventoryError(f"inventory entry {pos} is not an object")
        missing = [k for k in _MANDATORY_KEYS if k not in item]
        if missing:
            raise InventoryError(f"inventory entry {pos} missing keys: {', '.join(missing)}")
        unicode = item["unicode"]
        if not isinstance(unicode, str):
            raise InventoryError(f"inventory entry {pos}: unicode must be a string")
        try:
            key = _parse_codepoints(unicode)
        except ValueError as err:
            raise InventoryError(f"inventory entry {pos}: bad unicode field {unicode!r}: {err}") from None
        if not key:
            raise InventoryError(f"inventory entry {pos} has an empty unicode field")
        if key in entries:
            raise InventoryError(f"duplicate inventory key {key!r} at entry {pos}")
        for text_key in ("name", "shortcode", "description"):
            if not isinstance(item[text_key], str):
                raise InventoryError(f"inventory entry {pos} ({key!r}): {text_key} must be a string")
        for list_key in ("keywords", "senses"):
            if not isinstance(item[list_key], list) or not all(isinstance(v, str) for v in item[list_key]):
                raise InventoryError(f"inventory entry {pos} ({key!r}): {list_key} must be a list of strings")
        entry = EmojiSenseEntry(
            codepoints=key,
            name=item["name"],
            shortcode=item["shortcode"],
            description=item["description"],
            keywords=tuple(item["keywords"]),
            senses=tuple(item["senses"]),
        )
        if entry.degraded:
            logger.warning("inventory entry %s is degraded (empty senses or keywords)", key)
        entries[key] = entry
    return SenseInventory(entries)


def _sense_terms(entry: EmojiSenseEntry) -> list[str]:
    doc = " ".join(entry.senses)
    return [t.surface for t in tokenize(doc) if t.kind == WORD]


def tfidf_sense_vectors(inventory: SenseInventory) -> dict[str, dict[str, float]]:
    """Per-emoji sparse TF-IDF vectors over the sense documents.

    tf is the raw term count in the emoji's concatenated senses; idf is
    ln(total_documents / document_frequency) with no smoothing, so terms in
    every document drop out. Emojis without senses get the empty vector.
    Entry order does not affect the result.
    """
    docs = {key: _sense_terms(entry) for key, entry in inventory.entries.items()}
    total = len(docs)
    df: dict[str, int] = {}
    for terms in docs.values():
        for term in set(terms):
            df[term] = df.get(term, 0) + 1
    vectors: dict[str, dict[str, float]] = {}
    for key, terms in docs.items():
        tf: dict[str, int] = {}
        for term in terms:
            tf[term] = tf.get(term, 0) + 1
        vec = {}
        for term, count in tf.items():
            weight = count * math.log(total / df[term])
            if weight != 0.0:
                vec[term] = weight
        vectors[key] = vec
    return vectors


def vector_norm(vector: dict[str, float]) -> float:
    """Euclidean norm of a sparse vector."""
    return math.sqrt(sum(w * w for w in vector.values()))


def cosine_similarity(a: dict[str, float], b: dict[str, float]) -> float:
    """Cosine of two sparse non-negative vectors; 0 when either norm is 0."""
    return cosine_with_norms(a, vector_norm(a), b, vector_norm(b))


def cosine_with_norms(a: dict[str, float], norm_a: float, b: dict[str, float], norm_b: float) -> float:
    """`cosine_similarity` of `a` and `b` given their `vector_norm`s, which a caller may reuse."""
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a  # the norms enter only as a product, so they need no swap
    dot = sum(w * b[t] for t, w in a.items() if t in b)
    if 1e-100 < norm_a < 1e100 and 1e-100 < norm_b < 1e100:
        return dot / (norm_a * norm_b)
    # squares of weights this small lose precision (or this large overflow):
    # divide each vector by its largest weight and compute again
    top_a, top_b = max(a.values()), max(b.values())
    if top_a == 0.0 or top_b == 0.0:
        return 0.0
    return cosine_similarity({t: w / top_a for t, w in a.items()}, {t: w / top_b for t, w in b.items()})


def node_attribute(entry: EmojiSenseEntry, word_table) -> np.ndarray:
    """Mean word vector over the entry's keyword words; zeros when none are known."""
    found = []
    for keyword in entry.keywords:
        for token in tokenize(keyword):
            if token.kind != WORD:
                continue
            vec = word_table.get(token.surface)
            if vec is not None:
                found.append(vec)
    if not found:
        return np.zeros(word_table.dimension)
    return np.mean(found, axis=0)
