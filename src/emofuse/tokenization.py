"""Post tokenization, modality splitting, and corpus loading.

Posts are split into word and emoji tokens that keep their absolute position
in the original stream, so the two modalities can be separated and later
re-interleaved exactly. Emoji detection is range-based over the Unicode emoji
blocks, with ZWJ sequences kept as single tokens and skin-tone modifiers
folded into the base emoji.

`tokenize` makes no Python-level pass over characters: one regular
expression, compiled at import from `_EMOJI_RANGES`, finds the emoji runs;
the text between them is split into words by a second one, and
`str.translate` strips joiners and folds emoji surfaces. A `Token` is a
named tuple; a `TokenSequence` stores only its kinds and surfaces and makes
the tokens when it is read.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .exceptions import CorpusError

logger = logging.getLogger("emofuse")

WORD = "word"
EMOJI = "emoji"

# Emoji scalar ranges: pictographs, emoticons, transport, supplemental symbols,
# extended pictographs, misc/dingbat symbols, arrows-and-shapes extras, and
# regional indicators. Intentionally excludes bare digits/# (keycap bases).
_EMOJI_RANGES = (
    (0x1F300, 0x1F5FF),
    (0x1F600, 0x1F64F),
    (0x1F680, 0x1F6FF),
    (0x1F900, 0x1F9FF),
    (0x1FA70, 0x1FAFF),
    (0x2600, 0x26FF),
    (0x2700, 0x27BF),
    (0x2B00, 0x2BFF),
    (0x1F1E6, 0x1F1FF),
)
_ZWJ = 0x200D
_VARIATION_SELECTORS = (0xFE0E, 0xFE0F)
_SKIN_TONES = (0x1F3FB, 0x1F3FF)
_REGIONAL_INDICATORS = (0x1F1E6, 0x1F1FF)


def _char_class(*ranges: tuple[int, int]) -> str:
    return "[" + "".join(f"\\U{lo:08X}-\\U{hi:08X}" for lo, hi in ranges) + "]"


def _delete_table(*ranges: tuple[int, int]) -> dict[int, None]:
    return {cp: None for lo, hi in ranges for cp in range(lo, hi + 1)}


_EMOJI = _char_class(*_EMOJI_RANGES)
_REGIONAL = _char_class(_REGIONAL_INDICATORS)
_MODIFIER = _char_class(_VARIATION_SELECTORS, _SKIN_TONES)
# A flag is exactly two regional indicators; any other emoji scalar takes the
# variation selectors, skin tones and ZWJ-joined emoji scalars that follow it.
# The capturing group makes `split` alternate text, run, text, ..., text.
_EMOJI_RUN = re.compile(f"({_REGIONAL}{_REGIONAL}|{_EMOJI}(?:{_MODIFIER}|{chr(_ZWJ)}{_EMOJI})*)")
# CPython's `\w` is `str.isalnum()` plus "_", so a word is a maximal run of
# alphanumeric characters.
_WORD_RE = re.compile(r"[^\W_]+")
# Between emoji runs a stray joiner or selector is dropped without splitting
# the word around it.
_STRAY = _delete_table((_ZWJ, _ZWJ), _VARIATION_SELECTORS)
_FOLD = _delete_table(_VARIATION_SELECTORS, _SKIN_TONES)


def fold_emoji(surface: str) -> str:
    """Canonical emoji key: variation selectors and skin tones stripped."""
    return surface.translate(_FOLD)


class Token(NamedTuple):
    kind: str  # WORD or EMOJI
    surface: str
    position: int


@dataclass(frozen=True)
class TokenSequence:
    """One post's tokens in stream order, at positions 0, 1, 2, ...

    Kinds and surfaces are kept as two tuples of strings, which the garbage
    collector stops tracking, and `Token`s are made as they are read. Stored
    tokens would leave one tracked object per token alive for as long as a
    corpus is held, and every full collection would walk them all.
    """

    kinds: tuple[str, ...]
    surfaces: tuple[str, ...]

    def __len__(self):
        return len(self.kinds)

    def __iter__(self) -> Iterator[Token]:
        return map(Token, self.kinds, self.surfaces, range(len(self.kinds)))

    @property
    def tokens(self) -> tuple[Token, ...]:
        return tuple(self)


@dataclass(frozen=True)
class RawPost:
    text: str
    label: int | None = None


def _words(text: str) -> list[str]:
    # Lowercase each stretch between emoji runs, never the whole post: the
    # lowercase of Σ depends on the letters around it, and case mapping
    # looks through skin tones to find them.
    return _WORD_RE.findall(text.translate(_STRAY).lower())


def tokenize(text: str) -> TokenSequence:
    """Split text into lowercased word tokens and canonical emoji tokens.

    Positions are assigned contiguously from 0 in stream order. A ZWJ
    sequence of emoji scalars is one token; skin tones and variation
    selectors never survive into the token surface, and a run that folds
    to nothing (a lone skin tone) yields no token.
    """
    parts = _EMOJI_RUN.split(text)
    surfaces = _words(parts[0])
    kinds = [WORD] * len(surfaces)
    for k in range(1, len(parts), 2):
        emoji = parts[k].translate(_FOLD)
        if emoji:
            surfaces.append(emoji)
            kinds.append(EMOJI)
        words = _words(parts[k + 1])
        surfaces += words
        kinds += [WORD] * len(words)
    return TokenSequence(tuple(kinds), tuple(surfaces))


def split_modalities(seq: Iterable[Token]) -> tuple[list[Token], list[Token]]:
    """Separate word tokens from emoji tokens, both keeping original positions."""
    words = [t for t in seq if t.kind == WORD]
    emojis = [t for t in seq if t.kind == EMOJI]
    return words, emojis


def load_labeled_dataset(path) -> tuple[list[RawPost], list[tuple[int, str]]]:
    """Read a JSON-lines corpus of {"text": ..., "label": ...} objects.

    Returns the posts in file order plus a list of (line_number, message)
    for malformed lines. Raises CorpusError on I/O failure or when a
    nonempty file yields no valid post at all.
    """
    posts: list[RawPost] = []
    errors: list[tuple[int, str]] = []
    saw_content = False
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                saw_content = True
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as err:
                    errors.append((line_no, f"invalid JSON: {err.msg}"))
                    continue
                if not isinstance(obj, dict) or "text" not in obj or "label" not in obj:
                    errors.append((line_no, 'expected object with "text" and "label"'))
                    continue
                text, label = obj["text"], obj["label"]
                if not isinstance(text, str) or not isinstance(label, int) or isinstance(label, bool) or label < 0:
                    errors.append((line_no, "text must be a string and label a non-negative integer"))
                    continue
                posts.append(RawPost(text=text, label=label))
    except OSError as err:
        raise CorpusError(f"cannot read labeled corpus {path}: {err}") from err
    if saw_content and not posts:
        raise CorpusError(f"no valid posts in {path} ({len(errors)} malformed lines)")
    for line_no, message in errors:
        logger.warning("%s:%d: %s", path, line_no, message)
    return posts, errors


def load_unlabeled_corpus(path) -> Iterator[str]:
    """Yield one post per nonempty line of a plain-text corpus."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield line
    except OSError as err:
        raise CorpusError(f"cannot read corpus {path}: {err}") from err
