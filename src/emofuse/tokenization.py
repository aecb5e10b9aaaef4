"""Post tokenization, modality splitting, and corpus loading.

Posts are split into word and emoji tokens that keep their absolute position
in the original stream, so the two modalities can be separated and later
re-interleaved exactly. Emoji detection is range-based over the Unicode emoji
blocks, with ZWJ sequences kept as single tokens and skin-tone modifiers
folded into the base emoji.

`tokenize` makes no Python-level pass over characters. It lowercases the
whole post and makes one `findall` pass with one of two regular expressions,
chosen by the post's shape. Both, and every table, are built at import from
`_EMOJI_RANGES`, the emoji scalars, and `_SEQUENCE_PARTS`, the joiner,
selectors and skin tones; a sequence part is added there and nowhere else.
The routing set `_MARKED` is derived from them: every part, plus ❶…➓, the
alphanumeric emoji scalars the plain word class would read as words. A post
holding none of it takes the plain pattern: a run of alphanumerics, a flag
or one emoji scalar. Any other takes the general one, a word or an emoji
run with its parts, and has its runs folded and its words stripped.

Σ is the one scalar whose lowercase depends on its neighbours, so a post
that holds it first has each emoji run fenced with NULs: the post then
lowercases as if each stretch between runs were lowercased on its own.

A token's kind is read off its surface's first scalar: EMOJI when that is an
emoji scalar or the joiner U+200D, WORD otherwise. A word never starts with
a joiner; an emoji run does once its leading skin tone folds away, as
"\U0001F3FB\u200d\U0001F600" folds to "\u200d\U0001F600". A `Token` is a
named tuple; a `TokenSequence` holds one tuple per post, the surfaces, and
makes the tokens when it is read.

Both corpus loaders open their file through `exceptions.reading`: a file
that cannot be read, or is not UTF-8 text, raises CorpusError naming it and
the offset of its first bad byte.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from itertools import count, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .exceptions import CorpusError, reading

logger = logging.getLogger("emofuse")

WORD = "word"
EMOJI = "emoji"

# Emoji scalar ranges: pictographs, emoticons, transport, supplemental symbols,
# extended pictographs, misc/dingbat symbols, arrows-and-shapes extras, and, as
# the last row, regional indicators. Intentionally excludes bare digits/# (keycap bases).
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
# The parts of a sequence besides its emoji scalars: (role, first, last). A
# modifier stays in the run of the emoji scalar before it and folds out of its
# token; the joiner links the next emoji scalar into the run. A part outside
# `_EMOJI_RANGES` is stray outside a run: it is stripped from a word without splitting it.
_SEQUENCE_PARTS = (
    ("joiner", 0x200D, 0x200D),
    ("modifier", 0xFE0E, 0xFE0F),  # text and emoji presentation selectors
    ("modifier", 0x1F3FB, 0x1F3FF),  # skin tones
)


def _char_class(*ranges: tuple[int, int], chars: str = "") -> str:
    return "[" + chars + "".join(
        f"\\U{lo:08X}" + (f"-\\U{hi:08X}" if hi > lo else "") for lo, hi in ranges) + "]"


def _scalars(*ranges: tuple[int, int]) -> list[str]:
    return [chr(cp) for lo, hi in ranges for cp in range(lo, hi + 1)]


_PARTS = [row[1:] for row in _SEQUENCE_PARTS]
_JOINERS = [row[1:] for row in _SEQUENCE_PARTS if row[0] == "joiner"]
_MODIFIERS = [row[1:] for row in _SEQUENCE_PARTS if row[0] == "modifier"]
_STRAYS = [(lo, hi) for lo, hi in _PARTS if not any(a <= lo and hi <= b for a, b in _EMOJI_RANGES)]
_EMOJI = _char_class(*_EMOJI_RANGES)
_REGIONAL = _char_class(_EMOJI_RANGES[-1])
# A flag is exactly two regional indicators; any other emoji scalar takes the
# modifiers and joined emoji scalars that follow it.
_RUN = f"{_REGIONAL}{_REGIONAL}|{_EMOJI}(?:{_char_class(*_MODIFIERS)}|{_char_class(*_JOINERS)}{_EMOJI})*"
# The capturing group makes `split` alternate text, run, text, ..., text.
_EMOJI_RUN = re.compile(f"({_RUN})")
# CPython's `\w` is `str.isalnum()` plus "_", so `[^\W_]` is an
# alphanumeric. A word character is an alphanumeric outside the emoji
# scalars (❶…➓ are alphanumeric); stray parts between two do not split a word.
_ALNUM_EMOJI = "".join(c for c in _scalars(*_EMOJI_RANGES) if c.isalnum())
_WORD_CHAR = f"[^\\W_{_ALNUM_EMOJI}]"
_TOKEN = re.compile(f"{_WORD_CHAR}+(?:{_char_class(*_STRAYS)}+{_WORD_CHAR}+)*|{_RUN}")
# A post with no sequence part and no ❶…➓ has no run to fold and no word to
# strip; it takes `_PLAIN`, where each emoji run is a flag or one scalar.
_MARKED = re.compile(_char_class(*_PARTS, chars=_ALNUM_EMOJI))
_PLAIN = re.compile(f"[^\\W_]+|{_REGIONAL}{_REGIONAL}|{_EMOJI}")
_FOLD = dict.fromkeys(map(ord, _scalars(*_MODIFIERS)))
_STRIP = dict.fromkeys(map(ord, _scalars(*_STRAYS)))
# EMOJI for each scalar an emoji surface can start with, the joiner included.
_EMOJI_FIRST = dict.fromkeys(_scalars(*_EMOJI_RANGES, *_JOINERS), EMOJI)
_first = itemgetter(0)


def fold_emoji(surface: str) -> str:
    """Canonical emoji key: variation selectors and skin tones stripped."""
    return surface.translate(_FOLD)


class Token(NamedTuple):
    kind: str  # WORD or EMOJI
    surface: str
    position: int


@dataclass(frozen=True, slots=True)
class TokenSequence:
    """One post's tokens in stream order, at positions 0, 1, 2, ...

    Only the surfaces are kept, as one tuple of strings, which the garbage
    collector stops tracking; each `Token` is made as it is read, with its
    kind read off its surface's first scalar. Stored tokens would leave one
    tracked object per token alive for as long as a corpus is held, and
    every full collection would walk them all.
    """

    surfaces: tuple[str, ...]

    def __len__(self):
        return len(self.surfaces)

    def __iter__(self) -> Iterator[Token]:
        surfaces = self.surfaces
        kinds = map(_EMOJI_FIRST.get, map(_first, surfaces), repeat(WORD))
        return map(Token, kinds, surfaces, count())

    @property
    def tokens(self) -> tuple[Token, ...]:
        return tuple(self)

    def unique_emojis(self) -> set[str]:
        """The distinct emoji surfaces; no emoji starts with an ASCII scalar."""
        return {s for s in self.surfaces if not s.isascii() and s[0] in _EMOJI_FIRST}


@dataclass(frozen=True)
class RawPost:
    text: str
    label: int


def tokenize(text: str) -> TokenSequence:
    """Split text into lowercased word tokens and canonical emoji tokens.

    Positions are assigned contiguously from 0 in stream order. A ZWJ
    sequence of emoji scalars is one token; skin tones and variation
    selectors never survive into the token surface, and a run that folds
    to nothing (a lone skin tone) yields no token.
    """
    if "\u03a3" in text:
        # Σ is the one scalar whose lowercase depends on its neighbours, and
        # case mapping looks through skin tones and selectors to find them; a
        # NUL on each side of every emoji run keeps them out of its context.
        text = "\0".join(_EMOJI_RUN.split(text))
    if _MARKED.search(text) is None:
        return TokenSequence(tuple(_PLAIN.findall(text.lower())))
    kept = []
    for s in _TOKEN.findall(text.lower()):
        if s[0] in _EMOJI_FIRST:
            if len(s) > 1 or ord(s) in _FOLD:  # a lone skin tone folds to nothing
                s = s.translate(_FOLD)
                if not s:
                    continue
        elif not s.isalnum():  # a word is all alphanumerics unless it holds a stray part
            s = s.translate(_STRIP)
        kept.append(s)
    return TokenSequence(tuple(kept))


def split_modalities(seq: Iterable[Token]) -> tuple[list[Token], list[Token]]:
    """Separate word tokens from emoji tokens, both keeping original positions."""
    words = [t for t in seq if t.kind == WORD]
    emojis = [t for t in seq if t.kind == EMOJI]
    return words, emojis


def load_labeled_dataset(path) -> tuple[list[RawPost], list[tuple[int, str]]]:
    """Read a JSON-lines corpus of {"text": ..., "label": ...} objects.

    Returns the posts in file order plus a list of (line_number, message)
    for malformed lines. Raises CorpusError on a file `reading` refuses or
    when a nonempty file yields no valid post at all.
    """
    posts: list[RawPost] = []
    errors: list[tuple[int, str]] = []
    saw_content = False
    with reading(path, CorpusError, "labeled corpus") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            saw_content = True
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as err:  # or nested too deeply
                errors.append((line_no, f"invalid JSON: {getattr(err, 'msg', err)}"))
                continue
            if not isinstance(obj, dict) or "text" not in obj or "label" not in obj:
                errors.append((line_no, 'expected object with "text" and "label"'))
                continue
            text, label = obj["text"], obj["label"]
            if not isinstance(text, str) or not isinstance(label, int) or isinstance(label, bool) or label < 0:
                errors.append((line_no, "text must be a string and label a non-negative integer"))
                continue
            posts.append(RawPost(text=text, label=label))
    if saw_content and not posts:
        raise CorpusError(f"no valid posts in {path} ({len(errors)} malformed lines)")
    for line_no, message in errors:
        logger.warning("%s:%d: %s", path, line_no, message)
    return posts, errors


def load_unlabeled_corpus(path) -> Iterator[str]:
    """Yield one post per nonempty line of a plain-text corpus."""
    with reading(path, CorpusError, "corpus") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield line
