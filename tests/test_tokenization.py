import gc

import pytest
from hypothesis import given, settings, strategies as st

from emofuse.exceptions import CorpusError
from emofuse.tokenization import (
    _EMOJI_RANGES,
    EMOJI,
    WORD,
    Token,
    load_labeled_dataset,
    split_modalities,
    tokenize,
)

ZWJ = 0x200D
VARIATION_SELECTORS = {0xFE0E, 0xFE0F}
SKIN_TONES = set(range(0x1F3FB, 0x1F400))
REGIONAL_INDICATORS = (0x1F1E6, 0x1F1FF)


def is_emoji_scalar(cp):
    return any(lo <= cp <= hi for lo, hi in _EMOJI_RANGES)


def is_regional_indicator(cp):
    return REGIONAL_INDICATORS[0] <= cp <= REGIONAL_INDICATORS[1]


def flush_words(buffer, out):
    if not buffer:
        return
    run = "".join(buffer).lower()
    word = "".join(ch if ch.isalnum() else " " for ch in run)
    for piece in word.split():
        out.append((WORD, piece))
    buffer.clear()


def reference_tokenize(text):
    """The character-at-a-time scanner `tokenize` replaced, as an oracle.

    Returns (kind, surface, position) triples.
    """
    raw = []
    word_buffer = []
    i = 0
    n = len(text)
    while i < n:
        cp = ord(text[i])
        if is_emoji_scalar(cp):
            flush_words(word_buffer, raw)
            parts = [text[i]]
            i += 1
            # flags are exactly two regional indicators
            if is_regional_indicator(cp) and i < n and is_regional_indicator(ord(text[i])):
                raw.append((EMOJI, parts[0] + text[i]))
                i += 1
                continue
            while i < n:
                nxt = ord(text[i])
                if nxt in VARIATION_SELECTORS or nxt in SKIN_TONES:
                    parts.append(text[i])
                    i += 1
                    continue
                if nxt == ZWJ and i + 1 < n and is_emoji_scalar(ord(text[i + 1])):
                    parts.append(text[i])
                    parts.append(text[i + 1])
                    i += 2
                    continue
                break
            surface = "".join(
                ch for ch in parts
                if ord(ch) not in VARIATION_SELECTORS and ord(ch) not in SKIN_TONES)
            if surface:
                raw.append((EMOJI, surface))
        elif cp in VARIATION_SELECTORS or cp == ZWJ:
            i += 1  # stray joiner outside an emoji sequence
        else:
            word_buffer.append(text[i])
            i += 1
    flush_words(word_buffer, raw)
    return [(kind, surface, pos) for pos, (kind, surface) in enumerate(raw)]


def kinds_and_surfaces(seq):
    return [(t.kind, t.surface) for t in seq]


class TestTokenize:
    def test_simple_sentence(self):
        seq = tokenize("I love \U0001F355")
        assert kinds_and_surfaces(seq) == [(WORD, "i"), (WORD, "love"), (EMOJI, "\U0001F355")]
        assert [t.position for t in seq] == [0, 1, 2]

    def test_empty_text(self):
        assert len(tokenize("")) == 0

    def test_duplicate_emojis_preserved(self):
        seq = tokenize("\U0001F600 great \U0001F600")
        assert kinds_and_surfaces(seq) == [
            (EMOJI, "\U0001F600"), (WORD, "great"), (EMOJI, "\U0001F600")]

    def test_punctuation_stripped_and_lowercased(self):
        seq = tokenize("Hello, WORLD!!")
        assert kinds_and_surfaces(seq) == [(WORD, "hello"), (WORD, "world")]

    def test_zwj_sequence_is_one_token(self):
        family = "\U0001F468‍\U0001F469‍\U0001F467"
        seq = tokenize(f"my {family} rocks")
        emojis = [t for t in seq if t.kind == EMOJI]
        assert len(emojis) == 1
        assert emojis[0].surface == family

    def test_skin_tone_folds_to_base(self):
        seq = tokenize("\U0001F44D\U0001F3FD")
        assert kinds_and_surfaces(seq) == [(EMOJI, "\U0001F44D")]

    def test_variation_selector_folds(self):
        assert tokenize("❤️").tokens[0].surface == "❤"

    def test_adjacent_emojis_are_separate_tokens(self):
        seq = tokenize("\U0001F600\U0001F622")
        assert [t.surface for t in seq] == ["\U0001F600", "\U0001F622"]

    def test_flag_pair_is_one_token(self):
        flag = "\U0001F1FA\U0001F1F8"
        seq = tokenize(f"go {flag} team")
        assert (EMOJI, flag) in kinds_and_surfaces(seq)
        assert len(seq) == 3


words_strategy = st.text(alphabet="abcdefg", min_size=1, max_size=6)
emoji_strategy = st.sampled_from(["\U0001F600", "\U0001F355", "\U0001F389", "❤", "\U0001F44D"])
token_stream = st.lists(st.one_of(words_strategy, emoji_strategy), min_size=0, max_size=20)


@given(token_stream)
def test_roundtrip_reconstructs_interleaving(stream):
    text = " ".join(stream)
    seq = tokenize(text)
    assert [t.position for t in seq] == list(range(len(seq)))
    assert [t.surface for t in seq] == stream
    words, emojis = split_modalities(seq)
    merged = sorted(words + emojis, key=lambda t: t.position)
    assert merged == list(seq.tokens)


# Letters whose case mapping is not one-to-one (İ lowers to two scalars, Σ
# depends on its neighbours), marks and "_" that split words, joiners and
# selectors, skin tones, regional indicators, pictographs, and the scalars
# of common emojis outside `_EMOJI_RANGES` (U+1F004, ©, keycap 1, U+1F170,
# U+1F201, ‼).
MIXED_ALPHABET = (
    "aZq09_ .,!?'#-"
    "İßΣσ\u0301\u0307"
    "\u200d\ufe0e\ufe0f"
    "\U0001F3FB\U0001F3FD\U0001F3FF"
    "\U0001F1E6\U0001F1F8\U0001F1FA"
    "\U0001F600\U0001F355\U0001F468\U0001F469❤⭐"
    "\U0001F004\u00A9\u20E3\U0001F170\U0001F201\u203C"
)
# Real sequences that single scalars rarely line up into: a skin-toned ZWJ
# sequence, a family, a flag, an emoji with VS16, a word with final sigma.
FRAGMENTS = (
    "\U0001F468\U0001F3FB\u200d\U0001F4BB",
    "\U0001F468\u200d\U0001F469\u200d\U0001F467",
    "\U0001F1FA\U0001F1F8",
    "❤\ufe0f",
    "ΟΔΟΣ",
)
mixed_text = st.lists(
    st.one_of(st.sampled_from(MIXED_ALPHABET), st.sampled_from(FRAGMENTS)), max_size=30,
).map("".join)


@settings(max_examples=500)
@given(mixed_text)
def test_matches_reference_tokenizer(text):
    seq = tokenize(text)
    assert [tuple(t) for t in seq] == reference_tokenize(text)
    assert all(type(t) is Token for t in seq)


@pytest.mark.parametrize("text, expected", [
    ("ab\u200dcd", [(WORD, "abcd", 0)]),
    ("a \U0001F3FD b", [(WORD, "a", 0), (WORD, "b", 1)]),
    ("\U0001F1FA\U0001F1F8\U0001F3FB", [(EMOJI, "\U0001F1FA\U0001F1F8", 0)]),
    ("\U0001F3FB\u200d\U0001F600", [(EMOJI, "\u200d\U0001F600", 0)]),
    ("\U0001F1FA\ufe0f\U0001F1F8", [(EMOJI, "\U0001F1FA", 0), (EMOJI, "\U0001F1F8", 1)]),
    ("aΣ\U0001F3FBb", [(WORD, "aς", 0), (WORD, "b", 1)]),
], ids=["stray-zwj-in-word", "lone-skin-tone", "skin-tone-after-flag",
        "zwj-sequence-from-skin-tone", "regional-indicator-then-vs16",
        "final-sigma-before-skin-tone"])
def test_edge_cases_match_reference(text, expected):
    assert reference_tokenize(text) == expected
    assert [tuple(t) for t in tokenize(text)] == expected


def test_sequence_keeps_no_tracked_object_per_token():
    # A held corpus of sequences must not keep one collector-tracked object
    # per token alive, or every full collection walks all of them.
    seq = tokenize("so happy \U0001F600 today \U0001F389")
    gc.collect()
    assert not gc.is_tracked(seq.kinds)
    assert not gc.is_tracked(seq.surfaces)


class TestSplitModalities:
    def test_mixed(self):
        words, emojis = split_modalities(tokenize("hi \U0001F600 there"))
        assert [(t.surface, t.position) for t in words] == [("hi", 0), ("there", 2)]
        assert [(t.surface, t.position) for t in emojis] == [("\U0001F600", 1)]

    def test_all_emoji(self):
        words, emojis = split_modalities(tokenize("\U0001F600 \U0001F622"))
        assert words == []
        assert len(emojis) == 2

    def test_no_emoji(self):
        words, emojis = split_modalities(tokenize("just words"))
        assert emojis == []
        assert len(words) == 2


class TestLoadLabeledDataset:
    def test_valid_lines(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "hi \U0001F355", "label": 1}\n', encoding="utf-8")
        posts, errors = load_labeled_dataset(path)
        assert errors == []
        assert posts[0].text == "hi \U0001F355"
        assert posts[0].label == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        posts, errors = load_labeled_dataset(path)
        assert posts == [] and errors == []

    def test_missing_label_recorded_with_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "ok", "label": 0}\n{"text": "bad"}\n', encoding="utf-8")
        posts, errors = load_labeled_dataset(path)
        assert len(posts) == 1
        assert len(errors) == 1
        assert errors[0][0] == 2

    def test_invalid_json_collected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('not json\n{"text": "ok", "label": 0}\n', encoding="utf-8")
        posts, errors = load_labeled_dataset(path)
        assert len(posts) == 1 and errors[0][0] == 1

    def test_all_lines_bad_raises(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("oops\nalso bad\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            load_labeled_dataset(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CorpusError):
            load_labeled_dataset(tmp_path / "nope.jsonl")
