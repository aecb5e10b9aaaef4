import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from emofuse.exceptions import InventoryError
from emofuse.senses import (
    cosine_similarity,
    load_emojinet,
    node_attribute,
    tfidf_sense_vectors,
)


def write_inventory(tmp_path, entries):
    path = tmp_path / "inventory.json"
    path.write_text(json.dumps(entries, ensure_ascii=False), encoding="utf-8")
    return path


def entry(unicode, senses, keywords=("k",)):
    return {
        "unicode": unicode,
        "name": "n",
        "shortcode": ":c:",
        "description": "d",
        "keywords": list(keywords),
        "senses": list(senses),
    }


class TestLoadEmojinet:
    def test_sample_inventory_loads(self, inventory):
        assert len(inventory) == 20
        pizza = inventory.get("\U0001F355")
        assert pizza is not None
        assert "pizza" in pizza.keywords

    def test_retrievable_by_unfolded_form(self, inventory):
        # variation selector folds away on lookup
        assert inventory.get("❤️") is not None

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_inventory(tmp_path, [entry("U+1F355", ["pizza"]), entry("U+1F355", ["food"])])
        with pytest.raises(InventoryError, match="duplicate"):
            load_emojinet(path)

    def test_missing_mandatory_key_rejected(self, tmp_path):
        bad = entry("U+1F355", ["pizza"])
        del bad["senses"]
        with pytest.raises(InventoryError, match="senses"):
            load_emojinet(path=write_inventory(tmp_path, [bad]))

    def test_degraded_entry_loads_with_flag(self, tmp_path):
        store = load_emojinet(write_inventory(tmp_path, [entry("U+1F355", [])]))
        loaded = store.get("\U0001F355")
        assert loaded is not None and loaded.degraded

    @pytest.mark.parametrize("key, value", [("keywords", 7), ("keywords", "pizza"),
                                            ("senses", {"a": 1}), ("senses", None)])
    def test_non_list_field_rejected_naming_the_entry(self, tmp_path, key, value):
        bad = entry("U+1F355", ["pizza"])
        bad[key] = value
        path = write_inventory(tmp_path, [entry("U+1F600", ["grin"]), bad])
        with pytest.raises(InventoryError, match=f"entry 1 .*{key}"):
            load_emojinet(path)

    @pytest.mark.parametrize("unicode", ["U+1F1FA 1F1F8", "U+1F355 X+FE0F", "U+1F355 U+", "U+110000",
                                         "U+1F355 U+FE0F_"])
    def test_every_notation_part_must_be_a_code_point(self, tmp_path, unicode):
        path = write_inventory(tmp_path, [entry("U+1F600", ["grin"]), entry(unicode, ["flag"])])
        with pytest.raises(InventoryError, match="entry 1: bad unicode field"):
            load_emojinet(path)

    def test_notation_prefix_in_either_case(self, tmp_path):
        store = load_emojinet(write_inventory(tmp_path, [entry("u+1f1fa U+1F1F8", ["flag"])]))
        assert list(store.entries) == ["\U0001F1FA\U0001F1F8"]

    @pytest.mark.parametrize("field, value", [("unicode", 128512), ("unicode", None),
                                              ("keywords", ["pizza", None]), ("senses", [3]),
                                              ("name", None), ("shortcode", 3), ("description", ["x"])])
    def test_non_string_field_rejected_naming_the_entry(self, tmp_path, field, value):
        bad = entry("U+1F355", ["pizza"])
        bad[field] = value
        path = write_inventory(tmp_path, [entry("U+1F600", ["grin"]), bad])
        with pytest.raises(InventoryError, match=f"entry 1.*{field} must be a.*string"):
            load_emojinet(path)

    def test_other_keys_are_ignored(self, tmp_path):
        extra = dict(entry("U+1F355", ["pizza"]), images=3, related=None, category=[1])
        assert load_emojinet(write_inventory(tmp_path, [extra])).get("\U0001F355") is not None

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(InventoryError):
            load_emojinet(tmp_path / "missing.json")


def test_non_utf8_inventory_names_the_file_and_byte(tmp_path):
    path = tmp_path / "inventory.json"
    path.write_bytes(b"\xff\xfe[\x00]\x00")
    with pytest.raises(InventoryError, match="byte 0") as err:
        load_emojinet(path)
    assert str(path) in str(err.value)


class TestTfidf:
    def test_identical_documents_identical_vectors(self, tmp_path):
        store = load_emojinet(write_inventory(tmp_path, [
            entry("U+1F600", ["happy joy"]),
            entry("U+1F601", ["happy joy"]),
            entry("U+1F622", ["sad"]),
        ]))
        vectors = tfidf_sense_vectors(store)
        assert vectors["\U0001F600"] == vectors["\U0001F601"]

    def test_term_in_every_document_drops_out(self, tmp_path):
        store = load_emojinet(write_inventory(tmp_path, [
            entry("U+1F600", ["shared happy"]),
            entry("U+1F622", ["shared sad"]),
        ]))
        vectors = tfidf_sense_vectors(store)
        assert "shared" not in vectors["\U0001F600"]
        assert "shared" not in vectors["\U0001F622"]

    def test_hand_computed_weight(self, tmp_path):
        # 3 documents, "joy" appears once in one of them: weight = 1 * ln(3/1)
        store = load_emojinet(write_inventory(tmp_path, [
            entry("U+1F600", ["happy joy"]),
            entry("U+1F601", ["happy"]),
            entry("U+1F622", ["sad"]),
        ]))
        vectors = tfidf_sense_vectors(store)
        assert vectors["\U0001F600"]["joy"] == pytest.approx(math.log(3.0), abs=1e-12)
        assert vectors["\U0001F600"]["happy"] == pytest.approx(math.log(3.0 / 2.0), abs=1e-12)

    def test_empty_senses_give_zero_vector(self, tmp_path):
        store = load_emojinet(write_inventory(tmp_path, [
            entry("U+1F600", []), entry("U+1F622", ["sad"])]))
        assert tfidf_sense_vectors(store)["\U0001F600"] == {}

    def test_entry_order_does_not_matter(self, tmp_path):
        entries = [
            entry("U+1F600", ["happy joy"]),
            entry("U+1F601", ["happy"]),
            entry("U+1F622", ["sad tears"]),
        ]
        forward = tfidf_sense_vectors(load_emojinet(write_inventory(tmp_path, entries)))
        reordered = tfidf_sense_vectors(load_emojinet(write_inventory(tmp_path, entries[::-1])))
        assert forward == reordered


class TestCosine:
    def test_identical_vectors(self):
        v = {"x": 2.0, "y": 1.0}
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        assert cosine_similarity({"x": 1.0}, {"y": 1.0}) == 0.0

    def test_hand_computed_overlap(self):
        # dot = 1, norms 1 and sqrt(2)
        got = cosine_similarity({"x": 1.0, "y": 1.0}, {"x": 1.0})
        assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_zero_vector(self):
        assert cosine_similarity({}, {"x": 1.0}) == 0.0


sparse_vec = st.dictionaries(
    st.sampled_from(list("abcdef")),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    max_size=6,
)


@given(sparse_vec, sparse_vec)
@example({"a": 1.0}, {"a": 8.801570390044162e-159})  # the square of b's weight is subnormal
def test_cosine_symmetric_and_bounded(a, b):
    ab, ba = cosine_similarity(a, b), cosine_similarity(b, a)
    assert ab == pytest.approx(ba, abs=1e-12)
    assert -1e-12 <= ab <= 1.0 + 1e-12


class TestNodeAttribute:
    def test_single_keyword_is_its_vector(self, inventory, word_table):
        fire = inventory.get("\U0001F525")
        single = type(fire)(
            codepoints=fire.codepoints, name=fire.name, shortcode=fire.shortcode,
            description=fire.description, keywords=("fire",), senses=fire.senses)
        np.testing.assert_array_equal(node_attribute(single, word_table), word_table.get("fire"))

    def test_mean_of_two_keywords(self, inventory, word_table):
        base = inventory.get("\U0001F525")
        two = type(base)(
            codepoints=base.codepoints, name=base.name, shortcode=base.shortcode,
            description=base.description, keywords=("fire", "hot"), senses=base.senses)
        expected = (word_table.get("fire") + word_table.get("hot")) / 2.0
        np.testing.assert_allclose(node_attribute(two, word_table), expected, atol=1e-15)

    def test_out_of_vocabulary_keywords_give_zeros(self, inventory, word_table):
        base = inventory.get("\U0001F525")
        oov = type(base)(
            codepoints=base.codepoints, name=base.name, shortcode=base.shortcode,
            description=base.description, keywords=("qqqqzz",), senses=base.senses)
        assert not node_attribute(oov, word_table).any()

    def test_multi_word_keyword_tokenized(self, inventory, word_table):
        base = inventory.get("\U0001F355")
        phrase = type(base)(
            codepoints=base.codepoints, name=base.name, shortcode=base.shortcode,
            description=base.description, keywords=("slice of pizza",), senses=base.senses)
        # "of" is out of vocabulary; mean over the two known words
        expected = (word_table.get("slice") + word_table.get("pizza")) / 2.0
        np.testing.assert_allclose(node_attribute(phrase, word_table), expected, atol=1e-15)
