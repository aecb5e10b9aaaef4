import numpy as np
import pytest
from hypothesis import given, strategies as st

from emofuse.exceptions import CorpusError, EmofuseError
from emofuse.text_encoder import WordEmbeddingTable
from emofuse.vectors import VectorTable, read_vector_table
from emofuse.vgae import EmojiEmbeddings


class TestReadVectorTable:
    def test_empty_table(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0 4\n", encoding="utf-8")
        ids, matrix = read_vector_table(path)
        assert ids == [] and matrix.shape == (0, 4)

    @pytest.mark.parametrize("text, line", [
        ("2\n", 1),                        # header too short
        ("x 2\n", 1),                      # header not an integer
        ("-1 2\n", 1),                     # negative count
        ("1 -2\n", 1),                     # negative dimension
        ("2 2\na 1.0 x\nb 1 2\n", 2),      # non-numeric field
        ("3 2\na 1 2\nb 1 0x10\nc 1 2\n", 3),  # non-numeric field on line 3
        ("3 1\na 1\nb x\na 3\n", 3),           # the first bad line wins
        ("2 2\na 1 2\nb nan 1\n", 3),
        ("2 2\na 1 2\nb 1 inf\n", 3),
        ("2 2\na 1 2\nb 1\n", 3),          # short row
        ("3 2\na 1 2\n", 3),               # fewer rows than the header
        ("3 1\na 1\nb 2\na 3\n", 4),       # repeated id
        ("1 2\na 1 2\nb 3 4\n", 3),        # more rows than the header
        ("1 1\na 1\n\n \nb 2\n", 5),        # the first extra non-blank line
    ])
    def test_malformed_table_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "t.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusError, match=f"line {line}") as err:
            read_vector_table(path)
        assert str(path) in str(err.value)

    def test_trailing_blank_lines_are_accepted(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 2\na 1 2\n\n  \n", encoding="utf-8")
        ids, matrix = read_vector_table(path)
        assert ids == ["a"] and matrix.tolist() == [[1.0, 2.0]]

    def test_fields_parse_as_python_floats(self, tmp_path):
        fields = ["1_0", "-0.5", "1e-400", "+.5", "1.", "\u0661"]
        path = tmp_path / "t.txt"
        path.write_text(f"1 {len(fields)}\na {' '.join(fields)}\n", encoding="utf-8")
        _, matrix = read_vector_table(path)
        assert matrix[0].tolist() == [float(field) for field in fields]

    def test_huge_header_count_allocates_nothing_up_front(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1000000000000 1000000000000\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            read_vector_table(path)


class TestVectorTable:
    def test_one_class_for_every_table(self):
        assert WordEmbeddingTable is EmojiEmbeddings is VectorTable

    @pytest.mark.parametrize("names", [["c", "a", "c"], ["b", "zz", "", "a"], ["zz"], []])
    def test_rows_gather_known_names_and_zero_the_rest(self, names):
        matrix = np.arange(6.0).reshape(3, 2)
        table = VectorTable(["a", "b", "c"], matrix.copy())
        expected = [table.get(name) if name in table else np.zeros(2) for name in names]
        got = table.rows(names)
        np.testing.assert_array_equal(got, np.array(expected).reshape(len(names), 2))
        got[...] = -1.0  # a copy, never a view of the table
        np.testing.assert_array_equal(table.vectors, matrix)

    def test_save_and_load_round_trip(self, tmp_path):
        table = VectorTable(["a", "b"], np.array([[0.1, -2.5], [1e-300, 3.0]]))
        table.save(tmp_path / "t.txt")
        loaded = VectorTable.load(tmp_path / "t.txt")
        assert loaded.ids == table.ids and loaded.vectors.tobytes() == table.vectors.tobytes()
        assert (len(loaded), loaded.dimension, "b" in loaded, "z" in loaded) == (2, 2, True, False)


@given(st.one_of(st.text(alphabet="0123-.xnaif \n e", max_size=40), st.binary(max_size=40)))
def test_fuzz_raises_only_typed_errors(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz_vectors") / "t.txt"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    try:
        ids, matrix = read_vector_table(path)
    except EmofuseError:
        return
    assert matrix.shape[0] == len(ids)
    assert np.isfinite(matrix).all()
