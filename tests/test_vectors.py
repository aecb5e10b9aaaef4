import numpy as np
import pytest
from hypothesis import given, strategies as st

from emofuse.exceptions import CorpusError, EmofuseError
from emofuse.vectors import read_vector_table


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
        ("2 2\na 1 2\nb nan 1\n", 3),
        ("2 2\na 1 2\nb 1 inf\n", 3),
        ("2 2\na 1 2\nb 1\n", 3),          # short row
        ("3 2\na 1 2\n", 3),               # fewer rows than the header
    ])
    def test_malformed_table_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "t.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusError, match=f"line {line}") as err:
            read_vector_table(path)
        assert str(path) in str(err.value)

    def test_huge_header_count_allocates_nothing_up_front(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1000000000000 1000000000000\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            read_vector_table(path)


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
