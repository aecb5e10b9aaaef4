"""Embedding tables: one id -> vector map type and its text format.

The first line is "<count> <dimension>"; each following line is an id
followed by that many decimals, space separated. The same format serves
pretrained word vectors, exported emoji embeddings, and externally published
alternatives, so tables can be swapped for comparison runs; `VectorTable`
holds any of them in memory, the classifier's frozen emoji inputs too.
"""

from __future__ import annotations

import itertools

import numpy as np

from .exceptions import CorpusError


def read_vector_table(path) -> tuple[list[str], np.ndarray]:
    """Read (ids, matrix) from the text format; rows align with ids.

    A malformed header, a row of the wrong width, a non-numeric field, a
    repeated id, a nan/inf value or a non-blank line past the header's count
    raises CorpusError naming the file and line (a repeated id also names
    the line it first appeared on). Trailing blank lines are allowed. Rows are
    read one line at a time, so the header's count never sizes an allocation.

    The numbers are parsed in one `np.loadtxt` pass; where it refuses a table
    (a malformed row, or a field only Python's `float` accepts, such as `1_0`),
    the table is read again row by row, which names the first bad line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                count, dim = (int(field) for field in fh.readline().split())
            except ValueError:
                raise CorpusError(f"{path}: line 1: header must be '<count> <dimension>'") from None
            if count < 0 or dim < 0:
                raise CorpusError(f"{path}: line 1: header count {count} or dimension {dim} is negative")
            rows_at = fh.tell()
            table = _read_rows_at_once(fh, count, dim)
            if table is None:
                fh.seek(rows_at)
                table = _read_rows(fh, path, count, dim)
            for line_no, line in enumerate(fh, count + 2):
                if line.strip():
                    raise CorpusError(f"{path}: line {line_no} is a row past the header's count of {count}")
    except (OSError, UnicodeDecodeError) as err:
        raise CorpusError(f"cannot read vector table {path}: {err}") from err
    ids, matrix = table
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise CorpusError(f"{path}: line {bad[0] + 2} has a nan or inf value")
    return ids, matrix


def _read_rows_at_once(fh, count, dim) -> tuple[list[str], np.ndarray] | None:
    """The next `count` rows as (ids, matrix), the numbers parsed by one C pass; None if it refuses them.

    It refuses a row with no numbers, any row `np.loadtxt` cannot parse, a
    result not shaped (count, dim) and a repeated id.
    """
    ids: list[str] = []

    def numbers():
        for _ in range(count):
            parts = fh.readline().split(None, 1)
            if len(parts) != 2:
                return
            ids.append(parts[0])
            yield parts[1]

    rows = numbers()
    first = next(rows, None)
    if first is None:  # loadtxt would warn that it read no data
        return None
    try:
        matrix = np.loadtxt(itertools.chain((first,), rows), dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    return (ids, matrix) if matrix.shape == (count, dim) and len(set(ids)) == count else None


def _read_rows(fh, path, count, dim) -> tuple[list[str], np.ndarray]:
    """The next `count` rows as (ids, matrix), each field parsed by Python's `float`; names the first bad line."""
    first_line: dict[str, int] = {}  # id -> the line it is on; the keys are the ids in order
    rows: list[np.ndarray] = []
    for line_no in range(2, count + 2):
        parts = fh.readline().split()
        if len(parts) != dim + 1:
            raise CorpusError(f"{path}: line {line_no} has {len(parts)} fields, expected {dim + 1}")
        try:
            rows.append(np.array(parts[1:], dtype=np.float64))
        except ValueError:
            raise CorpusError(f"{path}: line {line_no} has a non-numeric value") from None
        first = first_line.setdefault(parts[0], line_no)
        if first != line_no:
            raise CorpusError(f"{path}: line {line_no} repeats the id {parts[0]!r} of line {first}")
    return list(first_line), np.array(rows, dtype=np.float64).reshape(count, dim)


def write_vector_table(path, ids, matrix):
    """Write (ids, matrix) in the text format with round-trip float precision."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != len(ids):
        raise ValueError(f"matrix shape {matrix.shape} does not match {len(ids)} ids")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for name, row in zip(ids, matrix):
            fh.write(name)
            for value in row:
                fh.write(f" {float(value)!r}")
            fh.write("\n")


class VectorTable:
    """Immutable id -> vector map: `ids[i]` names row i of `vectors`."""

    def __init__(self, ids, vectors):
        self.ids = ids
        self.vectors = vectors
        self._index = {name: i for i, name in enumerate(ids)}

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def __len__(self):
        return len(self.ids)

    def __contains__(self, name):
        return name in self._index

    def get(self, name) -> np.ndarray | None:
        i = self._index.get(name)
        return None if i is None else self.vectors[i]

    def rows(self, names) -> np.ndarray:
        """The vectors of `names` as one (len(names), dimension) matrix; unknown names read as zero rows."""
        index = [self._index.get(name) for name in names]
        out = np.zeros((len(names), self.dimension))
        at = [k for k, i in enumerate(index) if i is not None]
        if at:
            out[at] = self.vectors[[index[k] for k in at]]
        return out

    def save(self, path):
        write_vector_table(path, self.ids, self.vectors)

    @classmethod
    def load(cls, path) -> "VectorTable":
        return cls(*read_vector_table(path))
