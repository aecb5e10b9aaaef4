"""Text format for embedding tables.

The first line is "<count> <dimension>"; each following line is an id
followed by that many decimals, space separated. The same format serves
pretrained word vectors, exported emoji embeddings, and externally published
alternatives, so tables can be swapped for comparison runs.
"""

from __future__ import annotations

import numpy as np

from .exceptions import CorpusError


def read_vector_table(path) -> tuple[list[str], np.ndarray]:
    """Read (ids, matrix) from the text format; rows align with ids.

    A malformed header, a row of the wrong width, a non-numeric field or a
    nan/inf value raises CorpusError naming the file and line. Rows are
    collected as they are read, so the header's count never sizes an
    allocation.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                count, dim = (int(field) for field in fh.readline().split())
            except ValueError:
                raise CorpusError(f"{path}: line 1: header must be '<count> <dimension>'") from None
            if count < 0 or dim < 0:
                raise CorpusError(f"{path}: line 1: header count {count} or dimension {dim} is negative")
            ids: list[str] = []
            rows: list[np.ndarray] = []
            for line_no in range(2, count + 2):
                parts = fh.readline().split()
                if len(parts) != dim + 1:
                    raise CorpusError(f"{path}: line {line_no} has {len(parts)} fields, expected {dim + 1}")
                try:
                    rows.append(np.array([float(x) for x in parts[1:]], dtype=np.float64))
                except ValueError:
                    raise CorpusError(f"{path}: line {line_no} has a non-numeric value") from None
                ids.append(parts[0])
    except (OSError, UnicodeDecodeError) as err:
        raise CorpusError(f"cannot read vector table {path}: {err}") from err
    matrix = np.array(rows, dtype=np.float64).reshape(count, dim)
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise CorpusError(f"{path}: line {bad[0] + 2} has a nan or inf value")
    return ids, matrix


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
