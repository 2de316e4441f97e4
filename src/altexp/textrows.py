"""The block row formatter behind every text writer.

A written row is a key part (an index triple or coordinates) followed by
a value part (floats).  ``write_rows`` turns ``BLOCK`` rows at a time
into text with one ``%`` operation on the row template repeated for the
block, so the per-row work runs in C and the text held at once is
O(BLOCK) rows whatever the file size.  ``%d`` writes an integer as
``int.__repr__`` and ``%r`` a float as ``float.__repr__``, the forms the
``json`` encoder writes; ``%.17g`` is the CSV form, and ``%s`` takes a
cell formatted ahead of time.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

BLOCK = 4096


class NonFiniteError(ValueError):
    """A writer was given a non-finite number; nothing has been written."""


def refuse_non_finite(keys: np.ndarray, values: np.ndarray) -> None:
    """Raise ``NonFiniteError`` naming the first row of ``keys`` (n, k) and
    ``values`` (n, j) that holds a non-finite number, if there is one."""
    bad = np.flatnonzero(~(np.isfinite(keys).all(axis=1) & np.isfinite(values).all(axis=1)))
    if bad.size:
        i = bad[0]
        raise NonFiniteError(f"refusing to write non-finite values at "
                             f"{tuple(keys[i].tolist())}: {tuple(values[i].tolist())}")


def write_cells(fh: TextIO, head: str, row: str, keys: np.ndarray, values: np.ndarray,
                sep: str = "", tail: str = "") -> None:
    """Write ``head``, ``row % (*keys[i], *values[i])`` for every i joined by
    ``sep``, then ``tail``.  ``keys`` is (n, k) and ``values`` (n, j); the
    cells are not checked, so a key may be a string formatted ahead of time."""
    n, k = keys.shape
    fh.write(head)
    # an object array holds the block's Python ints, floats and strings in row order
    cells = np.empty((min(n, BLOCK), k + values.shape[1]), dtype=object)
    for start in range(0, n, BLOCK):
        block = cells[:min(n - start, BLOCK)]
        block[:, :k] = keys[start:start + BLOCK]
        block[:, k:] = values[start:start + BLOCK]
        if start:
            fh.write(sep)
        fh.write(sep.join([row] * len(block)) % tuple(block.ravel().tolist()))
    fh.write(tail)


def write_rows(fh: TextIO, head: str, row: str, keys: np.ndarray, values: np.ndarray,
               sep: str = "", tail: str = "") -> None:
    """``write_cells`` after ``refuse_non_finite``: a non-finite number in
    any row is refused, naming the first such row, before anything is written."""
    refuse_non_finite(keys, values)
    write_cells(fh, head, row, keys, values, sep, tail)
