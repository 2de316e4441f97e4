"""The block row formatter behind every text writer.

A written row is a key part (an index triple or coordinates) followed by
a value part (floats).  ``write_rows`` turns ``BLOCK`` rows at a time
into text with one ``%`` operation on the row template repeated for the
block, so the per-row work runs in C and the text held at once is
O(BLOCK) rows whatever the file size.  ``%d`` writes an integer as
``int.__repr__`` and ``%r`` a float as ``float.__repr__``, the forms the
``json`` encoder writes; ``%.17g`` is the CSV form.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

BLOCK = 4096


def write_rows(fh: TextIO, head: str, row: str, keys: np.ndarray, values: np.ndarray,
               sep: str = "", tail: str = "") -> None:
    """Write ``head``, ``row % (*keys[i], *values[i])`` for every i joined by
    ``sep``, then ``tail``.

    ``keys`` is (n, k) and ``values`` (n, j).  A non-finite number in any
    row is a ``ValueError`` naming the first such row by its key, raised
    before anything is written.
    """
    bad = np.flatnonzero(~(np.isfinite(keys).all(axis=1) & np.isfinite(values).all(axis=1)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"refusing to write non-finite values at {tuple(keys[i].tolist())}: "
                         f"{tuple(values[i].tolist())}")
    n, k = keys.shape
    fh.write(head)
    # an object array holds the block's Python ints and floats in row order
    cells = np.empty((min(n, BLOCK), k + values.shape[1]), dtype=object)
    for start in range(0, n, BLOCK):
        block = cells[:min(n - start, BLOCK)]
        block[:, :k] = keys[start:start + BLOCK]
        block[:, k:] = values[start:start + BLOCK]
        if start:
            fh.write(sep)
        fh.write(sep.join([row] * len(block)) % tuple(block.ravel().tolist()))
    fh.write(tail)
