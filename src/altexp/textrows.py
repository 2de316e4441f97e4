"""The block row writer behind every text output.

A written row is gathered cells (index and coordinate text) followed by
its numbers.  A cell column takes its text from a table of the distinct
values of its axis (a range table's indices or a grid's coordinates), each
formatted once, which every row indexes: an N lattice formats N strings per
axis whatever its point count.  The numbers go through the row template,
``BLOCK`` rows at a time in one ``%`` operation, and a block's text is one
join, so the per-row work runs in C and the text held at once is O(BLOCK)
rows whatever the file size.  ``%d`` writes an integer as ``int.__repr__``
and ``%r`` a float as ``float.__repr__``, the forms the ``json`` encoder
writes; ``%.17g`` is the CSV form.
"""

from __future__ import annotations

from typing import Sequence, TextIO

import numpy as np

BLOCK = 4096


class NonFiniteError(ValueError):
    """A writer was given a non-finite number; nothing has been written."""


def write_rows(fh: TextIO, head: str, cells: Sequence, row: str, values: np.ndarray,
               sep: str = "") -> None:
    """Write ``head``, then every row i joined by ``sep``.

    Row i is the text of its cells followed by ``row % tuple(values[i])``.
    ``cells`` is a sequence of columns ``(axis, at, fmt)``: the cell of row i
    is ``fmt % axis[at[i]]``, and each entry of ``axis`` is formatted once.
    ``values`` is (n, j).  A non-finite number in any row is refused before
    anything is written, naming the first such row by the numbers of its
    first three cells (its index or coordinates) and then its other numbers.
    """
    bad = ~np.isfinite(values).all(axis=1)
    for axis, at, _ in cells:
        bad |= ~np.isfinite(axis)[at]
    if bad.any():
        i, key = np.argmax(bad), min(3, len(cells))
        found = [axis[at[i]].item() for axis, at, _ in cells] + values[i].tolist()
        raise NonFiniteError(f"refusing to write non-finite values at {tuple(found[:key])}: "
                             f"{tuple(found[key:])}")
    tables = [(np.array([fmt % v for v in axis.tolist()], dtype=object), at)
              for axis, at, fmt in cells]
    n, k = len(values), len(cells)
    fh.write(head)
    # a row's number text ends with the separator to the next row; it is cut
    # from the block's one % at NULs, which no formatted number holds
    items = np.empty((min(n, BLOCK), k + 1), dtype=object)
    for start in range(0, n, BLOCK):
        block = items[:min(n - start, BLOCK)]
        for j, (table, at) in enumerate(tables):
            block[:, j] = table[at[start:start + BLOCK]]
        numbers = tuple(values[start:start + BLOCK].ravel().tolist())
        block[:, k] = ((row + sep + "\0") * len(block) % numbers).split("\0")[:-1]
        text = "".join(block.ravel().tolist())
        fh.write(text if start + BLOCK < n else text[:len(text) - len(sep)])
