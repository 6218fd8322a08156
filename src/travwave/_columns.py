"""The one CSV writer: named numeric columns, every value as '%.17g'.

'%.17g' round-trips a double exactly, so equal inputs give byte-identical
files.  Rows are formatted a block at a time with a single '%' operation,
which keeps the per-value cost in C, and the file is written block by
block, so memory beyond the columns themselves stays bounded.
"""

from __future__ import annotations

import numpy as np

BLOCK_ROWS = 1024


def write_columns(path, columns: dict) -> None:
    """Write `columns` (name -> equal-length sequence) as a CSV file.

    A column given as None is written as an empty field on every row.
    """
    row = ",".join("" if col is None else "%.17g"
                   for col in columns.values()) + "\n"
    present = [np.asarray(col, dtype=float) for col in columns.values()
               if col is not None]
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(present[0]), BLOCK_ROWS):
            block = np.column_stack([col[start:start + BLOCK_ROWS]
                                     for col in present])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
