"""The one CSV writer: named numeric columns, every value as '%.17g'.

'%.17g' round-trips a double exactly, so equal inputs give byte-identical
files.  Rows are formatted a block at a time with a single '%' operation,
which keeps the per-value cost in C, and the file is written block by
block, so memory beyond the columns themselves stays bounded.

`write_columns` takes whole columns, 1024 rows to a block.  The snapshot
table `write_snapshots` repeats t down each snapshot and x across
snapshots, so it formats each x once per file, into a row tail, and each
t once per snapshot; one snapshot's field values are one block.  Both
give the same bytes for the same rows.
"""

from __future__ import annotations

import numpy as np

FORMAT = "%.17g"
BLOCK_ROWS = 1024


def write_columns(path, columns: dict) -> None:
    """Write `columns` (name -> equal-length sequence) as a CSV file.

    A column given as None is written as an empty field on every row.
    """
    row = ",".join("" if col is None else FORMAT
                   for col in columns.values()) + "\n"
    present = [np.asarray(col, dtype=float) for col in columns.values()
               if col is not None]
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(present[0]), BLOCK_ROWS):
            block = np.column_stack([col[start:start + BLOCK_ROWS]
                                     for col in present])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def write_snapshots(path, times, x, fields: dict) -> None:
    """Write the table t,x,<fields>: one row per snapshot and cell, t-major.

    `fields` maps a name to one array over x per time.  A row is t's text
    followed by x's tail ',<x>,%.17g,...\\n'; a snapshot is its t joining
    the tails, filled with the snapshot's field values by one '%'.
    """
    cells = f",{FORMAT}" * len(fields) + "\n"
    tails = [f",{FORMAT % xi}{cells}"
             for xi in np.asarray(x, dtype=float).tolist()]
    with open(path, "w") as fh:
        fh.write(",".join(["t", "x", *fields]) + "\n")
        if not tails:
            return
        for k, t in enumerate(np.asarray(times, dtype=float).tolist()):
            ts = FORMAT % t
            values = np.column_stack([np.asarray(snaps[k], dtype=float)
                                      for snaps in fields.values()])
            fh.write((ts + ts.join(tails)) % tuple(values.ravel().tolist()))
