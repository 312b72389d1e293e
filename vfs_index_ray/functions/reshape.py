"""Relational reshape: unpivot (melt) wide columns into rows.

The inverse of the conditional-aggregation pivot
(``pipelines/events.py q_events_pivot``): each input row with value
columns ``[c1..ck]`` becomes k rows ``(id_cols…, name=ci, value)``.
Purely per-batch and streaming — no shuffle, no state; output block
size is k× the input block, so at 100 TB this is a width-for-length
trade the streaming executor absorbs with backpressure.

Reference parity note: vfs-index has no reshape surface; this is part
of the aggregate-family completeness the extension set targets (SQL
UNPIVOT / pandas melt).
"""

from __future__ import annotations

import pyarrow as pa


def unpivot(ds, *, id_cols: list[str], value_cols: list[str],
            var_col: str = "name", value_col: str = "value"):
    """Melt ``value_cols`` into (``var_col``, ``value_col``) rows.
    Value columns must share one type (SQL UNPIVOT's rule); names come
    out in the given order within each input row block."""
    if not value_cols:
        raise ValueError("unpivot: value_cols must be non-empty")

    def melt(t: pa.Table) -> pa.Table:
        pieces = []
        for c in value_cols:
            cols = {k: t[k] for k in id_cols}
            cols[var_col] = pa.array([c] * t.num_rows, pa.string())
            cols[value_col] = t[c]
            pieces.append(pa.table(cols))
        return pa.concat_tables(pieces)

    return ds.map_batches(melt, batch_format="pyarrow",
                          zero_copy_batch=True)
