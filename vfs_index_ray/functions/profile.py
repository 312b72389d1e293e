"""Single-pass table profiling: per-column row/null counts, min/max,
and exact distinct counts for LOW-CARDINALITY columns — the data-quality
sweep a curation pipeline runs before anything else touches a new drop.

Scale shape: ONE streaming pass; each batch ships one tiny partial row
per profiled column (counts + native-typed min/max + the batch's
distinct-value set for columns declared low-cardinality), and the
driver folds partials.  Distinct sets are bounded by the declared
columns' true cardinality (languages, sources, enum-ish fields) — for
high-cardinality columns pass them in ``num_cols``/``str_cols`` only
and pair with the HyperLogLog sketch (functions/sketches.py) instead.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import collect_arrow

_PARTIAL_SCHEMA = pa.schema([
    ("col", pa.string()),
    ("n", pa.int64()),
    ("nulls", pa.int64()),
    ("min_num", pa.int64()),
    ("max_num", pa.int64()),
    ("min_str", pa.string()),
    ("max_str", pa.string()),
    ("distinct_vals", pa.list_(pa.string())),
])


def _col_partial(name: str, col, want_distinct: bool) -> dict:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    nulls = col.null_count
    row = {"col": name, "n": n, "nulls": nulls,
           "min_num": None, "max_num": None,
           "min_str": None, "max_str": None, "distinct_vals": None}
    if n > nulls:
        mm = pc.min_max(col)
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
        if pa.types.is_integer(col.type):
            row["min_num"], row["max_num"] = int(lo), int(hi)
        else:
            row["min_str"], row["max_str"] = str(lo), str(hi)
    if want_distinct:
        u = pc.unique(col.drop_null())
        row["distinct_vals"] = [str(v) for v in u.to_pylist()]
    return row


def table_profile(ds, *, num_cols: list[str],
                  str_cols: list[str],
                  distinct_cols: list[str] | None = None) -> pa.Table:
    """Profile ``num_cols`` (integer) + ``str_cols`` (string) of a
    Dataset in one pass.  ``distinct_cols`` (must be a subset, low
    cardinality) additionally get an EXACT distinct count via merged
    per-batch value sets.  Returns one row per column:
    (col, n_rows, n_nulls, n_distinct, min_val, max_val) with min/max
    rendered as strings (numeric columns via int formatting — identical
    to SQL's CAST(x AS VARCHAR))."""
    dset = set(distinct_cols or ())
    known = set(num_cols) | set(str_cols)
    if not dset <= known:
        raise ValueError("distinct_cols must be profiled columns")

    def partial(t: pa.Table) -> pa.Table:
        rows = [_col_partial(c, t[c], c in dset)
                for c in list(num_cols) + list(str_cols)]
        return pa.Table.from_pylist(rows, schema=_PARTIAL_SCHEMA)

    out = ds.map_batches(partial, batch_format="pyarrow")
    m = collect_arrow(out)
    schema = pa.schema([("col", pa.string()),
                        ("n_rows", pa.int64()),
                        ("n_nulls", pa.int64()),
                        ("n_distinct", pa.int64()),
                        ("min_val", pa.string()),
                        ("max_val", pa.string())])
    if m is None:
        return schema.empty_table()
    names = m["col"].to_numpy(zero_copy_only=False)
    res = []
    for c in list(num_cols) + list(str_cols):
        sub = m.filter(pa.array(names == c))
        n = int(pc.sum(sub["n"]).as_py() or 0)
        nulls = int(pc.sum(sub["nulls"]).as_py() or 0)
        numeric = c in num_cols
        if numeric:
            lo = pc.min(sub["min_num"]).as_py()
            hi = pc.max(sub["max_num"]).as_py()
        else:
            lo = pc.min(sub["min_str"]).as_py()
            hi = pc.max(sub["max_str"]).as_py()
        nd = None
        if c in dset:
            vals: set[str] = set()
            for lst in sub["distinct_vals"].to_pylist():
                if lst:
                    vals.update(lst)
            nd = len(vals)
        res.append({"col": c, "n_rows": n, "n_nulls": nulls,
                    "n_distinct": nd,
                    "min_val": None if lo is None else str(lo),
                    "max_val": None if hi is None else str(hi)})
    return pa.Table.from_pylist(res, schema=schema)
