"""Distributed 2-D Pareto skyline (maximize both axes).

Scale shape: local prune → tiny merge.  A point dominated inside any
batch is dominated globally, so each batch keeps only its own frontier
(an O(n log n) sort + boundary-diff kernel, no pairwise loop); the
driver concatenates the per-batch frontiers (each is staircase-sized,
≪ batch) and runs the same kernel once more.  Never all-pairs, never a
shuffle.

Dominance is the standard weak/strict mix: p dominates q iff
p.x ≥ q.x ∧ p.y ≥ q.y ∧ (p.x > q.x ∨ p.y > q.y).  Exact duplicates
(same x and y) do not dominate each other — ALL copies of a frontier
point survive, matching the NOT EXISTS SQL definition.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import collect_arrow


def pareto_keep(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean keep-mask of the maximal (x, y) frontier: sort by
    (x desc, y desc), take each x-group's max-y rows, and keep a group
    iff its max y strictly exceeds the running max y of all
    strictly-greater-x groups."""
    m = len(x)
    if m == 0:
        return np.zeros(0, bool)
    order = np.lexsort((-y, -x))
    xs, ys = x[order], y[order]
    first = np.empty(m, bool)
    first[0] = True
    np.not_equal(xs[1:], xs[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    run_lens = np.diff(np.append(starts, m))
    gmax = ys[starts]  # first-in-group y is the group max
    prev = np.empty(len(starts), ys.dtype)
    prev[0] = np.iinfo(np.int64).min
    if len(starts) > 1:
        np.maximum.accumulate(gmax[:-1], out=prev[1:])
    keep_sorted = (ys == np.repeat(gmax, run_lens)) \
        & np.repeat(gmax > prev, run_lens)
    keep = np.zeros(m, bool)
    keep[order] = keep_sorted
    return keep


def skyline(ds, *, x_col: str, y_col: str) -> pa.Table:
    """Pareto frontier of a Dataset maximizing integer columns
    ``x_col``/``y_col``; other columns ride along.  Per-batch local
    prune, one driver-side merge of the small frontiers."""

    def local(t: pa.Table) -> pa.Table:
        x = t[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(pareto_keep(x, y)))

    out = ds.map_batches(local, batch_format="pyarrow",
                         zero_copy_batch=True)
    cat = collect_arrow(out)
    if cat is None:
        try:
            return ds.schema().base_schema.empty_table()
        except Exception:  # noqa: BLE001
            return pa.table({})
    x = cat[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
    y = cat[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
    return cat.filter(pa.array(pareto_keep(x, y)))
