"""Per-group co-occurrence pair mining (market-basket / audience
overlap).

Semantics: within each group (an order, a user, a document) take the
DISTINCT item set; every unordered item pair ``(a < b)`` counts once
per group; counts sum across groups.  This is the classic frequent
pair-mining / "audience overlap matrix" shape — the set-generalized
cousin of the engine's positional co-occurrence scan
(``SearchEngine.cooccur_distance``; reference analog
``modules/vfs-index/internal/search`` co-occurrence traversal), lifted
from token positions inside one document to item sets across a keyed
corpus.

Scale shape (the 100-TB plan):

1. ONE uniform hash-partition on the group key through the keyed-op
   substrate (``windows._keyed_partition_op``) — groups are
   disjoint across partitions, so per-group distinct and pair emission
   are exact inside one task with no cross-task state.
2. The per-partition kernel is fully vectorized (value-ranked
   dictionary codes, boundary-diff distinct, ``np.repeat`` pair
   expansion, sort + run-length pair aggregation) and ships ONE row
   per distinct pair it saw — the combiner.
3. Pair counts merge across partitions with the existing partial /
   hash aggregation substrate: driver merge for small pair spaces,
   pair-hash disk spill (``hash_aggregate``) for large ones, chosen by
   the same rule as step 1 (``windows._use_disk``).

Hot-group guard: a group with ``s`` distinct items emits ``s·(s-1)/2``
pairs — quadratic in the single hottest group, which no partitioning
fixes.  ``max_items`` SKIPS groups whose distinct set exceeds the cap
(hub suppression, the same spirit as ``cooccur_distance``'s head-key
filter); the semantic is oracle-expressible (``HAVING count(*) <=
max_items`` on the candidate groups).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import collect_arrow

__all__ = ["cooccur_pairs", "top_pairs"]


def _value_ranked_codes(col: pa.ChunkedArray | pa.Array):
    """Dictionary-encode ``col`` and remap codes to VALUE order (so
    code comparison == value comparison for any type, matching SQL's
    ``a < b`` on the raw values).  Returns (codes int64 ndarray,
    value-sorted dictionary Array)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = col.dictionary_encode()
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    d = enc.dictionary
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    perm = pc.sort_indices(d).to_numpy(zero_copy_only=False)
    rank = np.empty(len(d), np.int64)
    rank[perm] = np.arange(len(d), dtype=np.int64)
    return rank[idx], d.take(pa.array(perm))


def _pairs_kernel(t: pa.Table, group_col: str, item_col: str,
                  max_items: int | None) -> pa.Table:
    """All rows of one group-partition → one row per distinct item
    pair with its group count.  Vectorized throughout; never a Python
    loop over rows or groups."""
    out_schema = pa.schema([
        ("item_a", t.schema.field(item_col).type),
        ("item_b", t.schema.field(item_col).type),
        ("cnt", pa.int64())])
    if t.num_rows == 0:
        return out_schema.empty_table()

    codes, vocab = _value_ranked_codes(t[item_col])
    gcol = t[group_col]
    if isinstance(gcol, pa.ChunkedArray):
        gcol = gcol.combine_chunks()
    if pa.types.is_integer(gcol.type):
        g = gcol.to_numpy(zero_copy_only=False).astype(np.int64)
    else:
        g, _ = _value_ranked_codes(gcol)

    order = np.lexsort((codes, g))
    g, codes = g[order], codes[order]
    keep = np.ones(len(g), bool)
    keep[1:] = (g[1:] != g[:-1]) | (codes[1:] != codes[:-1])
    g, codes = g[keep], codes[keep]

    starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    ends = np.r_[starts[1:], np.int64(len(g))]
    sizes = ends - starts
    if max_items is not None:
        ok = sizes <= max_items
        if not ok.all():
            row_ok = np.repeat(ok, sizes)
            codes = codes[row_ok]
            starts = (np.cumsum(sizes[ok]) - sizes[ok]).astype(np.int64)
            ends = starts + sizes[ok]
            sizes = sizes[ok]

    # pair expansion: element at sorted position i pairs (as the
    # smaller side) with every later element of its group
    idx = np.arange(len(codes), dtype=np.int64)
    foll = np.repeat(ends, sizes) - idx - 1
    total = int(foll.sum())
    if total == 0:
        return out_schema.empty_table()
    a_idx = np.repeat(idx, foll)
    cum = np.cumsum(foll) - foll
    b_idx = a_idx + 1 + (np.arange(total, dtype=np.int64)
                         - np.repeat(cum, foll))

    # local pair aggregation: one packed key per pair, sort +
    # boundary-diff run lengths (never np.unique — sorted-array rule)
    v = np.int64(len(vocab))
    k = codes[a_idx] * v + codes[b_idx]
    k.sort()
    bound = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    uk = k[bound]
    cnt = np.diff(np.r_[bound, np.int64(len(k))])
    return pa.table({
        "item_a": vocab.take(pa.array(uk // v, pa.int64())),
        "item_b": vocab.take(pa.array(uk % v, pa.int64())),
        "cnt": pa.array(cnt, pa.int64()),
    }, schema=out_schema)


def cooccur_pairs(ds, *, group_col: str, item_col: str,
                  max_items: int | None = None,
                  num_partitions: int = 32, spill_dir=None):
    """Distinct-per-group unordered item pairs with group counts.

    Returns a ``ray.data.Dataset`` with columns ``(item_a, item_b,
    n_groups)`` where ``item_a < item_b`` by value.

    ``windows._use_disk`` picks both the partial's substrate and the
    cross-partition pair-count merge: when it says disk (a large input
    or a ``spill_dir``), pair counts merge through a pair-hash disk
    spill (``hash_aggregate`` — pair spaces that must never reach one
    machine); otherwise one small driver merge aggregation
    (audience-overlap-sized outputs)."""
    import ray.data

    from .boilerplate import hash_aggregate, partial_aggregate
    from .windows import _keyed_partition_op, _use_disk

    def add_part(t: pa.Table) -> pa.Table:
        gcol = t[group_col]
        if isinstance(gcol, pa.ChunkedArray):
            gcol = gcol.combine_chunks()
        if pa.types.is_integer(gcol.type):
            gid = gcol.to_numpy(zero_copy_only=False).astype(np.uint64)
            h = (gid ^ (gid >> np.uint64(30))) * np.uint64(
                0xBF58476D1CE4E5B9)
            h ^= h >> np.uint64(31)
        else:
            from ..hashing import fnv1a64_tokens
            h = fnv1a64_tokens(gcol)
        return t.append_column(
            "_gp", pa.array((h % np.uint64(num_partitions)).astype(
                np.int64), pa.int64()))

    def per_part(g: pa.Table) -> pa.Table:
        return _pairs_kernel(g, group_col, item_col, max_items)

    partials = _keyed_partition_op(ds, add_part, "_gp", per_part,
                                   spill_dir=spill_dir)

    if not _use_disk(ds, spill_dir):
        tbl = partial_aggregate(partials, ["item_a", "item_b"],
                                [("cnt", "sum")])
        if tbl is None:
            it = ds.schema().base_schema.field(item_col).type
            tbl = pa.schema([("item_a", it), ("item_b", it),
                             ("cnt_sum", pa.int64())]).empty_table()
        tbl = tbl.rename_columns(["item_a", "item_b", "n_groups"])
        return ray.data.from_arrow(tbl)

    out = hash_aggregate(partials, ["item_a", "item_b"],
                         [("cnt", "sum")], spill_dir=spill_dir)
    if out is None:
        it = ds.schema().base_schema.field(item_col).type
        return ray.data.from_arrow(pa.schema(
            [("item_a", it), ("item_b", it),
             ("n_groups", pa.int64())]).empty_table())

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["item_a", "item_b", "n_groups"])

    return out.map_batches(rename, batch_format="pyarrow",
                           zero_copy_batch=True)


def top_pairs(pairs_ds, *, k: int = 100, min_count: int = 1) -> pa.Table:
    """Top-k pairs by ``(n_groups desc, item_a asc, item_b asc)`` with
    a count floor: per-batch local top-k partials (each batch ships at
    most k rows), one driver merge — the pair table itself never
    reaches the driver."""

    def local_top(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["n_groups"], min_count))
        if t.num_rows > k:
            idx = pc.sort_indices(t, sort_keys=[
                ("n_groups", "descending"), ("item_a", "ascending"),
                ("item_b", "ascending")])[:k]
            t = t.take(idx)
        return t

    out = pairs_ds.map_batches(local_top, batch_format="pyarrow",
                               zero_copy_batch=True)
    m = collect_arrow(out)
    if m is None:
        return pairs_ds.schema().base_schema.empty_table()
    idx = pc.sort_indices(m, sort_keys=[
        ("n_groups", "descending"), ("item_a", "ascending"),
        ("item_b", "ascending")])[:k]
    return m.take(idx)
