"""Corpus-level boilerplate removal (frequent-unit pruning).

The CCNet / RefinedWeb webtext-cleanup shape: a unit (a LINE for real
pages — nav bars, cookie banners, footers — or a TOKEN for df-based
vocabulary pruning) that occurs in at least ``min_docs`` distinct
documents corpus-wide is boilerplate; it is removed from every document
and the text is rebuilt from the surviving units in original order.

Reference parity note: vfs-index itself has no corpus-level rewrite —
this is one of the beyond-reference LLM-data operators (brief: "the
operations a large-scale training-data pipeline would need"). The
100-TB shape:

- phase 1 (map_batches): per-batch PARTIAL distinct-doc counts per unit
  (Arrow C++ hash aggregation) — each batch ships at most its distinct
  units, never its occurrences;
- phase 2: corpus-wide sum + threshold filter over the partials as a
  hive-partitioned DISK shuffle (``part = fnv(unit) % P`` parquet
  write, then P independent per-part sum/filter tasks) — the same
  pattern as the index build's postings shuffle and the LSH band
  stages, avoiding Ray Data's pull-based sort shuffle (measured in-repo
  to anti-scale at high core counts);
- phase 3 (map_batches): the surviving frequent-unit set is SMALL (the
  head of the df distribution) — broadcast once via ``ray.put``, then
  one vectorized ``is_in`` + list-rebuild + ``binary_join`` pass per
  batch. No per-row Python, no driver materialization of the corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import collect_arrow

_SEPS = {"line": "\n", "token": " "}


def _group_counts(t: pa.Table, keys: list[str], agg: list[tuple]) -> pa.Table:
    """Arrow hash aggregation, single-threaded (runs inside concurrent
    Ray tasks — threads x tasks oversubscription otherwise)."""
    try:
        return pa.TableGroupBy(t, keys, use_threads=False).aggregate(agg)
    except TypeError:  # older pyarrow: no use_threads kwarg
        return pa.TableGroupBy(t, keys).aggregate(agg)


_MERGE_FN = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}


def _key_part_codes(t: pa.Table, cols: list[str],
                    num_parts: int) -> np.ndarray:
    """int32 partition codes ``hash(cols) % num_parts``: integer
    columns mix through splitmix64, others through FNV-1a, folded
    FNV-style across ``cols`` (order-sensitive)."""
    from ..hashing import fnv1a64_tokens

    h = np.zeros(t.num_rows, np.uint64)
    for k in cols:
        col = t[k]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_integer(col.type):
            v = col.cast(pa.int64()).to_numpy(
                zero_copy_only=False).astype(np.uint64)
            v = (v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            v = (v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            v ^= v >> np.uint64(31)
        else:
            v = fnv1a64_tokens(col)
        h = h * np.uint64(0x100000001B3) ^ v
    return (h % np.uint64(num_parts)).astype(np.int32)


def partial_aggregate(ds, keys: list[str], aggs: list[tuple[str, str]],
                      prepare=None) -> pa.Table | None:
    """Distributed aggregation for SMALL output spaces (keys × groups
    ≪ input rows): one Arrow hash aggregation per batch, partials
    collected as object-store Arrow refs, one merge aggregation.
    Replaces ``groupby().aggregate()``, which moves every input row
    through Ray Data's sort exchange even when the result is a handful
    of groups.  ``aggs`` are pyarrow (column, fn) pairs with
    sum-mergeable fns ("count"/"sum"); output columns are named
    ``{col}_{fn}``.  Returns None on an empty input."""
    bad = [f for _, f in aggs if f not in _MERGE_FN]
    if bad:
        raise ValueError(f"non-mergeable aggregate fns: {bad}")

    pnames = [f"{c}_{f}" for c, f in aggs]

    def partial(t: pa.Table) -> pa.Table:
        if prepare is not None:
            t = prepare(t)
        return _group_counts(t, list(keys), list(aggs))

    out = ds.map_batches(partial, batch_format="pyarrow")
    merged = collect_arrow(out)
    if merged is None:
        return None
    # merge with MATCHING fns: a count/sum partial merges by sum, a
    # min/max partial by min/max — a blanket sum-merge silently
    # corrupted multi-batch min/max (found via orders_rfm: the merged
    # "max" was a sum of per-batch maxes; single-batch tests hid it)
    merge = [(p, _MERGE_FN[f]) for p, (_, f) in zip(pnames, aggs)]
    m = _group_counts(merged, list(keys), merge)
    cols = {k: m[k] for k in keys}
    for p, (_, f) in zip(pnames, aggs):
        cols[p] = m[f"{p}_{_MERGE_FN[f]}"]
    return pa.table(cols)


def hash_aggregate(ds, keys: list[str], aggs: list[tuple[str, str]],
                   *, prepare=None, num_parts: int | None = None,
                   spill_dir: str | None = None):
    """Distributed aggregation for LARGE output spaces (high-cardinality
    keys, where ``partial_aggregate``'s driver-side merge would
    materialize the whole result): per-batch partial Arrow hash
    aggregation first (the combiner — a batch ships one row per
    distinct key it saw, not one per input row), then a
    hive-partitioned disk spill by key hash and one merge aggregation
    per partition as independent Ray tasks — never Ray Data's
    pull-based sort exchange.  ``aggs`` are (column, fn) with fn in
    count/sum/min/max (all partial-mergeable); outputs are named
    ``{col}_{fn}``.  Integer key columns are assumed non-null (string
    keys may be null — a null hashes like the empty string for
    partitioning, and Arrow still groups it separately).  Returns a
    Dataset of object-store Arrow refs, or None on empty input.
    ``spill_dir`` accepts any ``spillfs.open_spill`` spec (local path,
    URI, ``(pyarrow_fs, path)``); a unique run-scoped subdir is always
    created inside it."""
    import ray.data

    from ..spillfs import partition_apply

    for _, f in aggs:
        if f not in _MERGE_FN:
            raise ValueError(f"non-mergeable aggregate fn: {f!r}")
    if num_parts is None:
        from .joins import _size_based_parts
        num_parts = _size_based_parts((ds,))
    pnames = [f"{c}_{f}" for c, f in aggs]
    merge_aggs = [(p, _MERGE_FN[f]) for p, (_, f) in zip(pnames, aggs)]

    def partial(t: pa.Table) -> pa.Table:
        if prepare is not None:
            t = prepare(t)
        g = _group_counts(t, list(keys), list(aggs))
        return g.append_column(
            "_ap", pa.array(_key_part_codes(g, keys, num_parts),
                            pa.int32()))

    def merge(t: pa.Table) -> pa.Table:
        m = _group_counts(t, list(keys), merge_aggs)
        cols = {k: m[k] for k in keys}
        for p, (_, f) in zip(pnames, aggs):
            cols[p] = m[f"{p}_{_MERGE_FN[f]}"]
        return pa.table(cols)

    refs = partition_apply(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "_ap", merge, spill_dir=spill_dir, prefix="hashagg_")
    return ray.data.from_arrow_refs(refs) if refs else None


def distinct_aggregate(ds, keys: list[str], distinct_col: str,
                       *, num_parts: int | None = None,
                       spill_dir: str | None = None) -> pa.Table | None:
    """Exact ``count(DISTINCT distinct_col) GROUP BY keys``: per-batch
    distinct (keys, value) pairs (Arrow hash agg — a batch ships each
    pair once), hive disk spill by pair hash (identical pairs land in
    one partition, so each counts exactly once globally), per-part
    dedup + per-key counts, driver merge of the small per-key
    partials.  Neither ``partial_aggregate`` nor ``hash_aggregate``
    can express distinct (it is not sum-mergeable over raw rows);
    this is the pair-spill shape that is.  Returns None on empty
    input; assumes the KEYS output space is small (the distinct
    values themselves never reach the driver)."""
    import ray

    from ..spillfs import partition_apply

    if num_parts is None:
        from .joins import _size_based_parts
        num_parts = _size_based_parts((ds,))
    cols = list(keys) + [distinct_col]

    def partial(t: pa.Table) -> pa.Table:
        g = _group_counts(t.select(cols), cols, [])
        return g.append_column(
            "_dp", pa.array(_key_part_codes(g, cols, num_parts),
                            pa.int32()))

    def count_part(t: pa.Table) -> pa.Table:
        dd = _group_counts(t, cols, [])          # global-exact dedup
        return _group_counts(dd, list(keys), [(distinct_col, "count")])

    refs = partition_apply(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "_dp", count_part, spill_dir=spill_dir, prefix="distagg_")
    parts = [p for p in ray.get(refs) if p.num_rows]
    if not parts:
        return None
    m = _group_counts(pa.concat_tables(parts).combine_chunks(),
                      list(keys), [(f"{distinct_col}_count", "sum")])
    out = {k: m[k] for k in keys}
    out["n_distinct"] = m[f"{distinct_col}_count_sum"].cast(pa.int64())
    return pa.table(out)


def rollup_aggregate(ds, keys: list[str], aggs: list[tuple[str, str]],
                     *, prepare=None,
                     sentinels: dict | None = None) -> pa.Table | None:
    """``GROUP BY ROLLUP(keys)`` for sum-mergeable aggregates: ONE
    streaming pass of per-batch partials at the FINEST grouping level
    (``partial_aggregate`` — each batch ships one row per distinct key
    tuple it saw), then every coarser level re-aggregates the finest
    RESULT table, which is output-space-sized, not input-sized — the
    input is never read twice and nothing keyed shuffles.  Dropped key
    columns are filled with caller ``sentinels`` (default: '' for
    strings, -1 for ints) so the output schema is identical across
    levels; the SQL oracle reproduces them with COALESCE over ROLLUP's
    NULLs.  ``aggs`` fns must be in count/sum/min/max.  Returns one
    table with all len(keys)+1 levels concatenated, or None on empty
    input."""
    for _, f in aggs:
        if f not in _MERGE_FN:
            raise ValueError(f"non-mergeable aggregate fn: {f!r}")
    finest = partial_aggregate(ds, keys, aggs, prepare=prepare)
    if finest is None:
        return None
    pnames = [f"{c}_{f}" for c, f in aggs]
    merge = [(p, _MERGE_FN[f]) for p, (_, f) in zip(pnames, aggs)]

    def _sentinel(k: str):
        if sentinels and k in sentinels:
            return sentinels[k]
        return -1 if pa.types.is_integer(finest.schema.field(k).type) \
            else ""

    levels = [finest]
    for i in range(len(keys) - 1, -1, -1):
        kept = keys[:i]
        if kept:
            g = _group_counts(finest, kept, merge)
            cols = {k: g[k] for k in kept}
            for p, (_, f) in zip(pnames, aggs):
                cols[p] = g[f"{p}_{_MERGE_FN[f]}"]
            nrow = g.num_rows
        else:  # grand total: no group keys
            import pyarrow.compute as _pc
            cols = {}
            for p, (_, f) in zip(pnames, aggs):
                fn = {"sum": _pc.sum, "count": _pc.sum,
                      "min": _pc.min, "max": _pc.max}[_MERGE_FN[f]]
                cols[p] = pa.array([fn(finest[p]).as_py()],
                                   finest.schema.field(p).type)
            nrow = 1
        for k in keys[i:]:
            cols[k] = pa.array(
                [_sentinel(k)] * nrow, finest.schema.field(k).type)
        levels.append(pa.table(
            {k: cols[k] for k in list(keys) + pnames}))
    return pa.concat_tables(
        [lv.select(list(keys) + pnames) for lv in levels])


def _unit_frequencies(ds, *, distinct_docs: bool, min_count: int,
                      out_col: str, unit: str, text_col: str,
                      num_parts: int | None,
                      spill_dir: str | None) -> pa.Table:
    """Shared corpus-wide unit-count kernel (exact string semantics
    end-to-end — hashing is only the partition key, never the equality
    test, so collisions cannot merge counts).  ``distinct_docs=True``
    counts documents containing the unit (df); False counts raw
    occurrences (collection tf).  The threshold filter runs inside the
    per-part tasks, so only survivors cross the wire."""
    import ray

    from ..hashing import fnv1a64_tokens

    sep = _SEPS[unit]
    if num_parts is None:
        from .joins import _size_based_parts
        num_parts = _size_based_parts((ds,))

    def partial_counts(batch: pa.Table) -> pa.Table:
        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        units = pc.split_pattern(texts, pattern=sep)
        flat = pc.list_flatten(units)
        parent = pc.list_parent_indices(units)
        pairs = pa.table({"unit": flat, "p": parent})
        if distinct_docs:
            pairs = _group_counts(pairs, ["unit", "p"], [])
        cnt = _group_counts(pairs, ["unit"], [("p", "count")])
        u = cnt["unit"]
        if isinstance(u, pa.ChunkedArray):
            u = u.combine_chunks()
        part = (fnv1a64_tokens(u) % np.uint64(num_parts)).astype(np.int32)
        return pa.table({
            "unit": u,
            "n": cnt["p_count"].cast(pa.int64()),
            "part": pa.array(part, pa.int32()),
        })

    from ..spillfs import partition_apply

    def sum_part(t: pa.Table) -> pa.Table:
        g = _group_counts(t, ["unit"], [("n", "sum")])
        g = g.filter(pc.greater_equal(g["n_sum"], pa.scalar(min_count)))
        return pa.table({"unit": g["unit"],
                         out_col: g["n_sum"].cast(pa.int64())})

    refs = partition_apply(
        ds.map_batches(partial_counts, batch_format="pyarrow"), "part",
        sum_part, columns=["unit", "n"], spill_dir=spill_dir,
        prefix="boiler_")
    parts = [p for p in ray.get(refs) if p.num_rows]
    if not parts:
        return pa.table({"unit": pa.array([], pa.string()),
                         out_col: pa.array([], pa.int64())})
    return pa.concat_tables(parts).combine_chunks()


def unit_doc_frequencies(ds, *, min_docs: int = 1, unit: str = "line",
                         text_col: str = "text",
                         num_parts: int | None = None,
                         spill_dir: str | None = None) -> pa.Table:
    """Corpus-wide unit DOCUMENT frequencies: an (``unit``, ``df``)
    table of every unit occurring in >= ``min_docs`` distinct
    documents."""
    return _unit_frequencies(ds, distinct_docs=True, min_count=min_docs,
                             out_col="df", unit=unit, text_col=text_col,
                             num_parts=num_parts, spill_dir=spill_dir)


def unit_term_frequencies(ds, *, min_count: int = 1, unit: str = "line",
                          text_col: str = "text",
                          num_parts: int | None = None,
                          spill_dir: str | None = None) -> pa.Table:
    """Corpus-wide unit OCCURRENCE counts (collection term frequency):
    an (``unit``, ``tf``) table — the unigram-LM numerator
    (functions/lmscore.py)."""
    return _unit_frequencies(ds, distinct_docs=False, min_count=min_count,
                             out_col="tf", unit=unit, text_col=text_col,
                             num_parts=num_parts, spill_dir=spill_dir)


def frequent_units(ds, *, min_docs: int, unit: str = "line",
                   text_col: str = "text", num_parts: int | None = None,
                   spill_dir: str | None = None) -> pa.Array:
    """Units occurring in >= ``min_docs`` distinct documents (the
    boilerplate set): the unit column of ``unit_doc_frequencies``."""
    t = unit_doc_frequencies(ds, min_docs=min_docs, unit=unit,
                             text_col=text_col, num_parts=num_parts,
                             spill_dir=spill_dir)
    u = t["unit"]
    return u.combine_chunks() if isinstance(u, pa.ChunkedArray) else u


def remove_boilerplate(ds, *, min_docs: int | None = None,
                       min_frac: float | None = None, unit: str = "line",
                       text_col: str = "text", id_col: str = "doc_id",
                       num_parts: int | None = None):
    """Remove corpus-frequent units from every document.

    Exactly one of ``min_docs`` (absolute distinct-doc count) or
    ``min_frac`` (fraction of the corpus; the threshold becomes
    ``ceil(min_frac * N)`` in exact integer arithmetic) must be given.
    Returns a Dataset of ``(id_col, text, n_removed)``; a document whose
    every unit is boilerplate keeps an empty string.
    """
    import ray

    if (min_docs is None) == (min_frac is None):
        raise ValueError("pass exactly one of min_docs / min_frac")
    sep = _SEPS[unit]
    if min_docs is None:
        n_corpus = ds.count()
        # ceil(frac * N) without float: frac given as e.g. 0.79 -> 79/100
        num = int(round(min_frac * 100))
        min_docs = -(-(num * n_corpus) // 100)
    freq = frequent_units(ds, min_docs=min_docs, unit=unit,
                          text_col=text_col, num_parts=num_parts)
    freq_ref = ray.put(freq)

    def scrub(batch: pa.Table) -> pa.Table:
        bad_set = ray.get(freq_ref)
        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        units = pc.split_pattern(texts, pattern=sep)
        flat = pc.list_flatten(units)
        parent = pc.list_parent_indices(units).to_numpy(
            zero_copy_only=False)
        n = batch.num_rows
        if len(bad_set):
            bad = pc.is_in(flat, value_set=bad_set).to_numpy(
                zero_copy_only=False)
        else:
            bad = np.zeros(len(flat), bool)
        keep = ~bad
        kept = flat.filter(pa.array(keep))
        kept_per_doc = np.bincount(parent[keep], minlength=n)
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(kept_per_doc, out=offsets[1:])
        # large offsets: joined output can exceed int32 list offsets
        lst = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), kept)
        text = pc.binary_join(lst, sep)
        if text.type != pa.string():
            text = text.cast(pa.string())
        n_removed = np.bincount(parent[bad], minlength=n).astype(np.int64)
        return pa.table({
            id_col: batch[id_col],
            "text": text,
            "n_removed": pa.array(n_removed, pa.int64()),
        })

    return ds.map_batches(scrub, batch_format="pyarrow")


def grouping_sets_aggregate(ds, keys: list[str],
                            aggs: list[tuple[str, str]],
                            sets: list[list[str]], *, prepare=None,
                            sentinels: dict | None = None
                            ) -> pa.Table | None:
    """``GROUP BY GROUPING SETS(...)`` for sum-mergeable aggregates:
    ONE streaming pass of per-batch partials at the FINEST level
    (``partial_aggregate``), then every requested grouping set
    re-aggregates the finest RESULT table — output-space-sized, never
    the input, so adding sets costs nothing at the shuffle layer.
    Each set must be a subset of ``keys``; dropped key columns are
    filled with ``sentinels`` (default '' / -1) so every level shares
    one schema, and the SQL oracle reproduces them by COALESCE-ing
    GROUPING SETS' NULLs.  Returns the concatenated levels in ``sets``
    order, or None on empty input."""
    for _, f in aggs:
        if f not in _MERGE_FN:
            raise ValueError(f"non-mergeable aggregate fn: {f!r}")
    finest = partial_aggregate(ds, keys, aggs, prepare=prepare)
    if finest is None:
        return None
    import pyarrow.compute as _pc
    pnames = [f"{c}_{f}" for c, f in aggs]
    merge = [(p, _MERGE_FN[f]) for p, (_, f) in zip(pnames, aggs)]

    def _sentinel(k: str):
        if sentinels and k in sentinels:
            return sentinels[k]
        return -1 if pa.types.is_integer(finest.schema.field(k).type) \
            else ""

    levels = []
    for kept in sets:
        kept = list(kept)
        if set(kept) - set(keys):
            raise ValueError(f"grouping set {kept!r} not a subset of "
                             f"keys {keys!r}")
        if kept == list(keys):
            cols = {k: finest[k] for k in kept}
            for p in pnames:
                cols[p] = finest[p]
            nrow = finest.num_rows
        elif kept:
            g = _group_counts(finest, kept, merge)
            cols = {k: g[k] for k in kept}
            for p, (_, f) in zip(pnames, aggs):
                cols[p] = g[f"{p}_{_MERGE_FN[f]}"]
            nrow = g.num_rows
        else:  # grand total
            cols = {}
            for p, (_, f) in zip(pnames, aggs):
                fn = {"sum": _pc.sum, "min": _pc.min,
                      "max": _pc.max}[_MERGE_FN[f]]
                cols[p] = pa.array([fn(finest[p]).as_py()],
                                   finest.schema.field(p).type)
            nrow = 1
        for k in keys:
            if k not in kept:
                cols[k] = pa.array([_sentinel(k)] * nrow,
                                   finest.schema.field(k).type)
        levels.append(pa.table(
            {k: cols[k] for k in list(keys) + pnames}))
    return pa.concat_tables(levels)


def cube_aggregate(ds, keys: list[str], aggs: list[tuple[str, str]],
                   *, prepare=None,
                   sentinels: dict | None = None) -> pa.Table | None:
    """``GROUP BY CUBE(keys)``: all 2^len(keys) grouping sets from ONE
    input pass (``grouping_sets_aggregate``) — the margins are
    re-aggregations of the finest partial table.  Subset order is
    deterministic: by descending size, then combination order."""
    from itertools import combinations
    sets = []
    for r in range(len(keys), -1, -1):
        for c in combinations(keys, r):
            sets.append(list(c))
    return grouping_sets_aggregate(ds, keys, aggs, sets,
                                   prepare=prepare, sentinels=sentinels)
