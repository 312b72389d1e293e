"""Distributed global sort via sample-based range partitioning.

The one classic engine operation this repo had deliberately avoided:
a total ORDER BY over a dataset too large for any single node.  Ray
Data's built-in ``Dataset.sort`` uses the pull-based sort exchange
that anti-scales on high-core hosts (measured in-repo, CLAUDE.md), so
this module implements the Spark-RangePartitioner shape on the repo's
own disk-shuffle substrate instead:

1. **Sample pass** — every input block contributes up to
   ``sample_per_block`` evenly-spaced routing values
   (:func:`_routing_values`): the full 64-bit order-preserving map of
   the primary key, paired for multi-key sorts with the second key's
   map so a low-cardinality leading key cannot collapse the partition
   count (pairs are compared EXACTLY — :func:`_pair_route` — because a
   truncated single-word combination would not be order-monotone).
   The sample (a few KiB per block) is the only thing the driver ever
   sees.
2. **Split points** — P-1 boundaries are drawn from the sorted sample
   quantiles.  P is size-based (``target_bytes`` per partition), so a
   100× input yields ~100× partitions at fixed per-task memory.
3. **Range spill** — each row routes to ``searchsorted(splits, u,
   side="right")`` and lands in its part's directory of the keyed
   spill (``spillfs.Spill.write_parts``) on the pluggable spill
   filesystem (local tmp, NFS, S3).
   Because routing compares the EXACT sampled values, all rows with an
   equal routing prefix co-partition, which is what makes an 8-byte
   string prefix a *correct* router: rows the prefix cannot
   distinguish are ordered by the full-key local sort inside their
   one shared partition.
4. **Per-part sort** — independent Ray tasks read their partition and
   sort it by the FULL key list (``pyarrow.compute.sort_indices``,
   nulls last — DuckDB's default null order).  Partition i's rows all
   precede partition i+1's rows under the total order, so the ordered
   concatenation of per-part outputs is the globally sorted relation.
5. **Global row numbers** — per-part row counts (tiny ints) come back
   to the driver; cumulative offsets are added per part as a second
   wave of tasks, yielding exact ``ROW_NUMBER() OVER (ORDER BY …)``
   ordinals without any sequential pass.  Sorted blocks stay in the
   object store throughout (``from_arrow_refs``).

Cost note: like Spark's RangePartitioner, the sample pass re-executes
the input pipeline once; sort raw column-pruned reads, not expensive
derived datasets (or materialize first).

Reference parity: vfs-index returns key-order traversals from its
merged index tree (vfs-index README "search by term order";
info.go/merge.go key iteration) — a single-process engine gets global
order for free from one B-tree.  A cluster engine has to buy it with
a range exchange; this module is that exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import _plan_size_bytes, collect_arrow

# same per-partition byte target as the join substrate (joins.py)
SORT_PART_TARGET_BYTES = 64 * 1024 * 1024


def _route_u64(arr: pa.ChunkedArray | pa.Array, *,
               descending: bool = False,
               byte_offset: int = 0) -> np.ndarray:
    """Order-preserving uint64 routing prefix of an Arrow column.

    int/timestamp/date: sign-bit flip.  float32/64: IEEE-754
    total-order transform (negative → all bits flipped, else sign bit
    set) — NaNs route to the top like Arrow/DuckDB sort order.
    string/binary: 8 bytes starting at ``byte_offset``, big-endian,
    zero-padded — monotone w.r.t. bytewise (== UTF-8 codepoint ==
    DuckDB binary-collation) order, and for two words (offsets 0 and
    8) lexicographically monotone over the first 16 bytes.  Nulls
    always route to UINT64_MAX (nulls-last), applied AFTER the
    descending inversion so they stay last either way.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    null_mask = np.asarray(arr.is_null()) if arr.null_count else None
    nan_mask = None
    if pa.types.is_floating(t):
        f = np.asarray(arr.cast(pa.float64()).fill_null(0.0))
        bits = f.view(np.int64)
        u = np.where(bits < 0, ~bits, bits ^ np.int64(-2 ** 63)
                     ).view(np.uint64)
        nm = np.isnan(f)
        nan_mask = nm if nm.any() else None
    elif (pa.types.is_integer(t) or pa.types.is_temporal(t)):
        i = np.asarray(arr.cast(pa.int64()).fill_null(0))
        u = (i ^ np.int64(-2 ** 63)).view(np.uint64)
    elif pa.types.is_string(t) or pa.types.is_large_string(t) \
            or pa.types.is_binary(t) or pa.types.is_large_binary(t):
        big = (pa.large_binary() if (pa.types.is_large_string(t) or
                                     pa.types.is_large_binary(t))
               else pa.binary())
        b = arr.cast(big).fill_null(b"")
        buffers = b.buffers()
        off_width = np.int64 if big == pa.large_binary() else np.int32
        offs = np.frombuffer(buffers[1], dtype=off_width,
                             count=len(b) + 1).astype(np.int64)
        offs = offs + b.offset if b.offset else offs
        data = (np.frombuffer(buffers[2], dtype=np.uint8)
                if buffers[2] is not None else np.empty(0, np.uint8))
        n = len(b)
        starts = offs[:-1]
        lens = offs[1:] - starts
        pad = np.zeros((n, 8), np.uint8)
        for j in range(8):  # 8 vectorized passes, not a per-row loop
            m = lens > j + byte_offset
            if m.any():
                pad[m, j] = data[starts[m] + j + byte_offset]
        u = pad.view(">u8").astype(np.uint64).reshape(n)
    else:
        if byte_offset:
            raise ValueError("byte_offset applies to string keys only")
        raise TypeError(f"order_by: unsupported sort-key type {t}")
    if descending:
        u = ~u
    if nan_mask is not None:
        # Arrow's sort places NaN at the end (before nulls) in BOTH
        # directions (null_placement-like); route to match the local
        # per-part sort so global order == one-node Arrow sort.  NB:
        # DuckDB instead treats NaN as "greatest" (differs only for
        # DESC keys); the oracle queries use x1e4 integer grids, so
        # this never reaches a SQL comparison.
        u = u.copy()
        u[nan_mask] = np.uint64(0xFFFFFFFFFFFFFFFE)
    if null_mask is not None and null_mask.any():
        u = u.copy()
        u[null_mask] = np.uint64(0xFFFFFFFFFFFFFFFF)
    return u


# a string routing word pair (byte offsets 0 and 8) is EXACT — equal
# words imply equal strings — iff every value fits in 16 bytes; the
# sample pass proves this with a full-data max-length reduction
_STR_EXACT_BYTES = 16


def _is_str_key(t: pa.Table, col: str) -> bool:
    ty = t.schema.field(col).type
    return (pa.types.is_string(ty) or pa.types.is_large_string(ty)
            or pa.types.is_binary(ty) or pa.types.is_large_binary(ty))


def _key_words(t: pa.Table, norm: list[tuple[str, str]],
               nkeys: int) -> list[np.ndarray]:
    """Routing word chain for the first ``nkeys`` sort keys: numeric/
    temporal keys contribute their exact 64-bit map, string keys two
    prefix words (bytes 0-8 and 8-16).  The chain compares
    lexicographically and is monotone w.r.t. the full sort order
    PROVIDED every non-final word is exact — which ``order_by``
    guarantees by only setting nkeys=2 when key0 is numeric or its
    global max byte length is ≤ 16 (a lossy non-final word could
    reorder rows it cannot distinguish across a partition boundary;
    a lossy FINAL word is always safe because its ties co-partition
    by the routing rule)."""
    words: list[np.ndarray] = []
    for col, d in norm[:nkeys]:
        desc = d == "descending"
        words.append(_route_u64(t[col], descending=desc))
        if _is_str_key(t, col):
            words.append(_route_u64(t[col], descending=desc,
                                    byte_offset=8))
    return words


def _route_words(words: list[np.ndarray],
                 splits: list[np.ndarray]) -> np.ndarray:
    """Vectorized multi-word searchsorted(side="right"): partition id
    of each word-tuple against the lexicographically sorted split
    tuples.  One stable lexsort of splits+data; splits sort before
    equal data tuples (they come first in the concatenation), so every
    data tuple equal to a split routes right — all exact routing ties
    co-partition, the invariant local full-key sorting relies on."""
    m = len(splits[0])
    n = len(words[0])
    if m == 0:
        return np.zeros(n, np.int64)
    cols = [np.concatenate([s, w]) for s, w in zip(splits, words)]
    order = np.lexsort(tuple(reversed(cols)))
    csum = np.cumsum(order < m)
    pos = np.empty(m + n, np.int64)
    pos[order] = np.arange(m + n)
    return csum[pos[m:]].astype(np.int64)


def _norm_keys(keys) -> list[tuple[str, str]]:
    out = []
    for k in keys:
        if isinstance(k, str):
            out.append((k, "ascending"))
        else:
            col, d = k
            d = str(d).lower()
            d = "descending" if d.startswith("desc") else "ascending"
            out.append((col, d))
    if not out:
        raise ValueError("order_by: at least one sort key required")
    return out


def _num_parts(ds, target_bytes: int) -> int:
    import ray

    total, _ = _plan_size_bytes(ds._logical_plan.dag)
    cpus = max(1, int(ray.cluster_resources().get("CPU", 8)))
    # size-based first (the 100-TB axis); only add CPU-driven
    # parallelism when there is enough data to amortize P part tasks
    by_size = max(1, -(-total // target_bytes))
    by_cpu = min(cpus, max(1, -(-total // (8 * 1024 * 1024))))
    return max(by_size, by_cpu)


def _sample_routing(ds, norm: list[tuple[str, str]],
                    sample_per_block: int):
    """Collect per-block evenly-spaced routing word tuples (for up to
    the first two sort keys) plus, when key0 is a string, the FULL
    per-block max byte length (computed over every row, so the driver
    can soundly prove the 16-byte prefix exact).  Returns
    (word_columns lexsorted, key0_max_len)."""
    import pyarrow.compute as pc

    nkeys = min(2, len(norm))
    str0 = None  # resolved from the first non-empty batch's schema

    def one(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        words = _key_words(batch, norm, nkeys)
        if n == 0:
            cols = {f"w{i}": pa.array([], pa.uint64())
                    for i in range(len(words))}
            cols["ml"] = pa.array([], pa.int64())
            return pa.table(cols)
        k = min(sample_per_block, n)
        idx = np.linspace(0, n - 1, k).astype(np.int64)
        cols = {f"w{i}": pa.array(w[idx], pa.uint64())
                for i, w in enumerate(words)}
        if _is_str_key(batch, norm[0][0]):
            ml = pc.max(pc.binary_length(
                batch[norm[0][0]].cast(pa.large_binary()))).as_py() or 0
        else:
            ml = -1  # sentinel: key0 is not a string
        cols["ml"] = pa.array(np.full(k, int(ml), np.int64))
        return pa.table(cols)

    sample = ds.map_batches(one, batch_format="pyarrow",
                            zero_copy_batch=True)
    t = collect_arrow(sample)
    if t is None:
        return [], -1
    nw = t.num_columns - 1
    ws = [np.asarray(t[f"w{i}"].combine_chunks()) for i in range(nw)]
    ml = int(np.asarray(t["ml"].combine_chunks()).max())
    order = np.lexsort(tuple(reversed(ws)))
    return [w[order] for w in ws], ml


def order_by(ds, keys, *, row_number_col: str | None = None,
             num_parts: int | None = None,
             target_bytes: int = SORT_PART_TARGET_BYTES,
             sample_per_block: int = 32,
             spill_dir=None):
    """Globally sort ``ds`` by ``keys`` (list of column names or
    ``(col, "asc"|"desc")`` pairs).  Returns a Dataset whose block
    order IS the total order; with ``row_number_col`` each row also
    carries its exact 1-based global ordinal, so downstream results
    never rely on Ray block ordering.
    """
    import ray
    import ray.data

    from ..spillfs import open_spill

    norm = _norm_keys(keys)
    pa_keys = [(c, d) for c, d in norm]

    ws, max_len0 = _sample_routing(ds, norm, sample_per_block)
    if not ws or ws[0].size == 0:  # empty input: schema-preserving no-op
        if row_number_col:
            rn = row_number_col

            def add_empty(t: pa.Table) -> pa.Table:
                return t.append_column(
                    rn, pa.array([1] * t.num_rows, pa.int64()))
            return ds.map_batches(add_empty, batch_format="pyarrow",
                                  zero_copy_batch=True)
        return ds

    # chain length: include key1's words only when key0's word(s) are
    # EXACT (numeric/temporal, or a string whose PROVEN max byte
    # length fits the 16-byte prefix) — a lossy non-final word would
    # break the boundary monotonicity _key_words documents
    key0_is_str = max_len0 >= 0
    w0cnt = 2 if key0_is_str else 1
    if len(norm) == 1:
        nkeys_eff, nwords = 1, w0cnt
    elif (not key0_is_str) or max_len0 <= _STR_EXACT_BYTES:
        nkeys_eff, nwords = 2, len(ws)
    else:
        nkeys_eff, nwords = 1, w0cnt

    p = num_parts or _num_parts(ds, target_bytes)
    if p > 1:
        q = np.linspace(0, ws[0].size - 1, p + 1)[1:-1].astype(np.int64)
        sw = [w[q] for w in ws[:nwords]]
        # duplicate quantile TUPLES collapse (boundary-diff on the
        # lex-sorted sample, never np.unique on unsorted data)
        keep = np.zeros(len(sw[0]), bool)
        keep[0] = True
        for w in sw:
            keep[1:] |= w[1:] != w[:-1]
        sw = [w[keep] for w in sw]
    else:
        sw = [np.empty(0, np.uint64)] * nwords

    def add_part(t: pa.Table) -> pa.Table:
        words = _key_words(t, norm, nkeys_eff)[:nwords]
        part = _route_words(words, sw)
        return t.append_column("__sort_part", pa.array(part, pa.int64()))

    sp = open_spill(spill_dir, prefix="gsort_")
    try:
        sp.write_parts(ds.map_batches(add_part, batch_format="pyarrow",
                                      zero_copy_batch=True), "__sort_part")
        parts = sp.list_parts("__sort_part")
        # hive labels are strings; global order needs numeric order
        pdirs = [parts[k] for k in sorted(parts, key=int)]
        fs = sp.fs

        @ray.remote(num_cpus=1, num_returns=2)
        def sort_part(pdir: str):
            import pyarrow.parquet as pq
            t = pq.read_table(pdir, use_threads=False, filesystem=fs)
            idx = pc.sort_indices(
                t, sort_keys=pa_keys, null_placement="at_end")
            return t.take(idx).combine_chunks(), t.num_rows

        pairs = [sort_part.remote(d) for d in pdirs]
        refs = [r for r, _ in pairs]
        counts = ray.get([c for _, c in pairs])  # forces sort done
    finally:
        # counts ray.get above guarantees every part was read
        sp.cleanup()

    if row_number_col:
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        rn = row_number_col

        @ray.remote(num_cpus=0.5)
        def add_rn(t: pa.Table, off: int) -> pa.Table:
            ords = np.arange(off + 1, off + 1 + t.num_rows, dtype=np.int64)
            return t.append_column(rn, pa.array(ords, pa.int64()))

        refs = [add_rn.remote(r, int(o)) for r, o in zip(refs, offsets)]
    return ray.data.from_arrow_refs(refs)
