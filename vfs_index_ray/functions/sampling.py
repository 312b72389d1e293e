"""Stratified (per-group) deterministic sampling.

Training-data mixes are drawn per stratum — k documents per language,
per source domain, per quality band — not uniformly over the corpus.
The scalable shape is priority sampling: every record's priority is a
pure hash of its id (``hashing.mix32``), so "the k lowest-priority
records of each group" is a deterministic, order- and
partitioning-independent sample that needs NO shuffle:

- map_batches: per batch, per group, keep the k lowest (priority, id)
  pairs — an ``np.lexsort`` + boundary-diff head-take over integer
  keys (the functions/keywords.py kernel);
- driver: merge the tiny partials (≤ groups × k rows per batch) with
  the same lexsort + head-take.  Equivalent to a per-group bottom-k
  reservoir with a fixed seed; adding data never reorders priorities,
  so the sample is stable under absorb/appends too.

Reference parity note: vfs-index has no sampling surface; this is a
beyond-reference LLM-data operator (brief: training-data pipeline
operations).  The uniform (non-stratified) variant is the driver query
``sample`` (pipelines/text.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..hashing import mix32
from . import collect_arrow


def _head_per_group(codes: np.ndarray, prio: np.ndarray,
                    ids: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k lowest (prio, id) rows per group code."""
    order = np.lexsort((ids, prio, codes))
    gs = codes[order]
    bnd = np.flatnonzero(np.concatenate([[True], gs[1:] != gs[:-1]]))
    rank = np.arange(len(gs)) - np.repeat(bnd, np.diff(
        np.concatenate([bnd, [len(gs)]])))
    return order[rank < k]


def _budget_mix_kernel(t: pa.Table, key_col: str, id_col: str,
                       weight_col: str, budget: int) -> pa.Table:
    """All rows of one key-partition → the rows selected by the greedy
    budget fill: per key, walk docs in ``(mix32(id), id)`` order and
    keep a doc while the key's EXCLUSIVE weight prefix-sum is still
    below ``budget`` (so the doc that first crosses the budget is
    included, then the key stops).  Vectorized lexsort + cumsum +
    per-key base subtraction (the ``pack_by_budget`` trick); weights
    must be non-negative."""
    schema = pa.schema([(key_col, pa.string()), (id_col, pa.int64()),
                        ("prio", pa.int64()), ("weight", pa.int64()),
                        ("cum_weight", pa.int64())])
    n = t.num_rows
    if n == 0:
        return schema.empty_table()
    grp = t[key_col]
    if isinstance(grp, pa.ChunkedArray):
        grp = grp.combine_chunks()
    kcode = grp.dictionary_encode().indices.to_numpy(
        zero_copy_only=False).astype(np.int64)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
    prio = mix32(ids)
    order = np.lexsort((ids, prio, kcode))
    ks, ws = kcode[order], w[order]
    csum = np.cumsum(ws)
    new_key = np.empty(n, bool)
    new_key[0] = True
    new_key[1:] = ks[1:] != ks[:-1]
    key_base = np.maximum.accumulate(np.where(new_key, csum - ws, 0))
    excl = csum - ws - key_base
    keep = excl < budget
    sel = order[keep]
    return pa.table({
        key_col: grp.take(pa.array(sel)).cast(pa.string()),
        id_col: pa.array(ids[sel], pa.int64()),
        "prio": pa.array(prio[sel], pa.int64()),
        "weight": pa.array(w[sel], pa.int64()),
        "cum_weight": pa.array((excl + ws)[keep], pa.int64()),
    })


def budget_mix(ds, *, key_col: str = "source", id_col: str = "doc_id",
               weight_col: str = "n_chars", budget: int,
               num_partitions: int = 32,
               spill_dir: str | None = None):
    """Deterministic mixture sampling under a per-key weight budget —
    the training-data "mixing" step: each source (domain, language,
    quality band) contributes documents in a seedless deterministic
    shuffle order (``prio = mix32(id)``) until ``budget`` weight
    (chars, tokens, bytes) is reached, so re-runs and appends never
    reshuffle what was already picked.  Returns a Dataset of
    ``(key, id, prio, weight, cum_weight)`` for the selected docs.

    Same 100-TB shape as ``pack_by_budget``/sessionize: ONE uniform
    hash-partition on the key over the keyed-op substrate (hive disk
    spill above ~128 MiB or with ``spill_dir``, sort groupby
    otherwise), then one
    vectorized kernel per partition — the prefix sum is per-key, so
    keys parallelize perfectly and no global order exists anywhere."""
    from .windows import _keyed_partition_op

    def add_part(t: pa.Table) -> pa.Table:
        col = t[key_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_string(col.type) or pa.types.is_large_string(
                col.type):
            from ..hashing import fnv1a64_tokens
            h = fnv1a64_tokens(col).astype(np.int64) & 0x7FFFFFFFFFFFFFFF
        else:
            h = np.abs(col.to_numpy(zero_copy_only=False).astype(np.int64))
        return t.append_column(
            "kpart", pa.array(h % num_partitions, pa.int64()))

    def per_part(g: pa.Table) -> pa.Table:
        return _budget_mix_kernel(g, key_col, id_col, weight_col, budget)

    return _keyed_partition_op(ds, add_part, "kpart", per_part,
                               spill_dir=spill_dir)


def stratified_sample(ds, *, group_col: str, k: int,
                      id_col: str = "doc_id") -> pa.Table:
    """k records per ``group_col`` value, chosen as the k lowest
    ``(mix32(id), id)`` priorities — a deterministic per-stratum
    sample.  Returns a small Arrow table ``(group_col, id_col, prio)``
    sorted by (group, prio, id)."""

    def local_top(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        prio = mix32(ids)
        grp = t[group_col]
        if isinstance(grp, pa.ChunkedArray):
            grp = grp.combine_chunks()
        codes = grp.dictionary_encode().indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        keep = _head_per_group(codes, prio, ids, k)
        return pa.table({
            group_col: grp.take(pa.array(keep)),
            id_col: pa.array(ids[keep], pa.int64()),
            "prio": pa.array(prio[keep], pa.int64()),
        })

    out = ds.map_batches(local_top, batch_format="pyarrow")
    merged = collect_arrow(out)
    if merged is None:
        return pa.table({group_col: pa.array([], pa.string()),
                         id_col: pa.array([], pa.int64()),
                         "prio": pa.array([], pa.int64())})
    grp = merged[group_col]
    if isinstance(grp, pa.ChunkedArray):
        grp = grp.combine_chunks()
    codes = grp.dictionary_encode()
    order_codes = codes.indices.to_numpy(zero_copy_only=False).astype(
        np.int64)
    # dictionary order is first-appearance; remap to value order so the
    # final sort is by group VALUE (stable, partition-independent)
    dic = codes.dictionary.to_pylist()
    remap = np.argsort(np.argsort(np.array(dic, dtype=object)))
    order_codes = remap[order_codes]
    ids = merged[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    prio = merged["prio"].to_numpy(zero_copy_only=False).astype(np.int64)
    keep = _head_per_group(order_codes, prio, ids, k)
    sel = np.lexsort((ids[keep], prio[keep], order_codes[keep]))
    final = keep[sel]
    return pa.table({
        group_col: grp.take(pa.array(final)),
        id_col: pa.array(ids[final], pa.int64()),
        "prio": pa.array(prio[final], pa.int64()),
    })


def weighted_sample(ds, *, id_col: str = "doc_id",
                    weight_col: str = "n_chars",
                    scale: int = 1000):
    """Deterministic WEIGHTED Bernoulli sample: row i is kept with
    probability ``min(1, weight_i / scale)`` — the length-weighted
    (or quality-weighted) corpus downsample a curation pipeline runs
    to bias retention toward long/high-value documents.  The coin is
    ``mix32(id) % 10000 < min(10000, weight*10000 // scale)``: pure
    integer arithmetic on the x1e4 grid, stable under any
    partitioning, and reproducible in plain SQL (HUGEINT mix + xor,
    same hash as ``train_split``).  Streaming filter — returns a
    Dataset, nothing materializes."""
    def keep(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        thr = np.minimum(10000, w * 10000 // scale)
        coin = mix32(ids) % 10000
        return t.filter(pa.array(coin < thr))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)
