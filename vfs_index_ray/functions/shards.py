"""Deterministic epoch-shuffle shard writer (training-data global shuffle).

LLM training consumes a corpus in pseudo-random order, re-shuffled per
epoch.  A literal ``random_shuffle``/sort is an all-to-all exchange of
every byte; the scalable idiom is hash-order shuffling:

- each record's shuffle priority is ``mix32(id XOR seed)`` — a pure
  function, so the permutation is deterministic, reproducible across
  runs/cluster sizes, and re-seedable per epoch with zero state;
- ``shard = prio % num_shards`` is the part column of one
  ``spillfs.partition_apply`` disk shuffle (the keyed spill every wide
  op shares — no pull-based sort exchange);
- each shard then sorts LOCALLY by ``(prio, id)`` in its part task and
  is published atomically (``segment.publish``) as one ordered parquet
  file — resumable output: a rerun skips shards whose file already
  exists.

A shard is the unit a trainer streams sequentially; global order is
"shard 0's rows, then shard 1's, …", which equals ordering the whole
corpus by ``(prio % S, prio, id)`` — SQL-reproducible, hence the
``shuffle_shards`` driver oracle.  Scale: shards are sized to fit a
task's heap (corpus_bytes / num_shards); at 100 TB that's simply more
shards, never more memory.

Reference parity note: vfs-index has no training-export surface; this
is a beyond-reference LLM-data operator (brief: operations a
large-scale training-data pipeline needs).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..hashing import mix32


def write_shuffled_shards(ds, out_dir: str, *, num_shards: int,
                          seed: int = 0, id_col: str = "doc_id",
                          spill_dir: str | None = None) -> dict:
    """Shuffle ``ds`` into ``num_shards`` ordered parquet shards under
    ``out_dir`` (``shard_{k:05d}.parquet``, each sorted by (prio, id)
    with a ``pos`` column).  Deterministic in ``seed``; reruns skip
    already-written shards.  ``spill_dir`` accepts any
    ``spillfs.open_spill`` spec for the shuffle scratch (cluster runs
    point it at shared storage).  Returns ``{"rows": total, "shards":
    S, "per_shard": [...]}``."""
    import pyarrow.parquet as pq
    import ray

    from ..segment import publish
    from ..spillfs import partition_apply

    def shard_path(k: int) -> str:
        return os.path.join(out_dir, f"shard_{k:05d}.parquet")

    def write_shard(k: int, t: pa.Table) -> None:
        publish(shard_path(k), lambda tmp: pq.write_table(t, tmp))

    def assign(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        prio = mix32(ids ^ np.int64(seed))
        return t.append_column(
            "prio", pa.array(prio, pa.int64())).append_column(
            "shard", pa.array(prio % num_shards, pa.int32()))

    def per_part(t: pa.Table) -> None:
        prio = t["prio"].to_numpy(zero_copy_only=False)
        k = int(prio[0] % num_shards)
        if os.path.exists(shard_path(k)):
            return
        order = np.lexsort((t[id_col].to_numpy(zero_copy_only=False), prio))
        write_shard(k, t.take(pa.array(order)).append_column(
            "pos", pa.array(np.arange(len(order), dtype=np.int64))))

    os.makedirs(out_dir, exist_ok=True)
    if not all(os.path.exists(shard_path(k)) for k in range(num_shards)):
        ray.get(partition_apply(
            ds.map_batches(assign, batch_format="pyarrow"), "shard",
            per_part, spill_dir=spill_dir, prefix="shards_"))
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "prio": pa.array([], pa.int64()),
                          "pos": pa.array([], pa.int64())})
        for k in range(num_shards):  # a shard can legitimately be empty
            if not os.path.exists(shard_path(k)):
                write_shard(k, empty)

    per = [pq.ParquetFile(shard_path(k)).metadata.num_rows
           for k in range(num_shards)]
    return {"rows": int(sum(per)), "shards": num_shards, "per_shard": per}


def read_shard(out_dir: str, shard: int, columns=None) -> pa.Table:
    """One ordered shard back (already sorted by (prio, id) at write)."""
    import pyarrow.parquet as pq
    return pq.read_table(
        os.path.join(out_dir, f"shard_{shard:05d}.parquet"),
        columns=columns, use_threads=False)
