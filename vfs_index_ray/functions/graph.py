"""Distributed graph analytics over Ray Data: transition-edge
extraction and an integer-exact PageRank.

PageRank here is deliberately ALL-INTEGER: ranks live on a fixed
``scale`` grid (default 1e12), each edge contributes
``rank(src) // outdeg(src)`` (floor division), and the damping update
is ``base + (85 * incoming) // 100``.  Integer sums are
order-independent, so the distributed result is bit-identical to any
serial reference — including a DuckDB SQL transcription — with no
fp-accumulation caveats.  Dangling-node mass (outdeg 0) is dropped,
matching the pure edge-join formulation.

Scale notes (100 TB): edges are extracted with the same hive-partition
disk shuffle every keyed op in this repo uses; the rank vector is a
node-indexed int64 array broadcast once per iteration (``ray.put``) —
the right shape while the node table fits a worker heap (billions of
nodes = 8 GB/1e9).  Past that, flip the per-iteration contribution
join to ``functions.joins.hash_join`` co-partitioned on ``src`` — the
kernel body is unchanged.

Reference parity: the reference engine has no graph module; this is
part of the beyond-reference training-data toolkit (link-graph
quality signals for web corpora, PageRank-weighted sampling).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import collect_arrow
from .boilerplate import _group_counts
from .joins import _key_hash64
from .windows import _keyed_partition_op


def _transition_kernel(t: pa.Table, stream_col: str, ts_col: str,
                       id_col: str, node_col: str) -> pa.Table:
    """Consecutive-node edges within each stream: sort one partition
    by (stream, ts, id), pair each row's node with the next row's node
    in the same stream run, drop self-loops.  Vectorized: one sort,
    one shift, boundary diffs for the run ends (never np.unique)."""
    idx = pc.sort_indices(t, sort_keys=[
        (stream_col, "ascending"), (ts_col, "ascending"),
        (id_col, "ascending")])
    t = t.take(idx)
    n = t.num_rows
    empty = pa.table({"src": pa.array([], pa.int64()),
                      "dst": pa.array([], pa.int64())})
    if n < 2:
        return empty
    nodes = t[node_col].to_numpy(zero_copy_only=False).astype(np.int64)
    src, dst = nodes[:-1], nodes[1:]
    # a pair is an edge only when both rows share the stream value
    sk = t[stream_col]
    same = pc.equal(sk.slice(0, n - 1), sk.slice(1, n)).to_numpy(
        zero_copy_only=False)
    keep = same & (src != dst)
    if not keep.any():
        return empty
    return pa.table({"src": pa.array(src[keep], pa.int64()),
                     "dst": pa.array(dst[keep], pa.int64())})


def transition_edges(events_ds, *, stream_col: str = "event_type",
                     ts_col: str = "ts", id_col: str = "event_id",
                     node_col: str = "user_id",
                     num_partitions: int = 32,
                     spill_dir: str | None = None):
    """(src, dst) transition edges: within each ``stream_col`` value's
    (ts, id)-ordered event sequence, an edge from each event's node to
    the next event's node (self-loops dropped, multi-edges kept — they
    weight PageRank like repeated links).  One keyed hash-partition
    exchange + a vectorized kernel per partition.

    Scale caveat: partitions are keyed by the stream column, so its
    cardinality bounds parallelism; low-cardinality streams at extreme
    scale should pre-bucket by (stream, coarse time) and stitch the
    bucket-boundary pair downstream."""
    def add_part(t: pa.Table) -> pa.Table:
        h = _key_hash64(t[stream_col])
        return t.append_column(
            "kpart", pa.array((h % num_partitions).astype(np.int64),
                              pa.int64()))

    def per_part(g: pa.Table) -> pa.Table:
        return _transition_kernel(g, stream_col, ts_col, id_col,
                                  node_col)

    return _keyed_partition_op(events_ds, add_part, "kpart", per_part,
                               spill_dir=spill_dir)


def pagerank(edges_ds, nodes: pa.Array | pa.ChunkedArray, *,
             iterations: int = 3, scale: int = 10 ** 12,
             damping_num: int = 85,
             damping_den: int = 100) -> pa.Table:
    """Integer-exact PageRank over a (src, dst) edge Dataset.

    ``nodes`` is the full node id array (isolated nodes keep the base
    rank).  Per iteration, every batch of edges computes
    ``contrib = rank[src] // outdeg[src]`` against the broadcast rank
    vector and folds a per-dst partial sum; the driver merges the
    node-sized partials and applies ``base + (d·incoming) // den``.
    Edges are materialized ONCE (object-store blocks, spillable) and
    re-streamed each iteration — nothing corpus-sized revisits the
    driver.  Returns (node, rank) with Σrank ≤ scale (dangling and
    rounding mass is dropped, exactly as the oracle SQL drops it)."""
    import ray

    node_arr = pa.chunked_array([nodes]).combine_chunks() \
        if isinstance(nodes, pa.Array) else nodes.combine_chunks()
    node_arr = node_arr.cast(pa.int64())
    n = len(node_arr)
    if n == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64())})
    edges = edges_ds.materialize()

    # out-degree per src, node-aligned (0 for dangling / isolated)
    def deg_partial(t: pa.Table) -> pa.Table:
        return _group_counts(t, ["src"], [("src", "count")])

    parts = collect_arrow(edges.map_batches(deg_partial,
                                            batch_format="pyarrow"))
    outdeg = np.zeros(n, np.int64)
    if parts is not None:
        d = _group_counts(parts, ["src"], [("src_count", "sum")])
        di = pc.index_in(d["src"], value_set=node_arr)
        outdeg[di.to_numpy(zero_copy_only=False)] = \
            d["src_count_sum"].to_numpy(zero_copy_only=False)

    base = ((damping_den - damping_num) * scale // damping_den) // n
    ranks = np.full(n, scale // n, np.int64)
    node_ref = ray.put(node_arr)
    outdeg_ref = ray.put(outdeg)

    for _ in range(iterations):
        rank_ref = ray.put(ranks)

        def contrib_partial(t: pa.Table, _r=rank_ref) -> pa.Table:
            na = ray.get(node_ref)
            r = ray.get(_r)
            od = ray.get(outdeg_ref)
            si = pc.index_in(t["src"], value_set=na).to_numpy(
                zero_copy_only=False)
            c = r[si] // od[si]          # outdeg>0: src has this edge
            return _group_counts(
                pa.table({"dst": t["dst"],
                          "c": pa.array(c, pa.int64())}),
                ["dst"], [("c", "sum")])

        parts = collect_arrow(edges.map_batches(contrib_partial,
                                                batch_format="pyarrow"))
        incoming = np.zeros(n, np.int64)
        if parts is not None:
            m = _group_counts(parts, ["dst"], [("c_sum", "sum")])
            mi = pc.index_in(m["dst"], value_set=node_arr)
            incoming[mi.to_numpy(zero_copy_only=False)] = \
                m["c_sum_sum"].to_numpy(zero_copy_only=False)
        ranks = base + (damping_num * incoming) // damping_den

    return pa.table({"node": node_arr,
                     "rank": pa.array(ranks, pa.int64())})


def bfs_hops(edges_ds, seeds: pa.Array | pa.ChunkedArray, *,
             max_hops: int = 3) -> pa.Table:
    """Multi-source BFS over a (src, dst) edge Dataset: minimum hop
    count (0 = seed) for every node reachable within ``max_hops``.

    Frontier expansion is one streamed pass over the edges per round:
    each batch keeps edges whose src is in the broadcast frontier set
    and emits its distinct dst values; the driver unions the
    node-sized partials, subtracts visited, and broadcasts the next
    frontier.  Edges materialize once.  Set membership is exact
    (sorted-array searchsorted), so the result is deterministic and a
    chained-CTE SQL transcription reproduces it row for row."""
    import ray

    seed_arr = pa.chunked_array([seeds]).combine_chunks() \
        if isinstance(seeds, pa.Array) else seeds.combine_chunks()
    frontier = np.unique(
        seed_arr.cast(pa.int64()).to_numpy(zero_copy_only=False))
    out_nodes = [frontier]
    out_hops = [np.zeros(len(frontier), np.int64)]
    visited = frontier
    if len(frontier) == 0 or max_hops <= 0:
        return pa.table({
            "node": pa.array(np.concatenate(out_nodes), pa.int64()),
            "hops": pa.array(np.concatenate(out_hops), pa.int64())})
    edges = edges_ds.materialize()

    for hop in range(1, max_hops + 1):
        f_ref = ray.put(frontier)

        def reach_partial(t: pa.Table, _f=f_ref) -> pa.Table:
            f = ray.get(_f)
            src = t["src"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(f, src)
            pos[pos == len(f)] = 0
            hit = f[pos] == src
            dst = np.unique(
                t["dst"].to_numpy(zero_copy_only=False)[hit])
            return pa.table({"dst": pa.array(dst, pa.int64())})

        parts = collect_arrow(edges.map_batches(reach_partial,
                                                batch_format="pyarrow"))
        if parts is None:
            break
        reached = np.unique(parts["dst"].to_numpy(zero_copy_only=False))
        fresh = reached[~np.isin(reached, visited, assume_unique=True)]
        if len(fresh) == 0:
            break
        out_nodes.append(fresh)
        out_hops.append(np.full(len(fresh), hop, np.int64))
        visited = np.union1d(visited, fresh)
        frontier = fresh

    nodes = np.concatenate(out_nodes)
    hops = np.concatenate(out_hops)
    order = np.argsort(nodes, kind="stable")
    return pa.table({"node": pa.array(nodes[order], pa.int64()),
                     "hops": pa.array(hops[order], pa.int64())})
