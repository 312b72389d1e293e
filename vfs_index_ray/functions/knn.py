"""Exact k-NN self-join and SemDeDup-style semantic deduplication
over an embedding column.

``knn_join`` is the exact all-pairs k-nearest-neighbor graph — the
building block behind semantic dedup, clustering diagnostics, and
graph-based curation.  Exact kNN is inherently O(n²) COMPUTE; the
scale problem is MEMORY and distribution, solved here as a block
tournament: the corpus materializes once as object-store Arrow blocks,
every block PAIR (i ≤ j) is an independent Ray task that holds exactly
two bounded blocks, emits ≤ k candidate rows per vector per pair, and
the per-vector candidate merge runs through the keyed hive disk
shuffle.  Nothing corpus-sized ever reaches the driver, and per-task
peak memory is two blocks + one (rows_i × rows_j) score panel.  For
corpora where O(n²) compute itself is the wall, the approximate path
is the IVF index (``similarity.IVFIndex``) — this module is the exact
reference the approximate paths are measured against.

``semdedup`` implements the SemDeDup recipe (Abbas et al. 2023,
arXiv:2303.09540): cluster embeddings, then inside each cluster drop
every vector that has an EARLIER-id neighbor with cosine ≥ τ.
Clustering here is the seeded-centroid assignment the IVF index
already uses in its oracle-checked mode (centroid c = the c-th lowest
vec_id's embedding), which keeps the whole operator — assignment,
pair predicate, keep/drop — reproducible in SQL on the x1e4 grid.
Within-cluster work is a blocked lower-triangular matmul (bounded row
blocks, early rows never compare against later ones), so per-task
memory stays bounded even on fat clusters; at 100-TB scale the
centroid count grows with the corpus so expected cluster size — and
with it the quadratic within-cluster term — stays pinned.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import collect_arrow
from .similarity import IVFIndex, _embedding_matrix

__all__ = ["knn_join", "semdedup"]

_norm = IVFIndex._normalize


def _ids_i64(t: pa.Table, id_col: str) -> np.ndarray:
    col = t[id_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.cast(pa.int64()).to_numpy(zero_copy_only=False)


def _local_topk(ids_q: np.ndarray, ids_c: np.ndarray, sims: np.ndarray,
                k: int, exclude_self: bool):
    """Per-row top-k of a (nq × nc) score panel → flat candidate
    arrays (vec_id, nbr_id, sim); ties sim desc, nbr asc."""
    nq, nc = sims.shape
    kk = min(k + (1 if exclude_self else 0), nc)
    # argpartition narrows each row to kk candidates, lexsort settles
    # exact order; self hits are dropped after (cheaper than masking
    # the whole panel)
    part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
    rows = np.repeat(np.arange(nq), kk)
    cols = part.ravel()
    s = sims[rows, cols]
    nbr = ids_c[cols]
    vec = ids_q[rows]
    if exclude_self:
        m = vec != nbr
        vec, nbr, s = vec[m], nbr[m], s[m]
    order = np.lexsort((nbr, -s, vec))
    vec, nbr, s = vec[order], nbr[order], s[order]
    starts = np.flatnonzero(np.r_[True, vec[1:] != vec[:-1]])
    rank = np.arange(len(vec)) - np.repeat(
        starts, np.diff(np.r_[starts, np.int64(len(vec))]))
    keep = rank < k
    return vec[keep], nbr[keep], s[keep]


def _pair_table(vec, nbr, s) -> pa.Table:
    return pa.table({"vec_id": pa.array(vec, pa.int64()),
                     "nbr_id": pa.array(nbr, pa.int64()),
                     "sim": pa.array(s, pa.float64())})


def knn_join(ds, *, k: int = 3, vec_col: str = "embedding",
             id_col: str = "vec_id", num_parts: int | None = None,
             spill_dir=None):
    """Exact cosine k-NN graph: for every vector, its k nearest other
    vectors.  Returns a Dataset of ``(vec_id, nbr_id, rank,
    sim_x1e4)`` with rank 1..k (ties sim desc, nbr_id asc).

    Block tournament: P object-store blocks → P(P+1)/2 pair tasks,
    each emitting ≤ k candidates per vector per side; per-vector
    merge through the keyed-op substrate
    (``windows._keyed_partition_op``)."""
    import ray
    import ray.data

    from .windows import _keyed_partition_op

    if num_parts is not None:
        ds = ds.repartition(num_parts)
    refs = ds.to_arrow_refs()

    @ray.remote(num_cpus=1)
    def pair_task(bi: pa.Table, bj: pa.Table, same: bool) -> pa.Table:
        ids_i, ids_j = _ids_i64(bi, id_col), _ids_i64(bj, id_col)
        xi = _norm(_embedding_matrix(bi, vec_col))
        if xi.shape[0] == 0 or bj.num_rows == 0:
            return _pair_table(np.empty(0, np.int64),
                               np.empty(0, np.int64),
                               np.empty(0, np.float64))
        xj = xi if same else _norm(_embedding_matrix(bj, vec_col))
        sims = xi @ xj.T
        out = [_local_topk(ids_i, ids_j, sims, k, same)]
        if not same:
            out.append(_local_topk(ids_j, ids_i, sims.T, k, False))
        return pa.concat_tables([_pair_table(*o) for o in out])

    tasks = []
    for i, ri in enumerate(refs):
        for j in range(i, len(refs)):
            tasks.append(pair_task.remote(ri, refs[j], i == j))
    if not tasks:
        return ray.data.from_arrow(pa.table({
            "vec_id": pa.array([], pa.int64()),
            "nbr_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "sim_x1e4": pa.array([], pa.int64())}))
    ray.wait(tasks, num_returns=len(tasks))
    cands = ray.data.from_arrow_refs(tasks)

    nparts = max(8, len(refs))

    def add_part(t: pa.Table) -> pa.Table:
        v = _ids_i64(t, "vec_id").astype(np.uint64)
        h = (v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        return t.append_column("_vp", pa.array(
            ((h ^ (h >> np.uint64(31))) % np.uint64(nparts)).astype(
                np.int64), pa.int64()))

    def merge_part(g: pa.Table) -> pa.Table:
        vec = _ids_i64(g, "vec_id")
        nbr = _ids_i64(g, "nbr_id")
        s = g["sim"].to_numpy(zero_copy_only=False)
        order = np.lexsort((nbr, -s, vec))
        vec, nbr, s = vec[order], nbr[order], s[order]
        # candidates repeat across pair tasks only as DISTINCT
        # (vec, nbr) rows with identical sims; boundary-dedup them
        uniq = np.r_[True, (vec[1:] != vec[:-1]) | (nbr[1:] != nbr[:-1])]
        vec, nbr, s = vec[uniq], nbr[uniq], s[uniq]
        starts = np.flatnonzero(np.r_[True, vec[1:] != vec[:-1]])
        rank = np.arange(len(vec)) - np.repeat(
            starts, np.diff(np.r_[starts, np.int64(len(vec))]))
        keep = rank < k
        return pa.table({
            "vec_id": pa.array(vec[keep], pa.int64()),
            "nbr_id": pa.array(nbr[keep], pa.int64()),
            "rank": pa.array(rank[keep] + 1, pa.int64()),
            "sim_x1e4": pa.array(np.floor(
                s[keep] * 10000.0 + 0.5).astype(np.int64), pa.int64()),
        })

    return _keyed_partition_op(cands, add_part, "_vp", merge_part,
                               spill_dir=spill_dir)


def _seed_matrix(ds, num_clusters: int, vec_col: str, id_col: str):
    """The ``num_clusters`` lowest-id vectors (centroid c = c-th lowest
    vec_id — the oracle-checked seeded-centroid convention): per-batch
    local bottom-k partials, one driver merge of ≤ k rows per block."""

    def local_bottom(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if t.num_rows <= num_clusters:
            return t.select([id_col, vec_col])
        idx = pc.sort_indices(t, sort_keys=[(id_col, "ascending")])
        return t.take(idx[:num_clusters]).select([id_col, vec_col])

    m = collect_arrow(ds.map_batches(local_bottom, batch_format="pyarrow"))
    ids = _ids_i64(m, id_col)
    order = np.argsort(ids, kind="stable")[:num_clusters]
    mat = _embedding_matrix(m, vec_col)[order]
    return _norm(mat)


def semdedup(ds, *, num_clusters: int = 8, tau_x1e4: int = 9500,
             vec_col: str = "embedding", id_col: str = "vec_id",
             block_rows: int = 4096,
             spill_dir=None):
    """SemDeDup: drop every vector with an earlier-id same-cluster
    neighbor at ``floor(cos·1e4 + 0.5) ≥ tau_x1e4``.  Returns a
    Dataset of ``(vec_id, cluster, keep)`` covering EVERY input row —
    assignment and verdict are both hash-checkable.

    Clusters are seeded centroids (c-th lowest vec_id), assignment is
    argmax cosine with lowest-c ties — identical to the IVF index's
    oracle-checked seeded mode, so the full operator is reproducible
    in SQL."""
    import ray
    import ray.data

    from .windows import _keyed_partition_op

    seeds = _seed_matrix(ds, num_clusters, vec_col, id_col)
    seeds_ref = ray.put(seeds)

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(seeds_ref)
        mat = _norm(_embedding_matrix(t, vec_col))
        if mat.shape[0] == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             vec_col: pa.array([], pa.list_(
                                 pa.float64())),
                             "cluster": pa.array([], pa.int64()),
                             "_cl": pa.array([], pa.int64())})
        b = np.argmax(mat @ c.T, axis=1).astype(np.int64)
        return pa.table({id_col: t[id_col],
                         vec_col: t[vec_col],
                         "cluster": pa.array(b, pa.int64()),
                         "_cl": pa.array(b, pa.int64())})

    assigned = ds.map_batches(assign, batch_format="pyarrow",
                              zero_copy_batch=True)

    def per_cluster(g: pa.Table) -> pa.Table:
        ids = _ids_i64(g, id_col)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        x = _norm(_embedding_matrix(g, vec_col)[order])
        n = len(ids)
        keep = np.ones(n, bool)
        thr = int(tau_x1e4)
        # blocked strict-lower-triangle scan: row i only ever
        # compares against rows < i, in bounded (block × i) panels
        for a in range(1, n, block_rows):
            b = min(a + block_rows, n)
            panel = x[a:b] @ x[:b].T
            px = np.floor(panel * 10000.0 + 0.5).astype(np.int64)
            valid = (np.arange(b)[None, :]
                     < np.arange(a, b)[:, None])  # strict j < i
            keep[a:b] = ~((px >= thr) & valid).any(axis=1)
        cl = g["cluster"]
        if isinstance(cl, pa.ChunkedArray):
            cl = cl.combine_chunks()
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "cluster": cl.take(pa.array(order)),
            "keep": pa.array(keep),
        })

    return _keyed_partition_op(assigned, lambda t: t, "_cl",
                               per_cluster,
                               spill_dir=spill_dir)
