"""Queries over the embeddings table: exact and IVF vector search,
near-duplicate and clustering passes, quantization and product codes."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .common import (_collect, _conc, _corpus_key, fixed_point, query,
                     read_ds, read_table)

ANN_QUERY_IDS = [0, 1, 2]


@query("""
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings
  WHERE vec_id IN (0,1,2)
), sims AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]) AS sim
  FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.query_id
)
SELECT query_id, vec_id,
       row_number() OVER (PARTITION BY query_id
                          ORDER BY sim DESC, vec_id)::BIGINT AS rank,
       CAST(floor(sim*10000 + 0.5) AS BIGINT) AS sim_x1e4
FROM sims QUALIFY rank <= 5 ORDER BY query_id, rank
""")
def q_ann_cosine_topk(sf_dir: str) -> pa.Table:
    from ..functions.similarity import ann_cosine_topk
    ds = read_ds(sf_dir, "embeddings")
    return ann_cosine_topk(ds, ANN_QUERY_IDS, k=5)


@query("""
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings
  WHERE vec_id IN (0,1,2)
), sims AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]) AS sim
  FROM q CROSS JOIN embeddings e
  WHERE e.vec_id <> q.query_id AND e.label = 1
)
SELECT query_id, vec_id,
       row_number() OVER (PARTITION BY query_id
                          ORDER BY sim DESC, vec_id)::BIGINT AS rank,
       CAST(floor(sim*10000 + 0.5) AS BIGINT) AS sim_x1e4
FROM sims QUALIFY rank <= 5 ORDER BY query_id, rank
""")
def q_ann_filtered(sf_dir: str) -> pa.Table:
    """Filtered vector search: exact cosine top-5 among embeddings
    whose ``label = 1`` only (the metadata-predicate ANN shape).
    The predicate applies as a per-batch Arrow filter before the
    matmul; query vectors resolve from the unfiltered set
    (similarity.ann_cosine_topk query_ds)."""
    from ..functions.similarity import ann_cosine_topk
    full = read_ds(sf_dir, "embeddings")

    def only_label1(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["label"], 1))

    filt = full.map_batches(only_label1, batch_format="pyarrow",
                            zero_copy_batch=True)
    return ann_cosine_topk(filt, ANN_QUERY_IDS, k=5, query_ds=full)


def _get_ivf(sf_dir: str, num_centroids: int = 8,
             seed_centroids: bool = False,
             keep_cols: list[str] | None = None):
    """Build-or-reuse the IVF index for sf_dir (corpus-keyed cache)."""
    from ..functions.similarity import IVFIndex
    src = os.path.join(sf_dir, "embeddings.parquet")
    name = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    key = _corpus_key(sf_dir, src)
    tag = "s" if seed_centroids else "k"
    kc = ("_" + "-".join(keep_cols)) if keep_cols else ""
    path = os.path.join("/tmp", "vfsray_cache",
                        f"ivf_{name}_{key}_c{num_centroids}{tag}{kc}")
    if not os.path.exists(os.path.join(path, "centroids.npy")):
        IVFIndex.build(read_ds(sf_dir, "embeddings"), path,
                       num_centroids=num_centroids,
                       seed_centroids=seed_centroids,
                       keep_cols=keep_cols)
    return IVFIndex(path)


def _ivf_query_table(sf_dir: str, nprobe: int,
                     num_centroids: int = 8,
                     seed_centroids: bool = False) -> pa.Table:
    ivf = _get_ivf(sf_dir, num_centroids, seed_centroids)
    tbl = read_table(sf_dir, "embeddings",
                     filters=[("vec_id", "in", list(ANN_QUERY_IDS))])
    by_id = dict(zip(tbl["vec_id"].to_pylist(),
                     tbl["embedding"].to_pylist()))
    out_q, out_v, out_r, out_s = [], [], [], []
    for qid in ANN_QUERY_IDS:
        vec = np.asarray(by_id[qid], np.float64)
        vids, sims = ivf.search(vec, k=5, nprobe=nprobe, exclude_id=qid)
        for r, (v, s) in enumerate(zip(vids.tolist(), sims.tolist()), 1):
            out_q.append(qid)
            out_v.append(v)
            out_r.append(r)
            out_s.append(int(fixed_point(s)))
    return pa.table({
        "query_id": pa.array(out_q, pa.int64()),
        "vec_id": pa.array(out_v, pa.int64()),
        "rank": pa.array(out_r, pa.int64()),
        "sim_x1e4": pa.array(out_s, pa.int64()),
    })


# IVF approximate probe path with seeded centroids: centroid c =
# c-th lowest vec_id's vector; assign = argmax cosine (ties lowest
# c); probe = top-4 centroids per query; exact top-5 within probed
# buckets excluding self — mirrors IVFIndex.search exactly
@query("""
WITH cent AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS c, embedding AS ce
  FROM (SELECT * FROM embeddings ORDER BY vec_id LIMIT 8)
), asg AS (
  SELECT e.vec_id, e.embedding, c.c,
         row_number() OVER (
           PARTITION BY e.vec_id
           ORDER BY list_cosine_similarity(c.ce::DOUBLE[], e.embedding::DOUBLE[]) DESC, c.c
         ) AS rn
  FROM embeddings e CROSS JOIN cent c
), bucket AS (
  SELECT vec_id, embedding, c AS b FROM asg WHERE rn = 1
), q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings
  WHERE vec_id IN (0,1,2)
), probe AS (
  SELECT q.query_id, c.c,
         row_number() OVER (
           PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(c.ce::DOUBLE[], q.qe::DOUBLE[]) DESC, c.c
         ) AS rn
  FROM q CROSS JOIN cent c
), sims AS (
  SELECT q.query_id, b.vec_id,
         list_cosine_similarity(q.qe::DOUBLE[], b.embedding::DOUBLE[]) AS sim
  FROM q JOIN probe p ON p.query_id = q.query_id AND p.rn <= 4
         JOIN bucket b ON b.b = p.c
  WHERE b.vec_id <> q.query_id
)
SELECT query_id, vec_id,
       row_number() OVER (PARTITION BY query_id
                          ORDER BY sim DESC, vec_id)::BIGINT AS rank,
       CAST(floor(sim*10000 + 0.5) AS BIGINT) AS sim_x1e4
FROM sims QUALIFY rank <= 5 ORDER BY query_id, rank
""")
def q_ann_ivf_topk(sf_dir: str) -> pa.Table:
    """IVF ANN approximate probe path (nprobe=4 of 8), oracle-checked
    end-to-end: seeded centroids (centroid c = c-th lowest vec_id's
    vector, no Lloyd iterations) make assignment + probing closed-form,
    so the SQL oracle reproduces the exact approximate result — bucket
    layout, pruned probe reads and top-k ranking all hash-verified.
    The k-means-trained path is covered by ann_ivf_exact + tests."""
    return _ivf_query_table(sf_dir, nprobe=4, seed_centroids=True)


# filtered IVF probe path: ann_ivf_topk's seeded-centroid probe
# with the label predicate applied INSIDE the probed buckets, plus
# the engine's doubling-nprobe escalation rule — probe width 4,
# widen to all 8 iff fewer than k=5 rows survive the filter at 4
# (search_filtered, functions/similarity.py)
@query("""
WITH cent AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS c, embedding AS ce
  FROM (SELECT * FROM embeddings ORDER BY vec_id LIMIT 8)
), asg AS (
  SELECT e.vec_id, e.embedding, e.label, c.c,
         row_number() OVER (
           PARTITION BY e.vec_id
           ORDER BY list_cosine_similarity(c.ce::DOUBLE[], e.embedding::DOUBLE[]) DESC, c.c
         ) AS rn
  FROM embeddings e CROSS JOIN cent c
), bucket AS (
  SELECT vec_id, embedding, label, c AS b FROM asg WHERE rn = 1
), q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings
  WHERE vec_id IN (0,1,2)
), probe AS (
  SELECT q.query_id, c.c,
         row_number() OVER (
           PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(c.ce::DOUBLE[], q.qe::DOUBLE[]) DESC, c.c
         ) AS rn
  FROM q CROSS JOIN cent c
), cnt AS (
  SELECT q.query_id, count(b.vec_id) AS n4
  FROM q LEFT JOIN probe p ON p.query_id = q.query_id AND p.rn <= 4
         LEFT JOIN bucket b ON b.b = p.c
           AND b.vec_id <> q.query_id AND b.label = 1
  GROUP BY q.query_id
), sims AS (
  SELECT q.query_id, b.vec_id,
         list_cosine_similarity(q.qe::DOUBLE[], b.embedding::DOUBLE[]) AS sim
  FROM q JOIN cnt ON cnt.query_id = q.query_id
         JOIN probe p ON p.query_id = q.query_id
           AND p.rn <= CASE WHEN cnt.n4 >= 5 THEN 4 ELSE 8 END
         JOIN bucket b ON b.b = p.c
  WHERE b.vec_id <> q.query_id AND b.label = 1
)
SELECT query_id, vec_id,
       row_number() OVER (PARTITION BY query_id
                          ORDER BY sim DESC, vec_id)::BIGINT AS rank,
       CAST(floor(sim*10000 + 0.5) AS BIGINT) AS sim_x1e4
FROM sims QUALIFY rank <= 5 ORDER BY query_id, rank
""")
def q_ann_filtered_ivf(sf_dir: str) -> pa.Table:
    """Filtered vector search THROUGH the IVF index (the 100-TB shape
    — ``q_ann_filtered`` is the exact brute baseline): label = 1
    pushed into the probed buckets' parquet reads, doubling-nprobe
    escalation (4 → 8 of 8) until 5 survivors.  Seeded centroids make
    assignment + probing + the escalation rule closed-form, so the
    SQL oracle reproduces the approximate result exactly."""
    ivf = _get_ivf(sf_dir, num_centroids=8, seed_centroids=True,
                        keep_cols=["label"])
    tbl = read_table(sf_dir, "embeddings",
                     filters=[("vec_id", "in", list(ANN_QUERY_IDS))])
    by_id = dict(zip(tbl["vec_id"].to_pylist(),
                     tbl["embedding"].to_pylist()))
    out_q, out_v, out_r, out_s = [], [], [], []
    for qid in ANN_QUERY_IDS:
        vec = np.asarray(by_id[qid], np.float64)
        vids, sims = ivf.search_filtered(
            vec, k=5, filters=[("label", "==", 1)], nprobe=4,
            exclude_id=qid)
        for r, (v, s) in enumerate(zip(vids.tolist(), sims.tolist()), 1):
            out_q.append(qid)
            out_v.append(v)
            out_r.append(r)
            out_s.append(int(fixed_point(s)))
    return pa.table({
        "query_id": pa.array(out_q, pa.int64()),
        "vec_id": pa.array(out_v, pa.int64()),
        "rank": pa.array(out_r, pa.int64()),
        "sim_x1e4": pa.array(out_s, pa.int64()),
    })


# IVF probing every centroid == exact brute force: same oracle
@query("""
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings
  WHERE vec_id IN (0,1,2)
), sims AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]) AS sim
  FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.query_id
)
SELECT query_id, vec_id,
       row_number() OVER (PARTITION BY query_id
                          ORDER BY sim DESC, vec_id)::BIGINT AS rank,
       CAST(floor(sim*10000 + 0.5) AS BIGINT) AS sim_x1e4
FROM sims QUALIFY rank <= 5 ORDER BY query_id, rank
""")
def q_ann_ivf_exact(sf_dir: str) -> pa.Table:
    """IVF with nprobe == num_centroids degrades to exact brute force —
    DuckDB-checkable against the same cosine-top-k oracle."""
    return _ivf_query_table(sf_dir, nprobe=8)


# ALL-PAIRS exact cosine ≥ 0.4 — hash-checks hyperplane-LSH recall
# AND the exact cosine verify
@query("""
WITH sims AS (
  SELECT a.vec_id AS doc_a, b.vec_id AS doc_b,
         list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) AS sim
  FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
)
SELECT doc_a, doc_b,
       CAST(floor(sim*10000 + 0.5) AS BIGINT) AS sim_x1e4
FROM sims WHERE sim >= 0.4 ORDER BY doc_a, doc_b
""")
def q_embedding_near_dup(sf_dir: str) -> pa.Table:
    from ..functions.similarity import embedding_near_dups
    ds = read_ds(sf_dir, "embeddings")
    # testdata embeddings are near-orthogonal; 0.4 exercises the
    # pipeline. 64 hyperplane bands of 3 bits: collision p = 0.631³ =
    # 0.251 per band, miss odds per sim≥0.4 pair ≈ (1-0.251)⁶⁴ ≈ 9e-9 —
    # effectively exact at sf0.1's ~920 true pairs (32×4 bands missed
    # ~3 there: 0.842³² ≈ 4e-3/pair), so the banded output equals the
    # all-pairs exact SQL and the oracle hash-checks LSH recall +
    # cosine verify end-to-end
    return embedding_near_dups(ds, threshold=0.4, num_bands=64,
                               band_bits=3)


@query("""
WITH e AS (
  SELECT label::BIGINT AS label,
         list_transform(embedding,
           x -> CAST(floor(CAST(x AS DOUBLE) * 10000 + 0.5)
                     AS BIGINT)) AS q
  FROM embeddings
)
SELECT label, count(*)::BIGINT AS n,
       sum(q[1])::BIGINT AS dim0_sum_x1e4,
       sum(q[2])::BIGINT AS dim1_sum_x1e4,
       sum(q[3])::BIGINT AS dim2_sum_x1e4,
       sum(q[4])::BIGINT AS dim3_sum_x1e4,
       sum(list_aggregate(q, 'sum'))::BIGINT AS checksum_x1e4
FROM e GROUP BY 1 ORDER BY 1
""")
def q_embedding_centroid(sf_dir: str) -> pa.Table:
    """Grouped VECTOR aggregation: per-label element-wise embedding
    sums on the x1e4 grid (one np.add.at scatter per batch — exact
    integer sums, order-independent), merged as tiny per-label
    partials.  Output ships the first 4 dims + an all-dims checksum;
    the oracle recomputes both with DuckDB list lambdas.  Floats
    promote to float64 BEFORE quantization on both sides."""
    from ..functions.boilerplate import _group_counts
    ds = read_ds(sf_dir, "embeddings", columns=["embedding", "label"])

    def partial(t: pa.Table) -> pa.Table:
        arr = t["embedding"]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        off = arr.offsets.to_numpy(zero_copy_only=False)
        n = len(arr)
        d = int(off[1] - off[0]) if n else 0
        assert n == 0 or (np.diff(off) == d).all(), "ragged vectors"
        flat = arr.values.to_numpy(zero_copy_only=False)
        fx = fixed_point(flat.astype(np.float64)).reshape(n, d)
        labs = t["label"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        ulab, codes = np.unique(labs, return_inverse=True)
        acc = np.zeros((len(ulab), d), np.int64)
        np.add.at(acc, codes, fx)
        cnt = np.bincount(codes, minlength=len(ulab))
        return pa.table({
            "label": pa.array(ulab, pa.int64()),
            "n": pa.array(cnt.astype(np.int64), pa.int64()),
            "d0": pa.array(acc[:, 0], pa.int64()),
            "d1": pa.array(acc[:, 1], pa.int64()),
            "d2": pa.array(acc[:, 2], pa.int64()),
            "d3": pa.array(acc[:, 3], pa.int64()),
            "ck": pa.array(acc.sum(axis=1), pa.int64())})

    out = ds.map_batches(partial, batch_format="pyarrow")
    t = _collect(out)
    schema = pa.schema([
        ("label", pa.int64()), ("n", pa.int64()),
        ("dim0_sum_x1e4", pa.int64()), ("dim1_sum_x1e4", pa.int64()),
        ("dim2_sum_x1e4", pa.int64()), ("dim3_sum_x1e4", pa.int64()),
        ("checksum_x1e4", pa.int64())])
    if t.num_rows == 0:
        return schema.empty_table()
    m = _group_counts(t, ["label"],
                      [("n", "sum"), ("d0", "sum"), ("d1", "sum"),
                       ("d2", "sum"), ("d3", "sum"), ("ck", "sum")])
    res = pa.table({"label": m["label"],
                    "n": m["n_sum"].cast(pa.int64()),
                    "dim0_sum_x1e4": m["d0_sum"].cast(pa.int64()),
                    "dim1_sum_x1e4": m["d1_sum"].cast(pa.int64()),
                    "dim2_sum_x1e4": m["d2_sum"].cast(pa.int64()),
                    "dim3_sum_x1e4": m["d3_sum"].cast(pa.int64()),
                    "checksum_x1e4": m["ck_sum"].cast(pa.int64())})
    return res.take(pc.sort_indices(res, sort_keys=[
        ("label", "ascending")])).cast(schema)


@query("""
WITH q AS (
  SELECT vec_id,
    127.0 / greatest(list_max(list_transform(embedding, x -> abs(x))),
                     1e-30) AS scale,
    embedding
  FROM embeddings
), qq AS (
  SELECT vec_id, scale,
    list_transform(embedding, x -> floor(x * scale + 0.5)) AS qvals
  FROM q)
SELECT vec_id,
  CAST(list_sum(qvals) AS BIGINT) AS qsum,
  CAST(list_min(qvals) AS BIGINT) AS qmin,
  CAST(list_max(qvals) AS BIGINT) AS qmax,
  CAST(floor(scale * 1e8 + 0.5) AS BIGINT) AS scale_x1e8
FROM qq
""")
def q_quantize_embeddings(sf_dir: str, concurrency=None) -> pa.Table:
    from ..functions.similarity import QuantizeInt8
    ds = read_ds(sf_dir, "embeddings")
    out = ds.map_batches(QuantizeInt8, batch_format="pyarrow",
                         concurrency=_conc(concurrency))
    return _collect(out).select(
        ["vec_id", "qsum", "qmin", "qmax", "scale_x1e8"])


# centroids rounded to 1e-6 on BOTH sides so differing avg()
# accumulation orders cannot flip the compared fixed-point output
@query("""
WITH u AS (
  SELECT label, unnest(embedding) AS v,
         generate_subscripts(embedding, 1) AS i
  FROM embeddings
), c AS (
  SELECT label, i, floor(avg(v) / 1e-6 + 0.5) * 1e-6 AS cv
  FROM u GROUP BY label, i
), cl AS (
  SELECT label, list(cv ORDER BY i) AS cent FROM c GROUP BY label
), sims AS (
  SELECT e.vec_id, cl.label,
         list_cosine_similarity(e.embedding::DOUBLE[], cl.cent::DOUBLE[]) AS sim
  FROM embeddings e CROSS JOIN cl
)
SELECT vec_id, label::BIGINT AS pred_label,
       CAST(floor(sim * 10000 + 0.5) AS BIGINT) AS sim_x1e4
FROM sims
QUALIFY row_number() OVER (PARTITION BY vec_id
                           ORDER BY sim DESC, label) = 1
""")
def q_label_classify(sf_dir: str) -> pa.Table:
    """Nearest-centroid classification over the labeled embeddings."""
    from ..functions.similarity import centroid_classify
    ds = read_ds(sf_dir, "embeddings")
    return centroid_classify(ds)


# exact kNN graph: quadratic self-join ground truth (documented
# quadratic-oracle family — the ENGINE is block-bounded, the
# oracle is O(n²) by definition of exactness)
@query("""
WITH sims AS (
  SELECT a.vec_id AS vec_id, b.vec_id AS nbr_id,
         list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) AS sim
  FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
)
SELECT vec_id, nbr_id,
       row_number() OVER (PARTITION BY vec_id
                          ORDER BY sim DESC, nbr_id)::BIGINT AS rank,
       CAST(floor(sim*10000 + 0.5) AS BIGINT) AS sim_x1e4
FROM sims QUALIFY rank <= 3 ORDER BY vec_id, rank
""")
def q_knn_graph(sf_dir: str) -> pa.Table:
    """Exact cosine 3-NN graph over the embedding corpus via the
    block-tournament kNN join (functions/knn.py knn_join): P
    object-store blocks → P(P+1)/2 bounded pair tasks emitting ≤k
    candidates per vector per side, per-vector merge through the
    keyed disk shuffle.  The oracle is the quadratic self-join with
    list_cosine_similarity (exact-kNN ground truth)."""
    from ..functions.knn import knn_join
    ds = read_ds(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    tbl = _collect(knn_join(ds.repartition(4), k=3))
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[
        ("vec_id", "ascending"), ("rank", "ascending")]))
    return tbl.select(["vec_id", "nbr_id", "rank", "sim_x1e4"]).cast(
        pa.schema([("vec_id", pa.int64()), ("nbr_id", pa.int64()),
                   ("rank", pa.int64()), ("sim_x1e4", pa.int64())]))


# SemDeDup: same seeded-centroid assignment CTE as ann_ivf_topk,
# then an earlier-id same-cluster neighbor EXISTS at the x1e4
# threshold
@query("""
WITH cent AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS c, embedding AS ce
  FROM (SELECT * FROM embeddings ORDER BY vec_id LIMIT 8)
), asg AS (
  SELECT e.vec_id, e.embedding, c.c,
         row_number() OVER (
           PARTITION BY e.vec_id
           ORDER BY list_cosine_similarity(c.ce::DOUBLE[], e.embedding::DOUBLE[]) DESC, c.c
         ) AS rn
  FROM embeddings e CROSS JOIN cent c
), b AS (
  SELECT vec_id, embedding, c FROM asg WHERE rn = 1
), dup AS (
  SELECT DISTINCT x.vec_id
  FROM b x JOIN b y ON x.c = y.c AND y.vec_id < x.vec_id
  WHERE CAST(floor(list_cosine_similarity(x.embedding::DOUBLE[],
                                           y.embedding::DOUBLE[])
                   * 10000 + 0.5) AS BIGINT) >= 4000
)
SELECT b.vec_id, b.c::BIGINT AS cluster,
       (dup.vec_id IS NULL) AS keep
FROM b LEFT JOIN dup ON dup.vec_id = b.vec_id
ORDER BY b.vec_id
""")
def q_semdedup(sf_dir: str) -> pa.Table:
    """SemDeDup (Abbas et al. 2023): seeded-centroid cluster
    assignment (c-th lowest vec_id — the IVF index's oracle-checked
    convention) + within-cluster earlier-id neighbor drop at
    cos ≥ 0.4 on the x1e4 grid (functions/knn.py semdedup).  Emits
    EVERY row's (cluster, keep) so assignment and verdict both
    hash-check."""
    from ..functions.knn import semdedup
    ds = read_ds(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    tbl = _collect(semdedup(ds, num_clusters=8, tau_x1e4=4000))
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[
        ("vec_id", "ascending")]))
    return tbl.select(["vec_id", "cluster", "keep"]).cast(pa.schema([
        ("vec_id", pa.int64()), ("cluster", pa.int64()),
        ("keep", pa.bool_())]))


# IVF absorb: centroids from the BASE subset (vec_id%5<>0), but
# assignment + probing over the UNION — exactly what base+wave
# bucket reads produce with stateless argmax-cosine assignment
@query("""
WITH cent AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS c, embedding AS ce
  FROM (SELECT * FROM embeddings WHERE vec_id % 5 <> 0
        ORDER BY vec_id LIMIT 8)
), asg AS (
  SELECT e.vec_id, e.embedding, c.c,
         row_number() OVER (
           PARTITION BY e.vec_id
           ORDER BY list_cosine_similarity(c.ce::DOUBLE[], e.embedding::DOUBLE[]) DESC, c.c
         ) AS rn
  FROM embeddings e CROSS JOIN cent c
), bucket AS (
  SELECT vec_id, embedding, c AS b FROM asg WHERE rn = 1
), q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings
  WHERE vec_id IN (0,1,2)
), probe AS (
  SELECT q.query_id, c.c,
         row_number() OVER (
           PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(c.ce::DOUBLE[], q.qe::DOUBLE[]) DESC, c.c
         ) AS rn
  FROM q CROSS JOIN cent c
), sims AS (
  SELECT q.query_id, b.vec_id,
         list_cosine_similarity(q.qe::DOUBLE[], b.embedding::DOUBLE[]) AS sim
  FROM q JOIN probe p ON p.query_id = q.query_id AND p.rn <= 4
         JOIN bucket b ON b.b = p.c
  WHERE b.vec_id <> q.query_id
)
SELECT query_id, vec_id,
       row_number() OVER (PARTITION BY query_id
                          ORDER BY sim DESC, vec_id)::BIGINT AS rank,
       CAST(floor(sim*10000 + 0.5) AS BIGINT) AS sim_x1e4
FROM sims QUALIFY rank <= 5 ORDER BY query_id, rank
""")
def q_ann_ivf_absorb(sf_dir: str) -> pa.Table:
    """Incremental vector ingest (IVFIndex.absorb): the base index is
    built over ``vec_id % 5 != 0`` with seeded centroids (c-th lowest
    base vec_id — closed-form), the remaining vectors absorb as an
    immutable content-addressed wave, and the nprobe=4 search runs
    over base + wave.  The SQL oracle reproduces the whole thing:
    centroids from the base subset, assignment + probing over the
    UNION — stale (base-only) buckets would drop every absorbed
    neighbor and fail the hash."""
    from ..functions.similarity import IVFIndex
    src = os.path.join(sf_dir, "embeddings.parquet")
    name = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    key = _corpus_key(sf_dir, src)
    path = os.path.join("/tmp", "vfsray_cache",
                        f"ivfabs_{name}_{key}_c8s")
    full = read_ds(sf_dir, "embeddings")

    def part(keep_mod0: bool):
        def f(t: pa.Table) -> pa.Table:
            v = t["vec_id"].to_numpy(zero_copy_only=False)
            m = (v % 5 == 0) if keep_mod0 else (v % 5 != 0)
            return t.filter(pa.array(m))
        return f

    if not os.path.exists(os.path.join(path, "centroids.npy")):
        IVFIndex.build(full.map_batches(part(False),
                                        batch_format="pyarrow",
                                        zero_copy_batch=True),
                       path, num_centroids=8, seed_centroids=True)
    ivf = IVFIndex(path)
    # content-addressed: re-runs of an already-absorbed snapshot no-op
    ivf.absorb(full.map_batches(part(True), batch_format="pyarrow",
                                zero_copy_batch=True))
    tbl = read_table(sf_dir, "embeddings",
                     filters=[("vec_id", "in", list(ANN_QUERY_IDS))])
    by_id = dict(zip(tbl["vec_id"].to_pylist(),
                     tbl["embedding"].to_pylist()))
    out_q, out_v, out_r, out_s = [], [], [], []
    for qid in ANN_QUERY_IDS:
        vec = np.asarray(by_id[qid], np.float64)
        vids, sims = ivf.search(vec, k=5, nprobe=4, exclude_id=qid)
        for r, (v, s) in enumerate(zip(vids.tolist(), sims.tolist()), 1):
            out_q.append(qid)
            out_v.append(v)
            out_r.append(r)
            out_s.append(int(fixed_point(s)))
    return pa.table({
        "query_id": pa.array(out_q, pa.int64()),
        "vec_id": pa.array(out_v, pa.int64()),
        "rank": pa.array(out_r, pa.int64()),
        "sim_x1e4": pa.array(out_s, pa.int64()),
    })


@query("""
WITH e AS (
  SELECT vec_id,
         list_transform(embedding,
           x -> CAST(floor(CAST(x AS DOUBLE) * 10000 + 0.5)
                     AS BIGINT)) AS q
  FROM embeddings
), u AS (
  SELECT vec_id, gs AS i, q[gs] AS v
  FROM e, generate_series(1, 64) AS t(gs)
)
SELECT a.i::BIGINT AS i, b.i::BIGINT AS j,
       sum((a.v::HUGEINT) * b.v)::BIGINT AS sum_x1e8
FROM u a JOIN u b ON a.vec_id = b.vec_id AND b.i >= a.i
GROUP BY 1, 2 ORDER BY 1, 2
""")
def q_embedding_gram(sf_dir: str) -> pa.Table:
    """Distributed Gram matrix of the embedding corpus — the
    covariance/PCA building block (X^T X over all vectors): each batch
    contributes one d×d integer matmul on the x1e4 grid, partials are
    d(d+1)/2-row triangles REGARDLESS of batch size, and the merge is
    one hash-sum over 2080 keys — a trillion vectors move only
    tasks × 2080 rows.  Integer products keep the oracle's HUGEINT
    self-join bit-identical.  Reference analog: none (vfs-index has no
    vector surface); standard one-pass second-moment accumulation."""
    from ..functions.similarity import gram_matrix
    ds = read_ds(sf_dir, "embeddings", columns=["embedding"])
    out = gram_matrix(ds, vec_col="embedding", dim=64)
    schema = pa.schema([("i", pa.int64()), ("j", pa.int64()),
                        ("sum_x1e8", pa.int64())])
    if out is None:
        return schema.empty_table()
    t = pa.table({"i": out["i"], "j": out["j"],
                  "sum_x1e8": out["s_sum"]}).cast(schema)
    return t.take(pc.sort_indices(t, sort_keys=[("i", "ascending"),
                                                ("j", "ascending")]))


@query("""
WITH e AS (
  SELECT vec_id,
         list_transform(embedding,
           x -> CAST(floor(CAST(x AS DOUBLE) * 10000 + 0.5)
                     AS BIGINT)) AS q
  FROM embeddings
), seeds AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS c, q AS cq
  FROM e ORDER BY vec_id LIMIT 8
), u AS (
  SELECT vec_id, gs AS dim, q[gs] AS v
  FROM e, generate_series(1, 64) t(gs)
), su AS (
  SELECT c, gs AS dim, cq[gs] AS cv
  FROM seeds, generate_series(1, 64) t(gs)
), dist AS (
  SELECT u.vec_id, su.c, sum((u.v - su.cv) * (u.v - su.cv)) AS d2
  FROM u JOIN su USING (dim) GROUP BY 1, 2
), asg AS (
  SELECT vec_id, c FROM (
    SELECT vec_id, c,
           row_number() OVER (PARTITION BY vec_id
                              ORDER BY d2, c) AS rn
    FROM dist)
  WHERE rn = 1
)
SELECT a.c::BIGINT AS cluster, u.dim::BIGINT AS dim,
       count(*)::BIGINT AS n, sum(u.v)::BIGINT AS sum_x1e4
FROM asg a JOIN u USING (vec_id) GROUP BY 1, 2 ORDER BY 1, 2
""")
def q_kmeans_step(sf_dir: str) -> pa.Table:
    """One exact Lloyd iteration (E-step assignment + M-step sums)
    over the embedding corpus from deterministic seeds (the k=8
    smallest vec_ids): squared-L2 on the x1e4 integer grid via
    ||q||² + ||c||² − 2·q·cᵀ (int64 matmul, exact), tie → smallest
    centroid; per-batch partials are (cluster, dim) count/sum rows —
    fixed k·d = 512 rows per batch regardless of batch size, merged by
    one hash sum.  This is the building block the IVF index's
    distributed k-means (similarity.py) iterates; exposed as a query
    so the assignment arithmetic is oracle-checked end-to-end."""
    from ..functions.similarity import kmeans_iteration
    ds = read_ds(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = kmeans_iteration(ds, id_col="vec_id", vec_col="embedding",
                           k=8, dim=64)
    schema = pa.schema([("cluster", pa.int64()), ("dim", pa.int64()),
                        ("n", pa.int64()), ("sum_x1e4", pa.int64())])
    if out is None:
        return schema.empty_table()
    t = pa.table({"cluster": out["cluster"], "dim": out["dim"],
                  "n": out["n_sum"], "sum_x1e4": out["s_sum"]}
                 ).cast(schema)
    return t.take(pc.sort_indices(t, sort_keys=[
        ("cluster", "ascending"), ("dim", "ascending")]))


@query("""
WITH e AS (
  SELECT vec_id,
         list_transform(embedding,
           x -> CAST(floor(CAST(x AS DOUBLE) * 10000 + 0.5)
                     AS BIGINT)) AS q
  FROM embeddings
), seeds AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS c, q AS cq
  FROM e ORDER BY vec_id LIMIT 16
), u AS (
  SELECT vec_id, (gs - 1) // 8 AS sub, gs AS dim, q[gs] AS v
  FROM e, generate_series(1, 64) t(gs)
), su AS (
  SELECT c, gs AS dim, cq[gs] AS cv
  FROM seeds, generate_series(1, 64) t(gs)
), dist AS (
  SELECT u.vec_id, u.sub, su.c,
         sum((u.v - su.cv) * (u.v - su.cv)) AS d2
  FROM u JOIN su USING (dim) GROUP BY 1, 2, 3
)
SELECT vec_id, sub::BIGINT AS sub, c::BIGINT AS code FROM (
  SELECT vec_id, sub, c,
         row_number() OVER (PARTITION BY vec_id, sub
                            ORDER BY d2, c) AS rn
  FROM dist)
WHERE rn = 1 ORDER BY vec_id, sub
""")
def q_pq_codes(sf_dir: str) -> pa.Table:
    """Product-quantization encoding of the embedding corpus — the
    vector-compression step an IVF-PQ index runs after bucketing: the
    64-dim grid vector splits into 8 subspaces of 8 dims; each
    subvector maps to its nearest of 16 deterministic seed centroids
    (the 16 smallest vec_ids, as in kmeans_step) via the exact int64
    ||q||²+||c||²−2qc form per subspace — ties to the smallest code.
    8 bytes/vector instead of 256.  Output long-form (vec_id, sub,
    code)."""
    from ..functions.similarity import pq_encode
    ds = read_ds(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = _collect(pq_encode(ds, id_col="vec_id", vec_col="embedding",
                             subs=8, k=16, dim=64))
    schema = pa.schema([("vec_id", pa.int64()), ("sub", pa.int64()),
                        ("code", pa.int64())])
    if out.num_rows == 0:
        return schema.empty_table()
    return out.take(pc.sort_indices(out, sort_keys=[
        ("vec_id", "ascending"), ("sub", "ascending")])).cast(schema)


@query("""
WITH q AS (
  SELECT embedding AS qe FROM embeddings WHERE vec_id IN (0, 1, 2)
), sims AS (
  SELECT e.vec_id,
         max(list_cosine_similarity(q.qe::DOUBLE[],
                                    e.embedding::DOUBLE[])) AS sim
  FROM q CROSS JOIN embeddings e
  WHERE e.vec_id NOT IN (0, 1, 2)
  GROUP BY 1
)
SELECT vec_id,
       row_number() OVER (ORDER BY sim DESC, vec_id)::BIGINT AS rank,
       CAST(floor(sim * 10000 + 0.5) AS BIGINT) AS sim_x1e4
FROM sims QUALIFY rank <= 10 ORDER BY rank
""")
def q_multi_vector_search(sf_dir: str) -> pa.Table:
    """Late-interaction (max-pool) retrieval: a doc scores the MAX
    cosine over query vectors 0/1/2, so a doc strong on any one aspect
    of a multi-part query surfaces (functions/similarity.py
    multi_vector_topk — same broadcast + per-batch matmul shape as
    ann_cosine_topk; max-pool adds no accumulation, so fp parity with
    the oracle is per-pair)."""
    from ..functions.similarity import multi_vector_topk
    ds = read_ds(sf_dir, "embeddings")
    return multi_vector_topk(ds, [0, 1, 2], k=10)
