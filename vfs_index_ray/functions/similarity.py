"""Similarity search over an embedding column (list<float>).

- brute-force cosine top-k: numpy matmul per batch against a broadcast
  query matrix (``ray.put`` once, read per actor) — the exact baseline;
- embedding cosine near-dup pairs (threshold) on the same kernel;
- LSH-bucketed variant (random hyperplane signs) as the scale path:
  candidate buckets via sign-pattern groupby, exact rescore within.

All scoring is float64 with fixed reduction order so results are
deterministic and reproducible against the DuckDB
``list_cosine_similarity`` oracle (fixed-point compare).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from . import collect_arrow


def _embedding_matrix(batch: pa.Table, col: str) -> np.ndarray:
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, len(flat) // n) if n else flat.reshape(0, 0)


class BruteForceTopK:
    """Per-batch local top-k per query vs a broadcast query matrix.

    Output: (query_id, vec_id, sim) — at most k rows per query per batch;
    the global reduce (concat + per-query top-k) is tiny."""

    def __init__(self, queries_ref, k: int = 5, vec_col: str = "embedding",
                 id_col: str = "vec_id", exclude_self: bool = True):
        q = ray.get(queries_ref) if not isinstance(queries_ref, tuple) \
            else queries_ref
        self.qids, qmat = q
        qn = np.linalg.norm(qmat, axis=1, keepdims=True)
        self.qmat = qmat / np.maximum(qn, 1e-30)
        self.k = k
        self.vec_col = vec_col
        self.id_col = id_col
        self.exclude_self = exclude_self

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _embedding_matrix(batch, self.vec_col)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        if mat.shape[0] == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        mat = mat / np.maximum(norms, 1e-30)
        sims = self.qmat @ mat.T                      # (nq, nbatch)
        q_out, v_out, s_out = [], [], []
        for qi, qid in enumerate(self.qids):
            s = sims[qi]
            mask = ids != qid if self.exclude_self else np.ones(len(ids), bool)
            idx = np.flatnonzero(mask)
            if len(idx) == 0:
                continue
            kk = min(self.k, len(idx))
            sub = s[idx]
            top = idx[np.lexsort((ids[idx], -sub))[:kk]]
            q_out.append(np.full(kk, qid, np.int64))
            v_out.append(ids[top].astype(np.int64))
            s_out.append(s[top])
        if not q_out:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(q_out), pa.int64()),
            "vec_id": pa.array(np.concatenate(v_out), pa.int64()),
            "sim": pa.array(np.concatenate(s_out), pa.float64()),
        })


def _ann_brute_batch(batch: pa.Table, *, queries_ref, k, vec_col, id_col,
                     exclude_self) -> pa.Table:
    """Per-batch brute-force top-k as a stateless task: construction
    cost is one zero-copy broadcast read + a tiny normalization."""
    return BruteForceTopK(queries_ref, k=k, vec_col=vec_col,
                          id_col=id_col, exclude_self=exclude_self)(batch)


def ann_cosine_topk(ds, query_ids: list[int], k: int = 5,
                    vec_col: str = "embedding", id_col: str = "vec_id",
                    exclude_self: bool = True,
                    concurrency: int | tuple | None = None,
                    query_ds=None) -> pa.Table:
    """Exact cosine top-k for the given query vec_ids over the dataset.

    Query vectors are gathered once, broadcast via ``ray.put``; each batch
    computes a local top-k (matmul); the driver merges per-query partials.
    Deterministic ties: sim desc, vec_id asc.
    Returns (query_id, vec_id, rank, sim_x1e4).

    ``query_ds``: where to gather the query vectors (defaults to
    ``ds``) — pass the UNfiltered dataset when ``ds`` is
    predicate-filtered (filtered vector search) so query ids outside
    the filter still resolve.
    """
    import pyarrow.compute as pc

    qid_arr = pa.array(query_ids, pa.int64())

    def grab(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[id_col], value_set=qid_arr))

    qsrc = ds if query_ds is None else query_ds
    qrows = qsrc.map_batches(grab, batch_format="pyarrow").take_all()
    qrows.sort(key=lambda r: query_ids.index(r[id_col]))
    qmat = np.array([r[vec_col] for r in qrows], np.float64)
    qids = [r[id_col] for r in qrows]
    ref = ray.put((qids, qmat))

    # stateless TASKS, not an actor pool: the per-batch state (ray.get
    # of the broadcast ref = zero-copy local object-store hit, plus
    # normalizing a k×dim query matrix) is microseconds, so tasks get
    # full elastic parallelism with no pool-startup churn and no fixed
    # actor cap (the round-3 code pinned concurrency=2 actors — a
    # starvation cap at scale; measured A/B in BASELINE.md).
    # concurrency=None → Ray schedules tasks across the cluster; an int
    # caps concurrent tasks.
    kw = {} if concurrency is None else {"concurrency": concurrency}
    partials = ds.map_batches(
        _ann_brute_batch, fn_kwargs=dict(
            queries_ref=ref, k=k, vec_col=vec_col, id_col=id_col,
            exclude_self=exclude_self),
        batch_format="pyarrow", **kw).take_all()
    if not partials:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "vec_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "sim_x1e4": pa.array([], pa.int64())})
    qa = np.array([r["query_id"] for r in partials], np.int64)
    va = np.array([r["vec_id"] for r in partials], np.int64)
    sa = np.array([r["sim"] for r in partials], np.float64)
    out_q, out_v, out_r, out_s = [], [], [], []
    for qid in qids:
        m = qa == qid
        order = np.lexsort((va[m], -sa[m]))[:k]
        out_q.extend([qid] * len(order))
        out_v.extend(va[m][order].tolist())
        out_r.extend(range(1, len(order) + 1))
        out_s.extend(np.floor(sa[m][order] * 10000 + 0.5
                              ).astype(np.int64).tolist())
    return pa.table({
        "query_id": pa.array(out_q, pa.int64()),
        "vec_id": pa.array(out_v, pa.int64()),
        "rank": pa.array(out_r, pa.int64()),
        "sim_x1e4": pa.array(out_s, pa.int64()),
    })


class IVFIndex:
    """IVF (inverted-file) ANN index — the scale path for similarity
    search: k-means centroids partition the vectors; a query probes only
    the ``nprobe`` nearest centroids' buckets (pruned parquet read), then
    scores exactly within them. ``nprobe == num_centroids`` degrades to
    exact brute force. Deterministic: seeded centroid init, fixed Lloyd
    iterations, ties by vec_id.

    Layout: ``dir/centroids.npy`` + ``dir/buckets/bucket=N/*.parquet``
    (vec_id, embedding) — one hive partition per centroid, written by a
    distributed map_batches assignment pass, so a probe reads only its
    buckets and a failed build can be re-run atomically.
    """

    @staticmethod
    def _assign_fn(cent_ref, vec_col: str, id_col: str, extra: list):
        """The shared build/absorb assignment closure: normalize a
        batch, argmax-cosine against the (broadcast) centroids, emit
        the hive ``bucket`` column."""
        import ray

        def assign_bucket(t: pa.Table) -> pa.Table:
            cm = ray.get(cent_ref)
            mat = _embedding_matrix(t, vec_col)
            if mat.shape[0] == 0:
                cols = {id_col: pa.array([], pa.int64()),
                        vec_col: pa.array([], pa.list_(pa.float64()))}
                for c in extra:
                    cols[c] = t[c]
                cols["bucket"] = pa.array([], pa.int32())
                return pa.table(cols)
            mat = IVFIndex._normalize(mat)
            b = np.argmax(mat @ cm.T, axis=1).astype(np.int32)
            flat = mat.ravel()
            offs = np.arange(0, (len(b) + 1) * mat.shape[1],
                             mat.shape[1], dtype=np.int32)
            vec = pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                           pa.array(flat, pa.float64()))
            cols = {id_col: t[id_col].cast(pa.int64()), vec_col: vec}
            for c in extra:
                cols[c] = t[c]
            cols["bucket"] = pa.array(b, pa.int32())
            return pa.table(cols)

        return assign_bucket

    def __init__(self, path: str, cache_bytes: int = 0):
        """``cache_bytes`` > 0 turns on a byte-capped LRU of DECODED
        buckets (ids + float64 matrix + keep_cols metadata) — the
        serving shape: a resident replica pays the parquet read +
        decode once per bucket it probes, then every later probe is a
        pure matmul.  Filters are evaluated in memory over the cached
        metadata with ``pq.filters_to_expression`` — the exact
        semantics parquet applies on the disk path, so cached and
        uncached results are bit-identical.  At 100-TB scale a replica
        caches its hot probe set, never the corpus: eviction is
        strictly by bytes, least-recently-probed first."""
        self.path = path
        self.centroids = np.load(os.path.join(path, "centroids.npy"))
        self.cache_bytes = int(cache_bytes)
        from collections import OrderedDict
        self._cache: OrderedDict[int, tuple] = OrderedDict()
        self._cache_used = 0
        # (bucket, repr(filters)) -> row selection, for repeated
        # identical predicates (the common serving case); entry-capped
        # LRU — selections are tiny (int64 row indices)
        self._filter_cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._filter_cache_max = 256
        self._waves = self._list_waves()

    def _list_waves(self) -> list[str]:
        """Committed absorb waves, name-sorted (deterministic read
        order; results are order-independent anyway — top-k ties break
        on vec_id).  Waves recorded in ``buckets/_compacted.json`` are
        already folded into the base tree and are ignored (they exist
        on disk only if a compact crashed between publish and wave
        deletion — re-reading them would double-count rows).  A crash
        in compact's publish gap leaves ``.old.buckets``; restore it."""
        import json
        base = os.path.join(self.path, "buckets")
        old = os.path.join(self.path, ".old.buckets")
        if not os.path.isdir(base) and os.path.isdir(old):
            os.replace(old, base)  # interrupted compact publish
        folded: set[str] = set()
        man = os.path.join(base, "_compacted.json")
        if os.path.exists(man):
            with open(man) as f:
                folded = set(json.load(f)["waves"])
        d = os.path.join(self.path, "waves")
        if not os.path.isdir(d):
            return []
        return [os.path.join(d, n) for n in sorted(os.listdir(d))
                if n.startswith("wave=") and n not in folded]

    def _bucket_dirs(self, c: int) -> list[str]:
        """Every committed hive dir holding bucket ``c``'s rows: the
        base build plus each absorb wave."""
        out = []
        base = os.path.join(self.path, "buckets", f"bucket={c}")
        if os.path.isdir(base):
            out.append(base)
        for w in self._waves:
            d = os.path.join(w, f"bucket={c}")
            if os.path.isdir(d):
                out.append(d)
        return out

    def _bucket_resident(self, c: int):
        """(ids, mat, meta) for one bucket via the LRU, or None if the
        bucket is empty/absent. meta carries keep_cols + a ``_row``
        index so a filter can subset ids/mat consistently."""
        import pyarrow.parquet as pq
        c = int(c)
        ent = self._cache.get(c)
        if ent is not None:
            self._cache.move_to_end(c)
            return ent[0]
        dirs = self._bucket_dirs(c)
        if not dirs:
            payload, nbytes = None, 64
        else:
            tbl = pa.concat_tables(
                [pq.read_table(d, use_threads=False) for d in dirs]
            ).combine_chunks()
            ids = tbl["vec_id"].to_numpy(zero_copy_only=False
                                         ).astype(np.int64)
            if len(ids) == 0:
                payload, nbytes = None, 64
            else:
                flat = tbl["embedding"].combine_chunks().values \
                    .to_numpy(zero_copy_only=False).astype(np.float64)
                mat = flat.reshape(len(ids), -1)
                meta = tbl.drop_columns(["embedding"]).append_column(
                    "_row", pa.array(np.arange(len(ids)), pa.int64()))
                nbytes = mat.nbytes + ids.nbytes + meta.nbytes
                payload = (ids, mat, meta)
        self._cache[c] = (payload, nbytes)
        self._cache_used += nbytes
        while self._cache_used > self.cache_bytes and len(self._cache) > 1:
            _, (_, old_bytes) = self._cache.popitem(last=False)
            self._cache_used -= old_bytes
        return payload

    @staticmethod
    def _normalize(mat: np.ndarray) -> np.ndarray:
        return mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True),
                                1e-30)

    @classmethod
    def _training_sample(cls, ds, sample: int, vec_col: str,
                         id_col: str) -> np.ndarray:
        """Deterministic bounded training sample: each batch keeps its
        ``sample`` lowest vec_ids (local top-k), the driver merges —
        ≤ sample rows per block ever reach the driver."""

        def local_lowest(t: pa.Table) -> pa.Table:
            ids = t[id_col].to_numpy(zero_copy_only=False)
            keep = np.argsort(ids, kind="stable")[:sample]
            return t.select([id_col, vec_col]).take(np.sort(keep))

        rows = ds.map_batches(local_lowest,
                              batch_format="pyarrow").take_all()
        rows.sort(key=lambda r: r[id_col])
        rows = rows[:sample]
        return cls._normalize(np.array([r[vec_col] for r in rows],
                                       np.float64))

    @classmethod
    def build(cls, ds, path: str, *, num_centroids: int = 16,
              sample: int = 4096, iters: int = 5, seed: int = 11,
              vec_col: str = "embedding", id_col: str = "vec_id",
              seed_centroids: bool = False,
              keep_cols: list[str] | None = None) -> "IVFIndex":
        """Distributed build: centroids are trained on a bounded sample
        (driver k-means — the sample is small by construction), then
        every vector is assigned and written via map_batches +
        hive-partitioned write_parquet. No full-table materialization
        anywhere; the assignment pass streams.

        ``seed_centroids=True`` skips k-means entirely: centroid ``c``
        is the (normalized) vector of the c-th lowest ``id_col`` — a
        closed-form centroid rule that plain SQL can reproduce, making
        the APPROXIMATE nprobe<C probe path oracle-checkable end-to-end
        (assignment and probing are argmax-cosine either way; only the
        centroid training differs).

        ``keep_cols``: metadata columns carried verbatim into the
        bucket files — the substrate for FILTERED vector search
        (``search_filtered`` pushes its predicate into the probed
        buckets' parquet reads instead of scanning the corpus)."""
        import shutil

        import ray

        os.makedirs(path, exist_ok=True)
        if seed_centroids:
            # c-th lowest id, already normalized + id-ordered
            cent = cls._training_sample(ds, num_centroids, vec_col,
                                        id_col)
        else:
            train = cls._training_sample(ds, sample, vec_col, id_col)
            rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
            cent = train[rng.choice(len(train),
                                    min(num_centroids, len(train)),
                                    replace=False)]
            for _ in range(iters):  # spherical k-means (cosine)
                assign = np.argmax(train @ cent.T, axis=1)
                for c in range(len(cent)):
                    m = assign == c
                    if m.any():
                        v = train[m].mean(axis=0)
                        n = np.linalg.norm(v)
                        if n > 1e-12:
                            cent[c] = v / n
        cent_ref = ray.put(cent)
        assign_bucket = cls._assign_fn(cent_ref, vec_col, id_col,
                                       list(keep_cols or []))

        # hive-partitioned write: one dir per centroid, so a probe reads
        # only its buckets; tmp + rename = atomic publish
        tmp = os.path.join(path, ".tmp.buckets")
        final = os.path.join(path, "buckets")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp, exist_ok=True)
        (ds.map_batches(assign_bucket, batch_format="pyarrow")
           .write_parquet(tmp, partition_cols=["bucket"]))
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
        np.save(os.path.join(path, "centroids.npy"), cent)
        return cls(path)

    def _scan_buckets(self, probe, q: np.ndarray, *, filters=None,
                      exclude_id: int | None = None):
        """Exact cosine over the given centroid buckets; ``filters`` is
        a parquet row filter PUSHED INTO each bucket read (row-group
        pruning on the bucket files — the corpus is never scanned).
        Returns (ids, sims, rows_scanned).

        With ``cache_bytes`` > 0 the same scan runs over the resident
        LRU instead: filters evaluate in memory over cached keep_cols
        metadata (``filters_to_expression`` — identical row semantics
        to the parquet pushdown), and ``rows_scanned`` still counts
        post-filter rows, so the escalation rule and every output are
        unchanged."""
        import pyarrow.parquet as pq
        ids_l, sims_l, scanned = [], [], 0
        if self.cache_bytes > 0:
            expr = (pq.filters_to_expression(filters)
                    if filters is not None else None)
            for c in probe:
                ent = self._bucket_resident(c)
                if ent is None:
                    continue
                ids, mat, meta = ent
                if expr is not None:
                    fkey = (int(c), repr(filters))
                    sel = self._filter_cache.get(fkey)
                    if sel is None:
                        sel = meta.filter(expr)["_row"].to_numpy(
                            zero_copy_only=False)
                        self._filter_cache[fkey] = sel
                        if (len(self._filter_cache)
                                > self._filter_cache_max):
                            self._filter_cache.popitem(last=False)
                    else:
                        self._filter_cache.move_to_end(fkey)
                    if len(sel) == 0:
                        continue
                    ids, mat = ids[sel], mat[sel]
                scanned += len(ids)
                s = mat @ q
                if exclude_id is not None:
                    m = ids != exclude_id
                    ids, s = ids[m], s[m]
                ids_l.append(ids)
                sims_l.append(s)
            if not ids_l:
                return (np.empty(0, np.int64),
                        np.empty(0, np.float64), scanned)
            return (np.concatenate(ids_l).astype(np.int64),
                    np.concatenate(sims_l), scanned)
        for c in probe:
            dirs = self._bucket_dirs(c)
            if not dirs:  # empty centroid bucket
                continue
            tbl = pa.concat_tables(
                [pq.read_table(d, columns=["vec_id", "embedding"],
                               filters=filters, use_threads=False)
                 for d in dirs]).combine_chunks()
            if tbl.num_rows == 0:
                continue
            scanned += tbl.num_rows
            ids = tbl["vec_id"].to_numpy(zero_copy_only=False)
            flat = tbl["embedding"].combine_chunks().values.to_numpy(
                zero_copy_only=False).astype(np.float64)
            mat = flat.reshape(len(ids), len(q))
            s = mat @ q
            if exclude_id is not None:
                m = ids != exclude_id
                ids, s = ids[m], s[m]
            ids_l.append(ids)
            sims_l.append(s)
        if not ids_l:
            return (np.empty(0, np.int64), np.empty(0, np.float64),
                    scanned)
        return (np.concatenate(ids_l).astype(np.int64),
                np.concatenate(sims_l), scanned)

    @staticmethod
    def _norm_q(query_vec) -> np.ndarray:
        q = np.asarray(query_vec, np.float64)
        return q / max(np.linalg.norm(q), 1e-30)

    def search(self, query_vec: np.ndarray, k: int = 5,
               nprobe: int = 4, exclude_id: int | None = None):
        """Returns (vec_ids, sims) — exact cosine within probed buckets,
        ties sim desc then vec_id asc."""
        q = self._norm_q(query_vec)
        csims = self.centroids @ q
        probe = np.argsort(-csims, kind="stable")[:nprobe]
        ids, sims, _ = self._scan_buckets(probe, q,
                                          exclude_id=exclude_id)
        order = np.lexsort((ids, -sims))[:k]
        return ids[order], sims[order]

    def search_filtered(self, query_vec: np.ndarray, k: int = 5, *,
                        filters, nprobe: int = 4,
                        exclude_id: int | None = None,
                        stats: dict | None = None):
        """FILTERED ANN through the index (the 100-TB shape — never a
        full-corpus scan): probe the ``nprobe`` nearest centroids with
        the predicate pushed into each bucket's parquet read; while
        fewer than ``k`` rows survive the filter and unprobed centroids
        remain, DOUBLE the probe width (scanning only the newly probed
        buckets) — worst case every bucket is read, still
        filter-pushed.  Approximation is exactly ``search``'s probe
        rule at the final width; survivor scores are exact.  The
        escalation rule (doubling, first width with >= k survivors) is
        closed-form, so a SQL oracle can reproduce it (pipelines
        ``ann_filtered_ivf``).  ``filters`` is a parquet row filter
        over ``keep_cols`` metadata, e.g. ``[("label", "==", 1)]``.
        ``stats`` (optional dict) receives ``rows_scanned`` and
        ``nprobe_used``.  Returns (vec_ids, sims)."""
        q = self._norm_q(query_vec)
        csims = self.centroids @ q
        order = np.argsort(-csims, kind="stable")
        C = len(self.centroids)
        width = min(nprobe, C)
        probed = 0
        scanned = 0
        ids_l, sims_l = [], []
        total = 0
        while True:
            ids, sims, sc = self._scan_buckets(
                order[probed:width], q, filters=filters,
                exclude_id=exclude_id)
            scanned += sc
            total += len(ids)
            if len(ids):
                ids_l.append(ids)
                sims_l.append(sims)
            probed = width
            if total >= k or probed >= C:
                break
            width = min(2 * width, C)
        if stats is not None:
            stats["rows_scanned"] = scanned
            stats["nprobe_used"] = probed
        if not ids_l:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        ids = np.concatenate(ids_l)
        sims = np.concatenate(sims_l)
        pick = np.lexsort((ids, -sims))[:k]
        return ids[pick], sims[pick]

    def absorb(self, ds, *, vec_col: str = "embedding",
               id_col: str = "vec_id",
               keep_cols: list[str] | None = None,
               tag: str | None = None) -> str:
        """Incremental vector ingest (streaming re-crawl of the vector
        side): assign new vectors to the EXISTING centroids and commit
        them as an immutable wave (``waves/wave=<tag>/bucket=N/``);
        probes read base + waves, so results are identical to a fresh
        assignment pass over the union corpus with the same centroids
        (assignment is stateless argmax-cosine — pinned by test).
        Centroids never move on absorb; re-train + rebuild when drift
        matters, ``compact()`` when wave count does.

        ``tag`` defaults to an order-independent content hash of the
        incoming ids, so re-absorbing the same snapshot is a no-op
        (the wave publish is tmp+rename atomic; a crashed absorb
        leaves only an invisible tmp dir that the retry replaces).
        ``keep_cols`` must match the base build's for filtered
        search."""
        import shutil

        import ray

        extra = list(keep_cols or [])
        if tag is None:
            def id_mix(t: pa.Table) -> pa.Table:
                ids = t[id_col].to_numpy(zero_copy_only=False) \
                    .astype(np.uint64)
                h = ids * np.uint64(0x9E3779B97F4A7C15)
                h ^= h >> np.uint64(29)
                h *= np.uint64(0xBF58476D1CE4E5B9)
                h ^= h >> np.uint64(32)
                acc = np.bitwise_xor.reduce(h) if len(h) else np.uint64(0)
                return pa.table({"h": pa.array([int(acc)], pa.uint64()),
                                 "n": pa.array([len(h)], pa.int64())})
            parts = ray.get(ds.map_batches(
                id_mix, batch_format="pyarrow").to_arrow_refs())
            hh, nn = np.uint64(0), 0
            for t in parts:
                for v, n in zip(t["h"].to_pylist(), t["n"].to_pylist()):
                    hh ^= np.uint64(v)
                    nn += int(n)
            tag = f"{nn}-{int(hh):016x}"
        wave_dir = os.path.join(self.path, "waves", f"wave={tag}")
        if os.path.isdir(wave_dir):
            return wave_dir  # content-addressed: already absorbed
        tmp = os.path.join(self.path, f".tmp.wave={tag}")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp, exist_ok=True)
        cent_ref = ray.put(self.centroids)
        (ds.map_batches(self._assign_fn(cent_ref, vec_col, id_col,
                                        extra),
                        batch_format="pyarrow")
           .write_parquet(tmp, partition_cols=["bucket"]))
        os.makedirs(os.path.join(self.path, "waves"), exist_ok=True)
        os.replace(tmp, wave_dir)
        self._waves = self._list_waves()
        self._cache.clear()
        self._cache_used = 0
        self._filter_cache.clear()
        return wave_dir

    def compact(self) -> dict:
        """Fold every absorb wave into the base buckets: one Ray task
        per bucket reads base + waves, rewrites the bucket sorted by
        vec_id (deterministic bytes regardless of wave history), and
        the driver atomically republishes the bucket tree then drops
        the waves.  Search results are identical before and after
        (same rows, same centroids)."""
        import shutil

        import ray

        waves = self._waves
        if not waves:
            return {"waves_folded": 0, "buckets": 0}
        root = self.path
        nc = len(self.centroids)
        tmp = os.path.join(root, ".tmp.compact")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp, exist_ok=True)

        @ray.remote(num_cpus=1)
        def fold(c: int, dirs: list[str], out_root: str) -> int:
            import pyarrow.parquet as pq
            tbls = [pq.read_table(d, use_threads=False) for d in dirs]
            t = pa.concat_tables(tbls).combine_chunks()
            if t.num_rows == 0:
                return 0
            t = t.sort_by("vec_id")
            od = os.path.join(out_root, f"bucket={c}")
            os.makedirs(od, exist_ok=True)
            pq.write_table(t, os.path.join(od, "data.parquet"))
            return t.num_rows

        jobs = []
        for c in range(nc):
            dirs = self._bucket_dirs(c)
            if dirs:
                jobs.append(fold.remote(c, dirs, tmp))
        rows = sum(ray.get(jobs))
        # manifest inside the new tree: if wave deletion below is
        # interrupted, _list_waves still ignores the folded waves
        import json
        with open(os.path.join(tmp, "_compacted.json"), "w") as f:
            json.dump({"waves": [os.path.basename(w) for w in waves]}, f)
        final = os.path.join(root, "buckets")
        old = os.path.join(root, ".old.buckets")
        shutil.rmtree(old, ignore_errors=True)
        os.replace(final, old)
        os.replace(tmp, final)  # crash between replaces: init restores
        shutil.rmtree(os.path.join(root, "waves"), ignore_errors=True)
        shutil.rmtree(old, ignore_errors=True)
        self._waves = []
        self._cache.clear()
        self._cache_used = 0
        self._filter_cache.clear()
        return {"waves_folded": len(waves), "buckets": len(jobs),
                "rows": int(rows)}


def centroid_classify(ds, *, vec_col: str = "embedding",
                      id_col: str = "vec_id", label_col: str = "label",
                      round_to: float = 1e-6) -> pa.Table:
    """Nearest-centroid classification over a labeled embedding table:
    per-label mean vectors (distributed partial sums per batch → tiny
    driver combine), broadcast, then per-batch cosine argmax.

    Centroids are rounded to ``round_to`` before scoring so the engine
    and the SQL oracle (whose avg() accumulates in a different order)
    agree bit-for-bit on the compared fixed-point output. Ties: sim
    desc, label asc. Returns (vec_id, pred_label, sim_x1e4)."""
    import ray

    def partial(t: pa.Table) -> pa.Table:
        mat = _embedding_matrix(t, vec_col)
        lab = t[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if mat.shape[0] == 0:
            return pa.table({"label": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "vsum": pa.array([],
                                              pa.list_(pa.float64()))})
        uniq, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(uniq), mat.shape[1]), np.float64)
        np.add.at(sums, inv, mat)
        cnt = np.bincount(inv, minlength=len(uniq))
        offs = np.arange(0, (len(uniq) + 1) * mat.shape[1],
                         mat.shape[1], dtype=np.int32)
        return pa.table({
            "label": pa.array(uniq, pa.int64()),
            "n": pa.array(cnt.astype(np.int64), pa.int64()),
            "vsum": pa.ListArray.from_arrays(
                pa.array(offs, pa.int32()),
                pa.array(sums.ravel(), pa.float64())),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    agg: dict[int, tuple[int, np.ndarray]] = {}
    for r in parts:
        n, v = agg.get(r["label"], (0, 0.0))
        agg[r["label"]] = (n + r["n"],
                           v + np.asarray(r["vsum"], np.float64))
    labels = np.array(sorted(agg), np.int64)
    cents = np.stack([agg[la][1] / agg[la][0] for la in labels])
    cents = np.floor(cents / round_to + 0.5) * round_to  # oracle parity
    cents_ref = ray.put((labels, cents))

    def assign(t: pa.Table) -> pa.Table:
        labs, cm = ray.get(cents_ref)
        mat = _embedding_matrix(t, vec_col)
        if mat.shape[0] == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "pred_label": pa.array([], pa.int64()),
                             "sim_x1e4": pa.array([], pa.int64())})
        mn = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True),
                              1e-30)
        cn = cm / np.maximum(np.linalg.norm(cm, axis=1, keepdims=True),
                             1e-30)
        sims = mn @ cn.T
        best = np.argmax(sims, axis=1)  # first max = smallest label (tie)
        bsim = sims[np.arange(len(best)), best]
        return pa.table({
            "vec_id": t[id_col].cast(pa.int64()),
            "pred_label": pa.array(labs[best], pa.int64()),
            "sim_x1e4": pa.array(
                np.floor(bsim * 10000 + 0.5).astype(np.int64),
                pa.int64()),
        })

    out = ds.map_batches(assign, batch_format="pyarrow")
    tbl = collect_arrow(out)
    order = np.argsort(tbl["vec_id"].to_numpy(zero_copy_only=False),
                       kind="stable")
    return tbl.take(order).select(["vec_id", "pred_label", "sim_x1e4"])


class QuantizeInt8:
    """Symmetric per-vector int8 quantization of an embedding column —
    the standard 4× storage/bandwidth cut before ANN at scale. Per
    vector: scale = 127 / max|x|, q_i = floor(x_i·scale + 0.5).

    Output keeps scalar summaries alongside (qsum, qmin, qmax,
    scale_x1e8) so results are hash-comparable against a DuckDB
    list_transform oracle without list-column hashing."""

    def __init__(self, vec_col: str = "embedding",
                 id_col: str = "vec_id"):
        self.vec_col = vec_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _embedding_matrix(batch, self.vec_col)
        n = mat.shape[0]
        if n == 0:
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "q": pa.array([], pa.list_(pa.int8())),
                "qsum": pa.array([], pa.int64()),
                "qmin": pa.array([], pa.int64()),
                "qmax": pa.array([], pa.int64()),
                "scale_x1e8": pa.array([], pa.int64()),
            })
        absmax = np.abs(mat).max(axis=1)
        scale = 127.0 / np.maximum(absmax, 1e-30)
        q = np.floor(mat * scale[:, None] + 0.5)
        flat = q.ravel().astype(np.int8)
        offs = np.arange(0, (n + 1) * mat.shape[1], mat.shape[1],
                         dtype=np.int32)
        qcol = pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                        pa.array(flat, pa.int8()))
        return pa.table({
            "vec_id": batch[self.id_col].cast(pa.int64()),
            "q": qcol,
            "qsum": pa.array(q.sum(axis=1).astype(np.int64), pa.int64()),
            "qmin": pa.array(q.min(axis=1).astype(np.int64), pa.int64()),
            "qmax": pa.array(q.max(axis=1).astype(np.int64), pa.int64()),
            "scale_x1e8": pa.array(
                np.floor(scale * 1e8 + 0.5).astype(np.int64), pa.int64()),
        })


class HyperplaneBands:
    """Per-batch banded hyperplane LSH keys: one row per (band, vec).

    Planes are regenerated from the seed in ``__init__`` (once per actor,
    deterministic — cheaper than broadcasting a plane matrix); dimension
    is discovered from the first batch."""

    def __init__(self, num_bands: int = 8, band_bits: int = 4,
                 seed: int = 13, vec_col: str = "embedding",
                 id_col: str = "vec_id"):
        self.num_bands = num_bands
        self.band_bits = band_bits
        self.seed = seed
        self.vec_col = vec_col
        self.id_col = id_col
        self.planes: np.ndarray | None = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _embedding_matrix(batch, self.vec_col)
        n = mat.shape[0]
        if n == 0:
            return pa.table({"band": pa.array([], pa.int32()),
                             "key": pa.array([], pa.uint32()),
                             "vec_id": pa.array([], pa.int64())})
        if self.planes is None:
            rng = np.random.Generator(np.random.Philox(key=[self.seed, 0]))
            self.planes = rng.normal(
                size=(mat.shape[1], self.num_bands * self.band_bits))
        mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True),
                               1e-30)
        signs = (mat @ self.planes) > 0
        ids = batch[self.id_col].to_numpy(zero_copy_only=False
                                          ).astype(np.int64)
        bands, keys = [], []
        for bi in range(self.num_bands):
            seg = signs[:, bi * self.band_bits:(bi + 1) * self.band_bits]
            key = np.zeros(n, np.uint32)
            for j in range(self.band_bits):
                key |= seg[:, j].astype(np.uint32) << j
            bands.append(np.full(n, bi, np.int32))
            keys.append(key)
        return pa.table({
            "band": pa.array(np.concatenate(bands), pa.int32()),
            "key": pa.array(np.concatenate(keys), pa.uint32()),
            "vec_id": pa.array(np.tile(ids, self.num_bands), pa.int64()),
        })


def embedding_near_dups(ds, threshold: float = 0.95,
                        vec_col: str = "embedding",
                        id_col: str = "vec_id",
                        num_bands: int = 8, band_bits: int = 4,
                        band_concurrency: int | tuple | None = None,
                        bucket_cap: int | None = 8192,
                        stats: dict | None = None) -> pa.Table:
    """Cosine near-dup pairs (sim ≥ threshold) via banded hyperplane LSH
    + exact verification — the embedding analog of MinHash-LSH. A pair
    collides in a band iff all ``band_bits`` hyperplane signs agree;
    ``num_bands`` independent bands give recall 1-(1-p^bits)^bands with
    p = 1-θ/π. Deterministic (seeded planes).

    Scale shape: band keys are emitted per batch (map_batches), candidate
    pairs come from a hive-partitioned (band, key) bucket shuffle
    (``banded_bucket_apply`` — per-part tasks, no sort shuffle), and
    only the candidate
    docs' vectors are gathered back (broadcast-id filtered read) for the
    exact cosine verify — the embedding table is never materialized."""
    import pyarrow.compute as pc

    # band stage concurrency: default is an autoscaling actor pool sized
    # to the cluster (a fixed 2-actor cap was right for tiny inputs only)
    if band_concurrency is None:
        import ray
        band_concurrency = (1, max(2, int(
            ray.cluster_resources().get("CPU", 8))))
    bands = ds.map_batches(
        HyperplaneBands,
        fn_constructor_kwargs=dict(num_bands=num_bands, band_bits=band_bits,
                                   vec_col=vec_col, id_col=id_col),
        batch_format="pyarrow", concurrency=band_concurrency)

    def bucket_pairs(group: pa.Table) -> pa.Table:
        # bucket_cap defaults to 8192: buckets beyond it are dropped with
        # a visible sentinel (counted in `stats`); bucket_cap=None opts
        # into exhaustive emission, generated in bounded-memory blocks
        from .dedup import _pair_blocks
        docs = np.unique(group["vec_id"].to_numpy(zero_copy_only=False))
        if bucket_cap is not None and len(docs) > bucket_cap:
            return pa.table({"doc_a": pa.array([-1], pa.int64()),
                             "doc_b": pa.array([len(docs)], pa.int64())})
        if len(docs) < 2:
            return pa.table({"doc_a": pa.array([], pa.int64()),
                             "doc_b": pa.array([], pa.int64())})
        out_a, out_b = [], []
        for ia, ib in _pair_blocks(len(docs)):
            out_a.append(docs[ia])
            out_b.append(docs[ib])
        return pa.table({"doc_a": pa.array(np.concatenate(out_a),
                                           pa.int64()),
                         "doc_b": pa.array(np.concatenate(out_b),
                                           pa.int64())})

    from .dedup import banded_bucket_apply
    pairs_ds = banded_bucket_apply(bands, ("band", "key"), bucket_pairs)
    ptbl = collect_arrow(pairs_ds) if pairs_ds is not None else None
    empty = pa.table({"doc_a": pa.array([], pa.int64()),
                      "doc_b": pa.array([], pa.int64()),
                      "sim_x1e4": pa.array([], pa.int64())})
    a = ptbl["doc_a"].to_numpy(zero_copy_only=False) \
        if ptbl is not None else np.empty(0, np.int64)
    b = ptbl["doc_b"].to_numpy(zero_copy_only=False) \
        if ptbl is not None else np.empty(0, np.int64)
    drop = a < 0
    n_drop = int(drop.sum())
    if stats is not None:
        stats["buckets_dropped"] = n_drop
        stats["docs_in_dropped_max"] = int(b[drop].max()) if n_drop else 0
        stats["bucket_cap"] = bucket_cap
    if n_drop:
        print(f"embedding_near_dups: dropped {n_drop} LSH buckets "
              f"over cap={bucket_cap} (largest {int(b[drop].max())} docs)")
    a, b = a[~drop], b[~drop]
    if not len(a):
        return empty
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    first = np.ones(len(a), bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    uniq = np.stack([a[first], b[first]], axis=1)
    # exact verify: gather ONLY candidate vectors (broadcast id filter)
    need = np.unique(uniq)
    need_arr = pa.array(need, pa.int64())

    def grab(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[id_col], value_set=need_arr))

    cand_rows = ds.map_batches(grab, batch_format="pyarrow").take_all()
    vecs = {}
    for r in cand_rows:
        v = np.asarray(r[vec_col], np.float64)
        vecs[r[id_col]] = v / max(np.linalg.norm(v), 1e-30)
    out = []
    for lo, hi in uniq.tolist():
        s = float(vecs[lo] @ vecs[hi])
        if s >= threshold:
            out.append((lo, hi, int(np.floor(s * 10000 + 0.5))))
    return pa.table({
        "doc_a": pa.array([r[0] for r in out], pa.int64()),
        "doc_b": pa.array([r[1] for r in out], pa.int64()),
        "sim_x1e4": pa.array([r[2] for r in out], pa.int64()),
    }) if out else empty


# ---------------------------------------------------------------------------
# exact second-moment / quantization kernels (oracle-checkable ML prep)
# ---------------------------------------------------------------------------

def gram_matrix(ds, *, vec_col: str = "embedding", dim: int = 64,
                scale: int = 10_000) -> pa.Table | None:
    """Distributed Gram matrix X^T X over the x{scale} integer grid —
    the covariance/PCA building block: each batch contributes one
    d×d int64 matmul, partials are d(d+1)/2-row triangles REGARDLESS
    of batch size, merged by one small hash sum.  Returns (i, j,
    sum) upper-triangle rows (1-based), or None on empty input."""
    from .boilerplate import partial_aggregate

    iu, ju = np.triu_indices(dim)

    def gram(t: pa.Table) -> pa.Table:
        col = t[vec_col].combine_chunks()
        flat = col.values.to_numpy(zero_copy_only=False)
        qf = np.floor(flat.astype(np.float64) * scale
                      + 0.5).reshape(-1, dim)
        # BLAS fast path, still EXACT: every product is an integer
        # <= max|q|², and a dot accumulates rows of them — while the
        # worst-case sum stays under 2^53 every fp64 partial sum is an
        # exact integer (order-independent), so the cast loses nothing.
        # Measured 7.1 -> 5.4 s at 1.2M x 64 vs the int64 matmul numpy
        # runs without BLAS (the remainder is the read + quantize
        # passes, not the matmul).
        peak = float(np.abs(qf).max(initial=0.0))
        if peak * peak * qf.shape[0] < 2.0 ** 53:
            g = (qf.T @ qf).astype(np.int64)
        else:                      # huge batch of huge values: exact
            q = qf.astype(np.int64)
            g = q.T @ q
        return pa.table({"i": pa.array(iu + 1, pa.int64()),
                         "j": pa.array(ju + 1, pa.int64()),
                         "s": pa.array(g[iu, ju], pa.int64())})

    return partial_aggregate(ds, ["i", "j"], [("s", "sum")],
                             prepare=gram)


def seed_centroids(ds, *, id_col: str, vec_col: str, k: int,
                   scale: int = 10_000) -> np.ndarray:
    """Deterministic seeds: the k smallest ids' vectors on the integer
    grid, found with per-batch bottom-k partials (each batch ships at
    most k rows)."""

    def bottomk(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        idx = np.argsort(ids, kind="stable")[:k]
        return pa.table({id_col: pa.array(ids[idx], pa.int64()),
                         vec_col: t[vec_col].take(pa.array(idx))})

    seeds = collect_arrow(ds.map_batches(bottomk, batch_format="pyarrow",
                                         zero_copy_batch=True))
    seeds = seeds.take(pc.sort_indices(
        seeds, sort_keys=[(id_col, "ascending")]).slice(0, k))
    return np.floor(np.asarray(seeds[vec_col].to_pylist(),
                               dtype=np.float64) * scale
                    + 0.5).astype(np.int64)


def kmeans_iteration(ds, *, id_col: str = "vec_id",
                     vec_col: str = "embedding", k: int = 8,
                     dim: int = 64,
                     scale: int = 10_000) -> pa.Table | None:
    """One exact Lloyd E+M iteration from deterministic bottom-k
    seeds: int64 ||q||²+||c||²−2qc^T assignment (ties → smallest
    cluster), per-batch (cluster, dim) count/sum partials fixed at
    k·d rows per batch.  The oracle-checked core the IVF build's
    k-means iterates.  Returns merged (cluster, dim, n_sum, s_sum)."""
    import ray

    from .boilerplate import partial_aggregate

    cent = seed_centroids(ds, id_col=id_col, vec_col=vec_col, k=k,
                          scale=scale)
    c2 = (cent * cent).sum(axis=1)
    cent_ref = ray.put((cent, c2))

    def estep(t: pa.Table) -> pa.Table:
        c, cc2 = ray.get(cent_ref)
        col = t[vec_col].combine_chunks()
        q = np.floor(col.values.to_numpy(zero_copy_only=False)
                     .astype(np.float64) * scale
                     + 0.5).astype(np.int64).reshape(-1, dim)
        d2 = (q * q).sum(axis=1)[:, None] + cc2[None, :] - 2 * (q @ c.T)
        asg = np.argmin(d2, axis=1)
        rows_c, rows_d, rows_n, rows_s = [], [], [], []
        for ci in range(len(c)):
            mask = asg == ci
            n = int(mask.sum())
            if not n:
                continue
            s = q[mask].sum(axis=0)
            rows_c.extend([ci] * dim)
            rows_d.extend(range(1, dim + 1))
            rows_n.extend([n] * dim)
            rows_s.extend(s.tolist())
        return pa.table({"cluster": pa.array(rows_c, pa.int64()),
                         "dim": pa.array(rows_d, pa.int64()),
                         "n": pa.array(rows_n, pa.int64()),
                         "s": pa.array(rows_s, pa.int64())})

    return partial_aggregate(ds, ["cluster", "dim"],
                             [("n", "sum"), ("s", "sum")],
                             prepare=estep)


def train_pq_codebooks(sample: np.ndarray, *, subs: int, k: int,
                       iters: int = 4) -> np.ndarray:
    """Deterministic per-subspace Lloyd training of PQ codebooks on an
    int-grid sample matrix (n, dim): seeds = first k sample rows,
    ties → smallest code, empty clusters keep their centroid, means
    by integer floor division — every step reproducible.  Returns
    (k, subs, sd) int64 centroids."""
    n, dim = sample.shape
    sd = dim // subs
    cent = sample[:k].reshape(k, subs, sd).astype(np.int64).copy()
    q = sample.reshape(n, subs, sd).astype(np.int64)
    for _ in range(iters):
        for s in range(subs):
            qs, cs = q[:, s, :], cent[:, s, :]
            d2 = ((qs * qs).sum(axis=1)[:, None]
                  + (cs * cs).sum(axis=1)[None, :]
                  - 2 * (qs @ cs.T))
            asg = np.argmin(d2, axis=1)
            for c in range(k):
                m = asg == c
                cnt = int(m.sum())
                if cnt:
                    cent[c, s, :] = qs[m].sum(axis=0) // cnt
    return cent


def pq_encode(ds, *, id_col: str = "vec_id",
              vec_col: str = "embedding", subs: int = 8,
              k: int = 16, dim: int = 64, scale: int = 10_000,
              centroids: np.ndarray | None = None):
    """Product-quantization encode: split each grid vector into
    ``subs`` subspaces, assign each subvector to its nearest of ``k``
    deterministic seed centroids (exact int64 quadratic form per
    subspace, ties → smallest code).  Pass ``centroids`` (k, subs,
    sd) to encode against a TRAINED codebook instead
    (train_pq_codebooks).  Returns a STREAMING Dataset of long-form
    (id, sub, code) rows — subs bytes per vector instead of 4·dim."""
    import ray

    sd = dim // subs
    cent = centroids if centroids is not None else \
        seed_centroids(ds, id_col=id_col, vec_col=vec_col, k=k,
                       scale=scale).reshape(k, subs, sd)
    cent_ref = ray.put(cent)

    def encode(t: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        col = t[vec_col].combine_chunks()
        q = np.floor(col.values.to_numpy(zero_copy_only=False)
                     .astype(np.float64) * scale
                     + 0.5).astype(np.int64).reshape(-1, subs, sd)
        codes = np.empty((len(ids), subs), np.int64)
        for s in range(subs):
            qs, cs = q[:, s, :], c[:, s, :]
            d2 = ((qs * qs).sum(axis=1)[:, None]
                  + (cs * cs).sum(axis=1)[None, :]
                  - 2 * (qs @ cs.T))
            codes[:, s] = np.argmin(d2, axis=1)
        return pa.table({
            id_col: pa.array(np.repeat(ids, subs), pa.int64()),
            "sub": pa.array(np.tile(np.arange(subs, dtype=np.int64),
                                    len(ids)), pa.int64()),
            "code": pa.array(codes.reshape(-1), pa.int64())})

    return ds.map_batches(encode, batch_format="pyarrow",
                          zero_copy_batch=True)


def multi_vector_topk(ds, query_ids: list[int], k: int = 10,
                      vec_col: str = "embedding",
                      id_col: str = "vec_id") -> pa.Table:
    """Late-interaction retrieval (ColBERT-style max-pool): a doc's
    score is the MAX cosine over the query's vectors, so a doc strong
    on any one aspect of a multi-part query surfaces.  Same broadcast
    + per-batch-matmul shape as ann_cosine_topk (each batch ships one
    k-row partial); per-pair cosine arithmetic identical to
    BruteForceTopK, max-pool is exact (no accumulation).  Returns
    (vec_id, rank, sim_x1e4)."""
    qid_arr = pa.array(query_ids, pa.int64())

    def grab(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[id_col], value_set=qid_arr))

    qrows = ds.map_batches(grab, batch_format="pyarrow").take_all()
    qrows.sort(key=lambda r: query_ids.index(r[id_col]))
    qmat = np.array([r[vec_col] for r in qrows], np.float64)
    qn = np.linalg.norm(qmat, axis=1, keepdims=True)
    ref = ray.put(qmat / np.maximum(qn, 1e-30))

    def partial(batch: pa.Table) -> pa.Table:
        q = ray.get(ref)
        mat = _embedding_matrix(batch, vec_col)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        empty = pa.table({"vec_id": pa.array([], pa.int64()),
                          "sim": pa.array([], pa.float64())})
        if mat.shape[0] == 0:
            return empty
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        mat = mat / np.maximum(norms, 1e-30)
        sims = (q @ mat.T).max(axis=0)
        mask = ~np.isin(ids, np.asarray(query_ids, np.int64))
        idx = np.flatnonzero(mask)
        if len(idx) == 0:
            return empty
        top = idx[np.lexsort((ids[idx], -sims[idx]))[:k]]
        return pa.table({"vec_id": pa.array(ids[top], pa.int64()),
                         "sim": pa.array(sims[top], pa.float64())})

    t = collect_arrow(ds.map_batches(partial, batch_format="pyarrow",
                                     zero_copy_batch=True))
    schema = pa.schema([("vec_id", pa.int64()), ("rank", pa.int64()),
                        ("sim_x1e4", pa.int64())])
    if t is None:
        return schema.empty_table()
    va = t["vec_id"].to_numpy(zero_copy_only=False)
    sa = t["sim"].to_numpy(zero_copy_only=False)
    order = np.lexsort((va, -sa))[:k]
    return pa.table({
        "vec_id": pa.array(va[order], pa.int64()),
        "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
        "sim_x1e4": pa.array(
            np.floor(sa[order] * 10000 + 0.5).astype(np.int64),
            pa.int64())})


class PQSearcher:
    """Resident product-quantization (ADC) search — the memory-scale
    serving path PQ codes exist for: the whole corpus collapses to
    ``subs`` bytes/vector (1.2M×64 fp32 = 307 MB → 9.6 MB of codes),
    a query builds one (subs × k) lookup table of exact int64
    subvector distances, and the scan is a vectorized LUT gather over
    the code matrix.  ADC ranks approximately; ``search`` re-ranks the
    top ``rerank`` ADC candidates with exact int-grid L2 against the
    raw vectors (gathered once from parquet by vec_id), so recall
    concentrates in the re-rank budget, not the code resolution.
    Deterministic: centroids from bottom-k seeds (pq_encode), ties on
    vec_id.  Reference analog: none (vfs-index has no vector surface);
    Jégou et al.'s IVFADC without the coarse quantizer — compose with
    IVFIndex buckets for the disk-scale path."""

    def __init__(self, ds, *, id_col: str = "vec_id",
                 vec_col: str = "embedding", subs: int = 8,
                 k: int = 64, dim: int = 64, scale: int = 10_000,
                 train_sample: int = 4096, train_iters: int = 4):
        if k > 256:  # codes are stored as uint8
            raise ValueError(f"PQSearcher needs k <= 256, got k={k}")
        if dim % subs:
            raise ValueError(
                f"PQSearcher needs subs to divide dim, got dim={dim}, "
                f"subs={subs}")
        self.id_col, self.vec_col = id_col, vec_col
        self.subs, self.k, self.dim, self.scale = subs, k, dim, scale
        self.sd = dim // subs
        # deterministic codebook training on the bottom-N sample
        # (smallest ids) — the training set is tiny and driver-side,
        # the ENCODE stays a distributed streaming pass
        sample = seed_centroids(ds, id_col=id_col, vec_col=vec_col,
                                k=train_sample, scale=scale)
        self.cent = train_pq_codebooks(sample, subs=subs, k=k,
                                       iters=train_iters)
        codes_ds = pq_encode(ds, id_col=id_col, vec_col=vec_col,
                             subs=subs, k=k, dim=dim, scale=scale,
                             centroids=self.cent)
        t = collect_arrow(codes_ds)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        sub = t["sub"].to_numpy(zero_copy_only=False)
        code = t["code"].to_numpy(zero_copy_only=False)
        order = np.lexsort((sub, ids))
        n = len(ids) // subs
        self.ids = ids[order][::subs].copy()
        self.codes = code[order].reshape(n, subs).astype(np.uint8)

    def state(self) -> dict:
        """Portable built state (centroids + ids + codes + params) —
        build ONCE on the driver, ``ray.put`` it, and hydrate replicas
        with ``from_state`` (the 1.2M build is ~13 s; hydration is a
        zero-copy object-store read)."""
        return {"cent": self.cent, "ids": self.ids,
                "codes": self.codes, "subs": self.subs, "k": self.k,
                "dim": self.dim, "scale": self.scale,
                "id_col": self.id_col, "vec_col": self.vec_col}

    @classmethod
    def from_state(cls, state: dict) -> "PQSearcher":
        s = cls.__new__(cls)
        s.cent, s.ids, s.codes = (state["cent"], state["ids"],
                                  state["codes"])
        s.subs, s.k, s.dim, s.scale = (state["subs"], state["k"],
                                       state["dim"], state["scale"])
        s.id_col, s.vec_col = state["id_col"], state["vec_col"]
        s.sd = s.dim // s.subs
        return s

    def _quant(self, vec) -> np.ndarray:
        return np.floor(np.asarray(vec, np.float64) * self.scale
                        + 0.5).astype(np.int64)

    def adc_scores(self, qvec) -> np.ndarray:
        """Approximate squared-L2 of the query to every coded vector:
        one (subs × k) exact-int LUT + one fancy-indexed gather-sum
        over the resident code matrix."""
        q = self._quant(qvec).reshape(self.subs, self.sd)
        lut = ((self.cent - q[None, :, :]) ** 2).sum(axis=2).T
        # lut[s, c] = ||q_s - cent_c,s||²; gather per row
        return lut[np.arange(self.subs)[None, :],
                   self.codes.astype(np.int64)].sum(axis=1)

    def search(self, qvec, k: int = 5, *, rerank: int = 64,
               exact_lookup=None,
               exclude_ids=()) -> tuple[np.ndarray, np.ndarray]:
        """ADC top-``rerank`` candidates → exact int-grid L2 re-rank →
        top-``k``.  ``exact_lookup(ids) -> (n, dim) float array`` pulls
        the raw candidate vectors (a vec_id-pruned parquet read at
        disk scale); returns (ids, exact_d2) sorted (d2 asc, id
        asc)."""
        d2 = self.adc_scores(qvec)
        mask = ~np.isin(self.ids, np.asarray(list(exclude_ids),
                                             np.int64)) \
            if len(exclude_ids) else np.ones(len(self.ids), bool)
        idx = np.flatnonzero(mask)
        cand = idx[np.lexsort((self.ids[idx], d2[idx]))[:rerank]]
        cand_ids = self.ids[cand]
        raw = exact_lookup(cand_ids)
        q = self._quant(qvec)
        r = np.floor(np.asarray(raw, np.float64) * self.scale
                     + 0.5).astype(np.int64)
        ex = ((r - q[None, :]) ** 2).sum(axis=1)
        top = np.lexsort((cand_ids, ex))[:k]
        return cand_ids[top], ex[top]
