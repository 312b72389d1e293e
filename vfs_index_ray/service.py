"""Long-lived distributed query service (reference daemon parity: the
vfs-index searcher runs as a no-process library, but its cache story —
cache/cache.go per-process posting caches — maps here onto a pool of
resident query actors that keep their decoded-postings caches warm
across calls).

``QueryService`` holds N replica actors, each owning a full
``SearchEngine`` (each maps the segment files it reads on its own, so
replicas share nothing). Queries route to replicas by a deterministic
hash of the query string: the same query always lands on the same
actor, so its postings/contribution caches hit (query→cache affinity).
Batches are grouped per replica — one RPC per replica per call, results
reassembled in input order.

Scale shape: replicas are stateless-restartable (the index is on shared
storage); routing is client-side and O(1); adding replicas is linear QPS
until storage bandwidth saturates. Replicas are placed with Ray's
``SPREAD`` scheduling strategy by default, so on a multi-node cluster
they land on distinct nodes (verified by a simulated two-node cluster
test); pass ``scheduling_strategy=None`` to let Ray pack instead.
"""

from __future__ import annotations

import numpy as np

import ray

from .hashing import fnv1a64


@ray.remote
class QueryWorker:
    """One resident engine replica (caches live as long as the actor).

    Beyond BM25, a replica can serve the whole query surface resident:
    ``ann_dir`` loads an IVF vector index (centroids pinned in the
    actor, bucket reads stay pruned parquet), and ``text_col`` enables
    the expression planner (``execute``) over the corpus files."""

    def __init__(self, index_dir: str, corpus_files=None,
                 id_col: str = "doc_id", ann_dir: str | None = None,
                 text_col: str = "text",
                 ann_cache_bytes: int = 256 << 20,
                 pq_state=None, emb_file: str | None = None):
        from .search import SearchEngine
        self.engine = SearchEngine(index_dir, corpus_files=corpus_files,
                                   id_col=id_col)
        self.ivf = None
        if ann_dir is not None:
            from .functions.similarity import IVFIndex
            # resident LRU of decoded buckets (byte-capped): repeat
            # probes of a hot bucket are matmuls, not parquet reads —
            # the ANN analog of the warm postings cache
            self.ivf = IVFIndex(ann_dir, cache_bytes=ann_cache_bytes)
        self.pq = None
        self._emb_file = emb_file
        if pq_state is not None:
            from .functions.similarity import PQSearcher
            # hydrate from the driver-built state (zero-copy
            # object-store read of the 16-bytes/vector code matrix)
            self.pq = PQSearcher.from_state(
                ray.get(pq_state) if isinstance(pq_state,
                                                ray.ObjectRef)
                else pq_state)
        self._executor = None
        self._corpus_files = corpus_files
        self._id_col = id_col
        self._text_col = text_col
        self.n_calls = 0

    def bm25_batch(self, queries: list[str], k: int = 10,
                   method: str = "auto"):
        self.n_calls += 1
        out = []
        for q in queries:
            docs, scores = self.engine.bm25(q, k, method)
            out.append((docs.tolist(), scores.tolist()))
        return out

    def match(self, q: str) -> list[int]:
        self.n_calls += 1
        return self.engine.match(q).tolist()

    def df(self, q: str) -> dict[str, int]:
        self.n_calls += 1
        return self.engine.df(q)

    def ann_batch(self, vecs, k: int = 5, nprobe: int = 4,
                  filters=None, exclude_ids=None):
        """Resident IVF probes for a batch of query vectors; with
        ``filters`` each probe pushes the predicate into its bucket
        reads (search_filtered's escalating probe)."""
        if self.ivf is None:
            raise RuntimeError("replica has no ANN index (pass ann_dir)")
        self.n_calls += 1
        out = []
        ex = exclude_ids or [None] * len(vecs)
        for v, e in zip(vecs, ex):
            v = np.asarray(v, np.float64)
            if filters is None:
                ids, sims = self.ivf.search(v, k, nprobe=nprobe,
                                            exclude_id=e)
            else:
                ids, sims = self.ivf.search_filtered(
                    v, k, filters=filters, nprobe=nprobe, exclude_id=e)
            out.append((ids.tolist(), sims.tolist()))
        return out

    def pq_batch(self, vecs, k: int = 5, rerank: int = 1024,
                 exclude_ids=None):
        """Resident PQ/ADC search for a batch of query vectors: the
        LUT-gather scan runs on the in-actor code matrix; the exact
        re-rank gathers only the candidate rows from the embeddings
        parquet (vec-id in-list pushdown)."""
        import pyarrow.compute as _pc
        import pyarrow.parquet as _pq
        if self.pq is None:
            raise RuntimeError("replica has no PQ state (pass "
                               "pq_state + emb_file)")
        self.n_calls += 1

        def lookup(ids):
            t = _pq.read_table(
                self._emb_file,
                columns=[self.pq.id_col, self.pq.vec_col],
                filters=[(self.pq.id_col, "in",
                          [int(x) for x in ids])],
                use_threads=False)
            got = t[self.pq.id_col].to_numpy(zero_copy_only=False)
            mat = np.asarray(t[self.pq.vec_col].to_pylist(),
                             np.float64)
            pos = {int(i): j for j, i in enumerate(got)}
            return mat[[pos[int(i)] for i in ids]]

        out = []
        ex = exclude_ids or [None] * len(vecs)
        for v, e in zip(vecs, ex):
            ids, d2 = self.pq.search(
                np.asarray(v, np.float64), k, rerank=rerank,
                exact_lookup=lookup,
                exclude_ids=[] if e is None else [e])
            out.append((ids.tolist(), d2.tolist()))
        return out

    def execute(self, expr: str, limit: int | None = None) -> list[int]:
        """Expression-planner query (``a && b``, ``||``, ``!``, ranges)
        — the planner is built once per actor and kept resident."""
        self.n_calls += 1
        if self._executor is None:
            from .planner import QueryExecutor
            if not self._corpus_files:
                raise RuntimeError(
                    "planner execution needs corpus_files")
            self._executor = QueryExecutor(
                self.engine, self._corpus_files,
                text_col=self._text_col, id_col=self._id_col)
        return np.asarray(self._executor.execute(expr, limit=limit)
                          ).tolist()

    def calls(self) -> int:
        return self.n_calls

    def node_id(self) -> str:
        """Placement introspection (which node hosts this replica)."""
        return ray.get_runtime_context().get_node_id()


def _per_vector_excludes(exclude_ids, n_vecs: int) -> list:
    """One exclude id (or None) per query vector; a list of any other
    length would pair ids with the wrong vectors."""
    if exclude_ids is None:
        return [None] * n_vecs
    if len(exclude_ids) != n_vecs:
        raise ValueError(f"exclude_ids has {len(exclude_ids)} entries for "
                         f"{n_vecs} query vectors")
    return exclude_ids


class QueryService:
    """Client facade over a pool of resident QueryWorker actors."""

    def __init__(self, index_dir: str, *, replicas: int = 4,
                 corpus_files=None, id_col: str = "doc_id",
                 num_cpus: float = 1,
                 scheduling_strategy: str | None = "SPREAD",
                 ann_dir: str | None = None, text_col: str = "text",
                 ann_cache_bytes: int = 256 << 20,
                 pq_state: dict | None = None,
                 emb_file: str | None = None):
        # max_restarts: a crashed replica restarts and rebuilds its
        # caches from the index on shared storage (workers hold no
        # unrecoverable state); in-flight calls on the dead actor fail
        # fast and the client may retry.
        # SPREAD: replicas distribute across nodes (soft constraint — a
        # single node still hosts all of them happily in local mode)
        opts = dict(num_cpus=num_cpus, max_restarts=2)
        if scheduling_strategy is not None:
            opts["scheduling_strategy"] = scheduling_strategy
        # PQ state ships ONCE through the object store; every replica
        # hydrates from the same ref (zero-copy on the same node)
        pq_ref = ray.put(pq_state) if pq_state is not None else None
        self.workers = [
            QueryWorker.options(**opts).remote(
                index_dir, corpus_files=corpus_files, id_col=id_col,
                ann_dir=ann_dir, text_col=text_col,
                ann_cache_bytes=ann_cache_bytes,
                pq_state=pq_ref, emb_file=emb_file)
            for _ in range(replicas)]
        # fail fast if the index is unreadable (actor init raises lazily)
        ray.get([w.calls.remote() for w in self.workers])

    def _route(self, q: str) -> int:
        # deterministic (unlike builtin hash): same query → same replica
        # → warm postings/contribution caches
        return fnv1a64(q) % len(self.workers)

    def bm25(self, q: str, k: int = 10, method: str = "auto"):
        [(docs, scores)] = ray.get(
            self.workers[self._route(q)].bm25_batch.remote([q], k, method))
        return np.array(docs, np.uint64), np.array(scores, np.float64)

    def _scatter_gather(self, n: int, route, call, dtypes) -> list:
        """Group input indexes ``0..n-1`` by replica (``route(i)``), make
        one RPC per replica (``call(worker, idxs)``) and reassemble the
        per-input ``(ids, values)`` pairs in input order, as arrays of
        ``dtypes``."""
        by_worker: dict[int, list[int]] = {}
        for i in range(n):
            by_worker.setdefault(route(i), []).append(i)
        futs = {w: call(self.workers[w], idxs)
                for w, idxs in by_worker.items()}
        id_t, val_t = dtypes
        out: list = [None] * n
        for w, idxs in by_worker.items():
            for i, (ids, vals) in zip(idxs, ray.get(futs[w])):
                out[i] = (np.array(ids, id_t), np.array(vals, val_t))
        return out

    def bm25_batch(self, queries: list[str], k: int = 10,
                   method: str = "auto"):
        """Route by query hash, batch per replica (one RPC each),
        reassemble in input order. Returns [(doc_ids, scores), ...]
        aligned with queries."""
        return self._scatter_gather(
            len(queries), lambda i: self._route(queries[i]),
            lambda w, idxs: w.bm25_batch.remote(
                [queries[i] for i in idxs], k, method),
            (np.uint64, np.float64))

    def match(self, q: str) -> np.ndarray:
        return np.array(
            ray.get(self.workers[self._route(q)].match.remote(q)),
            np.uint64)

    def execute(self, expr: str, limit: int | None = None) -> np.ndarray:
        """Planner expression through a resident replica (routed by
        expression for executor-cache affinity)."""
        return np.array(ray.get(
            self.workers[self._route(expr)].execute.remote(expr, limit)),
            np.int64)

    def ann_batch(self, vecs, k: int = 5, nprobe: int = 4,
                  filters=None, exclude_ids=None):
        """IVF ANN over the replica pool: vectors round-robin across
        replicas (no query-string affinity to exploit — bucket reads
        are pruned parquet either way), one RPC per replica, results
        reassembled in input order.  Returns [(ids, sims), ...]."""
        ex = _per_vector_excludes(exclude_ids, len(vecs))
        n = len(self.workers)
        return self._scatter_gather(
            len(vecs), lambda i: i % n,
            lambda w, idxs: w.ann_batch.remote(
                [vecs[i] for i in idxs], k, nprobe, filters,
                [ex[i] for i in idxs]),
            (np.int64, np.float64))

    def pq_batch(self, vecs, k: int = 5, rerank: int = 1024,
                 exclude_ids=None):
        """PQ/ADC search over the replica pool (round-robin like
        ann_batch; the code matrix is resident in every replica).
        Returns [(ids, exact_d2), ...] in input order."""
        ex = _per_vector_excludes(exclude_ids, len(vecs))
        n = len(self.workers)
        return self._scatter_gather(
            len(vecs), lambda i: i % n,
            lambda w, idxs: w.pq_batch.remote(
                [vecs[i] for i in idxs], k, rerank,
                [ex[i] for i in idxs]),
            (np.int64, np.int64))

    def calls_per_worker(self) -> list[int]:
        return ray.get([w.calls.remote() for w in self.workers])

    def worker_nodes(self) -> list[str]:
        """Node id per replica (asserts SPREAD placement in tests)."""
        return ray.get([w.node_id.remote() for w in self.workers])

    def shutdown(self) -> None:
        for w in self.workers:
            ray.kill(w)
        self.workers = []
