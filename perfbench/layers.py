"""Calls into each layer of the engine, timed from outside.

Every function here calls only the public API of one module
(``build``, ``stages.tokenize``, ``codec``, ``search``, ``service``) and
wraps the call in a span, so the traced run can attribute time to the
layer that spent it. The workloads in ``workloads.py`` use the same
functions, and the traced run calls the rest as probes on the
workload's own index and queries.
"""

from __future__ import annotations

import glob
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import host

PARTS = 16
K = 10
BATCH = 50


def now() -> float:
    return time.perf_counter()


def rmtree(*paths: str) -> None:
    for p in paths:
        shutil.rmtree(p, ignore_errors=True)


def dir_usage(path: str) -> tuple[int, int]:
    """(bytes, files) under ``path``."""
    size = files = 0
    for root, _, names in os.walk(path):
        for n in names:
            size += os.path.getsize(os.path.join(root, n))
            files += 1
    return size, files


def new_builder(index_dir: str, spill_dir: str):
    from vfs_index_ray.build import IndexBuilder
    return IndexBuilder(index_dir, mode="word", num_parts=PARTS,
                        id_col="doc_id", scratch_dir=spill_dir)


# ----- build ---------------------------------------------------------------
def build_index(index_dir: str, spill_dir: str, files: list[str], tracer,
                phased: bool) -> dict:
    """A fresh bulk build. ``phased`` calls phase 1, phase 2 and finalize
    one at a time (the same work as ``build``) so each can be timed and
    the spill measured between them."""
    rmtree(index_dir, spill_dir)
    b = new_builder(index_dir, spill_dir)
    t0 = now()
    if not phased:
        with tracer.span("build.build"):
            stats = b.build(files)
        return {"stats": stats, "wall_s": now() - t0}
    with tracer.span("build.phase1"):
        b.build_postings_wave(0, files)
    t1 = now()
    spill_bytes, spill_files = dir_usage(b.postings_dir)
    t2 = now()
    with tracer.span("build.phase2"):
        b.build_segments()
    t3 = now()
    with tracer.span("build.finalize"):
        stats = b.finalize()
    t4 = now()
    return {"stats": stats, "wall_s": (t1 - t0) + (t4 - t2),
            "phase1_s": t1 - t0, "phase2_s": t3 - t2,
            "finalize_s": t4 - t3, "spill_bytes": spill_bytes,
            "spill_files": spill_files, "postings_dir": b.postings_dir}


def check_index(index_dir: str, stats: dict, totals: dict) -> bool:
    """``verify_index`` passes and the index counts what was generated."""
    from vfs_index_ray.build import verify_index
    v = verify_index(index_dir)
    return (bool(v["ok"]) and stats["n_docs"] == totals["n_docs"]
            and stats["total_tokens"] == totals["total_tokens"])


def manifest(index_dir: str) -> pa.Table:
    return pq.read_table(os.path.join(index_dir, "manifest.parquet"))


def manifest_layers(index_dir: str, phase2_s: float, ncpu: int) -> dict:
    m = manifest(index_dir)
    n_post = np.asarray(m["n_postings"].to_pylist(), np.float64)
    return {
        "build.phase2_parallel_eff":
            float(sum(m["encode_seconds"].to_pylist())) / (phase2_s * ncpu),
        "build.part_skew": float(n_post.max() / n_post.mean()),
        "build.bytes_per_posting":
            float(sum(m["output_bytes"].to_pylist())) / float(n_post.sum()),
    }


def encode_largest_part(index_dir: str, postings_dir: str, tracer) -> float:
    """Seconds ``codec.encode_partition`` takes on the postings of the
    part with the most postings, read back from the build's spill."""
    from vfs_index_ray.codec import encode_partition
    m = manifest(index_dir)
    part = int(m["part"][int(np.argmax(m["n_postings"].to_numpy()))].as_py())
    tables = [pq.read_table(d, columns=["term_id", "doc_id", "tf", "dl"])
              for d in sorted(glob.glob(f"{postings_dir}/wave=*/part={part}"))]
    t = pa.concat_tables(tables)
    cols = [t[c].to_numpy().astype(np.uint64)
            for c in ("term_id", "doc_id", "tf", "dl")]
    order = np.lexsort((cols[1], cols[0]))
    terms, docs, tfs, dls = (c[order] for c in cols)
    t0 = now()
    with tracer.span("codec.encode_partition"):
        encode_partition(terms, docs, tfs, dls)
    return now() - t0


def tokenizer_docs_per_s(files: list[str], tracer) -> float:
    """``stages.tokenize.tokenize_postings`` over each corpus file in
    this process (one core)."""
    from vfs_index_ray.stages.tokenize import tokenize_postings
    docs = busy = 0.0
    for f in files:
        t = pq.read_table(f, columns=["doc_id", "text"])
        t0 = now()
        with tracer.span("tokenizer.tokenize_postings"):
            tokenize_postings(t, mode="word", text_col="text",
                              id_col="doc_id")
        busy += now() - t0
        docs += t.num_rows
    return docs / busy


def _sidecars(index_dir: str) -> dict[str, tuple[int, int]]:
    seg = os.path.join(index_dir, "segments")
    return {n: (os.stat(os.path.join(seg, n)).st_ino,
                os.stat(os.path.join(seg, n)).st_mtime_ns)
            for n in os.listdir(seg) if n.endswith(".json")}


def absorb(index_dir: str, spill_dir: str, files: list[str], tracer
           ) -> dict:
    """Absorb ``files`` into a committed index. Also counts the postings
    re-encoded (parts whose sidecar was rewritten) against the postings
    the new wave added."""
    before = _sidecars(index_dir)
    n_before = int(sum(manifest(index_dir)["n_postings"].to_pylist()))
    b = new_builder(index_dir, spill_dir)
    t0 = now()
    with tracer.span("build.absorb"):
        stats = b.absorb(files)
    wall = now() - t0
    after = _sidecars(index_dir)
    m = manifest(index_dir)
    rewritten = {f"part={p:05d}.json" for p in m["part"].to_pylist()
                 if before.get(f"part={p:05d}.json")
                 != after.get(f"part={p:05d}.json")}
    reencoded = sum(n for p, n in zip(m["part"].to_pylist(),
                                      m["n_postings"].to_pylist())
                    if f"part={p:05d}.json" in rewritten)
    added = int(sum(m["n_postings"].to_pylist())) - n_before
    return {"stats": stats, "wall_s": wall,
            "reencode_ratio": reencoded / max(added, 1)}


# ----- search --------------------------------------------------------------
def _payload_bytes(postings) -> int:
    return int(sum(c[k].nbytes for p in postings for c in p.chunks
                   for k in ("docs", "tfs", "dls") if k in c))


def cold_query(index_dir: str, q: str, tracer, detail: bool) -> dict:
    """One BM25 top-k on a freshly opened engine. ``latency_s`` covers
    open, load and scoring. With ``detail`` the load is a separate call
    (``bm25`` then finds the terms cached), and after the timed part
    decode and warm scoring are timed on their own."""
    from vfs_index_ray.search import Postings, SearchEngine
    t0 = now()
    with tracer.span("search.open"):
        eng = SearchEngine(index_dir)
    t1 = now()
    rec: dict = {"open_ms": (t1 - t0) * 1e3}
    if detail:
        tids = sorted(set(eng.query_term_ids(q)))
        with tracer.span("search.load"):
            loaded = eng.load_terms(tids)
        rec["load_ms"] = (now() - t1) * 1e3
        load_stats = dict(eng.last_load_stats)
    with tracer.span("search.bm25"):
        docs, scores = eng.bm25(q, K, method="auto")
    rec["latency_s"] = now() - t0
    rec["docs"], rec["scores"] = docs, scores
    if not detail:
        return rec
    qs = eng.last_query_stats
    rec.update(parts_read=load_stats.get("parts_read", 0),
               bloom_skips=load_stats.get("bloom_skips", 0),
               bytes_read=_payload_bytes(loaded.values()),
               method=qs.get("method"), n_decoded=qs.get("n_decoded", 0),
               n_results=len(docs))
    t2 = now()
    with tracer.span("codec.decode"):
        for p in loaded.values():
            Postings(p.term_id, p.df, p.chunks).decode()
    t3 = now()
    for p in loaded.values():
        p.decode()
    t4 = now()
    with tracer.span("search.score"):
        eng.bm25(q, K, method="auto")
    rec["decode_ms"] = (t3 - t2) * 1e3
    rec["score_ms"] = (now() - t4) * 1e3
    return rec


def search_layers(recs: list[dict]) -> dict:
    """Per-layer search and codec metrics from detailed cold queries."""
    scored = [r for r in recs if r["method"] is not None]
    return {
        "search.open_ms": statistics.median(r["open_ms"] for r in recs),
        "search.load_ms": statistics.median(r["load_ms"] for r in recs),
        "search.parts_read": statistics.mean(r["parts_read"] for r in recs),
        "search.bloom_skips":
            statistics.mean(r["bloom_skips"] for r in recs),
        "search.bytes_read": statistics.mean(r["bytes_read"] for r in recs),
        "codec.decode_ms": statistics.median(r["decode_ms"] for r in recs),
        "search.score_ms": statistics.median(r["score_ms"] for r in recs),
        "search.postings_per_result":
            sum(r["n_decoded"] for r in scored)
            / max(sum(r["n_results"] for r in scored), 1),
        "search.maxscore_share":
            sum(r["method"] == "maxscore" for r in scored)
            / max(len(scored), 1),
    }


# ----- service -------------------------------------------------------------
class Batches:
    """Seeded stream of BM25 batches drawn Zipf from a query pool. The
    exponent is mild so that no single query's replica sets the batch
    latency on its own; which replica each query lands on still comes
    from the service's hash routing."""

    ZIPF_S = 0.5

    def __init__(self, pool: list[str], seed: int):
        self.pool = pool
        self.rng = np.random.default_rng([seed, 11])
        w = 1.0 / np.power(np.arange(1, len(pool) + 1, dtype=np.float64),
                           self.ZIPF_S)
        self.p = w / w.sum()

    def next(self) -> list[str]:
        return [self.pool[i] for i in
                self.rng.choice(len(self.pool), BATCH, p=self.p)]


def start_service(index_dir: str, replicas: int, pool: list[str], tracer):
    """A QueryService whose replica caches hold every pool query."""
    from vfs_index_ray.service import QueryService
    with tracer.span("service.start"):
        svc = QueryService(index_dir, replicas=replicas)
    with tracer.span("service.warm"):
        svc.bm25_batch(pool, K, "auto")
    return svc


def stop_service(svc) -> None:
    """Kill the replicas and wait until each one is gone, so the next
    service does not queue behind them for CPUs."""
    import ray
    from ray.exceptions import RayActorError
    handles = list(svc.workers)
    svc.shutdown()
    for h in handles:
        for _ in range(200):
            try:
                ray.get(h.calls.remote(), timeout=5)
            except RayActorError:
                break
            except ray.exceptions.GetTimeoutError:
                continue
            time.sleep(0.02)


def replica_pids(svc) -> list[int]:
    import ray
    return ray.get([w.__ray_call__.remote(lambda self: os.getpid())
                    for w in svc.workers])


def service_layers(svc, index_dir: str, pool: list[str],
                   batches: Batches, tracer) -> dict:
    import ray
    from vfs_index_ray.search import SearchEngine
    rpc = []
    for q in pool:
        t0 = now()
        with tracer.span("service.bm25"):
            svc.bm25(q, K, "auto")
        rpc.append(now() - t0)
    eng = SearchEngine(index_dir)
    for q in pool:
        eng.bm25(q, K, "auto")
    local = []
    for q in pool:
        t0 = now()
        with tracer.span("search.bm25_warm"):
            eng.bm25(q, K, "auto")
        local.append(now() - t0)
    imbalance = []
    n = len(svc.workers)
    for _ in range(10):
        by_worker: dict[int, list[str]] = {}
        for q in batches.next():
            by_worker.setdefault(svc._route(q), []).append(q)
        busy = [0.0] * n
        for w, sub in by_worker.items():
            t0 = now()
            with tracer.span("service.replica_batch"):
                ray.get(svc.workers[w].bm25_batch.remote(sub, K, "auto"))
            busy[w] = now() - t0
        imbalance.append(max(busy) / (sum(busy) / n))
    calls = svc.calls_per_worker()
    return {
        "service.rpc_overhead_ms":
            (statistics.median(rpc) - statistics.median(local)) * 1e3,
        "service.replica_imbalance": statistics.median(imbalance),
        "service.calls_per_worker": max(calls) / (sum(calls) / len(calls)),
        "service.rss_mb_per_replica":
            statistics.mean(host.rss_mb(p) for p in replica_pids(svc)),
    }
