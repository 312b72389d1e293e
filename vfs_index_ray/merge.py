"""Segment merge / compaction (reference §3.3: baseMergeIndex,
IndexFileMerged.Merge/Split, merged_index_file.go:272-456).

The reference k-way-merges sorted KeyRecordLists with overlap resolution
(MergeKerRecordList, merged_index_file.go:300-422); its invariant tests
assert count(merged) = count(a) + count(b) − overlap
(vfsindex_internal_test.go:752-975). Here:

- ``merge_indexes([a, b, ...], out)``: per hash partition, decode all
  sources' postings (with their positions, a postings column), stack
  with source priority (later wins on a duplicate (term, doc)),
  re-encode.
- ``purge_tombstones(src, out)``: per hash partition, decode, drop the
  tombstoned docs' rows, re-encode.
- ``repartition_index(src, out, new_num_parts)``: the Split/Merge analog —
  re-hash terms into a different partition count through the build's
  own shuffle.

All three re-encode through the build's per-part driver
(``IndexBuilder._encode_parts``; no global shuffle, as sources share the
partition function) and inherit their source's settings through
``IndexBuilder.like``.

Assumption (documented): inputs are doc-disjoint, or a doc shared between
inputs has identical content (the reference has the same property through
its (fileID, offset) record identity). True doc replacement = tombstone
the old doc (``SearchEngine.delete_docs``) in its source index, absorb the
new content as a fresh wave/index, then ``purge_tombstones`` at leisure —
the reference itself has no delete story.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from .build import IndexBuilder, read_stats
from .segment import (SegmentReader, is_committed, publish_json, purge_path,
                      read_part_row, read_waves, wave_path)


def _keep_last(tables: list[pa.Table]) -> pa.Table:
    """Stack ``tables`` and keep, per (term_id, doc_id), the row of the
    last table holding it (later sources win duplicates), sorted by
    (term_id, doc_id)."""
    tbl = pa.concat_tables(tables)
    t = tbl["term_id"].to_numpy(zero_copy_only=False)
    d = tbl["doc_id"].to_numpy(zero_copy_only=False)
    prio = np.repeat(np.arange(len(tables)), [x.num_rows for x in tables])
    order = np.lexsort((prio, d, t))
    t, d = t[order], d[order]
    keep = np.ones(len(t), bool)
    keep[:-1] = (t[:-1] != t[1:]) | (d[:-1] != d[1:])
    return tbl.take(order[keep])


def merged_sources(out_dir: str) -> list[str]:
    """Constituent source index dirs recorded in the merged index's wave
    lineage (the ``merge:<dir>`` entries merge_indexes writes)."""
    return [e[len("merge:"):] for w in read_waves(out_dir)
            for e in w.get("files", [])
            if isinstance(e, str) and e.startswith("merge:")]


def clean_merged_sources(out_dir: str, src_dirs: list[str] | None = None
                         ) -> dict:
    """Space reclamation after compaction (reference column.go:586-602
    deleteMergedFiles/cleanDirs, ``EnableCleanAfterMerge`` config.go, CLI
    ``clean`` cmd/vfs-index/main.go:145): delete the constituent source
    indexes once the merged index is FULLY committed.

    Safety protocol: ``verify_index(out_dir)`` must pass (every part
    sidecar + segment file + doc/token sums) before a single byte is
    removed — so a crash anywhere leaves either all data (commit
    incomplete → nothing deleted) or a committed merged index that
    answers every query (clean partially/fully done). Idempotent:
    already-missing sources are skipped, re-running completes a crashed
    clean. ``src_dirs`` defaults to the merged index's recorded lineage.
    """
    import shutil

    from .build import verify_index

    srcs = list(src_dirs) if src_dirs is not None \
        else merged_sources(out_dir)
    rep = verify_index(out_dir)
    if not rep["ok"]:
        raise ValueError("refusing to clean: merged index at "
                         f"{out_dir} is not fully committed: "
                         f"{rep['errors'][:3]}")
    removed, missing = [], []
    out_real = os.path.realpath(out_dir)
    for s in srcs:
        if os.path.realpath(s) == out_real:
            continue  # never delete the merged index itself
        if os.path.isdir(s):
            shutil.rmtree(s)
            removed.append(s)
        else:
            missing.append(s)
    return {"removed": removed, "already_missing": missing}


def merge_indexes(src_dirs: list[str], out_dir: str,
                  n_docs_override: int | None = None,
                  max_parts: int | None = None,
                  clean_after_merge: bool = False) -> dict:
    """Merge several indexes built with identical (mode, num_parts,
    positions) into ``out_dir``, with the first source's settings.
    Returns merged stats + a merge report: one row per committed part,
    read from the part sidecars (``n_sources`` each source's postings,
    ``n_merged`` the output's, ``overlap`` their difference).

    ``max_parts`` bounds one merge round (the reference's time-budgeted,
    cancellable MergeDuration, config.go:5-9 / column.go:512-518):
    committed partitions survive, the next call resumes the rest; a
    partial round returns ``{"status": "partial", ...}`` without
    finalizing.

    The merged ``n_docs`` is ``n_docs_override`` when given (sources
    that share docs), else the sum of the sources' (the disjointness
    contract).

    ``clean_after_merge`` (reference ``EnableCleanAfterMerge``): delete
    the source indexes once the merged index is fully committed and
    verified — see ``clean_merged_sources`` for the crash protocol. Only
    applies on the finalizing round, never on a partial one."""
    sources = [SegmentReader(s) for s in src_dirs]
    stats = [r.stats for r in sources]
    if len({(s["num_parts"], s["mode"], bool(s.get("positions", False)))
            for s in stats}) > 1:
        raise ValueError("sources must share num_parts, mode and "
                         "positions; use repartition_index to change "
                         "num_parts")
    out = IndexBuilder.like(src_dirs[0], out_dir)
    for r in sources:
        r.check()

    def merge_part(p: int):
        return _keep_last([r.postings(p) for r in sources])

    deferred = out._encode_parts(
        merge_part, lambda p: sum(os.path.getsize(r.path(p))
                                  for r in sources), max_parts)
    # per committed part, from the sidecars: count(merged) =
    # Σ count(source) − overlap
    reports = []
    for p in sorted(out._done_parts()):
        n_sources = [read_part_row(r.segments_dir, p)["n_postings"]
                     for r in sources]
        n_merged = read_part_row(out.segments_dir, p)["n_postings"]
        reports.append({"part": p, "n_sources": n_sources,
                        "n_merged": n_merged,
                        "overlap": sum(n_sources) - n_merged})
    if deferred:
        return {"status": "partial", "parts_done": len(reports),
                "parts_remaining": len(deferred), "merge_report": reports}
    # stats: docs per the disjointness contract; tokens from part sidecars
    n_docs = (n_docs_override if n_docs_override is not None
              else sum(s["n_docs"] for s in stats))
    # synthesize a wave sidecar so finalize() has the doc count + lineage
    publish_json(wave_path(out_dir, 0),
                 {"wave": 0, "files": [f"merge:{s}" for s in src_dirs],
                  "n_docs": int(n_docs)})
    merged_stats = out.finalize()
    merged_stats["merge_report"] = reports
    if clean_after_merge:
        # commit point is finalize() above; the clean re-verifies the
        # committed index before deleting, and a crash in between simply
        # leaves the sources for a later clean_merged_sources() call
        merged_stats["clean_report"] = clean_merged_sources(
            out_dir, src_dirs)
    return merged_stats


def purge_tombstones(src_dir: str, out_dir: str) -> dict:
    """Physically rewrite an index WITHOUT its tombstoned docs (the
    compaction half of the delete story — see SearchEngine.delete_docs
    for the query-time half). Per hash partition, one task of the
    build's segment driver decodes the segment (with its positions),
    masks the deleted docs and re-encodes. df, n_docs, total_tokens and
    avgdl all come out exactly as a fresh build of the surviving corpus
    would produce them (deterministic content → byte-identical
    segments, pinned by test), so after a purge the pruned BM25 paths
    are valid again and the purged index carries no tombstones.

    Resumable: each partition writes a ``purge/part=N.json`` sidecar
    recording the deleted doc ids it actually dropped (needed to fix
    n_docs on the driver) before the part commits; re-runs skip
    committed partitions and re-read their sidecars, and every write is
    tmp+rename idempotent."""
    from .search import load_tombstones

    tomb = load_tombstones(src_dir)
    out = IndexBuilder.like(src_dir, out_dir)
    src = SegmentReader(src_dir)
    src.check()

    def purge_part(p: int):
        postings = src.postings(p)
        d = postings["doc_id"].to_numpy()
        dead = np.isin(d, tomb)
        publish_json(purge_path(out_dir, p),
                     {"part": p, "deleted_docs": np.unique(d[dead]).tolist()})
        return postings.filter(pa.array(~dead))

    out._encode_parts(purge_part, lambda p: os.path.getsize(src.path(p)))
    deleted: set[int] = set()
    for p in range(out.num_parts):
        with open(purge_path(out_dir, p)) as fh:
            deleted.update(json.load(fh)["deleted_docs"])
    n_docs = int(src.stats["n_docs"]) - len(deleted)
    publish_json(wave_path(out_dir, 0),
                 {"wave": 0, "files": [f"purge:{src_dir}"], "n_docs": n_docs})
    stats = out.finalize()
    stats["purged_docs"] = len(deleted)
    stats["tombstones_requested"] = int(len(tomb))
    return stats


# --- federated scoring workers (run as Ray tasks, one per source) --------

def _fed_source_dfs(src_dir: str, q: str, engine=None) -> dict[int, int]:
    """Per-source round 1: df of every query term in this source. As a
    Ray task ``engine`` is None (a fresh engine); the
    in-process path passes the RESIDENT engine so its caches survive."""
    from .search import SearchEngine
    e = engine if engine is not None else SearchEngine(src_dir)
    tids = sorted(set(e.query_term_ids(q)))
    loaded = e.load_terms(tids)
    return {t: loaded[t].df for t in tids}


def _fed_score_source(src_dir: str, tids: list[int], gdf: dict[int, int],
                      ndocs: int, avgdl: float, k: int, engine=None):
    """Per-source task, round 2: exact BM25 of this source's docs under
    GLOBAL statistics (N, avgdl, df), local top-k. Sources are
    doc-disjoint, so each doc's full posting set lives in one source and
    the ascending-term fp64 accumulation here performs exactly the same
    additions as the merged index's exact path — the global top-k over
    the union of local top-ks is fp64-identical to the merged engine."""
    from .search import SearchEngine, accumulate_scores, bm25_term_weight
    e = engine if engine is not None else SearchEngine(src_dir)
    loaded = e.load_terms(list(tids))
    if len(e.tombstones):  # per-source deletes filter here too
        ps = [(t, e._live_postings(loaded[t])) for t in tids]
    else:
        ps = [(t, loaded[t].decode()) for t in tids]
    # ascending term_id — same order as _bm25_exact
    docs_all, scores = accumulate_scores([
        (p.docs, bm25_term_weight(p.tfs, p.dls, int(gdf[t]), ndocs, avgdl))
        for t, p in ps])
    return SearchEngine._topk(docs_all, scores, k)


def _fed_match_source(src_dir: str, q: str, engine=None) -> np.ndarray:
    from .search import SearchEngine
    e = engine if engine is not None else SearchEngine(src_dir)
    return e.match(q)


from .remote import remote_1cpu as _remote


class FederatedEngine:
    """Query across several doc-disjoint segment indexes as if they were
    one, with opportunistic merge-on-search (reference
    search_cond.go:828-837 MergeOnSearch: queries over unmerged index
    files trigger merging). Two compaction modes:

    - default: budgeted rounds run INLINE at the start of each
      match()/bm25() call — a query during compaction pays for one
      ``merge_budget``-partition round before it is answered (committed
      partitions persist, so the cost is bounded and one-time).
    - ``background_merge=True``: compaction rounds run in a daemon
      thread (the reference's fully-background merge,
      column.go:512-518 MergeIdxToIdx goroutine) — queries keep
      answering through the federated path and atomically swap to the
      merged index when the last partition commits. Partition commits
      are tmp+rename, so a crash mid-compaction loses nothing.

    Scoring uses GLOBAL statistics (N = Σ n_docs, avgdl from summed token
    counts, df = Σ per-source df), and per-term postings are the sorted
    union of the sources' — so BM25 results are fp64-identical to
    querying the fully merged index (tests assert it). Per-source work
    runs as one Ray task per source when Ray is up and there is more
    than one source, else in process (``_per_source``).

    ``merge_budget`` > 0 merges that many partitions into ``out_dir``
    per query (budgeted compaction rounds, the MergeDuration analog);
    once all partitions are committed the engine transparently swaps to
    the merged index.
    """

    def __init__(self, src_dirs: list[str], out_dir: str | None = None,
                 merge_budget: int = 0, background_merge: bool = False):
        from .search import SearchEngine
        self.src_dirs = list(src_dirs)
        self.engines = [SearchEngine(s) for s in src_dirs]
        stats = [e.stats for e in self.engines]
        self.mode = stats[0]["mode"]
        self.ndocs = sum(s["n_docs"] for s in stats)
        total_tokens = sum(s["total_tokens"] for s in stats)
        self.avgdl = (total_tokens / self.ndocs) if self.ndocs else 1.0
        self.out_dir = out_dir
        self.merge_budget = merge_budget
        self.merged = None  # becomes a SearchEngine when compaction ends
        self._bg_thread = None
        self._bg_err: BaseException | None = None
        if background_merge:
            self.start_background_compaction()

    # ----- background compaction (reference MergeIdxToIdx goroutine) -----
    def start_background_compaction(self) -> None:
        """Run budgeted merge rounds in a daemon thread until every
        partition is committed, then swap ``self.merged`` in (atomic
        attribute store — readers see either the federated path or the
        finished merged engine, never a partial one)."""
        if self._bg_thread is not None or self.merged is not None:
            return
        if not self.out_dir or self.merge_budget <= 0:
            raise ValueError("background compaction needs out_dir and "
                             "merge_budget > 0")
        import threading
        self._bg_thread = threading.Thread(
            target=self._bg_loop, name="fed-compaction", daemon=True)
        self._bg_thread.start()

    def _bg_loop(self) -> None:
        try:
            while True:
                report = merge_indexes(self.src_dirs, self.out_dir,
                                       max_parts=self.merge_budget)
                if report.get("status") != "partial":
                    break
            from .search import SearchEngine
            self.merged = SearchEngine(self.out_dir)
        except BaseException as e:  # surfaced by wait_compaction()
            self._bg_err = e

    def wait_compaction(self, timeout: float | None = None) -> bool:
        """Join the background thread; re-raise any compaction error.
        Returns True once the merged engine is live."""
        if self._bg_thread is not None:
            self._bg_thread.join(timeout)
        if self._bg_err is not None:
            raise self._bg_err
        return self.merged is not None

    def _maybe_merge(self) -> None:
        if self._bg_thread is not None:
            return  # background thread owns compaction; queries never wait
        if self.merged is not None or not self.out_dir or \
                self.merge_budget <= 0:
            return
        report = merge_indexes(self.src_dirs, self.out_dir,
                               max_parts=self.merge_budget)
        if report.get("status") != "partial":
            from .search import SearchEngine
            self.merged = SearchEngine(self.out_dir)

    def clean_sources(self) -> dict:
        """Reclaim the constituent source indexes once compaction has
        finished and the engine serves from the merged index (reference
        EnableCleanAfterMerge). Explicit — never automatic — because a
        query already in flight on the federated path must not have its
        files deleted under it: the caller invokes this at a quiesce
        point after ``wait_compaction()``. After cleaning, the federated
        fallback path is gone; ``self.merged`` answers everything."""
        if self.merged is None:
            raise ValueError("clean_sources before compaction finished; "
                             "call wait_compaction() first")
        report = clean_merged_sources(self.out_dir, self.src_dirs)
        self.engines = []  # source readers are now invalid
        return report

    def df(self, q: str) -> dict[str, int]:
        if self.merged is not None:
            return self.merged.df(q)
        out: dict[str, int] = {}
        for e in self.engines:
            for tok, d in e.df(q).items():
                out[tok] = out.get(tok, 0) + d
        return out

    def _per_source(self, fn, *args) -> list:
        """``[fn(src, *args) for src in src_dirs]``: one Ray task per
        source when Ray is up and there is more than one source, else an
        in-process loop over the open engines (same code per source
        either way)."""
        import ray
        if ray.is_initialized() and len(self.src_dirs) > 1:
            return ray.get([_remote(fn).remote(s, *args)
                            for s in self.src_dirs])
        return [fn(s, *args, engine=e)
                for s, e in zip(self.src_dirs, self.engines)]

    def match(self, q: str) -> np.ndarray:
        self._maybe_merge()
        if self.merged is not None:
            return self.merged.match(q)
        return np.sort(np.concatenate(self._per_source(_fed_match_source,
                                                       q)))

    def bm25(self, q: str, k: int = 10):
        """Exact global BM25 over the union of sources (fp64-identical
        to the merged index's exact path — tests assert it).

        Scoring is fanned out per source (``_per_source``: one Ray task
        each when Ray is up and there is more than one source) in two
        rounds: per-source dfs → global (N, avgdl, df) broadcast →
        per-source exact scoring + local top-k; the driver only merges
        ≤ k rows per source. This replaces the round-2 driver-side
        term×source loop — the reference's merge-on-search serving
        story (search_cond.go:828-837) kept off-driver."""
        from .search import SearchEngine
        self._maybe_merge()
        if self.merged is not None:
            return self.merged.bm25(q, k)
        empty = (np.empty(0, np.uint64), np.empty(0, np.float64))
        if not self.ndocs:
            return empty
        df_maps = self._per_source(_fed_source_dfs, q)
        gdf: dict[int, int] = {}
        for m in df_maps:
            for t, d in m.items():
                gdf[t] = gdf.get(t, 0) + d
        tids = sorted(t for t, d in gdf.items() if d > 0)
        if not tids:
            return empty
        tops = self._per_source(_fed_score_source, tids, gdf, self.ndocs,
                                self.avgdl, k)
        tops = [t for t in tops if len(t[0])]
        if not tops:
            return empty
        docs = np.concatenate([d for d, _ in tops])
        scores = np.concatenate([s for _, s in tops])
        return SearchEngine._topk(docs, scores, k)


def repartition_index(src_dir: str, out_dir: str, new_num_parts: int) -> dict:
    """Split/Merge analog: rewrite an index with a different partition
    count (term_id % new_P) through the build's own shuffle.  Each old
    part is decoded once, a (term, doc)-sorted run, and split by its
    new part through the build's keyed spill as the output builder's
    committed wave 0; the output's ``build_segments``
    and ``finalize`` then encode every new part exactly as a fresh
    build with the source's settings would (same segment bytes).
    Resumable like a build: a committed wave and committed parts are
    reused."""
    out = IndexBuilder.like(src_dir, out_dir, num_parts=new_num_parts)
    if len(out._done_parts()) == new_num_parts:
        return out.finalize()  # fully committed; scratch may be gone
    if not out._wave_done(0):
        src = SegmentReader(src_dir)
        # on the driver: an old format raises the RuntimeError merge
        # and purge raise, not Ray Data's wrapped task error
        for p in range(src.num_parts):
            src.check_format(p)

        def decode_part(batch: pa.Table) -> pa.Table:
            return src.postings(int(batch["p"][0].as_py()))

        post = (ray.data.from_items([{"p": p} for p in range(src.num_parts)],
                                    override_num_blocks=src.num_parts)
                .map_batches(decode_part, batch_format="pyarrow",
                             batch_size=1))
        out._commit_wave(0, post, {
            "wave": 0, "files": [f"repartition:{src_dir}"],
            "n_docs": int(src.stats["n_docs"])})
    out.build_segments()
    return out.finalize()


def upsert_docs(index_dir: str, new_files: list[str], out_dir: str, *,
                id_col: str = "doc_id", old_files: list[str] | None = None,
                work_dir: str | None = None,
                keep_work: bool = False, **builder_kw) -> dict:
    """Re-crawl snapshot absorption: every doc id present in
    ``new_files`` REPLACES its previous version in ``index_dir``;
    unseen ids are plain inserts.  The result at ``out_dir`` is
    statistically identical to a fresh build over the latest-snapshot
    corpus (live df / n_docs / avgdl — not Lucene's stale-stats
    delete), because the composition is the one the module docstring
    prescribes:

    1. tombstone the incoming ids in the old index (idempotent,
       content-addressed commit — ``SearchEngine.delete_docs``),
    2. ``purge_tombstones`` → a clean old-minus-replaced index,
    3. build the new snapshot as its own index with every setting of
       the old one (``IndexBuilder.like``),
    4. ``merge_indexes`` of the now doc-disjoint pair.

    Every step is independently resumable (sidecar/rename protocol);
    re-running a crashed upsert converges.  Scale note: a purge
    rewrites every partition once per call, so batch re-crawl waves
    and upsert them together — per-document calls would be quadratic.

    ``old_files`` (the previous snapshot's parquet, id column only is
    read): with it, ``n_docs`` is exact even when a replaced doc had
    ZERO tokens — such docs have no postings, so the purge cannot see
    them and would leave them counted.  Without it, ``n_docs`` may
    overcount by the number of tokenless replaced docs (df, tf and
    total_tokens are exact either way).
    Reference parity: vfs-index has no update story at all (its docs
    are immutable (fileID, offset) records); this is the cluster
    engine's equivalent of a segment-merging upsert (Lucene
    updateDocument semantics, but with exact live statistics).
    """
    import shutil

    from .search import SearchEngine, _in_sorted

    if is_committed(out_dir):
        return read_stats(out_dir)
    st = read_stats(index_dir)
    ids_t = [pq.read_table(f, columns=[id_col], use_threads=False)
             for f in new_files]
    ids = pa.concat_tables(ids_t)[id_col].to_numpy(
        zero_copy_only=False).astype(np.uint64)
    SearchEngine(index_dir).delete_docs(ids)

    work = work_dir or (out_dir.rstrip("/") + "-work")
    purged = os.path.join(work, "purged")
    newidx = os.path.join(work, "new")
    if not is_committed(purged):
        purge_tombstones(index_dir, purged)
    if not is_committed(newidx):
        IndexBuilder.like(index_dir, newidx, id_col=id_col,
                          **builder_kw).build(new_files)
    n_override = None
    if old_files is not None:
        old_t = [pq.read_table(f, columns=[id_col], use_threads=False)
                 for f in old_files]
        old_ids = np.unique(pa.concat_tables(old_t)[id_col].to_numpy(
            zero_copy_only=False).astype(np.uint64))
        n_exist = int(_in_sorted(old_ids, np.unique(ids)).sum())
        n_new_rows = sum(len(t) for t in ids_t)
        n_override = int(st["n_docs"]) - n_exist + n_new_rows
    merged = merge_indexes([purged, newidx], out_dir,
                           n_docs_override=n_override)
    if not keep_work:
        shutil.rmtree(work, ignore_errors=True)
    return merged
