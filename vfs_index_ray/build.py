"""Index build pipeline: pages parquet → posting-list segments + manifest.

Ray-Data-native re-expression of the reference's build lifecycle
(indexer.go Regist → column.go Update/WriteDirties → baseMergeIndex,
SURVEY §3.1):

  phase 1 (postings): read_parquet(pages, columns pruned — html never
      read) → map_batches(tokenize_postings, whole blocks) → the
      engine's keyed spill writer (``spillfs.Spill.write_parts``), per
      *wave* of input files, one task per cluster CPU (more for a wave
      over ``WAVE_TASK_BYTES`` per CPU). Each task's postings come out
      of the tokenizer sorted by (term_id, doc_id); the writer splits
      them by part = term_id % P with one stable sort and writes one
      Parquet file per part, so a spill file holds sorted runs, one
      per tokenized block. With at least one file per
      task the read fuses into that task; a wave of fewer files is
      re-split into equal blocks first, since Ray Data reads a file in
      one task. Blocks are capped at ``WAVE_BLOCK_BYTES`` so the
      executor admits every CPU from the first task. The wave is committed atomically (tmp dir + rename +
      sidecar JSON) — the analog of the reference's per-record
      write-files with atomic SafeRename publish (record.go:194-248,
      filelist.go:224-231), at a sane granularity.

  phase 2 (segments, ``build_segments``): phase 1 already wrote the
      postings split by part (THE build shuffle, on disk — the analog
      of the in-RAM merge groupby, column.go:449-545). ``build_segments``
      hands a per-part gather of that part's runs from every wave to
      ``_encode_parts``, the segment rewrite driver merge and purge
      share (as the reference shares baseMergeIndex): one plain 1-cpu
      Ray task per uncommitted part, submitted largest part first,
      merges the runs with one stable sort and encodes them
      (segment.SegmentWriter.encode_part — the reference's k-way merge
      of sorted record lists, merged_index_file.go:272-456), publishes
      its files atomically and commits a sidecar manifest row, so a
      rerun skips committed partitions (resume — the reference's
      IsExist anti-join, record.go:46-82). Every task is waited for
      before the first error is raised.

  finalize: manifest.parquet (per-partition lineage + metrics), then
        stats.json (N, total tokens, avgdl), the index's commit, last;
        both from the sidecars, each published by ``segment.publish``.

Scale notes (100 TB / 10^12 docs): num_parts sizes the shuffle so one
partition's postings fit a worker (tens of thousands of parts at full
scale); skew is absorbed by encoding the largest parts first and by
splitting phase-1 tasks at ``WAVE_TASK_BYTES`` (a head term is one
segment row, encoded by one task); the only driver-side
materializations are per-part manifest rows and scalar aggregates.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import ray.data

from . import BM25_B, BM25_K1, __version__
from .segment import (SegmentReader, SegmentWriter, _manifest_table,
                      manifest_path, part_path, postings_schema, publish,
                      publish_json, read_part_row, read_stats, read_waves,
                      segments_dir, stats_path, wave_path)
from .spillfs import Spill, resolve_location
from .stages.tokenize import tokenize_postings

# block cap of a wave's dataset (its own DataContext, never the global
# one). Until a task has finished, Ray Data sizes each task's output at
# twice this cap against the object store budget; at the default 128 MB
# it admits ONE task first and the rest of the cluster idles behind it.
# 16 MB admits every CPU at once and bounds each tokenize batch.
WAVE_BLOCK_BYTES = 16 << 20
# input bytes (uncompressed, read columns) one phase-1 task may take on.
# A task's spill write holds ALL its output at once (``Spill.write_parts``
# concatenates its blocks before splitting them by part), which turns
# superlinear: on one CPU, 1.2M pages as one 720 MB task took 268 s in
# phase 1, as 8, 12 or 16 tasks of 90-45 MB 46-48 s.
WAVE_TASK_BYTES = 64 << 20


class IndexBuilder:
    def __init__(self, index_dir: str, *, mode: str = "word",
                 num_parts: int = 16,
                 text_col: str = "text", id_col: str | None = "doc_id",
                 html_col: str | None = None,
                 url_col: str = "url",
                 scratch_dir: str | None = None,
                 positions: bool = False):
        self.index_dir = index_dir
        self.mode = mode
        self.num_parts = num_parts
        self.text_col = text_col
        self.id_col = id_col
        # html_col: build straight from crawled pages — a vectorized
        # extraction stage (functions/extract.py) derives text_col from
        # the raw html before tokenization, so the pre-extracted text
        # column need not exist in the input at all.
        self.html_col = html_col
        self.url_col = url_col
        # positions=True: each posting's token ordinals ride through the
        # shuffle as one more postings column (a list) and land in two
        # more columns of the term's segment row — token-adjacency
        # phrase queries then need no corpus access
        self.positions = positions
        # Shuffle spill (postings) is the build's scratch — the
        # Spark-local-dirs analog. Single node: a local path (default
        # under index_dir; /dev/shm for speed). Multi-node cluster:
        # EVERY node must read each part's postings, so scratch_dir
        # must be shared storage — pass an ``s3://…``/``file://…`` URI
        # or a ``(pyarrow_fs, path)`` tuple (spillfs.resolve_location;
        # no unique subdir — waves are RESUMABLE state reused across
        # runs, commit is the wave sidecar). Losing scratch only costs
        # recomputing uncommitted waves (sidecars are validated
        # against the postings dir).
        fs, scratch_root = resolve_location(scratch_dir,
                                            default_path=index_dir)
        self.scratch_local = isinstance(fs, pafs.LocalFileSystem)
        self.scratch = Spill(fs, scratch_root.rstrip("/") + "/postings",
                             local=self.scratch_local)
        self.postings_dir = self.scratch.path
        self.segments_dir = segments_dir(index_dir)
        fs.create_dir(self.postings_dir, recursive=True)
        os.makedirs(self.segments_dir, exist_ok=True)

    @classmethod
    def like(cls, src_dir: str, out_dir: str, **overrides) -> IndexBuilder:
        """A builder for ``out_dir`` with every index setting of the
        index at ``src_dir`` (its stats.json), except ``overrides`` —
        the one place a derived index (merge, purge, repartition,
        upsert) inherits its source's settings."""
        st = read_stats(src_dir)
        settings = dict(mode=st["mode"], num_parts=int(st["num_parts"]),
                        positions=bool(st.get("positions", False)))
        return cls(out_dir, **{**settings, **overrides})

    # ----- phase 1: tokenize → postings (per wave, resumable) ------------
    def _wave_done(self, wave: int) -> bool:
        # committed = sidecar exists AND the postings it points at survive
        # (scratch may be ephemeral)
        return (os.path.exists(wave_path(self.index_dir, wave))
                and self.scratch.exists_dir(
                    self.scratch.join(f"wave={wave:04d}")))

    def build_postings_wave(self, wave: int, files: list[str]) -> dict:
        if self._wave_done(wave):
            with open(wave_path(self.index_dir, wave)) as f:
                return json.load(f)
        is_parquet = all(f.endswith(".parquet") for f in files)
        if is_parquet:
            schema_names = pq.read_schema(files[0]).names
        else:
            from .sinks import read_corpus
            schema_names = read_corpus([files[0]]).schema().names
        cols = [self.html_col] if self.html_col else [self.text_col]
        if self.id_col and self.id_col in schema_names:
            cols.append(self.id_col)
        else:
            cols.append(self.url_col)
        # task count = cluster CPUs (not Ray's default ~200): each
        # read→tokenize→write task emits one file per part it sees, so one
        # task per CPU keeps the spill at CPUs × parts files (and phase-2
        # open() overhead) bounded. More tasks only when a task would
        # read over WAVE_TASK_BYTES (see there)
        ntasks = int(ray.cluster_resources().get("CPU", 8))
        if is_parquet:
            metas = [pq.read_metadata(f) for f in files]
            n_docs = sum(m.num_rows for m in metas)
            nbytes = sum(_column_bytes(m, cols) for m in metas)
            ntasks = max(ntasks, -(-nbytes // WAVE_TASK_BYTES))
            ds = ray.data.read_parquet(files, columns=cols,
                                       override_num_blocks=ntasks)
        else:
            # json/csv ingestion (reference S1-S5 decoder registry
            # analog). Materialize once: count() and the tokenize pass
            # would otherwise EACH execute the decode read (a 2x read of
            # the raw corpus); cached blocks spill via the object store
            from .sinks import read_corpus
            ds = read_corpus(files, columns=cols).materialize()
            n_docs = ds.count()
        if len(files) < ntasks:
            # Ray Data reads a file in ONE task and fuses the maps below
            # into it (it only splits that task's output blocks when they
            # are few and small), so a wave of fewer files than tasks
            # would run as len(files) tasks: on 4 CPUs one 107 MB file
            # took 6.5-7.8 s in phase 1 as one task, 3.6-3.8 s as four.
            # Re-split the read into ntasks equal blocks, one task each;
            # the read's output passes through the object store first
            ds = ds.repartition(ntasks)
        if self.html_col:
            from .functions.extract import extract_text_batch
            ds = ds.map_batches(extract_text_batch, batch_format="pyarrow",
                                batch_size=None, zero_copy_batch=True,
                                fn_kwargs=dict(html_col=self.html_col,
                                               text_col=self.text_col))
        fn_kwargs = dict(mode=self.mode, text_col=self.text_col,
                         id_col=self.id_col, url_col=self.url_col,
                         positions=self.positions)
        # stateless tasks: no actor startup, elastic across the cluster.
        # Whole blocks (batch_size=None): one task per read (or re-split)
        # block, a read fused into it
        post = ds.map_batches(tokenize_postings,
                              batch_format="pyarrow", batch_size=None,
                              fn_kwargs=fn_kwargs,
                              zero_copy_batch=True)
        # n_tokens is NOT computed here: the segment phase sums each
        # part's tfs as it encodes (part sidecars → finalize)
        return self._commit_wave(wave, post, {
            "wave": wave, "files": list(files), "n_docs": int(n_docs)})

    def _commit_wave(self, wave: int, post, meta: dict) -> dict:
        """Write ``post`` (postings, each task's output sorted by
        (term_id, doc_id)) as wave ``wave``'s postings through
        ``Spill.write_parts``, split by ``part`` = term_id % num_parts,
        and commit it with the ``meta`` sidecar.

        THE shuffle, on disk: each write task splits its postings by
        part (hash of term), so phase 2 reads each part's runs directly
        — no sort-based all-to-all exchange. (Measured: Ray's groupby
        sort+map_groups on the same data ran the per-group encode with
        almost no parallelism; this layout also makes the shuffle
        itself restartable — it lives on disk, per wave.)"""
        num_parts = self.num_parts

        def add_part(t: pa.Table) -> pa.Table:
            part = t["term_id"].to_numpy() % np.uint64(num_parts)
            return t.append_column("part", pa.array(
                part.astype(np.min_scalar_type(num_parts - 1))))

        post = post.map_batches(add_part, batch_format="pyarrow",
                                batch_size=None, zero_copy_batch=True)
        post.context.target_max_block_size = WAVE_BLOCK_BYTES
        final = self.scratch.join(f"wave={wave:04d}")

        def write(path: str) -> None:
            # the wave sidecar (published below, after the data) is the
            # commit marker — _wave_done requires BOTH — so a postings
            # dir without one is an uncommitted leftover: clear it
            try:
                self.scratch.fs.delete_dir(final)
            except (FileNotFoundError, OSError):
                pass
            # sub() makes the wave dir, also for a wave without postings
            wave_sp = self.scratch.sub(os.path.basename(path))
            wave_sp.write_parts(post, "part")
        if self.scratch_local:
            publish(final, write)
        else:  # object stores have no atomic dir rename
            write(final)
        publish_json(wave_path(self.index_dir, wave), meta)
        return meta

    # ----- phase 2: shuffle → segments (per part, resumable) -------------
    def _done_parts(self) -> set[int]:
        return {p for p in range(self.num_parts)
                if os.path.exists(part_path(self.segments_dir, p, "json"))}

    def _encode_parts(self, postings_of, sizes,
                      max_parts: int | None = None) -> list[int]:
        """THE segment rewrite of build, absorb, merge and purge (the
        reference's one baseMergeIndex, column.go:418-604): one Ray task
        per uncommitted part runs ``postings_of(part)``, a table in
        ``segment.postings_schema(self.positions)`` (it must not capture
        ``self``), and commits
        the part through the one ``SegmentWriter``, so a rerun skips
        committed parts. Largest ``sizes(part)`` first, so the Zipf-head
        part does not become the phase's tail straggler. A part task's
        error is raised once every task has ended. ``max_parts``
        bounds one round; returns the deferred parts."""
        done = self._done_parts()
        todo = sorted((p for p in range(self.num_parts) if p not in done),
                      key=sizes, reverse=True)
        cut = len(todo) if max_parts is None else max_parts
        todo, deferred = todo[:cut], todo[cut:]
        if not todo:
            return deferred
        # manifest lineage: the postings waves (none for merge and purge)
        lineage = [f"wave={w}" for w in self.scratch.list_parts("wave")]
        writer = SegmentWriter(self.segments_dir, lineage=lineage,
                               positions=self.positions)
        # plain tasks, not a Ray Data map: nothing waits on a first task's
        # output-size estimate, and submission order is largest first
        from .remote import remote_1cpu
        task = remote_1cpu(_encode_part)
        refs = [task.remote(writer, postings_of, p) for p in todo]
        # every task ends before the first error surfaces: no part task
        # is still writing segment files once this returns or raises
        ray.wait(refs, num_returns=len(refs))
        ray.get(refs)
        return deferred

    def build_segments(self) -> list[dict]:
        # every committed wave sidecar must still have its postings on
        # scratch — otherwise the segments would silently drop those
        # waves' docs while finalize() still counts their sidecars
        missing = [w["wave"] for w in read_waves(self.index_dir)
                   if not self._wave_done(w["wave"])]
        if missing:
            raise RuntimeError(
                f"wave postings lost from scratch for {missing}; re-run "
                "build()/absorb() (they re-tokenize lost waves) or point "
                "scratch_dir at durable storage")
        wave_dirs = list(self.scratch.list_parts("wave").values())
        if not wave_dirs:
            raise RuntimeError("no committed postings waves")
        sp = self.scratch  # picklable: captured by the encode tasks
        schema = postings_schema(self.positions)

        def gather(p: int):
            # this part's postings from every wave (hive layout
            # wave=*/part=p/). Spill.read_table reads with
            # use_threads=False: each task owns ONE cpu — 64 concurrent
            # tasks each spinning up Arrow's full thread pool thrash the
            # node (threads = tasks × cores)
            tables = [sp.read_table(f"{wd}/part={p}", columns=schema.names)
                      for wd in wave_dirs
                      if sp.exists_dir(f"{wd}/part={p}")]
            return pa.concat_tables(tables) if tables \
                else schema.empty_table()

        def spill_bytes(p: int) -> int:
            return sum(sp.dir_bytes(f"{wd}/part={p}") for wd in wave_dirs)

        self._encode_parts(gather, spill_bytes)
        return [read_part_row(self.segments_dir, p)
                for p in range(self.num_parts)]

    # ----- finalize: manifest, then stats.json (the commit) -------------
    def finalize(self) -> dict:
        waves = read_waves(self.index_dir)
        n_docs = sum(w["n_docs"] for w in waves)
        part_rows = [read_part_row(self.segments_dir, p)
                     for p in sorted(self._done_parts())]
        n_tokens = sum(r.get("n_tokens", 0) for r in part_rows)
        stats = {
            "version": __version__, "mode": self.mode,
            "num_parts": self.num_parts,
            "n_docs": n_docs, "total_tokens": n_tokens,
            "avgdl": (n_tokens / n_docs) if n_docs else 0.0,
            "k1": BM25_K1, "b": BM25_B, "positions": self.positions,
            "waves": [w["wave"] for w in waves],
        }
        if part_rows:
            publish(manifest_path(self.index_dir), lambda tmp: pq.write_table(
                _manifest_table(part_rows), tmp))
        publish_json(stats_path(self.index_dir), stats)
        return stats

    # ----- incremental absorb --------------------------------------------
    def absorb(self, new_files: list[str] | str) -> dict:
        """Incremental maintenance (the reference's Regist-picks-up-new-
        files story, indexer.go:77-93): tokenize ONLY the new files as a
        fresh wave, then re-encode segments from all waves. Existing
        waves' postings are reused (no re-tokenize); segment re-encode is
        the merge step, resumable per partition like any build."""
        if isinstance(new_files, str):
            new_files = [new_files]
        # scratch_dir may be ephemeral (/dev/shm): any committed wave whose
        # postings dir is gone must be re-tokenized BEFORE segments are
        # rebuilt, or the new segments silently drop those waves' docs
        # while finalize() still counts their sidecars (corrupting n_docs/
        # avgdl and every BM25 score)
        next_wave = 0
        done_files: set[str] = set()
        for meta in read_waves(self.index_dir):
            w = meta["wave"]
            next_wave = max(next_wave, w + 1)
            if not self._wave_done(w):
                os.remove(wave_path(self.index_dir, w))
                self.build_postings_wave(w, meta["files"])
            done_files.update(meta["files"])
        # crash-idempotence (file-level dirty filter, the reference's
        # Regist-skips-known-files behavior): a file whose wave sidecar
        # already committed must NOT be re-ingested when an interrupted
        # absorb is re-run — without this, the retry double-counts its
        # docs (found by tests/test_chaos.py mid-absorb kill). File
        # identity is the path string as recorded in the sidecar.
        new_files = [f for f in new_files if f not in done_files]
        if new_files:
            self.build_postings_wave(next_wave, new_files)
            # invalidate committed partitions: their inputs changed
            for name in os.listdir(self.segments_dir):
                path = os.path.join(self.segments_dir, name)
                os.remove(path)
        # (re-)encode whatever is missing: after a mid-absorb crash the
        # wave may already be committed with only some segments rebuilt
        self.build_segments()
        return self.finalize()

    # ----- one-call build -------------------------------------------------
    def build(self, input_files: list[str] | str, waves: int = 1) -> dict:
        if isinstance(input_files, str):
            input_files = [input_files]
        if len(self._done_parts()) == self.num_parts:
            return self.finalize()  # fully committed; scratch may be gone
        chunks = np.array_split(np.array(input_files, dtype=object),
                                min(waves, len(input_files)))
        for i, chunk in enumerate(chunks):
            self.build_postings_wave(i, [str(f) for f in chunk])
        self.build_segments()
        return self.finalize()


def _column_bytes(meta: pq.FileMetaData, cols: list[str]) -> int:
    """Uncompressed bytes of the top-level columns ``cols`` in a parquet
    file, from its footer."""
    total = 0
    for g in range(meta.num_row_groups):
        rg = meta.row_group(g)
        total += sum(rg.column(i).total_uncompressed_size
                     for i in range(rg.num_columns)
                     if rg.column(i).path_in_schema in cols)
    return total


def _encode_part(writer: SegmentWriter, postings_of, part: int) -> None:
    """One ``_encode_parts`` task: encode and commit ``part``."""
    writer.encode_part(part, postings_of(part))


def verify_index(index_dir: str) -> dict:
    """Integrity audit for a committed index (the ops tool a 100 TB
    deployment runs after copy/restore): every partition's segment file
    must exist with the byte size its sidecar recorded and the current
    format (its footer is opened, so an index an older version wrote
    reports "must be rebuilt" here, not at its first query; a
    positional segment must hold its part's ``n_tokens`` ordinals),
    every
    part in [0, num_parts) must be committed, wave sidecars must sum to
    stats.n_docs, and part sidecars to stats.total_tokens. Returns
    {"ok": bool, "errors": [...], "parts": N, "n_docs": N}."""
    errors: list[str] = []
    reader = SegmentReader(index_dir)
    stats, seg_dir = reader.stats, reader.segments_dir
    tok = 0
    for part in range(stats["num_parts"]):
        if not os.path.exists(part_path(seg_dir, part, "json")):
            errors.append(f"missing sidecar part={part}")
            continue
        row = read_part_row(seg_dir, part)
        tok += row.get("n_tokens", 0)
        f_path = part_path(seg_dir, part)
        if (os.path.exists(f_path)
                and os.path.getsize(f_path) != row.get("output_bytes")):
            errors.append(
                f"segment size mismatch part={part}: "
                f"{os.path.getsize(f_path)} != {row.get('output_bytes')}")
            continue
        try:  # a missing file raises too: truncated, or older format
            reader.check_format(part)
        except (RuntimeError, pa.ArrowInvalid) as e:
            errors.append(f"part={part}: {e}")
    n_docs = sum(w["n_docs"] for w in read_waves(index_dir))
    if n_docs != stats["n_docs"]:
        errors.append(f"wave n_docs {n_docs} != stats {stats['n_docs']}")
    if tok != stats["total_tokens"]:
        errors.append(
            f"token sum {tok} != stats {stats['total_tokens']}")
    return {"ok": not errors, "errors": errors,
            "parts": stats["num_parts"], "n_docs": stats["n_docs"]}
