"""Segment files: the one module that names, writes and reads them.

An index keeps one segment per hash partition (``part = term_id % P``)
under ``segments/``:

- ``part=NNNNN.parquet`` — one row per (term_id, doc bucket) chunk in
  ``codec.encode_partition``'s schema, lexsorted by term_id, lz4, row
  groups sized by bytes;
- ``part=NNNNN.bloom`` — a bloom filter over the part's term ids;
- ``part=NNNNN.json`` — the part's manifest row; it marks the part
  committed.

Every build, merge, purge and repartition writes all P parts, empty ones
included, so a missing segment file always means a truncated index.
``SegmentWriter`` is the one writer; ``SegmentReader`` serves every
read (term point reads, key-range scans, nearest-key probes, whole-part
decodes, the Ray Data read of ``bm25_topk_ray``) and the per-part
fan-out over them. The reference reads its index files through one
abstraction the same way (index_file.go:664-749, 974-1003).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .codec import chunk_rows_columnar, decode_chunk, encode_partition


def segments_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "segments")


def part_path(seg_dir: str, part: int, ext: str = "parquet") -> str:
    """The part's segment (``parquet``), bloom or manifest (``json``)
    file."""
    return os.path.join(seg_dir, f"part={part:05d}.{ext}")


def _atomic_write_json(path: str, obj: dict) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


_MANIFEST_SCHEMA = pa.schema([
    ("part", pa.int32()), ("n_chunks", pa.int64()), ("n_terms", pa.int64()),
    ("n_postings", pa.int64()), ("n_tokens", pa.int64()),
    ("term_min", pa.uint64()), ("term_max", pa.uint64()),
    ("file", pa.string()), ("status", pa.string()),
    ("inputs", pa.list_(pa.string())), ("encode_seconds", pa.float64()),
    ("output_bytes", pa.int64()),
])


def _manifest_table(rows: list[dict]) -> pa.Table:
    return pa.Table.from_pylist(rows, schema=_MANIFEST_SCHEMA)


def _dedup_sorted_postings(terms, docs, tfs, dls):
    """Collapse duplicate (term, doc) rows (tf summed, dl maxed).

    Inputs sorted by (term, doc). Duplicates only occur if the same doc_id
    appears in multiple input batches/waves (e.g. re-crawled url) — the
    build is tolerant; true dedup is a separate operator (functions.dedup).
    """
    n = len(terms)
    if n == 0:
        return terms, docs, tfs, dls
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = (terms[1:] != terms[:-1]) | (docs[1:] != docs[:-1])
    if new.all():
        return terms, docs, tfs, dls
    starts = np.flatnonzero(new)
    tfs2 = np.add.reduceat(tfs, starts)
    dls2 = np.maximum.reduceat(dls, starts)
    return terms[starts], docs[starts], tfs2, dls2


def decode_rows(rows: list[dict]):
    """Decode chunk rows and concatenate them in row order:
    (docs, tfs, dls) uint64 arrays."""
    if not rows:
        e = np.empty(0, np.uint64)
        return e, e.copy(), e.copy()
    parts = [decode_chunk(r) for r in rows]
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(3))


class SegmentWriter:
    """Encodes one hash partition of postings → one segment file.

    Idempotent: deterministic content (lexsort + dedup), atomic publish
    (tmp + rename), sidecar JSON row marks the partition committed.
    Used as a per-part task over the disk-partitioned postings (phase 2);
    ``__call__`` also accepts an in-memory group table (merge path, tests).
    """

    # ~1 MB of chunk-row payload per parquet row group: a term point
    # lookup decompresses one group, so the group byte size — not a
    # fixed row count — bounds read amplification. Fat rows (unbucketed
    # head terms, ~150 KB/chunk) get few rows per group; skinny bucketed
    # chunks keep the 4096 cap. Measured on a 1.6M-doc index: head-term
    # pushdown read 88→31 ms together with lz4 (below).
    ROW_GROUP_TARGET_BYTES = 1 << 20

    def __init__(self, segments_dir: str, bucket_shift: int,
                 lineage: list[str] | None = None,
                 block_size: int | None = None,
                 compression: str = "lz4"):
        from .codec import BLOCK
        self.segments_dir = segments_dir
        self.bucket_shift = bucket_shift
        self.lineage = lineage or []
        self.block_size = int(block_size or BLOCK)
        # lz4 over zstd: the varint payload is already entropy-dense, so
        # zstd buys only ~12% size but costs ~2x on every query-path
        # read (measured, BASELINE.md round-3 late)
        self.compression = compression

    def encode_part(self, part: int, postings: pa.Table) -> pa.Table:
        import time
        t_start = time.perf_counter()
        terms = postings["term_id"].to_numpy(zero_copy_only=False
                                             ).astype(np.uint64)
        docs = postings["doc_id"].to_numpy(zero_copy_only=False
                                           ).astype(np.uint64)
        tfs = postings["tf"].to_numpy(zero_copy_only=False).astype(np.uint64)
        dls = postings["dl"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.lexsort((docs, terms))
        terms, docs, tfs, dls = (terms[order], docs[order],
                                 tfs[order], dls[order])
        terms, docs, tfs, dls = _dedup_sorted_postings(terms, docs, tfs, dls)
        seg = encode_partition(terms, docs, tfs, dls, self.bucket_shift,
                               block_size=self.block_size)

        final = part_path(self.segments_dir, part)
        tmp = os.path.join(self.segments_dir,
                           ".tmp." + os.path.basename(final))
        # byte-targeted row groups (see ROW_GROUP_TARGET_BYTES)
        avg_row = max(seg.nbytes / max(seg.num_rows, 1), 1.0)
        rg = int(min(4096, max(16, self.ROW_GROUP_TARGET_BYTES // avg_row)))
        pq.write_table(seg, tmp, compression=self.compression,
                       row_group_size=rg)
        # term bloom filter beside the segment: absent-term lookups skip
        # the parquet read entirely (segment-level negative cache).
        # Published BEFORE the segment: a concurrent reader pairing the
        # new bloom with the old segment only over-approximates (extra
        # parquet read); the reverse order could pair a stale bloom with
        # the new segment and silently answer df=0 for a present term.
        from .codec import bloom_build
        bloom = part_path(self.segments_dir, part, "bloom")
        bloom_tmp = os.path.join(self.segments_dir,
                                 ".tmp." + os.path.basename(bloom))
        with open(bloom_tmp, "wb") as f:
            f.write(bloom_build(terms, assume_sorted=True))
        os.replace(bloom_tmp, bloom)
        os.replace(tmp, final)
        row = {
            "part": part,
            "n_chunks": seg.num_rows,
            # terms are sorted here: distinct count = boundary count
            # (np.unique would re-sort 10^6 values per part, which the
            # 32-way-concurrent encode amplifies via memory bandwidth)
            "n_terms": int(1 + np.count_nonzero(terms[1:] != terms[:-1])
                           if len(terms) else 0),
            "n_postings": int(len(terms)),
            "n_tokens": int(tfs.sum()),
            "term_min": int(terms.min()) if len(terms) else 0,
            "term_max": int(terms.max()) if len(terms) else 0,
            "file": final,
            "status": "committed",
            # per-partition lineage + metrics (north_rule)
            "inputs": list(self.lineage),
            "encode_seconds": round(time.perf_counter() - t_start, 4),
            "output_bytes": os.path.getsize(final),
        }
        _atomic_write_json(part_path(self.segments_dir, part, "json"), row)
        return _manifest_table([row])

    def __call__(self, group: pa.Table) -> pa.Table:
        """Group-table form (merge path / tests): part from the column."""
        part = int(group["part"][0].as_py())
        return self.encode_part(part, group)


class SegmentReader:
    """Every read of one index's segment files.

    Picklable (the bloom cache stays behind), so Ray tasks receive it;
    ``map_parts`` runs ``fn(reader, part, ...)`` over all parts, as one
    Ray task per part or as a local loop. ``io_threads=False`` for
    readers inside Ray tasks or 1-cpu actors: Arrow's default thread
    pool × concurrent tasks oversubscribes the node; the scan, probe and
    decode reads below run inside tasks and always read
    single-threaded.
    """

    def __init__(self, index_dir: str, num_parts: int,
                 io_threads: bool = True):
        self.segments_dir = segments_dir(index_dir)
        self.num_parts = int(num_parts)
        self.io_threads = bool(io_threads)
        self._blooms: dict[int, bytes | None] = {}

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_blooms": {}}

    def path(self, part: int) -> str:
        """The part's segment file. 'Term absent' is an empty read of an
        existing file; a MISSING file means the index is truncated (a
        partial copy, an interrupted absorb) — answering as if the part
        were empty would return wrong results from an index whose
        stats.json claims coverage."""
        path = part_path(self.segments_dir, part)
        if not os.path.exists(path):
            raise RuntimeError(
                f"index partition file missing: {path} (stats.json "
                f"claims num_parts={self.num_parts}); the index is "
                "truncated or mid-rebuild")
        return path

    def check(self) -> None:
        """Raise unless every part's segment file exists."""
        for part in range(self.num_parts):
            self.path(part)

    def bloom(self, part: int) -> bytes | None:
        """The part's term bloom filter, loaded once (None if absent —
        older indexes have no bloom files)."""
        if part not in self._blooms:
            try:
                with open(part_path(self.segments_dir, part, "bloom"),
                          "rb") as f:
                    self._blooms[part] = f.read()
            except OSError:
                self._blooms[part] = None
        return self._blooms[part]

    # ----- the four read shapes -----------------------------------------
    def load_terms(self, part: int, tids: list[int]
                   ) -> dict[int, list[dict]]:
        """Term point read: the chunk rows of each of ``tids`` (all in
        ``part``), via row-group pushdown on the sorted term_id column;
        rows hold numpy views, bucket ascending."""
        tbl = pq.read_table(
            self.path(part),
            filters=[("term_id", "in", [np.uint64(t) for t in tids])],
            use_threads=self.io_threads)
        rows: dict[int, list[dict]] = {t: [] for t in tids}
        for row in chunk_rows_columnar(tbl):
            rows[int(row["term_id"])].append(row)
        return rows

    def read_range(self, part: int, lo: int | None = None,
                   hi: int | None = None, columns: list[str] | None = None
                   ) -> pa.Table:
        """Key-range read: the part's chunk rows with
        ``lo <= term_id <= hi`` (None = open bound), only row groups
        overlapping the range decompressed."""
        filters = []
        if lo is not None:
            filters.append(("term_id", ">=", np.uint64(lo)))
        if hi is not None:
            filters.append(("term_id", "<=", np.uint64(hi)))
        return pq.read_table(self.path(part), columns=columns,
                             filters=filters or None, use_threads=False)

    def nearest(self, part: int, key: int, less: bool
                ) -> tuple[int, int] | None:
        """Nearest-key probe: (term_id, df) of the part's largest term
        <= key (``less``) or smallest >= key. Reads one row group picked
        from the term_id min/max statistics, two columns."""
        key_u = np.uint64(key)
        pf = pq.ParquetFile(self.path(part))
        md = pf.metadata
        ki = pf.schema_arrow.names.index("term_id")
        cand_gi = None
        ok_stats = True
        for gi in range(md.num_row_groups):
            st = md.row_group(gi).column(ki).statistics
            if st is None or not st.has_min_max:
                ok_stats = False
                break
            if less:
                if np.uint64(st.min) <= key_u:
                    cand_gi = gi  # last group containing keys <= key
            else:
                if np.uint64(st.max) >= key_u:
                    cand_gi = gi  # first group containing keys >= key
                    break
        if ok_stats and cand_gi is None:
            return None
        if ok_stats:
            tbl = pf.read_row_groups([cand_gi], columns=["term_id", "df"],
                                     use_threads=False)
        else:  # stats unavailable: full read of 2 columns
            tbl = self.read_range(part, columns=["term_id", "df"])
        terms = tbl["term_id"].to_numpy(zero_copy_only=False)
        dfs = tbl["df"].to_numpy(zero_copy_only=False)
        mask = terms <= key_u if less else terms >= key_u
        if not mask.any():
            return None
        idx = np.flatnonzero(mask)
        i = idx[-1] if less else idx[0]
        return (int(terms[i]), int(dfs[i]))

    def decode_part(self, part: int, lo: int | None = None,
                    hi: int | None = None):
        """Whole-part decode (or of the terms in [lo, hi]): flat postings
        (terms, docs, tfs, dls), ordered (term asc, bucket asc → doc
        asc)."""
        tbl = self.read_range(part, lo, hi)
        terms = np.repeat(tbl["term_id"].to_numpy(zero_copy_only=False),
                          tbl["n"].to_numpy(zero_copy_only=False
                                            ).astype(np.int64))
        return (terms.astype(np.uint64),
                *decode_rows(chunk_rows_columnar(tbl)))

    def terms_dataset(self, tids: list[int]):
        """Ray Dataset of the chunk rows of ``tids``, read from the parts
        that hold them with the term filter pushed down."""
        import pyarrow.compute as pc
        import ray.data
        files = [self.path(p)
                 for p in sorted({t % self.num_parts for t in tids})]
        return ray.data.read_parquet(
            files, filter=pc.field("term_id").isin(
                [np.uint64(t) for t in tids]))

    # ----- fan-out --------------------------------------------------------
    def map_parts(self, fn, *args, distributed: bool | None = None
                  ) -> list:
        """``[fn(self, part, *args) for part in range(num_parts)]``, as
        one 1-cpu Ray task per part when ``distributed`` (None = when Ray
        is up and there is more than one part), else a local loop. Every
        part file must exist. ``fn`` is a module-level function or
        method (its Ray remote is cached per function)."""
        self.check()
        parts = range(self.num_parts)
        if distributed is None:
            import ray
            distributed = ray.is_initialized() and self.num_parts > 1
        if not distributed:
            return [fn(self, p, *args) for p in parts]
        import ray

        from .remote import remote_1cpu
        task = remote_1cpu(fn)
        return ray.get([task.remote(self, p, *args) for p in parts])
