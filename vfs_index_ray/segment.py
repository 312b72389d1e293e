"""Segment files: the one module that names, writes and reads them.

An index keeps one segment per hash partition (``part = term_id % P``)
under ``segments/``:

- ``part=NNNNN.arrow`` — an Arrow IPC file of one uncompressed record
  batch: one row per (term_id, doc bucket) chunk in
  ``codec.SEGMENT_SCHEMA``, lexsorted by term_id. A read memory-maps
  the file, binary-searches the term_id column and slices the rows it
  wants: zero-copy views of the file's pages, never a decompress;
- ``part=NNNNN.bloom`` — a bloom filter over the part's term ids;
- ``part=NNNNN.json`` — the part's manifest row; it marks the part
  committed.

A ``positions=True`` index also keeps ``positions/part=NNNNN.parquet``
beside ``segments/``: the part's (term_id, doc_id, pos) rows sorted by
(term_id, doc_id); an empty part has none.

Every build, merge, purge and repartition writes all P parts, empty ones
included, so a missing segment file always means a truncated index.
``SegmentWriter`` is the one writer; ``SegmentReader`` serves every
read (term point reads, key-range scans, nearest-key probes, whole-part
decodes, the Ray Data read of ``bm25_topk_ray``) and the per-part
fan-out over them. A segment file of any other schema or layout (one
written by an older version) is refused with a "must be rebuilt"
error. The reference reads its index files through one abstraction
the same way: it pages them in and binary-searches a sorted key list
(index_file.go:664-749, 974-1003).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .codec import SEGMENT_SCHEMA, Chunks, decode_blocks, encode_partition

_FIELDS = SEGMENT_SCHEMA.names
_U64_MAX = (1 << 64) - 1
# positions file codec. Segments are not compressed: lz4 shrank them
# by a third (mostly the tfs column; docs and dls barely compress), but
# cost a whole-part decompress per cold term read
_POSITIONS_COMPRESSION = "lz4"


def segments_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "segments")


def part_path(seg_dir: str, part: int, ext: str = "arrow") -> str:
    """The part's segment (``arrow``), bloom or manifest (``json``)
    file."""
    return os.path.join(seg_dir, f"part={part:05d}.{ext}")


def read_part_row(seg_dir: str, part: int) -> dict:
    """The part's manifest row, from its sidecar."""
    with open(part_path(seg_dir, part, "json")) as f:
        return json.load(f)


def positions_path(seg_dir: str, part: int) -> str:
    """The part's positions file, beside the segments directory."""
    return os.path.join(os.path.dirname(seg_dir), "positions",
                        f"part={part:05d}.parquet")


# small row groups: a head term's positions span many groups, and a
# phrase with few candidate docs reads only the groups holding them
# (lz4: 18% faster term-scoped reads than zstd for 22% more bytes — the
# serving index prefers read speed)
POSITIONS_ROW_GROUP = 32768


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


class SegmentWriter:
    """Encodes one hash partition of postings → one segment file.

    Idempotent: deterministic content (lexsort + dedup), atomic publish
    (tmp + rename), sidecar JSON row marks the partition committed.
    Runs inside the per-part tasks of ``IndexBuilder._encode_parts``.
    """

    def __init__(self, segments_dir: str, bucket_shift: int,
                 lineage: list[str] | None = None):
        self.segments_dir = segments_dir
        self.bucket_shift = bucket_shift
        self.lineage = lineage or []

    @staticmethod
    def _write_segment(seg: pa.Table, path: str) -> None:
        """``seg`` as an IPC file of one uncompressed record batch (an
        empty one for an empty part)."""
        batch = pa.record_batch([c.combine_chunks() for c in seg.columns],
                                schema=seg.schema)
        with pa.OSFile(path, "wb") as sink, \
                pa.ipc.new_file(sink, seg.schema) as writer:
            writer.write_batch(batch)

    def _write_positions(self, part: int, positions: pa.Table) -> None:
        """``positions`` (term_id, doc_id, pos) as the part's positions
        file, sorted by (term_id, doc_id); nothing for an empty part."""
        if positions.num_rows == 0:
            return
        t = positions["term_id"].to_numpy(zero_copy_only=False)
        d = positions["doc_id"].to_numpy(zero_copy_only=False)
        # no schema metadata: the file's bytes depend only on its rows
        tbl = positions.take(np.lexsort((d, t))).replace_schema_metadata()
        final = positions_path(self.segments_dir, part)
        os.makedirs(os.path.dirname(final), exist_ok=True)
        tmp = os.path.join(os.path.dirname(final),
                           ".tmp." + os.path.basename(final))
        pq.write_table(tbl, tmp, compression=_POSITIONS_COMPRESSION,
                       row_group_size=POSITIONS_ROW_GROUP)
        os.replace(tmp, final)

    def encode_part(self, part: int, postings: pa.Table,
                    positions: pa.Table | None = None) -> pa.Table:
        """Encode and publish the part's segment (and its positions
        file, when ``positions`` is given), then commit the part."""
        import time
        if positions is not None:
            self._write_positions(part, positions)
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
        seg = encode_partition(terms, docs, tfs, dls, self.bucket_shift)

        final = part_path(self.segments_dir, part)
        tmp = os.path.join(self.segments_dir,
                           ".tmp." + os.path.basename(final))
        self._write_segment(seg, tmp)
        # term bloom filter beside the segment: absent-term lookups skip
        # the segment read entirely (segment-level negative cache).
        # Published BEFORE the segment: a concurrent reader pairing the
        # new bloom with the old segment only over-approximates (extra
        # segment read); the reverse order could pair a stale bloom with
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


class SegmentReader:
    """Every read of one index's segment files.

    Picklable (the bloom cache stays behind), so Ray tasks receive it;
    ``map_parts`` runs ``fn(reader, part, ...)`` over all parts, as one
    Ray task per part or as a local loop. Every read returns views into
    the memory-mapped file, which stays mapped while any view is alive;
    so segment files are only ever replaced (tmp + rename), never
    rewritten in place, which would fault a reader's views.
    """

    def __init__(self, index_dir: str, num_parts: int):
        self.segments_dir = segments_dir(index_dir)
        self.num_parts = int(num_parts)
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
            if os.path.exists(part_path(self.segments_dir, part,
                                        "parquet")):
                raise RuntimeError(
                    f"{path} not found, but a Parquet segment is: the "
                    "index uses the old Parquet segment format and must "
                    "be rebuilt")
            raise RuntimeError(
                f"index partition file missing: {path} (stats.json "
                f"claims num_parts={self.num_parts}); the index is "
                "truncated or mid-rebuild")
        return path

    def check(self) -> None:
        """Raise unless every part's segment file exists."""
        for part in range(self.num_parts):
            self.path(part)

    def check_format(self, part: int) -> None:
        """Raise the "must be rebuilt" error unless the part's segment
        file has the current schema and layout; maps the file and reads
        only its IPC metadata."""
        self._batch(part, None)

    def read_positions(self, part: int, filters=None) -> pa.Table | None:
        """The part's positions rows matching the Parquet ``filters``
        (None = all); None if the part has no positions file."""
        path = positions_path(self.segments_dir, part)
        if not os.path.exists(path):
            return None
        return pq.read_table(path, filters=filters, use_threads=False)

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

    # ----- the one read path ----------------------------------------------
    def _batch(self, part: int, columns: list[str] | None
               ) -> pa.RecordBatch:
        """The part's record batch, its columns zero-copy views of the
        memory-mapped file; only ``columns`` (plus term_id) are read.
        The columns are projected by their index in ``SEGMENT_SCHEMA``,
        so a file of another schema (0.5.0's delta-varint ``denc`` and
        ``skip_off_*`` columns) is refused, not read shifted; so is a
        file of several batches or with schema metadata (0.4.0 wrote lz4
        batches cut every ~1 MB and a first-term directory)."""
        fields = None if columns is None else [
            i for i, name in enumerate(_FIELDS)
            if name == "term_id" or name in columns]
        want = SEGMENT_SCHEMA if fields is None else pa.schema(
            [SEGMENT_SCHEMA.field(i) for i in fields])
        options = pa.ipc.IpcReadOptions(included_fields=fields)
        path = self.path(part)
        with pa.memory_map(path) as source:
            reader = pa.ipc.open_file(source, options=options)
            if (not reader.schema.equals(want) or reader.schema.metadata
                    or reader.num_record_batches != 1):
                raise RuntimeError(
                    f"{path} has an old segment schema or layout: the "
                    "index was written by an older version and must be "
                    "rebuilt")
            return reader.get_batch(0)

    @staticmethod
    def _slices(batch: pa.RecordBatch, bounds) -> list[pa.RecordBatch]:
        """The rows with ``lo <= term_id <= hi`` for each ``(lo, hi)`` of
        ascending, disjoint ``bounds`` (None = open), in term order, as
        slices of ``batch``; empty ones are left out. Two binary searches
        of the term_id column find them all."""
        tids = batch.column("term_id").to_numpy()
        lo = np.array([0 if b[0] is None else b[0] for b in bounds],
                      np.uint64)
        hi = np.array([_U64_MAX if b[1] is None else b[1] for b in bounds],
                      np.uint64)
        starts = np.searchsorted(tids, lo).tolist()
        stops = np.searchsorted(tids, hi, "right").tolist()
        return [batch.slice(i, j - i) for i, j in zip(starts, stops)
                if i < j]

    def _read(self, part: int, bounds, columns: list[str] | None = None
              ) -> pa.Table:
        """The part's rows in ``bounds`` (see ``_slices``) as a table of
        ``columns`` (None = all)."""
        batch = self._batch(part, columns)
        tbl = pa.Table.from_batches(self._slices(batch, bounds),
                                    schema=batch.schema)
        return tbl if columns is None else tbl.select(columns)

    # ----- the four read shapes -----------------------------------------
    def load_terms(self, part: int, tids: list[int]) -> dict[int, Chunks]:
        """Term point read: the chunk rows of each of ``tids`` (all in
        ``part``) as column views into the memory-mapped file, bucket
        ascending; an absent term gets no rows."""
        out = {t: Chunks() for t in tids}
        batch = self._batch(part, None)
        for rows in self._slices(batch,
                                 [(t, t) for t in sorted(set(tids))]):
            out[rows.column("term_id")[0].as_py()] = Chunks(rows)
        return out

    def read_range(self, part: int, lo: int | None = None,
                   hi: int | None = None, columns: list[str] | None = None
                   ) -> pa.Table:
        """Key-range read: the part's chunk rows with
        ``lo <= term_id <= hi`` (None = open bound)."""
        return self._read(part, [(lo, hi)], columns)

    def nearest(self, part: int, key: int, less: bool
                ) -> tuple[int, int] | None:
        """Nearest-key probe: (term_id, df) of the part's largest term
        <= key (``less``) or smallest >= key."""
        batch = self._batch(part, ["term_id", "df"])
        tids = batch.column("term_id").to_numpy()
        key = np.uint64(key)
        i = (int(np.searchsorted(tids, key, "right")) - 1 if less
             else int(np.searchsorted(tids, key)))
        if not 0 <= i < len(tids):
            return None
        return int(tids[i]), int(batch.column("df")[i].as_py())

    def decode_part(self, part: int, lo: int | None = None,
                    hi: int | None = None):
        """Whole-part decode (or of the terms in [lo, hi]): flat postings
        (terms, docs, tfs, dls), ordered (term asc, bucket asc → doc
        asc)."""
        rows = Chunks(self.read_range(part, lo, hi))
        terms = np.repeat(rows.column("term_id"),
                          rows.column("n").astype(np.int64))
        return (terms.astype(np.uint64), *decode_blocks(rows))

    def terms_dataset(self, tids: list[int]):
        """Ray Dataset of the chunk rows of ``tids``: one 1-cpu task per
        part that holds them."""
        import ray.data

        from .remote import remote_1cpu
        by_part: dict[int, list[tuple[int, int]]] = {}
        for t in sorted(set(tids)):
            by_part.setdefault(t % self.num_parts, []).append((t, t))
        for p in by_part:
            self.path(p)
        task = remote_1cpu(SegmentReader._read)
        return ray.data.from_arrow_refs(
            [task.remote(self, p, bounds) for p, bounds in by_part.items()])

    # ----- fan-out --------------------------------------------------------
    def map_parts(self, fn, *args) -> list:
        """``[fn(self, part, *args) for part in range(num_parts)]``, as
        one 1-cpu Ray task per part when Ray is up and there is more
        than one part, else a local loop. Every part file must exist.
        ``fn`` is a module-level function or method (its Ray remote is
        cached per function)."""
        import ray

        self.check()
        parts = range(self.num_parts)
        if not (ray.is_initialized() and self.num_parts > 1):
            return [fn(self, p, *args) for p in parts]
        from .remote import remote_1cpu
        task = remote_1cpu(fn)
        return ray.get([task.remote(self, p, *args) for p in parts])
