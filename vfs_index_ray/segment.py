"""The index's files: the one module that names, publishes and reads them.

An index directory holds (every name is built in the layout section
below, and every file is committed by its ``publish``):

- ``segments/part=NNNNN.arrow`` — one segment per hash partition
  (``part = term_id % P``), an Arrow IPC file of one uncompressed
  record batch: one row per term in ``codec.SEGMENT_SCHEMA`` (in
  ``codec.POSITIONAL_SCHEMA``, the same rows plus the ordinals of each
  term's postings, for a ``positions=True`` index), sorted by term_id.
  A read memory-maps the file, binary-searches the term_id column and
  slices the rows it wants: zero-copy views of the file's pages, never
  a decompress. An absent term is an empty binary search;
- ``segments/part=NNNNN.json`` — the part's manifest row; it marks the
  part committed;
- ``waves/wave=NNNN.json`` — one build wave's input files and doc
  count (merge, purge and repartition write a synthetic wave 0);
- ``manifest.parquet`` — the part rows as one table, then
  ``stats.json`` — the index's settings and corpus statistics,
  published last: an index is committed once it exists;
- ``tombstones/del-<sha1>.parquet`` — one ``delete_docs`` call's ids;
- ``purge/part=NNNNN.json`` — the ids a purge dropped from one part.

Every build, merge, purge and repartition writes all P parts, empty
ones included, so a missing file always means a truncated index.
``SegmentWriter`` is the one writer; ``SegmentReader`` serves every
read (term point reads, key-range scans, nearest-key probes, whole-part
decodes) and the per-part fan-out over them. A segment of any other
schema or layout than the index's stats.json calls for (one an older
version wrote) is refused with a "must be rebuilt" error. The reference
reads its index files through one abstraction the same way: it pages
them in and binary-searches a sorted key list (index_file.go:664-749,
974-1003), and keeps its state in file names and atomic renames.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa

from .codec import (POSITIONAL_SCHEMA, SEGMENT_SCHEMA, Chunks, _gather,
                    decode_positions, decode_postings, encode_partition,
                    encode_positions)
from .tokenizer import POS_TYPE

_U64_MAX = (1 << 64) - 1


# ----- the layout: every file of an index is named and published here --
def segments_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "segments")


def part_path(seg_dir: str, part: int, ext: str = "arrow") -> str:
    """The part's segment (``arrow``) or manifest (``json``) file."""
    return os.path.join(seg_dir, f"part={part:05d}.{ext}")


def read_part_row(seg_dir: str, part: int) -> dict:
    """The part's manifest row, from its sidecar."""
    with open(part_path(seg_dir, part, "json")) as f:
        return json.load(f)


def stats_path(index_dir: str) -> str:
    return os.path.join(index_dir, "stats.json")


def is_committed(index_dir: str) -> bool:
    """Whether the index's last file, stats.json, is published."""
    return os.path.exists(stats_path(index_dir))


def read_stats(index_dir: str) -> dict:
    """The index's stats.json: its settings and corpus statistics."""
    with open(stats_path(index_dir)) as f:
        return json.load(f)


def manifest_path(index_dir: str) -> str:
    return os.path.join(index_dir, "manifest.parquet")


def wave_path(index_dir: str, wave: int) -> str:
    return os.path.join(index_dir, "waves", f"wave={wave:04d}.json")


def read_waves(index_dir: str) -> list[dict]:
    """The committed wave sidecars, in wave order."""
    d = os.path.dirname(wave_path(index_dir, 0))
    names = sorted(os.listdir(d)) if os.path.isdir(d) else []
    return [json.loads(Path(d, name).read_text()) for name in names
            if name.startswith("wave=")]


def tombstones_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "tombstones")


def purge_path(index_dir: str, part: int) -> str:
    return part_path(os.path.join(index_dir, "purge"), part, "json")


def publish(path: str, write) -> None:
    """Commit ``path``: ``write(tmp)`` fills ``.tmp.<name>`` in the same
    directory (a file, or a directory for the build's local spill wave),
    after a stale tmp a killed writer left is cleared; then the tmp file
    is fsynced, renamed over ``path`` and the directory fsynced. A crash
    leaves the old ``path`` or the new one, never a torn one, and a
    ``write`` that raises leaves ``path`` as it was. The fsyncs cost
    ~14 ms per 16 parts of 842 KB and their sidecars on a virtio disk
    (3 → 17 ms), against a ~0.8 s build. The spill's Parquet files,
    which ``spillfs.Spill.write_parts`` writes inside the published
    wave directory, are not fsynced one by one: losing scratch costs a
    re-tokenize, and a torn spill file fails phase 2's read, not
    silently."""
    d, name = os.path.split(path)
    tmp = os.path.join(d, ".tmp." + name)
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    elif os.path.lexists(tmp):
        os.remove(tmp)
    os.makedirs(d, exist_ok=True)
    write(tmp)
    if os.path.isfile(tmp):
        with open(tmp, "rb") as f:
            os.fsync(f.fileno())
    os.replace(tmp, path)
    fd = os.open(d, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish_json(path: str, obj: dict) -> None:
    publish(path, lambda tmp: Path(tmp).write_text(json.dumps(obj)))


def postings_schema(positions: bool) -> pa.Schema:
    """The postings tables that flow into ``SegmentWriter.encode_part``:
    the build's spill, and the parts merge, purge and repartition
    re-encode (``SegmentReader.postings``)."""
    return pa.schema([("term_id", pa.uint64()), ("doc_id", pa.uint64()),
                      ("tf", pa.uint32()), ("dl", pa.uint32())]
                     + ([("pos", POS_TYPE)] if positions else []))


_MANIFEST_SCHEMA = pa.schema([
    ("part", pa.int32()), ("n_terms", pa.int64()),
    ("n_postings", pa.int64()), ("n_tokens", pa.int64()),
    ("term_min", pa.uint64()), ("term_max", pa.uint64()),
    ("file", pa.string()), ("status", pa.string()),
    ("inputs", pa.list_(pa.string())), ("encode_seconds", pa.float64()),
    ("output_bytes", pa.int64()),
])


def _manifest_table(rows: list[dict]) -> pa.Table:
    return pa.Table.from_pylist(rows, schema=_MANIFEST_SCHEMA)


def _dedup_sorted_postings(terms, docs, tfs, dls, lens, ords):
    """Collapse duplicate (term, doc) rows (tf summed, dl maxed, the
    ordinals joined in ascending order); ``lens`` and ``ords`` (each
    row's ordinal count and the rows' ordinals in row order) are None
    for an index without positions.

    Inputs sorted by (term, doc). Duplicates only occur if the same doc_id
    appears in multiple input batches/waves (e.g. re-crawled url) — the
    build is tolerant; true dedup is a separate operator (functions.dedup).
    """
    n = len(terms)
    if n == 0:
        return terms, docs, tfs, dls, lens, ords
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = (terms[1:] != terms[:-1]) | (docs[1:] != docs[:-1])
    if new.all():
        return terms, docs, tfs, dls, lens, ords
    starts = np.flatnonzero(new)
    tfs2 = np.add.reduceat(tfs, starts)
    dls2 = np.maximum.reduceat(dls, starts)
    if lens is not None:
        group = np.repeat(np.cumsum(new) - 1, lens)
        ords = ords[np.lexsort((ords, group))]
        lens = np.add.reduceat(lens, starts)
    return terms[starts], docs[starts], tfs2, dls2, lens, ords


def _merge_order(terms: np.ndarray, docs: np.ndarray) -> np.ndarray:
    """The stable order of the rows by (term, doc): one sort of a
    16-byte big-endian key, whose byte order is the unsigned (term,
    doc) order. Timsort merges the sorted runs its input is made of
    (each spill file of a build, each decoded part of a merge), and
    equal keys keep their input order, as ``np.lexsort`` does."""
    key = np.empty((len(terms), 2), ">u8")
    key[:, 0] = terms
    key[:, 1] = docs
    return np.argsort(key.view("S16").ravel(), kind="stable")


def _pos_lists(col: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """A ``pos`` column as (each row's ordinal count, the rows' ordinals
    in row order)."""
    lens, ords = [np.empty(0, np.int64)], [np.empty(0, np.uint32)]
    for chunk in col.chunks:
        lens.append(np.diff(np.asarray(chunk.offsets, np.int64)))
        ords.append(chunk.flatten().to_numpy(zero_copy_only=False))
    return np.concatenate(lens), np.concatenate(ords)


def _write_batch(tbl: pa.Table, path: str) -> None:
    """``tbl`` as an IPC file of one uncompressed record batch (an empty
    one for an empty part)."""
    batch = pa.record_batch([c.combine_chunks() for c in tbl.columns],
                            schema=tbl.schema)
    with pa.OSFile(path, "wb") as sink, \
            pa.ipc.new_file(sink, tbl.schema) as writer:
        writer.write_batch(batch)


class SegmentWriter:
    """Encodes one hash partition of postings → one segment file.

    Idempotent: deterministic content (one merging sort + dedup), atomic
    publish (tmp + rename), sidecar JSON row marks the partition
    committed.
    Runs inside the per-part tasks of ``IndexBuilder._encode_parts``.
    """

    def __init__(self, segments_dir: str, lineage: list[str] | None = None,
                 positions: bool = False):
        self.segments_dir = segments_dir
        self.lineage = lineage or []
        self.positions = positions

    def encode_part(self, part: int, postings: pa.Table) -> pa.Table:
        """Encode and publish the part's segment (with, for a positional
        index, the ordinals of its ``pos`` column), then commit the
        part."""
        import time
        t_start = time.perf_counter()
        terms = postings["term_id"].to_numpy(zero_copy_only=False
                                             ).astype(np.uint64)
        docs = postings["doc_id"].to_numpy(zero_copy_only=False
                                           ).astype(np.uint64)
        tfs = postings["tf"].to_numpy(zero_copy_only=False).astype(np.uint64)
        dls = postings["dl"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = _merge_order(terms, docs)
        terms, docs, tfs, dls = (terms[order], docs[order],
                                 tfs[order], dls[order])
        lens = ords = None
        if self.positions:
            # the rows' ordinals follow the same permutation
            lens, ords = _pos_lists(postings["pos"])
            ends = np.cumsum(lens)
            lens = lens[order]
            ords = _gather(ords, ends[order] - lens, ends[order])
        terms, docs, tfs, dls, lens, ords = _dedup_sorted_postings(
            terms, docs, tfs, dls, lens, ords)
        seg = encode_partition(terms, docs, tfs, dls)
        if self.positions:
            seg = encode_positions(seg, lens, ords)

        final = part_path(self.segments_dir, part)
        publish(final, lambda tmp: _write_batch(seg, tmp))
        row = {
            "part": part,
            "n_terms": seg.num_rows,
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
        publish_json(part_path(self.segments_dir, part, "json"), row)
        return _manifest_table([row])


class SegmentReader:
    """Every read of one index's segment files.

    Picklable (it holds only the directory and the index's stats.json,
    read once), so Ray tasks receive it; ``map_parts`` runs
    ``fn(reader, part, ...)`` over all parts, as one Ray task per part
    or as a local loop. Every read returns views into the memory-mapped
    file, which stays mapped while any view is alive; so segment files
    are only ever replaced (tmp + rename), never rewritten in place,
    which would fault a reader's views.
    """

    def __init__(self, index_dir: str):
        self.segments_dir = segments_dir(index_dir)
        self.stats = read_stats(index_dir)
        self.num_parts = int(self.stats["num_parts"])
        self.positions = bool(self.stats.get("positions", False))
        self.schema = POSITIONAL_SCHEMA if self.positions else SEGMENT_SCHEMA

    def path(self, part: int) -> str:
        """The part's segment file. 'Term absent' is an empty read of an
        existing file; a MISSING file means the index is truncated (a
        partial copy, an interrupted absorb) — answering as if the part
        were empty would return wrong results from an index whose
        stats.json claims coverage. A ``.parquet`` file in its place is
        an older version's segment: "must be rebuilt"."""
        path = part_path(self.segments_dir, part)
        if os.path.exists(path):
            return path
        old = part_path(self.segments_dir, part, "parquet")
        if os.path.exists(old):
            raise RuntimeError(
                f"{path} not found, but {os.path.basename(old)} is: the "
                "index uses the old Parquet segment format and must be "
                "rebuilt")
        raise RuntimeError(
            f"index partition file missing: {path} (stats.json claims "
            f"num_parts={self.num_parts}); the index is truncated or "
            "mid-rebuild")

    def check(self) -> None:
        """Raise unless every part's segment file exists."""
        for part in range(self.num_parts):
            self.path(part)

    def check_format(self, part: int) -> None:
        """Raise the "must be rebuilt" error unless the part's segment
        file has the current schema and layout; maps the file and reads
        only its IPC metadata. A positional segment must also hold
        exactly the part's ``n_tokens`` ordinals (Σ tf, from its
        sidecar), read from the ordinal stream's offsets."""
        rows = Chunks(self._batch(part, None))
        if not self.positions:
            return
        want = read_part_row(self.segments_dir, part)["n_tokens"]
        w = int(rows.column("pos_w")[0]) if len(rows) else 1
        got = int(rows.offsets("pos")[-1]) // w
        if got != want:
            raise RuntimeError(
                f"{self.path(part)} holds {got} ordinals for the part's "
                f"{want} tokens: the index is truncated or corrupt")

    # ----- the one read path ----------------------------------------------
    def _batch(self, part: int, columns: list[str] | None
               ) -> pa.RecordBatch:
        """The part's segment batch, with only ``columns`` (plus
        term_id) kept; its columns are zero-copy views of the
        memory-mapped file. The whole file's schema is checked first
        against the one the index's settings call for, so a file of
        another schema (0.9.0's positional index, whose ordinals sat in
        a second file; 0.8.0's per-block lists; 0.5.0's delta-varint
        ``denc`` and ``skip_off_*`` columns) is refused with the "must
        be rebuilt" error whichever columns are asked for; so is a file
        of several batches or with schema metadata (0.4.0 wrote lz4
        batches cut every ~1 MB and a first-term directory)."""
        path = self.path(part)
        with pa.memory_map(path) as source:
            reader = pa.ipc.open_file(source)
            if (not reader.schema.equals(self.schema)
                    or reader.schema.metadata
                    or reader.num_record_batches != 1):
                raise RuntimeError(
                    f"{path} does not have the schema or layout this "
                    "version writes for the index's settings: the index "
                    "must be rebuilt")
            batch = reader.get_batch(0)
        if columns is None:
            return batch
        return batch.select([name for name in self.schema.names
                             if name == "term_id" or name in columns])

    @staticmethod
    def _ranges(batch: pa.RecordBatch, bounds) -> list[tuple[int, int]]:
        """The row range [i, j) with ``lo <= term_id <= hi`` for each
        ``(lo, hi)`` of ascending, disjoint ``bounds`` (None = open), in
        term order; empty ones are left out. Two binary searches of the
        term_id column find them all."""
        tids = batch.column("term_id").to_numpy()
        lo = np.array([0 if b[0] is None else b[0] for b in bounds],
                      np.uint64)
        hi = np.array([_U64_MAX if b[1] is None else b[1] for b in bounds],
                      np.uint64)
        starts = np.searchsorted(tids, lo).tolist()
        stops = np.searchsorted(tids, hi, "right").tolist()
        return [(i, j) for i, j in zip(starts, stops) if i < j]

    @classmethod
    def _slices(cls, batch: pa.RecordBatch, bounds
                ) -> list[pa.RecordBatch]:
        """The rows of each of ``bounds`` (see ``_ranges``) as slices of
        ``batch``."""
        return [batch.slice(i, j - i) for i, j in cls._ranges(batch, bounds)]

    def _read(self, part: int, bounds, columns: list[str] | None = None
              ) -> pa.Table:
        """The part's rows in ``bounds`` (see ``_slices``) as a table of
        ``columns`` (None = all)."""
        batch = self._batch(part, columns)
        tbl = pa.Table.from_batches(self._slices(batch, bounds),
                                    schema=batch.schema)
        return tbl if columns is None else tbl.select(columns)

    # ----- the read shapes ----------------------------------------------
    def load_terms(self, part: int, tids: list[int]) -> dict[int, Chunks]:
        """Term point read: the row of each of ``tids`` (all in
        ``part``), its positions included in a positional index, as
        column views into the memory-mapped file; an absent term gets
        no rows."""
        out = {t: Chunks() for t in tids}
        batch = self._batch(part, None)
        for rows in self._slices(batch,
                                 [(t, t) for t in sorted(set(tids))]):
            out[rows.column("term_id")[0].as_py()] = Chunks(rows)
        return out

    def read_range(self, part: int, lo: int | None = None,
                   hi: int | None = None, columns: list[str] | None = None
                   ) -> pa.Table:
        """Key-range read: the part's rows with ``lo <= term_id <= hi``
        (None = open bound)."""
        return self._read(part, [(lo, hi)], columns)

    def nearest(self, part: int, key: int, less: bool
                ) -> tuple[int, int] | None:
        """Nearest-key probe: (term_id, df) of the part's largest term
        <= key (``less``) or smallest >= key."""
        batch = self._batch(part, ["term_id", "n"])
        tids = batch.column("term_id").to_numpy()
        key = np.uint64(key)
        i = (int(np.searchsorted(tids, key, "right")) - 1 if less
             else int(np.searchsorted(tids, key)))
        if not 0 <= i < len(tids):
            return None
        return int(tids[i]), int(batch.column("n")[i].as_py())

    def decode_part(self, part: int, lo: int | None = None,
                    hi: int | None = None):
        """Whole-part decode (or of the terms in [lo, hi]): flat postings
        (terms, docs, tfs, dls), ordered (term, doc)."""
        rows = Chunks(self.read_range(part, lo, hi))
        terms = np.repeat(rows.column("term_id"),
                          rows.column("n").astype(np.int64))
        return (terms.astype(np.uint64), *decode_postings(rows))

    def postings(self, part: int) -> pa.Table:
        """The part's postings in ``postings_schema(self.positions)``,
        ordered (term, doc): what merge, purge and repartition
        re-encode."""
        terms, docs, tfs, dls = self.decode_part(part)
        cols = [terms, docs, tfs.astype(np.uint32), dls.astype(np.uint32)]
        if self.positions:
            ends, ords = decode_positions(Chunks(self._batch(part, None)))
            cols.append(pa.ListArray.from_arrays(
                pa.array(np.append(0, ends), pa.int32()),
                pa.array(ords.astype(np.uint32), pa.uint32())))
        schema = postings_schema(self.positions)
        return pa.table(dict(zip(schema.names, cols)), schema=schema)

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
