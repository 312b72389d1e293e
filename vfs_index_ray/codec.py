"""Posting-list codec: fixed-width postings streams, metadata.

Replaces the reference's per-(key,record) FlatBuffers write-files and merged
``KeyRecordList`` (reference: spec/index.fbs:22-60, column.go:418-604) with a
columnar encoding: one segment row per term in ``SEGMENT_SCHEMA`` (the
reference's one ``KeyRecord`` per key), holding the term's doc ids, tfs
and dls as three little-endian fixed-width streams, and an impact
frontier on terms of at least ``IMPACT_MIN_N`` postings, from which a
valid BM25 upper bound can be derived at query time without knowing
avgdl/N at build time. A row's posting count ``n`` is the term's df.

Each stream of a segment uses the narrowest of 1, 2, 4 or 8 bytes that
holds its largest value in that segment (the ``docs_w``, ``tfs_w`` and
``dls_w`` columns, equal on every row of a file). Doc ids are stored
absolute and ascending, so the docs stream is its own skip list: a
point lookup (``probe``) is one binary search of it at its width and
one gather from each of the other two streams, and a whole decode
(``decode_postings``) is one ``frombuffer`` view per stream. This is
the reference's fixed 32-byte ``Record`` read in place and
binary-searched (spec/index.fbs:54-60, index_file.go:1424-1459).

A ``positions=True`` index's segments are in ``POSITIONAL_SCHEMA``:
two more columns on the same term row (``encode_positions``) hold the
token ordinals of the term's postings as one fixed-width stream at the
part's narrowest width. A posting holds tf ordinals, so its ordinals
end at ``cumsum(tfs)`` of the row's tfs stream (``decode_positions``):
a posting's ordinals are one slice of a memory-mapped stream, with no
per-record decode and nothing stored twice.

All encode/decode paths are vectorized numpy — no per-posting Python loops.
Reads see rows as ``Chunks``: numpy views into the Arrow columns of a
run of rows, with no per-row objects.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np
import pyarrow as pa

IMPACT_CAP = 64    # frontier bins: exact per-tf below, one overflow above
# terms with fewer postings carry no impact frontier (they decode in
# microseconds; the dense scatter buffer would cost 65x their postings)
IMPACT_MIN_N = 128

_U64 = np.uint64
# the postings streams; stream s stores its byte width in column s + "_w"
_STREAMS = ("docs", "tfs", "dls")

# One row per term; every segment file has exactly this schema
# (segment.SegmentReader refuses any other).
SEGMENT_SCHEMA = pa.schema([
    ("term_id", pa.uint64()),
    ("docs_w", pa.uint8()),        # bytes per value of each stream
    ("tfs_w", pa.uint8()),
    ("dls_w", pa.uint8()),
    ("n", pa.uint64()),            # the term's postings: its df
    ("docs", pa.large_binary()),
    ("tfs", pa.large_binary()),
    ("dls", pa.large_binary()),
    ("imp_tf", pa.list_(pa.uint32())),
    ("imp_dl", pa.list_(pa.uint32())),
    ("imp_doc", pa.list_(pa.uint64())),
])

# The segment schema of a positions=True index: the same rows, plus the
# ordinals of each term's postings.
POSITIONAL_SCHEMA = pa.schema(list(SEGMENT_SCHEMA) + [
    ("pos_w", pa.uint8()),         # bytes per ordinal
    # per posting: its tf ascending token ordinals in the doc
    ("pos", pa.large_binary()),
])


# ---------------------------------------------------------------------------
# posting-list encode
# ---------------------------------------------------------------------------

def _width(v: np.ndarray) -> int:
    """Bytes per value: the narrowest of 1, 2, 4 or 8 that holds max(v)."""
    top = int(v.max()) if len(v) else 0
    return next(w for w in (1, 2, 4, 8) if top < 1 << (8 * w))


def _fixed_width(v: np.ndarray, row_offs: np.ndarray
                 ) -> tuple[pa.LargeBinaryArray, int]:
    """``v`` at its narrowest width, as a binary column whose row i holds
    values ``row_offs[i]:row_offs[i + 1]`` (zero-copy offsets into one
    buffer), and that width."""
    w = _width(v)
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(row_offs) - 1,
        [None, pa.py_buffer(row_offs * w),
         pa.py_buffer(v.astype(f"<u{w}"))]), w


def encode_partition(terms: np.ndarray, docs: np.ndarray, tfs: np.ndarray,
                     dls: np.ndarray) -> pa.Table:
    """Encode ALL posting lists of one shuffle partition in one vectorized pass.

    Inputs are the partition's postings sorted by (term_id, doc_id), doc_ids
    strictly ascending within each term. Output: a ``pyarrow.Table`` of
    ``SEGMENT_SCHEMA``, one row per term.

    No per-term Python: each stream is the partition's whole column cast
    once to its width, and the per-term binary columns are zero-copy
    offsets into that one buffer.
    """
    terms = np.ascontiguousarray(terms, dtype=np.uint64)
    docs = np.ascontiguousarray(docs, dtype=np.uint64)
    tfs = np.ascontiguousarray(tfs, dtype=np.uint64)
    dls = np.ascontiguousarray(dls, dtype=np.uint64)
    n = len(terms)
    if n == 0:
        return SEGMENT_SCHEMA.empty_table()

    new_term = np.empty(n, dtype=bool)
    new_term[0] = True
    new_term[1:] = terms[1:] != terms[:-1]
    term_starts = np.flatnonzero(new_term)
    nterms = len(term_starts)
    term_counts = np.diff(np.append(term_starts, n))

    # ---- impact frontier (disk-resident impact ordering) ---------------
    # Per term, one entry per distinct capped tf: the min-dl posting for
    # that tf (plus one overflow bin for tf >= IMPACT_CAP holding the
    # term's tf_max and the min dl among its members).  Every posting is
    # dominated by its bin's (tf_ub, dl_min), and BM25 is monotone
    # increasing in tf / decreasing in dl, so
    #   max over bins of score(tf_ub, dl_min)
    # is a VALID per-term upper bound — and for bins below the cap it is
    # EXACT (the bin pair is a real posting).  The stored doc achieving
    # each bin's min dl is a real high-impact posting, which gives the
    # MaxScore θ bootstrap its champion candidates without decoding the
    # term.  Computed only for terms with >= IMPACT_MIN_N postings
    # (small terms decode in microseconds and would blow the dense
    # scatter buffer up to 65x the posting count); two O(n) scatter-min
    # passes, no sort.  Replaces the reference's intended
    # selectivity-ordered traversal (search_cond.go:688-698) with
    # impact-ordered metadata the query never has to derive.
    imp_counts = np.zeros(nterms, np.int64)
    imp_tf_v = np.empty(0, np.uint64)
    imp_dl_v = np.empty(0, np.uint64)
    imp_doc_v = np.empty(0, np.uint64)
    big = term_counts >= IMPACT_MIN_N
    nbig = int(big.sum())
    if nbig:
        nbins = IMPACT_CAP + 1
        fidx = np.cumsum(big) - 1            # compact frontier index
        term_of = np.repeat(np.arange(nterms, dtype=np.int64), term_counts)
        pbig = big[term_of]
        tfc = np.minimum(tfs[pbig], _U64(IMPACT_CAP)).astype(np.int64)
        key = fidx[term_of[pbig]] * nbins + tfc
        SENT = _U64(1) << _U64(63)
        mind = np.full(nbig * nbins, SENT, np.uint64)
        np.minimum.at(mind, key, dls[pbig])
        is_min = dls[pbig] == mind[key]
        mindoc = np.full(nbig * nbins, np.uint64(0xFFFFFFFFFFFFFFFF),
                         np.uint64)
        np.minimum.at(mindoc, key[is_min], docs[pbig][is_min])
        present = mind != SENT
        binpos = np.arange(nbig * nbins, dtype=np.int64) % nbins
        bin_tf = binpos.astype(np.uint64)
        ov = binpos == IMPACT_CAP            # overflow bin: term tf_max
        if ov[present].any():
            term_tf_max = np.maximum.reduceat(tfs, term_starts)
            bin_tf[ov] = term_tf_max[big][np.arange(nbig * nbins,
                                                    dtype=np.int64)
                                          [ov] // nbins]
        imp_counts[big] = present.reshape(nbig, nbins).sum(axis=1)
        imp_tf_v = bin_tf[present]
        imp_dl_v = mind[present]
        imp_doc_v = mindoc[present]

    post_offs = np.append(term_starts, n)
    streams, widths = {}, {}
    for name, v in zip(_STREAMS, (docs, tfs, dls)):
        streams[name], widths[name] = _fixed_width(v, post_offs)

    return pa.table({
        "term_id": pa.array(terms[term_starts], pa.uint64()),
        **{s + "_w": pa.array(np.full(nterms, w, np.uint8), pa.uint8())
           for s, w in widths.items()},
        "n": pa.array(term_counts.astype(np.uint64), pa.uint64()),
        **streams,
        "imp_tf": _imp_col(imp_counts, imp_tf_v.astype(np.uint32),
                           pa.uint32()),
        "imp_dl": _imp_col(imp_counts, imp_dl_v.astype(np.uint32),
                           pa.uint32()),
        "imp_doc": _imp_col(imp_counts, imp_doc_v, pa.uint64()),
    }, schema=SEGMENT_SCHEMA)


def encode_positions(seg: pa.Table, lens: np.ndarray, ords: np.ndarray
                     ) -> pa.Table:
    """The segment rows ``seg`` (``encode_partition``'s output) in
    ``POSITIONAL_SCHEMA``: posting k (numbered across the rows, in
    segment order) gets the ``lens[k]`` (its tf) ordinals that follow
    its predecessors' in ``ords``. The stream is cast once to the
    part's narrowest width."""
    n = seg["n"].to_numpy()
    pos_col, w = _fixed_width(ords, _offsets(lens)[_offsets(n)])
    return pa.table(
        seg.columns + [pa.array(np.full(len(n), w, np.uint8), pa.uint8()),
                       pos_col], schema=POSITIONAL_SCHEMA)


def _imp_col(counts: np.ndarray, values: np.ndarray, typ):
    offs = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=offs[1:])
    return pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                    pa.array(values, typ))


# ---------------------------------------------------------------------------
# segment rows as columns, and the postings decode and probe kernels
# ---------------------------------------------------------------------------

_NO_ROWS = SEGMENT_SCHEMA.empty_table()


class Chunks:
    """A run of segment rows (one term's row, or a part's) as numpy
    views into their Arrow columns, each column read on first use.

    A fixed-width column is one array with a value per row
    (``column``). A binary or list column is one flat array spanning the
    rows (``column``) plus row offsets into it (``offsets``): row i's
    docs bytes are ``column("docs")[offsets("docs")[i]:
    offsets("docs")[i + 1]]``. ``streams`` gives the three postings
    streams at their widths, checked once. Iterating yields one
    read-only mapping per row (column name → value or view); the query
    path never builds them.
    """

    def __init__(self, rows: pa.RecordBatch | pa.Table = _NO_ROWS):
        self._rows = rows
        self._views: dict = {}

    def __len__(self) -> int:
        return self._rows.num_rows

    def _view(self, name: str):
        got = self._views.get(name)
        if got is None:
            col = self._rows.column(name)
            if isinstance(col, pa.ChunkedArray):  # one chunk: no copy
                col = (col.chunk(0) if col.num_chunks == 1
                       else col.combine_chunks())
            if pa.types.is_large_binary(col.type):
                offs = np.frombuffer(col.buffers()[1], np.int64,
                                     count=len(col) + 1,
                                     offset=col.offset * 8)
                data = np.frombuffer(col.buffers()[2] or b"", np.uint8)
                got = (data[offs[0]:offs[-1]], offs - offs[0])
            elif pa.types.is_list(col.type):
                offs = np.asarray(col.offsets, np.int64)
                got = (col.flatten().to_numpy(zero_copy_only=False),
                       offs - offs[0])
            else:
                got = col.to_numpy(zero_copy_only=False)
            self._views[name] = got
        return got

    def column(self, name: str) -> np.ndarray:
        got = self._view(name)
        return got[0] if isinstance(got, tuple) else got

    def offsets(self, name: str) -> np.ndarray:
        return self._view(name)[1]

    def streams(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The docs, tfs and dls streams, each one little-endian view at
        its width, checked (``_stream``) on first use and kept, so a
        probe or decode of rows already read checks nothing again."""
        got = self._views.get(_STREAMS)
        if got is None:
            offs = _offsets(self.column("n"))
            got = tuple(_stream(self, s, offs) for s in _STREAMS)
            self._views[_STREAMS] = got
        return got

    def __iter__(self):
        for i in range(len(self)):
            row = {}
            for name in self._rows.schema.names:
                got = self._view(name)
                if isinstance(got, tuple):
                    vals, offs = got
                    row[name] = vals[offs[i]:offs[i + 1]]
                else:
                    row[name] = got[i]
            yield MappingProxyType(row)


def _gather(vals: np.ndarray, starts: np.ndarray, ends: np.ndarray
            ) -> np.ndarray:
    """The ranges [starts[i], ends[i]) of ``vals``, concatenated.
    Adjacent ranges merge first, so one run is a view, not a copy."""
    if len(starts) == 0:
        return vals[:0]
    cut = np.flatnonzero(starts[1:] != ends[:-1]) + 1
    s = starts[np.concatenate(([0], cut))]
    e = ends[np.concatenate((cut - 1, [len(ends) - 1]))]
    if len(s) == 1:
        return vals[s[0]:e[0]]
    lens = e - s
    firsts = np.cumsum(lens) - lens
    return vals[np.repeat(s - firsts, lens) + np.arange(int(lens.sum()))]


def decode_postings(rows: Chunks
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(docs, tfs, dls) uint64 arrays of ``rows``' postings. Each stream
    is one little-endian view of its bytes at the rows' width, widened
    to uint64. The rows must share their widths, as the rows of one
    segment file do. A stream whose rows do not hold exactly n × width
    bytes each raises ``ValueError``: a truncated segment never decodes
    to shifted postings."""
    return tuple(v.astype(np.uint64) for v in rows.streams())


def probe(rows: Chunks, targets: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tfs, dls, hit) of the doc ids ``targets`` (any order) in one
    term's row (``rows``; no rows for an absent term): ``hit`` marks
    the targets among the term's docs, and ``tfs``/``dls`` (uint64,
    0 where a target misses) are their postings' values. One binary
    search of the docs stream at its width, then one gather from each
    of ``tfs`` and ``dls``: nothing is widened but the hits. Targets
    above the width's maximum are misses (they are clipped before the
    search, so the stream is never widened to uint64). A truncated
    stream raises as in ``decode_postings``."""
    if len(rows) > 1:
        raise ValueError("probe reads one term's row")
    docs, tfs, dls = rows.streams()
    targets = np.asarray(targets, np.uint64)
    tf = np.zeros(len(targets), np.uint64)
    dl = np.zeros(len(targets), np.uint64)
    if not len(docs):
        return tf, dl, np.zeros(len(targets), bool)
    top = np.iinfo(docs.dtype).max
    want = np.minimum(targets, top).astype(docs.dtype)
    pos = np.minimum(np.searchsorted(docs, want), len(docs) - 1)
    hit = (docs[pos] == want) & (targets <= top)
    tf[hit] = tfs[pos[hit]]
    dl[hit] = dls[pos[hit]]
    return tf, dl, hit


def decode_positions(rows: Chunks) -> tuple[np.ndarray, np.ndarray]:
    """(ends, ords) of a run of positional segment rows: ``ords`` the
    rows' ordinals (a view at the file's width), ``ends`` (int64,
    ``cumsum`` of the rows' tfs) the end of each posting's ordinals in
    ``ords``, postings numbered across the rows. Posting k's ordinals
    are ``ords[ends[k - 1]:ends[k]]`` (from 0 for k = 0). A row that
    does not hold exactly its postings' Σ tf ordinals raises
    ``ValueError``, as in ``decode_postings``."""
    ends = np.cumsum(rows.streams()[1], dtype=np.int64)
    return ends, _stream(rows, "pos",
                         np.append(0, ends)[_offsets(rows.column("n"))])


def _offsets(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: where each run of ``counts`` values
    starts, and the total."""
    offs = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(np.asarray(counts, np.int64), out=offs[1:])
    return offs


def _width_of_rows(rows: Chunks, s: str) -> int:
    """The byte width of stream ``s``, one for all the rows."""
    ws = rows.column(s + "_w")
    if len(ws) and (ws != ws[0]).any():
        raise ValueError(f"rows mix {s} widths: decode the rows of "
                         "each file on their own")
    return int(ws[0]) if len(ws) else 1


def _stream(rows: Chunks, s: str, offs: np.ndarray) -> np.ndarray:
    """Stream ``s`` of the rows as one little-endian view at its width,
    checked to hold values ``offs[i]:offs[i + 1]`` in row i."""
    w = _width_of_rows(rows, s)
    if not np.array_equal(rows.offsets(s), offs * w):
        raise ValueError(f"{s} stream does not hold the rows' values "
                         f"at {w} bytes each: the file is truncated or "
                         "corrupt")
    return rows.column(s).view(f"<u{w}")
