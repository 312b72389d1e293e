"""Tokenization → posting rows. Vectorized; no per-row Python in the hot path.

Two modes, mirroring the reference's two key kinds:

- ``word``   : lowercase ASCII word tokens split on ``[^a-z0-9]+``; the BM25
               token mode. ``term_id = fnv1a64(token)``. Chosen so the DuckDB
               oracle can reproduce it exactly with
               ``regexp_split_to_array(lower(text), '[^a-z0-9]+')``.
- ``trigram``: sliding windows of 3 runes packed 16 bits each into a uint64,
               the reference's string-key scheme (util.go:60-74 EncodeTri;
               TriKeys search_cond.go:115-135). Strings with <3 runes yield
               zero keys, so a 2-rune query legitimately matches nothing
               (vfsindex_test.go:149-159). Divergence from the reference:
               runes above the BMP are masked to 16 bits (the reference's
               %04x formatting assumes BMP).

``postings_from_texts`` is the per-batch kernel used by the build stage:
it emits one row per distinct (doc, term) with its term frequency, plus the
document length (and, for a positional index, the posting's token
ordinals as a list column), i.e. the IR the reference materializes as one
write-file per (key, record) pair (record.go:194-248).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hashing import _string_array_buffers, fnv1a64_spans

WORD_SPLIT = "[^a-z0-9]+"
# the postings' positions column: each posting's token ordinals
POS_TYPE = pa.list_(pa.uint32())

# byte-level tokenizer tables: lowercase A-Z, then membership in [a-z0-9].
# Tokens are maximal ASCII-alnum byte runs — identical to the regex
# ``[^a-z0-9]+`` split on the lowercased text, because every non-ASCII
# codepoint's UTF-8 bytes are >= 0x80 and therefore separators in both
# views, and case-folding outside A-Z only affects discarded codepoints.
_LOWER = np.arange(256, dtype=np.uint8)
_LOWER[ord("A"):ord("Z") + 1] += 32
_ALNUM = np.zeros(256, dtype=bool)
_ALNUM[ord("a"):ord("z") + 1] = True
_ALNUM[ord("0"):ord("9") + 1] = True


def word_spans(texts: pa.Array):
    """Byte-level word tokenization (the hot-path kernel).

    Returns (low_buffer, tok_starts, tok_lens, parent, dl): byte spans of
    every token in the lowercased UTF-8 buffer, the row each token belongs
    to, and per-row token counts. No per-token materialization.
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    data, offsets = _string_array_buffers(texts)
    if len(data) == 0:
        return (data, np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.int64), np.zeros(n, np.uint64))
    low = _LOWER[data]
    isal = _ALNUM[low]
    doc_starts = offsets[:-1]
    prev = np.empty_like(isal)
    prev[0] = False
    prev[1:] = isal[:-1]
    nxt = np.empty_like(isal)
    nxt[-1] = False
    nxt[:-1] = isal[1:]
    # force token breaks at document boundaries (buffer is contiguous);
    # empty docs at the tail have start == len(data) — skip those
    inner = doc_starts[(doc_starts > 0) & (doc_starts < len(data))]
    prev[inner] = False
    nxt[inner - 1] = False
    ts = np.flatnonzero(isal & ~prev)
    te = np.flatnonzero(isal & ~nxt)
    lens = te - ts + 1
    parent = np.searchsorted(offsets[1:], ts, side="right").astype(np.int64)
    dl = np.bincount(parent, minlength=n).astype(np.uint64)
    return low, ts, lens, parent, dl


def word_tokens_flat(texts: pa.Array) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """Split a string column into word tokens (materialized variant, used
    by the text-stats operators that need the token strings).

    Returns (flat_tokens, parent_index, dl) where ``flat_tokens`` is the
    flattened non-empty token array, ``parent_index[i]`` the row each token
    came from, and ``dl`` the per-row token count.
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lowered = pc.utf8_lower(texts)
    lists = pc.split_pattern_regex(lowered, pattern=WORD_SPLIT)
    parent = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(lists)
    nonempty = pc.not_equal(flat, "")
    mask = nonempty.to_numpy(zero_copy_only=False)
    flat = flat.filter(nonempty)
    parent = parent[mask]
    dl = np.bincount(parent, minlength=len(texts)).astype(np.uint64)
    return flat, parent.astype(np.int64, copy=False), dl


def _trigram_windows(codes: np.ndarray, lens: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared kernel: (concatenated code points, per-row rune counts) →
    (term_ids, parent_index, dl); windows crossing row boundaries are
    masked out."""
    n = len(lens)
    dl = np.maximum(lens - 2, 0).astype(np.uint64)
    if len(codes) < 3:
        return (np.empty(0, np.uint64), np.empty(0, np.int64), dl)
    c0 = codes[:-2].astype(np.uint64) & np.uint64(0xFFFF)
    c1 = codes[1:-1].astype(np.uint64) & np.uint64(0xFFFF)
    c2 = codes[2:].astype(np.uint64) & np.uint64(0xFFFF)
    tri = (c0 << np.uint64(32)) | (c1 << np.uint64(16)) | c2
    # window i belongs to row r iff it starts in row r and ends in row r
    row_of = np.repeat(np.arange(n, dtype=np.int64), lens)
    starts_row = row_of[:-2]
    valid = starts_row == row_of[2:]
    return tri[valid], starts_row[valid], dl


def trigram_ids_flat(texts: pa.Array) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed-trigram term ids for every 3-rune window of every row.

    Returns (term_ids, parent_index, dl) with dl = max(runes-2, 0) per row.
    Vectorized: the whole column becomes one code-point buffer and
    windows crossing row boundaries are masked out. Pure-ASCII columns
    (the common web-English case) take a ZERO-COPY fast path — utf8
    bytes ARE the code points, read straight from the Arrow buffers;
    anything else falls back to a utf-32 re-encode via Python strings.
    """
    if isinstance(texts, (pa.Array, pa.ChunkedArray)) and len(texts) \
            and not texts.null_count:
        from .hashing import _string_array_buffers
        data, offsets = _string_array_buffers(texts)
        view = data[offsets[0]:offsets[-1]]
        if not (view & 0x80).any():   # pure ASCII
            lens = (offsets[1:] - offsets[:-1]).astype(np.int64)
            return _trigram_windows(view.astype(np.uint32), lens)
    py = texts.to_pylist() if not isinstance(texts, list) else texts
    n = len(py)
    joined = "".join(s or "" for s in py)
    codes = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    lens = np.fromiter((len(s or "") for s in py), dtype=np.int64, count=n)
    return _trigram_windows(codes, lens)


def unpack_trigram(key: int) -> str:
    """Inverse of the packed-trigram key: the 3-rune window string
    (M2 decode twin of pack_trigram)."""
    return "".join(chr((int(key) >> s) & 0xFFFF) for s in (32, 16, 0))


def pack_trigram(s: str) -> list[int]:
    """Scalar twin (query/oracle side): all packed trigram keys of ``s``."""
    runes = [ord(c) & 0xFFFF for c in s]
    return [(runes[i] << 32) | (runes[i + 1] << 16) | runes[i + 2]
            for i in range(len(runes) - 2)]


def _tf_aggregate(parent: np.ndarray, term_ids: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse (row, term) occurrences into (row, term, tf), ordered
    (term, row). Tokens arrive in row order, so one stable sort of the
    term ids keeps each term's rows ascending."""
    if len(parent) == 0:
        e = np.empty(0, np.int64)
        return e, np.empty(0, np.uint64), np.empty(0, np.uint64)
    order = np.argsort(term_ids, kind="stable")
    p = parent[order]
    t = term_ids[order]
    new = np.empty(len(p), dtype=bool)
    new[0] = True
    new[1:] = (p[1:] != p[:-1]) | (t[1:] != t[:-1])
    idx = np.flatnonzero(new)
    tf = np.diff(np.append(idx, len(p))).astype(np.uint64)
    return p[idx], t[idx], tf


def _positions_per_posting(parent: np.ndarray, term_ids: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                      pa.Array]:
    """Like _tf_aggregate, but also emits each posting's token ordinals
    in its doc, ascending, as a ``list<uint32>`` whose list offsets are
    the posting boundaries.

    Returns (rows, terms, tf, pos)."""
    n = len(parent)
    if n == 0:
        e = np.empty(0, np.int64)
        return (e, np.empty(0, np.uint64), np.empty(0, np.uint64),
                pa.array([], POS_TYPE))
    idx = np.arange(n, dtype=np.int64)
    # ordinal of each token within its doc (parent ascending by constr.)
    new_doc = np.empty(n, dtype=bool)
    new_doc[0] = True
    new_doc[1:] = parent[1:] != parent[:-1]
    doc_start = np.maximum.accumulate(np.where(new_doc, idx, 0))
    ordinal = (idx - doc_start).astype(np.uint32)
    # stable: within a term, rows and then ordinals stay ascending
    order = np.argsort(term_ids, kind="stable")
    p = parent[order]
    t = term_ids[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = (p[1:] != p[:-1]) | (t[1:] != t[:-1])
    offs = np.append(np.flatnonzero(new), n)
    starts = offs[:-1]
    pos = pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                   pa.array(ordinal[order], pa.uint32()))
    return p[starts], t[starts], np.diff(offs).astype(np.uint64), pos


def postings_from_texts(texts: pa.Array, doc_ids: np.ndarray,
                        mode: str = "word",
                        positions: bool = False) -> pa.Table:
    """Per-batch kernel: text column + doc ids → posting rows, ordered
    (term_id, row): (term_id, doc_id) when ``doc_ids`` ascend.

    Output schema: term_id:uint64, doc_id:uint64, tf:uint32, dl:uint32
    (+ pos:list<uint32> when ``positions=True`` — each posting's
    ascending token ordinals, enabling token-adjacency phrase matching
    with no corpus access). ``dl`` (doc length in tokens) rides along on every
    posting so the segment encoder never needs a doc-length broadcast —
    at 10^12 docs a doc→dl lookup table could not be broadcast.
    """
    if mode == "word":
        low, ts, lens, parent, dl = word_spans(texts)
        term_ids = fnv1a64_spans(low, ts, lens)
    elif mode == "trigram":
        # trigram occurrences come out in window order, so the generic
        # positional aggregation applies: ordinal = window start index
        term_ids, parent, dl = trigram_ids_flat(texts)
    else:
        raise ValueError(f"unknown tokenizer mode {mode!r}")
    if positions:
        rows, terms, tf, pos_col = _positions_per_posting(parent, term_ids)
    else:
        rows, terms, tf = _tf_aggregate(parent, term_ids)
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.uint64)
    cols = {
        "term_id": pa.array(terms, type=pa.uint64()),
        "doc_id": pa.array(doc_ids[rows], type=pa.uint64()),
        "tf": pa.array(tf.astype(np.uint32), type=pa.uint32()),
        "dl": pa.array(dl[rows].astype(np.uint32), type=pa.uint32()),
    }
    if positions:
        cols["pos"] = pos_col
    return pa.table(cols)


def tokenize_query(q: str, mode: str = "word") -> list[tuple[str, int]]:
    """Query-side tokenization: (token, term_id) pairs, deduplicated,
    preserving first occurrence order."""
    from .hashing import fnv1a64
    out: list[tuple[str, int]] = []
    seen = set()
    if mode == "word":
        import re
        for tok in re.split(WORD_SPLIT, q.lower()):
            if tok and tok not in seen:
                seen.add(tok)
                out.append((tok, fnv1a64(tok)))
    elif mode == "trigram":
        for i, key in enumerate(pack_trigram(q)):
            if key not in seen:
                seen.add(key)
                out.append((q[i:i + 3], key))
    else:
        raise ValueError(mode)
    return out
