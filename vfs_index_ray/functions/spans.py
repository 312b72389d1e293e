"""Exact duplicate-span detection (substring-level dedup statistics).

Exact-substring deduplication (Lee et al. 2022, "Deduplicating Training
Data Makes Language Models Better") removes repeated SPANS, not whole
documents: a quote, a license header, a template paragraph that occurs
twice anywhere in the corpus.  This module computes the span-level
duplication signal — for every document, how many of its L-token
windows occur at least twice corpus-wide — exactly and Ray-Data-first:

- window construction is pure byte arithmetic over the Arrow string
  buffer: token boundaries are the 0x20 positions (``string_split`` /
  ``' '.join`` are exact inverses for a single-byte separator, so the
  window string IS a byte slice of the original text), and the window
  values are built with one vectorized gather — no per-row Python, no
  tokenizer round-trip;
- corpus-wide window counts ride the hive-partitioned DISK shuffle
  (``part = fnv(window) % P`` parquet spill, then P independent
  per-part sum+filter tasks — ``spillfs.partition_apply``), never Ray
  Data's pull-based sort shuffle (measured in-repo to anti-scale at
  high core counts).
  Equality is on the WINDOW STRING end-to-end — hashing is only the
  partition key, so collisions cannot merge counts;
- the surviving duplicate-window set (count >= 2 — content that
  actually repeats) is broadcast once via ``ray.put`` and probed with
  one vectorized ``is_in`` per batch.

Reference parity note: vfs-index has no substring-dedup surface; this
is a beyond-reference LLM-data operator (brief: deduplication family).
Scale notes: window emission is ~L x the text bytes per batch — cap
``batch_size`` for very large documents; the broadcast assumes the
duplicate-window set (true repeated content only, not the full window
space) fits in the object store — at extreme dup rates swap the probe
for a partitioned semi-join over the same spill layout.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import _string_array_buffers, fnv1a64_tokens
from .boilerplate import _group_counts


def _token_layout(texts):
    """Byte-level token layout of an Arrow string column: token
    boundaries are the 0x20 positions (``string_split`` / ``' '.join``
    are exact inverses for a single-byte separator).  Returns
    ``(data, voff, ntok, base, starts)``: the value buffer, per-doc
    value offsets, per-doc token counts, flat-token base offsets and
    each flat token's byte start.  Nulls count as empty (1 empty
    token)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.fill_null(texts, "")
    n = len(texts)
    if n == 0:
        z = np.empty(0, np.int64)
        return np.empty(0, np.uint8), np.zeros(1, np.int64), z, \
            np.zeros(1, np.int64), z
    data, voff = _string_array_buffers(texts)
    lo, hi = int(voff[0]), int(voff[-1])
    spaces = lo + np.flatnonzero(data[lo:hi] == 0x20)
    # containing doc of each separator byte: largest j with voff[j] <= s
    # ('right' lands past runs of equal offsets, i.e. past empty docs)
    sp_doc = np.searchsorted(voff, spaces, "right") - 1
    ntok = 1 + np.bincount(sp_doc, minlength=n)
    base = np.concatenate([[0], np.cumsum(ntok)])
    starts = np.empty(base[-1], np.int64)
    starts[base[:-1]] = voff[:-1]
    if len(spaces):
        run_start = np.concatenate(
            [[0], np.flatnonzero(sp_doc[1:] != sp_doc[:-1]) + 1])
        run_len = np.diff(np.append(run_start, len(spaces)))
        r = np.arange(len(spaces)) - np.repeat(run_start, run_len)
        starts[base[sp_doc] + 1 + r] = spaces + 1
    return data, voff, ntok, base, starts


def _enum_windows(ntok: np.ndarray, L: int):
    """(win_doc, win_j) for every L-token window of every doc."""
    nwin = np.maximum(ntok - (L - 1), 0)
    total_win = int(nwin.sum())
    n = len(ntok)
    if total_win == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    wbase = np.concatenate([[0], np.cumsum(nwin)])
    win_doc = np.repeat(np.arange(n, dtype=np.int64), nwin)
    win_j = np.arange(total_win) - np.repeat(wbase[:-1], nwin)
    return win_doc, win_j


def _gather_windows(data, voff, ntok, base, starts, win_doc,
                    win_j, L: int) -> pa.Array:
    """Exact window strings for the SELECTED (win_doc, win_j) windows:
    one vectorized gather of the byte slices (first token start to
    last token end)."""
    total_win = len(win_doc)
    if total_win == 0:
        return pa.array([], pa.large_string())
    sidx = base[win_doc] + win_j
    s = starts[sidx]
    e = np.empty(total_win, np.int64)
    last = win_j + L == ntok[win_doc]
    e[last] = voff[win_doc[last] + 1]
    nl = ~last
    e[nl] = starts[sidx[nl] + L] - 1
    lens = e - s
    out_off = np.concatenate([[0], np.cumsum(lens)])
    gather = np.repeat(s - out_off[:-1], lens) + np.arange(out_off[-1])
    buf = np.ascontiguousarray(data[gather])
    return pa.Array.from_buffers(
        pa.large_string(), total_win,
        [None, pa.py_buffer(out_off), pa.py_buffer(buf)])


def _window_spans(texts, L: int) -> tuple[np.ndarray, pa.Array]:
    """(win_doc, windows) for every L-token window of every text: the
    window's doc ordinal and its exact string (tokens joined by ' ',
    i.e. the byte slice of the text from the first token's start to the
    last token's end).  Nulls count as empty (1 empty token)."""
    data, voff, ntok, base, starts = _token_layout(texts)
    win_doc, win_j = _enum_windows(ntok, L)
    return win_doc, _gather_windows(data, voff, ntok, base, starts,
                                    win_doc, win_j, L)


def _fold_hashes(layout, win_doc, win_j, L: int) -> np.ndarray:
    """Window hashes for the given (win_doc, win_j) windows WITHOUT
    constructing window strings: per-token FNV-1a (short spans), then
    an L-step vectorized positional fold over the window's token
    hashes.  Equal window strings always hash equal (collisions only
    ever ADD false candidates — callers re-verify on the raw bytes),
    so this is the cheap prefilter pass for the exact span family."""
    from ..hashing import FNV_OFFSET, FNV_PRIME, fnv1a64_spans

    data, voff, ntok, base, starts = layout
    if not len(win_doc):
        return np.empty(0, np.uint64)
    total_tok = int(base[-1])
    tok_end = np.empty(total_tok, np.int64)
    tok_end[:-1] = starts[1:] - 1          # byte before the separator
    n = len(ntok)
    lastpos = base[1:] - 1                 # last token of each doc
    tok_end[lastpos] = voff[1:n + 1]
    tok_h = fnv1a64_spans(data, starts, tok_end - starts)
    sidx = base[win_doc] + win_j
    h = np.full(len(win_doc), FNV_OFFSET, np.uint64)
    with np.errstate(over="ignore"):
        for k in range(L):
            h = (h ^ tok_h[sidx + k]) * np.uint64(FNV_PRIME)
    return h


def _window_hashes(texts, L: int):
    """(win_doc, win_j, win_hash) for every L-token window (see
    ``_fold_hashes``)."""
    layout = _token_layout(texts)
    win_doc, win_j = _enum_windows(layout[2], L)
    return win_doc, win_j, _fold_hashes(layout, win_doc, win_j, L)


def _in_sorted(h: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Membership mask of ``h`` in a SORTED uint64 array."""
    if not len(sorted_set) or not len(h):
        return np.zeros(len(h), bool)
    idx = np.searchsorted(sorted_set, h)
    idx[idx == len(sorted_set)] = len(sorted_set) - 1
    return sorted_set[idx] == h


def _candidate_hashes(ds, hash_fn, *, min_count: int, num_parts: int,
                      spill_dir, batch_size) -> np.ndarray:
    """SORTED uint64 unit hashes occurring >= ``min_count`` times
    corpus-wide, where ``hash_fn(batch)`` gives the uint64 hash of
    every unit occurrence in a batch — a superset of the duplicated-unit
    hash set (every occurrence of a duplicated string shares its hash;
    collisions only add false candidates).  Per-batch partial counts
    travel as 16-byte rows through the disk shuffle instead of unit
    strings.  The hash-prefilter pass of the span and line dedup
    families."""
    import ray

    from ..spillfs import partition_apply

    def partial(batch: pa.Table) -> pa.Table:
        h = hash_fn(batch)
        t = pa.table({"h": pa.array(h.view(np.int64), pa.int64())})
        cnt = _group_counts(t, ["h"], [("h", "count")])
        hh = cnt["h"]
        if isinstance(hh, pa.ChunkedArray):
            hh = hh.combine_chunks()
        part = (hh.to_numpy(zero_copy_only=False).view(np.uint64)
                % np.uint64(num_parts)).astype(np.int32)
        return pa.table({"h": hh,
                         "n": cnt["h_count"].cast(pa.int64()),
                         "part": pa.array(part, pa.int32())})

    def frequent(t: pa.Table) -> np.ndarray:
        g = _group_counts(t, ["h"], [("n", "sum")])
        g = g.filter(pc.greater_equal(g["n_sum"], pa.scalar(min_count)))
        hh = g["h"]
        if isinstance(hh, pa.ChunkedArray):
            hh = hh.combine_chunks()
        return hh.to_numpy(zero_copy_only=False).view(np.uint64)

    refs = partition_apply(
        ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=batch_size, zero_copy_batch=True),
        "part", frequent, columns=["h", "n"], spill_dir=spill_dir,
        prefix="candh_")
    out = np.concatenate([p for p in ray.get(refs) if len(p)] or
                         [np.empty(0, np.uint64)])
    out.sort()
    return out


def _keep_first_removals(ds, ordinal: str, *, spill_dir):
    """Keep-first over unit occurrences: ``ds`` rows are (``unit``,
    ``doc``, ``ordinal``, ``part``) with ``part`` a hash of the unit.
    Each part sorts by (unit, doc, ordinal) and emits the (doc,
    ordinal) rows of every occurrence but each unit's first — one
    boundary diff over the sorted unit column (never np.unique on
    sorted data).  Grouping is on the unit STRING, so a hash collision
    only adds a singleton group, which emits nothing.  Returns a
    Dataset of the removal rows, or None when there are none; only
    the row COUNT comes to the driver."""
    import ray
    import ray.data

    from ..spillfs import partition_apply

    def non_first(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("unit", "ascending"), ("doc", "ascending"),
            (ordinal, "ascending")]))
        u = t["unit"]
        if isinstance(u, pa.ChunkedArray):
            u = u.combine_chunks()
        n = len(u)
        if n == 0:
            return t.select(["doc", ordinal])  # keeps the id type
        # True where a unit repeats its predecessor (not a group start)
        neq = pc.not_equal(u.slice(1), u.slice(0, n - 1))
        dup = np.empty(n, bool)
        dup[0] = False
        np.logical_not(neq.to_numpy(zero_copy_only=False), out=dup[1:])
        keep = pa.array(dup)
        return pa.table({"doc": t["doc"].filter(keep),
                         ordinal: t[ordinal].filter(keep)})

    refs = partition_apply(ds, "part", non_first,
                           columns=["unit", "doc", ordinal],
                           spill_dir=spill_dir, prefix="keepfirst_")

    @ray.remote(num_cpus=0)
    def nrows(t: pa.Table) -> int:
        return t.num_rows

    if sum(ray.get([nrows.remote(r) for r in refs])) == 0:
        return None
    return ray.data.from_arrow_refs(refs)


def duplicate_windows(ds, *, L: int = 8, text_col: str = "text",
                      min_count: int = 2, num_parts: int | None = None,
                      spill_dir: str | None = None,
                      batch_size: int | None = None) -> pa.Table:
    """Corpus-wide duplicate L-token windows: a ``(window, n)`` table of
    every window string occurring >= ``min_count`` times (multiplicity
    counts every occurrence, within- and cross-document).  Exact string
    semantics over the hive disk shuffle (see module docstring)."""
    import ray

    from ..spillfs import partition_apply

    if L < 2:
        raise ValueError("L must be >= 2")
    if num_parts is None:
        num_parts = max(8, int(ray.cluster_resources().get("CPU", 8)))

    empty = pa.table({"window": pa.array([], pa.large_string()),
                      "n": pa.array([], pa.int64())})
    cand = _candidate_hashes(
        ds, lambda b: _window_hashes(b[text_col], L)[2],
        min_count=min_count, num_parts=num_parts, spill_dir=spill_dir,
        batch_size=batch_size)
    if not len(cand):
        return empty
    cand_ref = ray.put(cand)

    def partial(batch: pa.Table) -> pa.Table:
        # only candidate-hash windows materialize as strings; the
        # exact >= min_count decision happens on the strings per part
        csort = ray.get(cand_ref)
        layout = _token_layout(batch[text_col])
        win_doc, win_j = _enum_windows(layout[2], L)
        h = _fold_hashes(layout, win_doc, win_j, L)
        m = _in_sorted(h, csort)
        wins = _gather_windows(*layout, win_doc[m], win_j[m], L)
        pairs = pa.table({"unit": wins,
                          "p": pa.array(win_doc[m], pa.int64())})
        cnt = _group_counts(pairs, ["unit"], [("p", "count")])
        u = cnt["unit"]
        if isinstance(u, pa.ChunkedArray):
            u = u.combine_chunks()
        part = (fnv1a64_tokens(u) % np.uint64(num_parts)).astype(np.int32)
        return pa.table({"unit": u,
                         "n": cnt["p_count"].cast(pa.int64()),
                         "part": pa.array(part, pa.int32())})

    def sum_part(t: pa.Table) -> pa.Table:
        g = _group_counts(t, ["unit"], [("n", "sum")])
        g = g.filter(pc.greater_equal(g["n_sum"], pa.scalar(min_count)))
        return pa.table({"window": g["unit"].cast(pa.large_string()),
                         "n": g["n_sum"].cast(pa.int64())})

    refs = partition_apply(
        ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=batch_size), "part", sum_part,
        columns=["unit", "n"], spill_dir=spill_dir, prefix="spans_")
    parts = [p for p in ray.get(refs) if p.num_rows]
    if not parts:
        return empty
    return pa.concat_tables(parts).combine_chunks()


def dup_spans(ds, *, L: int = 8, text_col: str = "text",
              id_col: str = "doc_id", min_count: int = 2,
              num_parts: int | None = None,
              batch_size: int | None = None):
    """Per-document duplicate-span statistics: a Dataset of ``(id,
    n_windows, dup_windows, dup_frac_x1e4)`` where ``dup_windows``
    counts the document's L-token windows whose exact window string
    occurs >= ``min_count`` times corpus-wide.  The per-doc signal
    behind exact-substring dedup: threshold ``dup_frac`` to drop
    template-heavy documents, or feed ``duplicate_windows`` output to a
    span-removal rewrite."""
    import ray

    dup = duplicate_windows(ds, L=L, text_col=text_col,
                            min_count=min_count, num_parts=num_parts,
                            batch_size=batch_size)
    col = dup["window"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    dup_ref = ray.put(col)
    # fold hashes of the dup strings (each is exactly one L-token
    # window of itself): the probe pass materializes ONLY windows
    # whose fold hash is in this small sorted set, then re-verifies
    # string equality with is_in
    _, _, dh = _window_hashes(col, L)
    dh.sort()
    dh_ref = ray.put(dh)

    def stats(batch: pa.Table) -> pa.Table:
        dupset = ray.get(dup_ref)
        dsort = ray.get(dh_ref)
        layout = _token_layout(batch[text_col])
        win_doc, win_j = _enum_windows(layout[2], L)
        nb = len(batch)
        nw = np.bincount(win_doc, minlength=nb)
        if len(dupset) and len(win_doc):
            h = _fold_hashes(layout, win_doc, win_j, L)
            cm = _in_sorted(h, dsort)
            wins = _gather_windows(*layout, win_doc[cm], win_j[cm], L)
            m = pc.is_in(wins, value_set=dupset).to_numpy(
                zero_copy_only=False).astype(bool)
            dw = np.bincount(win_doc[cm][m], minlength=nb)
        else:
            dw = np.zeros(nb, np.int64)
        frac = np.floor(
            dw / np.maximum(nw, 1) * 10000 + 0.5).astype(np.int64)
        frac[nw == 0] = 0
        return pa.table({
            id_col: batch[id_col],
            "n_windows": pa.array(nw.astype(np.int64), pa.int64()),
            "dup_windows": pa.array(dw.astype(np.int64), pa.int64()),
            "dup_frac_x1e4": pa.array(frac, pa.int64()),
        })

    return ds.map_batches(stats, batch_format="pyarrow",
                          batch_size=batch_size)


def _dup_occurrence_starts(ds, *, L: int, text_col: str,
                           id_col: str, num_parts: int,
                           spill_dir: str | None, batch_size):
    """Removal starts for the span rewrite: every occurrence of a
    corpus-duplicated window EXCEPT the corpus-first (in (doc, j)
    order) becomes a (doc, j) removal row.  The hash prefilter
    (``_candidate_hashes``, 16-byte rows) bounds the string shuffle to
    candidate windows only; each part then counts and keep-firsts its
    window groups in one sorted pass over the exact strings — no
    duplicate-set broadcast, no per-batch hash-set probe.  Grouping is
    by the window STRING (hashes only partition and prefilter — a
    collision only adds a singleton group, which emits nothing), so
    the canonical pick is exact."""
    import ray

    cand = _candidate_hashes(
        ds, lambda b: _window_hashes(b[text_col], L)[2], min_count=2,
        num_parts=num_parts, spill_dir=spill_dir, batch_size=batch_size)
    if not len(cand):
        return None
    cand_ref = ray.put(cand)

    def emit(batch: pa.Table) -> pa.Table:
        csort = ray.get(cand_ref)
        layout = _token_layout(batch[text_col])
        win_doc, win_j = _enum_windows(layout[2], L)
        h = _fold_hashes(layout, win_doc, win_j, L)
        m = _in_sorted(h, csort)
        id_type = batch.schema.field(id_col).type  # int OR string ids
        if not m.any():
            return pa.table({
                "unit": pa.array([], pa.large_string()),
                "doc": pa.array([], id_type),
                "j": pa.array([], pa.int64()),
                "part": pa.array([], pa.int32())})
        win_doc, win_j = win_doc[m], win_j[m]
        wins = _gather_windows(*layout, win_doc, win_j, L)
        docs = batch[id_col].take(pa.array(win_doc))
        part = (fnv1a64_tokens(wins) % np.uint64(num_parts)
                ).astype(np.int32)
        return pa.table({
            "unit": wins,
            "doc": docs,
            "j": pa.array(win_j, pa.int64()),
            "part": pa.array(part, pa.int32())})

    return _keep_first_removals(
        ds.map_batches(emit, batch_format="pyarrow",
                       batch_size=batch_size), "j",
        spill_dir=spill_dir)


def remove_dup_spans(ds, *, L: int = 8, text_col: str = "text",
                     id_col: str = "doc_id",
                     num_parts: int | None = None,
                     spill_dir: str | None = None,
                     batch_size: int | None = None):
    """Exact-substring dedup REWRITE (Lee et al. 2022 semantics at
    token-window granularity): a token is removed iff it is covered by
    some occurrence of a corpus-duplicated L-token window that is not
    that window's corpus-first occurrence (ordered by (doc, position)).
    Each document is rebuilt from its surviving tokens; returns a
    Dataset of ``(id_col, text, n_removed)`` (token counts) covering
    every input document.

    Two shuffles total, both on the hive disk spill: every window
    occurrence by window hash (count + keep-first in one per-part
    sorted pass — no duplicate-set broadcast, no per-batch hash-set
    probe), then removal starts co-partitioned with the documents
    (joins.co_partition_apply) and one vectorized interval-coverage +
    rebuild kernel per partition."""
    import ray

    if num_parts is None:
        num_parts = max(8, int(ray.cluster_resources().get("CPU", 8)))
    removals = _dup_occurrence_starts(
        ds, L=L, text_col=text_col, id_col=id_col,
        num_parts=num_parts, spill_dir=spill_dir,
        batch_size=batch_size)

    def ident(batch: pa.Table) -> pa.Table:
        return pa.table({
            id_col: batch[id_col],
            "text": pc.fill_null(batch[text_col], "").cast(pa.string()),
            "n_removed": pa.array(
                np.zeros(batch.num_rows, np.int64), pa.int64()),
        })

    if removals is None:
        return ds.map_batches(ident, batch_format="pyarrow",
                              zero_copy_batch=True)

    from .joins import co_partition_apply

    def kernel(docs: pa.Table, rem: pa.Table) -> pa.Table:
        # Arrow sort + index_in keep the id column type-agnostic
        # (int doc ids or url strings)
        docs = docs.take(pc.sort_indices(
            docs, sort_keys=[(id_col, "ascending")]))
        ids = docs[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        texts = docs[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        texts = pc.fill_null(texts, "")
        toks = pc.split_pattern(texts, pattern=" ")
        flat = pc.list_flatten(toks)
        counts = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        offs = np.zeros(len(ids) + 1, np.int64)
        np.cumsum(counts, out=offs[1:])
        total = int(offs[-1])
        diff = np.zeros(total + 1, np.int64)
        if rem.num_rows:
            # co-partitioning guarantees every removal's doc is here
            row = pc.index_in(rem["doc"], value_set=ids).to_numpy(
                zero_copy_only=False).astype(np.int64)
            rj = rem["j"].to_numpy(zero_copy_only=False)
            s = offs[row] + rj
            e = offs[row] + np.minimum(rj + L, counts[row])
            np.add.at(diff, s, 1)
            np.add.at(diff, e, -1)
        covered = np.cumsum(diff[:-1]) > 0
        parent = pc.list_parent_indices(toks).to_numpy(
            zero_copy_only=False)
        n_removed = np.bincount(parent[covered],
                                minlength=len(ids)).astype(np.int64)
        kept = flat.filter(pa.array(~covered))
        koffs = np.zeros(len(ids) + 1, np.int64)
        np.cumsum(counts - n_removed, out=koffs[1:])
        lst = pa.LargeListArray.from_arrays(pa.array(koffs, pa.int64()),
                                            kept)
        text = pc.binary_join(lst, " ")
        if text.type != pa.string():
            text = text.cast(pa.string())
        return pa.table({
            id_col: docs[id_col],
            "text": text,
            "n_removed": pa.array(n_removed, pa.int64()),
        })

    return co_partition_apply(ds, removals, left_on=id_col,
                              right_on="doc", kernel=kernel,
                              num_parts=num_parts, spill_dir=spill_dir)
