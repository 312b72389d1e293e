"""Global exact line-level dedup, keep-first (the C4 / CCNet
line-dedup webtext-cleanup shape).

A line that occurs anywhere else in the corpus keeps only its FIRST
occurrence in (doc_id, line-ordinal) order; every later occurrence is
removed and each document's text is rebuilt from its surviving lines
in original order.  Differs from boilerplate pruning
(functions/boilerplate.py), which removes every occurrence of
corpus-frequent units: here exactly one copy survives, so unique
content is never touched and duplicated content is kept once.

Reference parity note: vfs-index has no corpus rewrite — this is one
of the beyond-reference LLM-data operators.  The 100-TB shape is two
disk shuffles and zero driver materialization:

- phase 1: explode (line, doc_id, ord) occurrence rows per batch and
  spill hive-partitioned by ``fnv(line) % P`` (hashing is only the
  partition key; equality is decided on the raw line bytes inside a
  part, so collisions cannot merge groups);
- phase 2 (per part): lexsort by (line, doc, ord), boundary-diff the
  group starts (never np.unique on sorted data — measured in-repo),
  and emit the NON-first occurrences as (doc_id, ord) removal rows —
  only the duplicated tail crosses the wire;
- phase 3: co-partition the documents and the removal rows by
  ``hash(doc_id) % P`` (functions/joins.py co_partition_apply — NOT a
  relational join, which would re-ship a document's text once per
  removed line) and rebuild each partition's texts with one
  vectorized split → mask → binary_join kernel.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _removal_rows(ds, *, text_col: str, id_col: str, sep: str,
                  num_parts: int, spill_dir: str | None):
    """Phases 1+2: a Dataset of (doc, ord) rows marking every line
    occurrence that is NOT the corpus-first for its line value.
    Returns None when the corpus has no duplicate lines.

    A hash-prefilter pass runs first (``spans._candidate_hashes``,
    shared with the span family): per-line FNV counts as 16-byte rows
    through the disk spill yield the small sorted candidate-hash set,
    and only candidate lines' occurrence rows — duplicates plus rare
    collisions — enter the string shuffle, whose per-part keep-first
    pass is ``spans._keep_first_removals``.  Equality stays on the raw
    line bytes (a collision only adds a singleton group, which emits
    nothing)."""
    import ray

    from ..hashing import fnv1a64_tokens
    from .spans import _candidate_hashes, _in_sorted, _keep_first_removals

    def split_lines(batch: pa.Table):
        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        texts = pc.fill_null(texts, "")  # null text = one empty line
        lines = pc.split_pattern(texts, pattern=sep)
        flat = pc.list_flatten(lines)
        parent = pc.list_parent_indices(lines).to_numpy(
            zero_copy_only=False)
        return lines, flat, parent

    cand = _candidate_hashes(
        ds, lambda b: fnv1a64_tokens(split_lines(b)[1]), min_count=2,
        num_parts=num_parts, spill_dir=spill_dir, batch_size=None)
    if not len(cand):
        return None
    cand_ref = ray.put(cand)

    def explode(batch: pa.Table) -> pa.Table:
        csort = ray.get(cand_ref)
        lines, flat, parent = split_lines(batch)
        offs = np.zeros(batch.num_rows + 1, np.int64)
        np.cumsum(pc.list_value_length(lines).to_numpy(
            zero_copy_only=False), out=offs[1:])
        ords = np.arange(len(flat), dtype=np.int64) - offs[parent]
        m = _in_sorted(fnv1a64_tokens(flat), csort)
        flat = flat.filter(pa.array(m))
        docs = batch[id_col].take(pa.array(parent[m]))  # keeps id type
        part = (fnv1a64_tokens(flat) % np.uint64(num_parts)
                ).astype(np.int32)
        return pa.table({
            "unit": flat,
            "doc": docs,
            "ord": pa.array(ords[m], pa.int64()),
            "part": pa.array(part, pa.int32()),
        })

    return _keep_first_removals(
        ds.map_batches(explode, batch_format="pyarrow",
                       zero_copy_batch=True), "ord",
        spill_dir=spill_dir)


def _rebuild_kernel(docs: pa.Table, rem: pa.Table, *, text_col: str,
                    id_col: str, sep: str) -> pa.Table:
    """One partition's rebuild: drop removed (doc, ord) lines and
    re-join the survivors — fully vectorized."""
    # Arrow sort + index_in keep the id column type-agnostic (int doc
    # ids or url strings)
    docs = docs.take(pc.sort_indices(docs,
                                     sort_keys=[(id_col, "ascending")]))
    ids = docs[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    texts = docs[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.fill_null(texts, "")  # null text = one empty line
    lines = pc.split_pattern(texts, pattern=sep)
    flat = pc.list_flatten(lines)
    counts = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
    offs = np.zeros(len(ids) + 1, np.int64)
    np.cumsum(counts, out=offs[1:])
    removed = np.zeros(len(flat), bool)
    n_removed = np.zeros(len(ids), np.int64)
    if rem.num_rows:
        rord = rem["ord"].to_numpy(zero_copy_only=False)
        # co-partitioning guarantees every removal's doc is here; the
        # ord is in range because both phases split identically
        row = pc.index_in(rem["doc"], value_set=ids).to_numpy(
            zero_copy_only=False).astype(np.int64)
        removed[offs[row] + rord] = True
        np.add.at(n_removed, row, 1)
    kept = flat.filter(pa.array(~removed))
    kept_per_doc = counts - n_removed
    koffs = np.zeros(len(ids) + 1, np.int64)
    np.cumsum(kept_per_doc, out=koffs[1:])
    lst = pa.LargeListArray.from_arrays(pa.array(koffs, pa.int64()),
                                        kept)
    text = pc.binary_join(lst, sep)
    if text.type != pa.string():
        text = text.cast(pa.string())
    return pa.table({
        id_col: docs[id_col],
        "text": text,
        "n_removed": pa.array(n_removed, pa.int64()),
    })


def line_dedup(ds, *, text_col: str = "text", id_col: str = "doc_id",
               sep: str = "\n", num_parts: int | None = None,
               spill_dir: str | None = None):
    """Corpus-wide keep-first exact line dedup.  Returns a Dataset of
    ``(id_col, text, n_removed)`` covering every input document (docs
    with no duplicated lines pass through with n_removed=0)."""
    import ray

    if num_parts is None:
        num_parts = max(8, int(ray.cluster_resources().get("CPU", 8)))
    removals = _removal_rows(ds, text_col=text_col, id_col=id_col,
                             sep=sep, num_parts=num_parts,
                             spill_dir=spill_dir)
    if removals is None:
        # no duplicate lines anywhere: identity rebuild, still
        # emitting the (id, text, n_removed) schema
        def ident(batch: pa.Table) -> pa.Table:
            return pa.table({
                id_col: batch[id_col],
                "text": pc.fill_null(batch[text_col],
                                     "").cast(pa.string()),
                "n_removed": pa.array(
                    np.zeros(batch.num_rows, np.int64), pa.int64()),
            })
        return ds.map_batches(ident, batch_format="pyarrow",
                              zero_copy_batch=True)

    from .joins import co_partition_apply

    def kernel(docs: pa.Table, rem: pa.Table) -> pa.Table:
        return _rebuild_kernel(docs, rem, text_col=text_col,
                               id_col=id_col, sep=sep)

    return co_partition_apply(ds, removals, left_on=id_col,
                              right_on="doc", kernel=kernel,
                              num_parts=num_parts, spill_dir=spill_dir)
