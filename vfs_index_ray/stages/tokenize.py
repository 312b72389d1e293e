"""Tokenize stage: pages batch → posting rows, as plain Ray Data tasks.

The reference streams records through a tokenizer goroutine and N writer
goroutines emitting one index file per (key, record) (indexer.go:217-247,
column.go:179-235). Here the whole per-record path is one vectorized
per-batch kernel, ``tokenize_postings``, run by stateless tasks:
``ds.map_batches(tokenize_postings, batch_format="pyarrow")``. With hash
term ids there is no per-worker state to amortize, so tasks need no actor
startup and stay elastic across the cluster.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..hashing import doc_ids_from_urls
from ..tokenizer import postings_from_texts


def tokenize_postings(batch: pa.Table, *, mode: str = "word",
                      text_col: str = "text", id_col: str | None = "doc_id",
                      url_col: str = "url",
                      positions: bool = False) -> pa.Table:
    """pages (url|doc_id, text) → postings (term_id, doc_id, tf, dl[,
    pos]), ordered (term_id, doc_id): the sorted run the spill writes
    and phase 2 merges. Doc ids come from ``id_col`` when the batch has
    it, else from hashing ``url_col``; a batch whose ids do not ascend
    is put in id order first."""
    if id_col and id_col in batch.column_names:
        col = batch[id_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ids = col.to_numpy(zero_copy_only=False).astype(np.uint64)
    else:
        col = batch[url_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ids = doc_ids_from_urls(col)
    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if (ids[1:] < ids[:-1]).any():
        order = np.argsort(ids, kind="stable")
        ids, texts = ids[order], texts.take(order)
    return postings_from_texts(texts, ids, mode, positions=positions)

