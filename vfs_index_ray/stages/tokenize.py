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
    pos]); doc ids come from ``id_col`` when the batch has it, else from
    hashing ``url_col``."""
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
    return postings_from_texts(texts, ids, mode, positions=positions)


class AddPartColumn:
    """Stateless: append part = term_id % num_parts (the shuffle key)."""

    def __init__(self, num_parts: int):
        self.num_parts = num_parts

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = batch["term_id"].to_numpy(zero_copy_only=False)
        part = (t % np.uint64(self.num_parts)).astype(np.int32)
        return batch.append_column("part", pa.array(part, pa.int32()))
