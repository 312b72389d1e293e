"""Typo-tolerant term lookup: trigram-Jaccard fuzzy matching over the
corpus vocabulary.

A fuzzy query never touches a shuffle: a token's score depends only on
the token itself (its distinct character trigrams vs the query's), so
every batch scores its OWN distinct tokens and emits a k-row partial;
the driver dedups/merges batches × k rows.  A token in the global
top-k is in the top-k of every batch containing it, so per-batch
pruning is lossless.  All arithmetic is integer
(``jacc_x1e6 = inter·10⁶ // (ng + nq − inter)``), so the result is
bit-identical to a SQL transcription.

Trigrams reuse the index's packed-trigram kernel
(tokenizer.trigram_ids_flat — zero-copy over Arrow buffers for ASCII);
word tokens are [a-z0-9]+ so the packed ids are in bijection with the
3-char substrings a SQL oracle extracts.

Reference parity: the reference's query surface is exact/range/nearest
key lookup (kazu/vfs-index info/*.go); fuzzy lookup is
beyond-reference fulltext ergonomics (typo-tolerant search).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..tokenizer import pack_trigram, trigram_ids_flat, word_tokens_flat
from . import collect_arrow
from .boilerplate import _group_counts


def _distinct_token_gram_pairs(tokens: pa.Array
                               ) -> tuple[np.ndarray, np.ndarray]:
    """(token_idx, packed_gram) with within-token duplicates removed
    (lexsort + boundary diff — never np.unique on sorted data)."""
    tri, parent, _ = trigram_ids_flat(tokens)
    if len(tri) == 0:
        return (np.empty(0, np.int64), np.empty(0, np.uint64))
    order = np.lexsort((tri, parent))
    p, g = parent[order], tri[order]
    keep = np.empty(len(p), bool)
    keep[0] = True
    keep[1:] = (p[1:] != p[:-1]) | (g[1:] != g[:-1])
    return p[keep], g[keep]


def score_tokens(tokens: pa.Array, query_grams: np.ndarray,
                 nq: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-token (inter, jacc_x1e6) vs the SORTED distinct query-gram
    id array — one vectorized pass, no Python loop over tokens."""
    n = len(tokens)
    p, g = _distinct_token_gram_pairs(tokens)
    ng = np.bincount(p, minlength=n).astype(np.int64)
    if len(query_grams) and len(g):
        pos = np.searchsorted(query_grams, g)
        pos[pos == len(query_grams)] = 0
        hit = query_grams[pos] == g
        inter = np.bincount(p[hit], minlength=n).astype(np.int64)
    else:
        inter = np.zeros(n, np.int64)
    union = np.maximum(ng + nq - inter, 1)
    return inter, (inter * 1_000_000) // union


def fuzzy_terms(corpus_ds, query: str, *, k: int = 10,
                text_col: str = "text") -> pa.Table:
    """Top-``k`` vocabulary tokens by trigram Jaccard against
    ``query`` (lowercased; tokens and query shorter than 3 chars
    never match).  Returns (token, jacc_x1e6) ordered by
    (jacc desc, token asc) — a deterministic total order, so the
    k-boundary cut is stable across engines."""
    qgrams = np.array(sorted(set(pack_trigram(query.lower()))),
                      np.uint64)
    nq = len(qgrams)
    schema = pa.schema([("token", pa.string()),
                        ("jacc_x1e6", pa.int64())])
    if nq == 0:
        return schema.empty_table()

    def topk_local(t: pa.Table) -> pa.Table:
        return t.take(pc.sort_indices(t, sort_keys=[
            ("jacc_x1e6", "descending"), ("token", "ascending")])[:k])

    def partial(b: pa.Table) -> pa.Table:
        flat, _, _ = word_tokens_flat(b[text_col])
        toks = pc.unique(flat)
        toks = toks.filter(pc.greater_equal(pc.utf8_length(toks), 3))
        if len(toks) == 0:
            return schema.empty_table()
        inter, jacc = score_tokens(toks, qgrams, nq)
        m = inter > 0
        return topk_local(pa.table({
            "token": toks.filter(pa.array(m)),
            "jacc_x1e6": pa.array(jacc[m], pa.int64())}))

    t = collect_arrow(corpus_ds.map_batches(partial, batch_format="pyarrow",
                                            zero_copy_batch=True))
    if t is None:
        return schema.empty_table()
    # cross-batch duplicates carry identical scores; min == the score
    m = _group_counts(t, ["token"], [("jacc_x1e6", "min")])
    return topk_local(pa.table({
        "token": m["token"],
        "jacc_x1e6": m["jacc_x1e6_min"].cast(pa.int64())})).cast(schema)
