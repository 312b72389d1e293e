"""Seeded inputs for the index benchmark: pages and query pools.

Everything here is a pure function of the workload seed and uses only
numpy and pyarrow, never ``vfs_index_ray``, so a change to the program
cannot change what the benchmark feeds it.

Pages follow the Common Crawl text shape (url, warc_ts, lang, text) plus
an int64 ``doc_id``. Words are drawn from a seeded vocabulary with
Zipf-distributed ranks, so a few head terms occur in most pages, a long
tail of rare terms in a handful, and top-k pruning and caching have skew
to exploit. One planted rare term occurs in exactly ``PLANTED_DF`` pages,
and absent terms are words the generator can never emit.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

VOCAB_SIZE = 30_000
ZIPF_S = 1.07
LOGLEN_MEAN, LOGLEN_SIGMA = 4.2, 0.7   # ~80 tokens per page
MIN_LEN, MAX_LEN = 20, 400
PLANTED_DF = 7
HEAD_RANKS = 64            # ranks [0, 64) are head terms
MID_RANKS = 4_096          # ranks [64, 4096) are mid terms, beyond is rare
RARE_MAX_DF = 40           # a rare query term occurs in 1..40 pages
QUERY_BLOCK = 128          # queries per block of a pool, see query_pool


def _vocab(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct words over letters a-x; 'y' and 'z' stay free for
    planted and absent words, so those can never collide."""
    out: list[str] = []
    seen: set[str] = set()
    letters = np.array(list("abcdefghijklmnopqrstuvwx"))
    while len(out) < n:
        lens = rng.integers(3, 11, size=2 * n)
        chars = letters[rng.integers(0, len(letters), size=(2 * n, 10))]
        for row, ln in zip(chars, lens):
            w = "".join(row[:ln])
            if w not in seen:
                seen.add(w)
                out.append(w)
                if len(out) == n:
                    break
    return out


@dataclass
class Corpus:
    """One generated corpus: the word of every token, by page."""
    words: list[str]          # vocabulary + the planted word (last)
    doc_ids: np.ndarray       # int64, one per page
    offsets: np.ndarray       # int64; page i: tokens[offsets[i]:offsets[i+1]]
    tokens: np.ndarray        # int32 word index per token

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def texts(self, lo: int = 0, hi: int | None = None) -> pa.Array:
        hi = self.n_docs if hi is None else hi
        offs = self.offsets[lo:hi + 1]
        words = pa.array(self.words, pa.string()).take(
            pa.array(self.tokens[offs[0]:offs[-1]]))
        lists = pa.ListArray.from_arrays(pa.array(offs - offs[0], pa.int32()),
                                         words)
        return pc.binary_join(lists, " ")

    def doc_freq(self) -> np.ndarray:
        """Pages containing each word (indexed like ``words``)."""
        page = np.repeat(np.arange(self.n_docs), self.lengths)
        pairs = np.unique(page.astype(np.int64) * len(self.words)
                          + self.tokens)
        return np.bincount(pairs % len(self.words), minlength=len(self.words))


def generate(seed: int, n_docs: int, first_doc_id: int,
             vocab_seed: int) -> Corpus:
    """Pages drawn from the vocabulary of ``vocab_seed``. The corpus of
    an absorb wave shares the base corpus's vocabulary but not its seed."""
    words = _vocab(np.random.default_rng(vocab_seed), VOCAB_SIZE)
    words.append("y" + "".join(np.random.default_rng(vocab_seed + 1).choice(
        list("abcdefghijklmnopqrstuvwxyz"), 9)))
    rng = np.random.default_rng(seed)
    lens = np.clip(np.exp(rng.normal(LOGLEN_MEAN, LOGLEN_SIGMA, n_docs)),
                   MIN_LEN, MAX_LEN).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(lens)])
    p = 1.0 / np.power(np.arange(1, VOCAB_SIZE + 1, dtype=np.float64), ZIPF_S)
    cdf = np.cumsum(p / p.sum())
    tokens = np.minimum(np.searchsorted(cdf, rng.random(int(offsets[-1]))),
                        VOCAB_SIZE - 1).astype(np.int32)
    # the planted word replaces the first token of PLANTED_DF pages
    for page in rng.choice(n_docs, size=min(PLANTED_DF, n_docs),
                           replace=False):
        tokens[offsets[page]] = VOCAB_SIZE
    doc_ids = first_doc_id + np.arange(n_docs, dtype=np.int64)
    return Corpus(words, doc_ids, offsets, tokens)


def write_pages(corpus: Corpus, out_dir: str, n_files: int,
                prefix: str = "pages") -> tuple[list[str], str]:
    """Write the corpus as ``n_files`` Parquet files of equal page counts.
    Returns the paths and a sha256 over every file's bytes."""
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, corpus.n_docs, n_files + 1).astype(np.int64)
    paths, digest = [], hashlib.sha256()
    base_ts = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    for i in range(n_files):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        ids = corpus.doc_ids[lo:hi]
        tbl = pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "url": pa.array([f"https://site-{d % 997:03d}.example/p/{d}"
                             for d in ids.tolist()], pa.string()),
            "warc_ts": pa.array(base_ts + (ids * 7_919 % 31_536_000)
                                * 1_000_000, pa.timestamp("us")),
            "lang": pa.array(["en"] * (hi - lo), pa.string()),
            "text": corpus.texts(lo, hi),
        })
        path = os.path.join(out_dir, f"{prefix}-{i:02d}.parquet")
        pq.write_table(tbl, path)
        with open(path, "rb") as f:
            digest.update(f.read())
        paths.append(path)
    return paths, digest.hexdigest()


def _zipf_ranks(n_classes: int, count: int, rng: np.random.Generator
                ) -> np.ndarray:
    """``count`` positions in ``[0, n_classes)`` drawn Zipf by stratified
    sampling: draw ``j`` falls in the ``j``-th of ``count`` equal
    probability strata. Pools of every seed then have the same df
    profile, and the seed still picks the words."""
    w = 1.0 / np.power(np.arange(1, n_classes + 1, dtype=np.float64), ZIPF_S)
    cdf = np.cumsum(w / w.sum())
    u = (np.arange(count) + rng.random(count)) / count
    return np.minimum(np.searchsorted(cdf, u), n_classes - 1)


def query_pool(corpus: Corpus, seed: int, size: int) -> list[str]:
    """``size`` BM25 queries over words that occur in ``corpus``, in
    blocks of ``QUERY_BLOCK`` (or ``size``, if smaller).

    The shape of query ``i`` of a block (1-4 terms, each head, mid or
    rare) follows a fixed schedule with class shares 30/40/30, so every
    seed and every block gets the same mix; the ranks are Zipf draws
    within each class (stratified, see ``_zipf_ranks``), stratum ``j``
    going to block ``j mod blocks``, so every block also gets the same df
    profile. One query in 16 carries only absent words (the bloom path),
    one an absent word beside present ones, and one the planted word."""
    rng = np.random.default_rng([seed, 7])
    df = corpus.doc_freq()
    present = np.flatnonzero(df[:VOCAB_SIZE] > 0)
    classes = [present[present < HEAD_RANKS],
               present[(present >= HEAD_RANKS) & (present < MID_RANKS)],
               present[(present >= MID_RANKS) & (df[present] <= RARE_MAX_DF)]]
    block = min(size, QUERY_BLOCK)
    blocks, rest = divmod(size, block)
    assert rest == 0, "the pool is made of whole blocks"
    shape_rng = np.random.default_rng(12_345)       # the same for every seed
    shapes = [shape_rng.choice(3, size=int(shape_rng.integers(1, 5)),
                               p=[0.3, 0.4, 0.3]) for _ in range(block)]
    need = [sum(int((s == c).sum()) for s in shapes) for c in range(3)]
    draws = []
    for cls, n in zip(classes, need):
        ranks = cls[_zipf_ranks(len(cls), n * blocks, rng)]
        # strata go to slots in an order that is the same for every seed
        order = shape_rng.permutation(n)
        draws.append(iter(np.concatenate(
            [ranks[b::blocks][order] for b in range(blocks)]).tolist()))
    letters = list("abcdefghijklmnopqrstuvwxyz")

    def absent() -> str:
        return "z" + "".join(rng.choice(letters, int(rng.integers(4, 9))))

    pool: list[str] = []
    for i in range(size):
        terms = [corpus.words[next(draws[c])]
                 for c in shapes[i % block].tolist()]
        if i % 16 == 5:               # bloom path: only absent words
            terms = [absent() for _ in terms]
        elif i % 16 == 11:            # absent word beside present ones
            terms[-1] = absent()
        elif i % 16 == 14:            # the planted rare word
            terms[0] = corpus.words[VOCAB_SIZE]
        pool.append(" ".join(dict.fromkeys(terms)))
    return pool
