"""Query engine: term lookup, intersection, BM25 top-k over index segments.

Maps the reference's query machinery onto the segment layout:

- key point-lookup (index_file.go:1424-1459 FindByKey + bsearch) →
  ``part = term_id % P`` pruning + a binary search of the segment's
  memory-mapped, sorted ``term_id`` column (segment.py);
- posting-list AND intersection on record identity
  (search_finder.go:108-193) → the rarest term's doc ids, filtered by
  a point probe (``codec.probe``) of each larger term's docs stream in
  df-ascending order (the reference's intended selectivity ordering,
  search_cond.go:688-698);
- ``Nears`` tf-share ranking (search_cond.go:297-381) → BM25 top-k, exact
  fp64 with fixed accumulation order (ascending term_id, tie-break doc_id
  asc) so results are rank-identical across parallelism levels and vs the
  single-process oracle;
- posting-result cache (cache/cache.go) → per-engine decoded-postings cache.

Two scoring paths, both exact (bit-identical results; fuzz + scale
tests assert it). Both weigh a posting with ``bm25_term_weight`` and add
per-doc contributions in ascending term_id order — ``accumulate_scores``
over whole posting lists, ``SearchEngine._score_targets`` for a chosen
doc set:
- ``exact``: decode every query term's postings, one vectorized pass;
  per-term contribution arrays are cached (query-independent), so warm
  queries only pay the accumulate + top-k.
- ``maxscore``: candidate generation via term-level upper bounds from
  each term's impact frontier (or, for a small frontier-less term, its
  decoded postings), then exact rescore of the candidates with one
  ``codec.probe`` per term: a binary search of the term's docs stream
  — frequent terms' posting lists are mostly never decoded. Best p99.
- ``auto`` (default for the actor/service paths): ``maxscore`` for
  multi-term queries over big lists, ``exact`` otherwise — informed by
  the BASELINE.md measurements; results are bit-identical either way.

Many queries score in parallel through ``QueryActor`` (a Ray Data actor
pool) or ``service.QueryService`` replicas, one engine each.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import BM25_B, BM25_K1
from .codec import Chunks, _gather, decode_positions, decode_postings, probe
from .segment import SegmentReader, publish, tombstones_dir
from .tokenizer import tokenize_query

_ORD_MASK = np.uint64(0xFFFFFFFF)  # the ordinal half of a position key


def load_tombstones(index_dir: str) -> np.ndarray:
    """Union of all committed tombstone files (sorted-unique uint64 doc
    ids). Each file is a one-column parquet ``tombstones/del-<sha1>``,
    content-addressed and published tmp+rename (``segment.publish``; a
    ``.tmp.`` file is never read) — files are immutable and mergeable,
    so concurrent deleters and readers never conflict. Missing dir = no
    deletes."""
    d = tombstones_dir(index_dir)
    arrs = []
    if os.path.isdir(d):
        for name in sorted(os.listdir(d)):
            if name.startswith("del-") and name.endswith(".parquet"):
                arrs.append(pq.read_table(
                    os.path.join(d, name), use_threads=False
                )["doc_id"].to_numpy(zero_copy_only=False
                                     ).astype(np.uint64))
    arrs = [a for a in arrs if len(a)]
    if not arrs:
        return np.empty(0, np.uint64)
    return np.unique(np.concatenate(arrs))


def sorted_union(arrays: list[np.ndarray]) -> np.ndarray:
    """Deduped ascending union of uint64 arrays (np.unique semantics).
    Radix sort (kind='stable' on ints) + boundary diff — 2-4x
    np.unique's quicksort on posting-sized inputs (measured). Always
    sorts; callers that know a single input is already sorted-unique
    should shortcut before calling."""
    arrays = [a for a in arrays if len(a)]
    if not arrays:
        return np.empty(0, np.uint64)
    c = np.concatenate(arrays) if len(arrays) > 1 else arrays[0].copy()
    c.sort(kind="stable")
    keep = np.empty(len(c), bool)
    keep[0] = True
    keep[1:] = c[1:] != c[:-1]
    return c[keep]


def sorted_intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted-unique uint64 arrays via galloping
    membership probes of the smaller into the larger —
    O(min log max), never sorts (np.intersect1d concat-sorts both)."""
    if len(a) > len(b):
        a, b = b, a
    return a[_in_sorted(b, a)]


# accepted ``method`` values of SearchEngine.bm25 / explain
BM25_METHODS = ("exact", "maxscore", "auto")


def bm25_term_weight(tf: np.ndarray, dl: np.ndarray, df: int, ndocs: int,
                     avgdl: float) -> np.ndarray:
    """BM25 contribution of one term to each of its postings,
    ``idf · tf(k1+1) / (tf + k1(1 − b + b·dl/avgdl))`` with
    ``idf = ln(1 + (N − df + 0.5) / (df + 0.5))``. Every scorer calls
    this one copy; the grouping of operations matches ``oracle.py``
    exactly, so the fp64 results are identical to the oracle's."""
    idf = math.log(1.0 + (ndocs - df + 0.5) / (df + 0.5))
    tf = tf.astype(np.float64)
    dl = dl.astype(np.float64)
    tfn = tf * (BM25_K1 + 1.0) / (
        tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl))
    return idf * tfn


def accumulate_scores(terms: list[tuple[np.ndarray, np.ndarray]]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc BM25 sums. ``terms`` holds one (sorted-unique doc ids,
    contributions) pair per term, in ascending term_id order. Returns
    (sorted union of the doc ids, scores). Each doc's score is built by
    the same sequential fp64 additions as the oracle (np.add.reduceat
    would sum pairwise — NOT order-exact)."""
    docs_all = terms[0][0] if len(terms) == 1 else \
        sorted_union([d for d, _ in terms])
    scores = np.zeros(len(docs_all), np.float64)
    for d, s in terms:
        scores[np.searchsorted(docs_all, d)] += s
    return docs_all, scores


def _in_sorted(ids: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Membership mask of ``x`` (any order) in the ascending unique
    ``ids``, by binary search."""
    if not len(ids):
        return np.zeros(len(x), bool)
    pos = np.minimum(np.searchsorted(ids, x), len(ids) - 1)
    return ids[pos] == x


def _range_docs(reader: SegmentReader, part: int, lo: int | None,
                hi: int | None) -> np.ndarray:
    """One part of ``term_range_docs`` (a Ray task body): the deduped
    ascending doc_ids of the part's terms in [lo, hi]."""
    return sorted_union([reader.decode_part(part, lo, hi)[1]])


def _position_keys(p: "Postings", cands: np.ndarray, ci: np.ndarray
                   ) -> np.ndarray:
    """Ascending packed keys ``candidate index << 32 | ordinal`` of the
    term ``p``'s occurrences in the docs ``cands[ci]`` (``ci`` ascending
    indexes into the ascending ``cands``). A doc's posting is a binary
    search of the term's doc ids and its ordinals one slice of the
    row's memory-mapped ordinal stream, ending at ``cumsum(tfs)``
    (``codec.decode_positions``). Ordinals are token positions (< 2^32
    for any real doc), so +1 arithmetic stays inside the doc."""
    if not len(ci) or not p.df:
        return np.empty(0, np.uint64)
    docs = p.decode().docs
    if p.positions is None:
        p.positions = decode_positions(p.chunks)
    ends, ords = p.positions
    want = cands[ci]
    k = np.minimum(np.searchsorted(docs, want), len(docs) - 1)
    hit = docs[k] == want
    k, ci = k[hit], ci[hit]
    stop = ends[k]
    start = np.where(k > 0, ends[k - 1], 0)
    return ((np.repeat(ci.astype(np.uint64), stop - start) << np.uint64(32))
            | _gather(ords, start, stop).astype(np.uint64))


def _live_candidates(keys: np.ndarray) -> np.ndarray:
    """The distinct candidate indexes of the ascending position keys
    ``keys``, by boundary diff."""
    ci = (keys >> np.uint64(32)).astype(np.int64)
    keep = np.ones(len(ci), bool)
    keep[1:] = ci[1:] != ci[:-1]
    return ci[keep]


@dataclass
class Postings:
    """One term's postings: its segment row as column views
    (``chunks``; no rows for an absent term), decoded on demand."""
    term_id: int
    df: int
    chunks: Chunks = field(default_factory=Chunks)
    docs: np.ndarray | None = None
    tfs: np.ndarray | None = None
    dls: np.ndarray | None = None
    scores: np.ndarray | None = None  # cached BM25 contributions (T2/T3)
    ub: float | None = None           # memoized _term_ub (engine-fixed)
    champions: np.ndarray | None = None  # memoized frontier champion docs
    # a positional index's (ends, ords), once a phrase or proximity
    # query reads them
    positions: tuple[np.ndarray, np.ndarray] | None = None

    def decode(self) -> "Postings":
        if self.docs is None:
            self.docs, self.tfs, self.dls = decode_postings(self.chunks)
        return self


class SearchEngine:
    def __init__(self, index_dir: str, corpus_files=None,
                 id_col: str = "doc_id", url_col: str = "url"):
        self.index_dir = index_dir
        # the one read of stats.json
        self.segments = SegmentReader(index_dir)
        self.stats = self.segments.stats
        self.mode = self.stats["mode"]
        self.num_parts = self.stats["num_parts"]
        self.avgdl = float(self.stats["avgdl"]) or 1.0
        self.ndocs = int(self.stats["n_docs"])
        self.corpus_files = corpus_files
        self.id_col = id_col
        self.url_col = url_col
        self._cache: dict[int, Postings] = {}
        # per-query instrumentation (reference EnableStats/OptQueryStat,
        # search_cond.go:57-80): last_query_stats after each bm25/match
        self.last_query_stats: dict = {}
        self.last_fetch_stats: dict = {}
        self._probes = 0  # point lookups made by codec.probe
        self.last_load_stats: dict = {}
        # doc-level tombstones (delete_docs): result-set APIs filter
        # against this sorted set; merge.purge_tombstones rewrites the
        # segments without the deleted docs and drops the set
        self.tombstones = load_tombstones(index_dir)
        self._tomb_filtered: dict[int, Postings] = {}

    # ------------------------------------------------------------------
    def load_terms(self, term_ids: list[int]) -> dict[int, Postings]:
        """Fetch the given terms' segment rows as column views
        (part-pruned + binary-searched segment read, decoded on demand),
        with per-engine caching: each part holding an uncached term is
        read once. An absent term is an empty binary search (df 0)."""
        missing: dict[int, list[int]] = {}
        for tid in term_ids:
            if tid not in self._cache:
                missing.setdefault(tid % self.num_parts, []).append(tid)
        self.last_load_stats = {"parts_read": len(missing)}
        for part, tids in missing.items():
            rows_by_term = self.segments.load_terms(part, tids)
            for tid in tids:
                rows = rows_by_term[tid]
                df = int(rows.column("n")[0]) if len(rows) else 0
                self._cache[tid] = Postings(tid, df, rows)
        return {tid: self._cache[tid] for tid in term_ids}

    # ------------------------------------------------------------------
    # doc-level deletes (tombstones). The reference has no delete story
    # (merge assumes doc-disjoint sources, merged_index_file.go:272-456);
    # a 100 TB corpus needs takedowns, so this is extension surface.
    # Semantics (Lucene's deleted-docs model): result-set APIs — match/
    # count, bm25, nears, phrase_match[,_positional], proximity_match,
    # term_range_docs, fetch_rows — never return a deleted doc, effective
    # immediately and on every engine opened afterwards. Corpus
    # STATISTICS stay stale until merge.purge_tombstones physically
    # rewrites the segments: df/select/cooccur_distance/stats.json still
    # count deleted docs, and BM25 scores survivors with the stored
    # (df, avgdl, N) — identical scores to pre-delete, minus the dead
    # docs. With tombstones present bm25 forces the exact path: the
    # MaxScore path bootstraps its threshold from champion docs that may
    # be deleted, which could over-prune live results.
    def delete_docs(self, doc_ids) -> int:
        """Tombstone the given doc ids. Commit is tmp + rename of a
        content-addressed parquet under ``tombstones/`` — idempotent
        (same set → same file), crash-safe, and mergeable (readers union
        all files; concurrent deleters never conflict). Returns how many
        ids were newly deleted."""
        import hashlib
        ids = np.unique(np.asarray(doc_ids, np.uint64))
        if len(ids) == 0:
            return 0
        new = ids[~_in_sorted(self.tombstones, ids)]
        if len(new) == 0:
            return 0
        tag = hashlib.sha1(ids.tobytes()).hexdigest()[:12]
        final = os.path.join(tombstones_dir(self.index_dir),
                             f"del-{tag}.parquet")
        if not os.path.exists(final):
            publish(final, lambda tmp: pq.write_table(
                pa.table({"doc_id": pa.array(ids, pa.uint64())}), tmp))
        self.tombstones = np.union1d(self.tombstones, new)
        self._tomb_filtered.clear()
        return int(len(new))

    def _live(self, docs: np.ndarray) -> np.ndarray:
        """Drop tombstoned ids from a doc array (any order)."""
        if not len(self.tombstones):
            return docs
        return docs[~_in_sorted(self.tombstones, docs)]

    def _live_postings(self, p: Postings) -> Postings:
        """Per-term postings with tombstoned docs masked out; ``df``
        deliberately stays the STORED value (stale-statistics scoring —
        survivors score identically to pre-delete). Cached per term,
        invalidated by delete_docs."""
        got = self._tomb_filtered.get(p.term_id)
        if got is not None:
            return got
        p = p.decode()
        keep = ~_in_sorted(self.tombstones, p.docs)
        q = Postings(p.term_id, p.df, docs=p.docs[keep],
                     tfs=p.tfs[keep], dls=p.dls[keep])
        self._tomb_filtered[p.term_id] = q
        return q

    # ------------------------------------------------------------------
    def query_term_ids(self, q: str) -> list[int]:
        return [tid for _, tid in tokenize_query(q, self.mode)]

    def df(self, q: str) -> dict[str, int]:
        """df per query token (A2/A3 CountOfKey analog)."""
        pairs = tokenize_query(q, self.mode)
        loaded = self.load_terms([tid for _, tid in pairs])
        return {tok: loaded[tid].df for tok, tid in pairs}

    # ------------------------------------------------------------------
    def match(self, q: str) -> np.ndarray:
        """AND over query terms → ascending doc_ids (J3/J4 analog)."""
        tids = self.query_term_ids(q)
        if not tids:
            return np.empty(0, np.uint64)
        loaded = self.load_terms(tids)
        # df-ascending order: cheapest list first, early-exit on empty
        order = sorted(set(tids), key=lambda t: (loaded[t].df, t))
        out = loaded[order[0]].decode().docs
        for tid in order[1:]:
            if len(out) == 0:
                break
            # with df-ascending order |out| only shrinks, so a rare∧head
            # AND probes the head list's docs stream and never decodes it
            out = out[probe(loaded[tid].chunks, out)[2]]
        return self._live(out)

    def count(self, q: str) -> int:
        return int(len(self.match(q)))

    def min_should_match(self, q: str, m: int = 2
                         ) -> tuple[np.ndarray, np.ndarray]:
        """OR-retrieval with a term-overlap threshold — 'match at
        least ``m`` of the query terms' (the minimum_should_match
        relaxation between AND (``match``) and pure OR): posting lists
        for the distinct query terms are concatenated and the per-doc
        multiplicity comes from ONE sort + boundary diff (never
        np.unique — the lists are already sorted).  Returns
        (ascending live doc_ids, n_matched per doc).  Reference
        analog: query.go only has AND; this is the standard IR
        relaxation over the same postings."""
        tids = sorted(set(self.query_term_ids(q)))
        empty = (np.empty(0, np.uint64), np.empty(0, np.int64))
        if not tids:
            return empty
        loaded = self.load_terms(tids)
        arrs = [loaded[t].decode().docs for t in tids]
        arrs = [a for a in arrs if len(a)]
        if not arrs:
            return empty
        alld = np.concatenate(arrs)
        alld.sort(kind="stable")
        starts = np.flatnonzero(
            np.concatenate([[True], alld[1:] != alld[:-1]]))
        counts = np.diff(np.append(starts, len(alld)))
        docs = alld[starts]
        keep = counts >= m
        keep &= ~_in_sorted(self.tombstones, docs)
        return docs[keep], counts[keep].astype(np.int64)

    # ------------------------------------------------------------------
    def _term_score(self, tf: np.ndarray, dl: np.ndarray, df: int) -> np.ndarray:
        return bm25_term_weight(tf, dl, df, self.ndocs, self.avgdl)

    @staticmethod
    def _topk(docs: np.ndarray, scores: np.ndarray, k: int):
        """score desc, doc_id asc — deterministic."""
        if len(docs) > max(k * 4, 64) and k < len(docs):
            # narrow with a partition first (ties kept), then exact-sort
            cut = np.partition(-scores, k)[k]  # (k+1)-th best, negated
            keep = np.flatnonzero(-scores <= cut)
            docs, scores = docs[keep], scores[keep]
        order = np.lexsort((docs, -scores))[:k]
        return docs[order], scores[order]

    def bm25(self, q: str, k: int = 10, method: str = "exact",
             search_after: tuple[float, int] | None = None):
        """Top-k BM25, OR semantics. Returns (doc_ids, scores).

        ``search_after=(score, doc_id)`` is the stateless deep-
        pagination cursor (the last hit of the previous page): only
        results strictly AFTER it in ``(score desc, doc_id asc)``
        order qualify, so page N+1 never re-ships or re-ranks pages
        1..N and the cost of page depth is O(1) — unlike
        offset-pagination, which re-materializes every prior page.
        Cursor requests pin the exact scoring path: the pruned
        MaxScore path keeps only k candidates above its bound θ, which
        is the wrong bound under a cursor (the θ-seeded cursor variant
        — bootstrap θ from the cursor score — is the disk-resident-list
        optimization; exact keeps pagination fp64 rank-identical to a
        single deep top-k). ``method`` must be one of ``BM25_METHODS``."""
        import time
        t0 = time.perf_counter()
        self._probes = 0
        if method not in BM25_METHODS:
            raise ValueError(f"unknown BM25 method {method!r}; expected "
                             f"one of {', '.join(BM25_METHODS)}")
        tids = sorted(set(self.query_term_ids(q)))  # ascending accumulation
        if not tids or not self.ndocs:
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        loaded = self.load_terms(tids)
        tids = [t for t in tids if loaded[t].df > 0]
        if not tids:
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        if len(self.tombstones):
            # deletes are visible immediately: score live-filtered
            # postings on the exact path (see delete_docs semantics)
            loaded = {t: self._live_postings(loaded[t]) for t in tids}
            method = "exact"
        if search_after is not None:
            method = "exact"  # see docstring: cursor pins exact
        if method == "auto":
            # measured (BASELINE.md block-size sweep): MaxScore wins on
            # multi-term queries with big lists (term-level pruning);
            # exact wins when everything is small/cached
            total_df = sum(loaded[t].df for t in tids)
            method = "maxscore" if (len(tids) > 1 and
                                    total_df > 65536) else "exact"
        if method == "maxscore" and len(tids) > 1:
            out = self._bm25_maxscore(tids, loaded, k)
        else:
            out = self._bm25_exact(tids, loaded, k,
                                   search_after=search_after)
        self.last_query_stats = {
            "query": q, "method": method, "k": k,
            "n_terms": len(tids),
            "total_df": int(sum(loaded[t].df for t in tids)),
            "n_decoded": int(sum(len(loaded[t].docs)
                                 for t in tids
                                 if loaded[t].docs is not None)),
            "n_probes": self._probes,
            "ms": round((time.perf_counter() - t0) * 1e3, 3),
        }
        return out

    def explain(self, q: str, k: int = 10, method: str = "auto") -> dict:
        """Run the query and return its execution profile (reference
        EnableStats/OptQueryStat parity, search_cond.go:57-80): resolved
        method, per-term dfs, postings decoded, point lookups made
        (``n_probes``), parts read, wall time."""
        self.bm25(q, k, method)
        out = dict(self.last_query_stats)
        out.update({f"load_{k_}": v
                    for k_, v in self.last_load_stats.items()})
        pairs = tokenize_query(q, self.mode)
        loaded = self.load_terms([tid for _, tid in pairs])
        out["terms"] = {tok: loaded[tid].df for tok, tid in pairs}
        return out

    def bm25_scores_for(self, q: str, doc_ids) -> tuple[np.ndarray,
                                                        np.ndarray]:
        """Exact BM25 scores of SPECIFIC documents — the random-access
        scoring primitive rank fusion needs (fielded_bm25's threshold
        algorithm).  Looks each target up with one binary search of
        each term's docs stream (``codec.probe``, the J2/J4 point-probe
        path, never a full decode), and accumulates per term in
        ascending term_id order with the same sequential fp64
        additions as the full scorer, so a doc's score
        here is bit-identical to its score in ``bm25``.  Tombstoned
        docs score 0.  Returns (sorted-unique doc_ids, scores)."""
        targets = np.unique(np.asarray(doc_ids, np.uint64))
        if len(targets) == 0 or not self.ndocs:
            return targets, np.zeros(len(targets), np.float64)
        tids = sorted(set(self.query_term_ids(q)))
        scores = self._score_targets(tids, self.load_terms(tids), targets)
        scores[_in_sorted(self.tombstones, targets)] = 0.0
        return targets, scores

    def weighted_or(self, weights: dict[str, int], k: int = 10,
                    exclude=None):
        """Integer-weighted disjunctive top-k — the more-like-this
        scoring core: each doc scores the SUM of the weights of the
        query tokens it contains (distinct-token semantics: a token
        counts once per doc regardless of tf).  Weights are int64 so
        accumulation order is irrelevant and the result is bit-exact
        vs a SQL transcription — no fp ordering contract needed.
        ``exclude`` drops seed doc ids from the result; tombstoned
        docs are filtered like every other query path.  Reference
        analog: the A7 tf-scoring union, with caller-supplied integer
        impacts instead of BM25 (search_cond.go query union shape).
        Returns (doc_ids asc-by-rank, scores) with (score desc,
        doc_id asc) ties."""
        pairs = tokenize_query(" ".join(sorted(weights)), self.mode)
        tok2tid = {tok: tid for tok, tid in pairs}
        items = sorted({(tok2tid[t], int(w))
                        for t, w in weights.items() if t in tok2tid})
        loaded = self.load_terms([tid for tid, _ in items])
        ps = [(loaded[tid].decode(), w) for tid, w in items
              if loaded[tid].df > 0]
        if not ps:
            return np.empty(0, np.uint64), np.empty(0, np.int64)
        docs_all = sorted_union([p.docs for p, _ in ps])
        scores = np.zeros(len(docs_all), np.int64)
        for p, w in ps:
            pos = np.searchsorted(docs_all, p.docs)
            scores[pos] += w
        drop = np.asarray(sorted(exclude), np.uint64) \
            if exclude else np.empty(0, np.uint64)
        if len(self.tombstones):
            drop = np.union1d(drop, self.tombstones.astype(np.uint64))
        keep = ~_in_sorted(drop, docs_all)
        return self._topk(docs_all[keep], scores[keep], k)

    def index_stats(self) -> dict:
        """Corpus-level statistics from segment METADATA columns alone
        (no postings decode): distinct indexed terms (one segment row
        per term, and term-hash partitioning keeps each term in exactly
        one part, so per-part row counts sum), total postings (sum of
        per-term posting counts ``n`` = distinct (term, doc) pairs),
        plus the build's audited n_docs / total_tokens from stats.json.
        Reads only the ``n`` column — cost scales with vocabulary size,
        not corpus size.  Reports STORED statistics: deletes are
        stale-stats by design (see delete_docs) until a physical
        purge rewrites the segments.  Reference analog: the countBy
        metadata the Go engine keeps per index file (A2/A3), lifted to
        whole-corpus totals."""
        n_terms = 0
        n_postings = 0
        for part in range(self.num_parts):
            t = self.segments.read_range(part, columns=["n"])
            n_terms += t.num_rows
            n_postings += int(t["n"].to_numpy(
                zero_copy_only=False).astype(np.int64).sum())
        return {"n_docs": self.ndocs, "n_terms": n_terms,
                "n_postings": n_postings,
                "total_tokens": int(self.stats["total_tokens"])}

    def _bm25_exact(self, tids, loaded, k, search_after=None):
        ps = [loaded[t].decode() for t in tids]
        for p in ps:  # per-term contribution arrays are query-independent
            if p.scores is None:
                p.scores = self._term_score(p.tfs, p.dls, p.df)
        docs_all, scores = accumulate_scores([(p.docs, p.scores)
                                              for p in ps])
        if search_after is not None:
            cs = float(search_after[0])
            cd = np.uint64(search_after[1])
            keep = (scores < cs) | ((scores == cs) & (docs_all > cd))
            docs_all, scores = docs_all[keep], scores[keep]
        return self._topk(docs_all, scores, k)

    # --- MaxScore candidate generation + exact rescore -----------------
    def _term_ub(self, p: Postings) -> float:
        """Upper bound of this term's contribution. A term carrying an
        impact frontier (codec.py imp_tf/imp_dl: per-distinct-tf min dl)
        gets the EXACT max single-posting contribution below the tf cap —
        strictly tighter than the global (tf_max, dl_min) pairing, which
        combines a max tf and a min dl that usually belong to different
        docs. A frontier-less term (under ``IMPACT_MIN_N`` postings) takes
        that pairing from its decoded postings. Memoized on the Postings
        object (avgdl/df are fixed per engine, and the cache is per
        engine)."""
        if p.ub is None:
            c = p.chunks
            tf, dl = c.column("imp_tf"), c.column("imp_dl")
            if not len(tf):
                p.decode()
                tf, dl = p.tfs.max(keepdims=True), p.dls.min(keepdims=True)
            p.ub = float(self._term_score(
                tf.astype(np.uint64),
                np.maximum(dl.astype(np.uint64), 1), p.df).max())
        return p.ub

    def _bootstrap_theta(self, tids, loaded, k):
        """Champion θ bootstrap (the impact-ordering payoff): exact-score
        a tiny set of docs, each term's stored frontier champions (the
        docs of its highest impact bins) or, for a decoded or
        frontier-less term, its top cached contributions. The kth best
        of these EXACT scores is a valid lower bound on the final
        kth-best score, so MaxScore phase 1 starts with a tight θ and
        can stop decoding head terms early. Returns (boot_docs, theta)
        or (None, -inf) when there aren't k docs to bound with — any
        real docs give a valid bound, so correctness never depends on
        which docs are picked."""
        cands = []
        for t in tids:
            p = loaded[t]
            c = p.chunks
            if p.docs is None and len(c.column("imp_doc")):
                if p.champions is None:
                    # frontier bins below the cap ARE real postings, so
                    # these are the term's true champions for the
                    # query-time avgdl — no decode at all
                    itf = c.column("imp_tf").astype(np.uint64)
                    idl = np.maximum(c.column("imp_dl").astype(np.uint64),
                                     1)
                    contrib = self._term_score(itf, idl, p.df)
                    top = (np.argsort(-contrib)[:4] if len(contrib) > 4
                           else slice(None))
                    p.champions = c.column("imp_doc")[top]
                cands.append(p.champions)
                continue
            p.decode()
            if len(p.docs) == 0:
                continue
            if p.scores is None:
                p.scores = self._term_score(p.tfs, p.dls, p.df)
            m = min(32, len(p.scores))
            cands.append(p.docs[np.argpartition(-p.scores, m - 1)[:m]])
        if not cands:
            return None, -np.inf
        boot = sorted_union(cands)
        if len(boot) < k:
            return None, -np.inf
        scores = self._score_targets(tids, loaded, boot)
        theta = float(np.partition(scores, len(scores) - k)[-k])
        return boot, theta

    def _bm25_maxscore(self, tids, loaded, k):
        ubs = {t: self._term_ub(loaded[t]) for t in tids}
        by_ub = sorted(tids, key=lambda t: (-ubs[t], t))
        suffix = np.cumsum([ubs[t] for t in by_ub][::-1])[::-1]
        boot_docs, theta = self._bootstrap_theta(tids, loaded, k)
        # phase 1: accumulate partial scores term-by-term (ub desc) until
        # the remaining suffix bound can't reach the current kth best
        # (θ starts at the champion bootstrap, so head terms after the
        # first are often never decoded at all)
        cand_docs = np.empty(0, np.uint64)
        cand_part = np.empty(0, np.float64)
        decoded: set[int] = set()
        eps = 1e-9  # partial sums add in ub order, not term order: ulp noise
        for i, tid in enumerate(by_ub):
            if i > 0 and suffix[i] < theta - eps and \
                    (len(cand_docs) >= k or boot_docs is not None):
                break
            p = loaded[tid].decode()
            decoded.add(tid)
            cand_docs, cand_part = accumulate_scores(
                [(cand_docs, cand_part),
                 (p.docs, self._term_score(p.tfs, p.dls, p.df))])
            if len(cand_docs) >= k:
                theta = max(theta, float(np.partition(
                    cand_part, len(cand_part) - k)[-k]))
        # phase 2: exact rescore of candidates — probe every term's docs
        # stream and recompute each candidate's score from scratch in
        # ascending-term order (bit-identical to the exact path)
        # prune candidates that cannot reach theta even with all skipped ubs
        skipped = [t for t in tids if t not in decoded]
        max_extra = float(np.sum([ubs[t] for t in skipped])) if skipped else 0.0
        if len(cand_docs) > k:
            keep = cand_part + max_extra >= theta - eps
            cand_docs = cand_docs[keep]
        if boot_docs is not None:
            # the θ witnesses must stay candidates (they may BE the top-k)
            cand_docs = np.union1d(cand_docs, boot_docs)
        targets = np.sort(cand_docs)
        scores = self._score_targets(tids, loaded, targets)
        return self._topk(targets, scores, k)

    # ------------------------------------------------------------------
    def phrase_match(self, phrase: str, text_col: str = "text"
                     ) -> np.ndarray:
        """Exact phrase search: AND of the phrase's index keys gives
        candidates (the reference's trigram-AND pattern), then the small
        candidate set is verified by a vectorized substring check on the
        corpus text. The reference skips verification and can
        false-positive across token boundaries (e.g. two trigrams from
        different positions) — we verify, documented divergence.
        Semantics: all tokens present AND lower(text) contains the
        lowercased phrase as a substring."""
        cands = self.match(phrase)
        if len(cands) == 0 or self.corpus_files is None:
            return cands
        rows = self.fetch_rows(cands, columns=[self.id_col, self.url_col,
                                               text_col])
        texts = rows[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        needle = phrase.lower() if self.mode == "word" else phrase
        hay = pc.utf8_lower(texts) if self.mode == "word" else texts
        ok = pc.match_substring(hay, pattern=needle
                                ).to_numpy(zero_copy_only=False)
        if self.id_col in rows.column_names:
            ids = rows[self.id_col].to_numpy(zero_copy_only=False
                                             ).astype(np.uint64)
        else:
            from .hashing import doc_ids_from_urls
            col = rows[self.url_col]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            ids = doc_ids_from_urls(col)
        return np.sort(ids[ok])

    # ------------------------------------------------------------------
    def _positional(self, tids: list[int]) -> dict[int, Postings]:
        """``load_terms(tids)``, whose rows hold the terms' positions;
        raises unless the index was built with them."""
        if not self.segments.positions:
            raise ValueError("index was built without positions=True")
        return self.load_terms(tids)

    def _phrase_keys(self, phrase: str) -> list[int]:
        """The phrase's key sequence WITH duplicates, in order (dedup
        would break repeated keys). Word mode: token hashes; trigram
        mode: packed trigram windows — chaining consecutive windows
        makes the trigram AND *exact* (the reference's unverified AND
        can false-positive on scattered trigrams)."""
        if self.mode == "trigram":
            from .tokenizer import pack_trigram
            return pack_trigram(phrase)
        import re

        from .hashing import fnv1a64
        from .tokenizer import WORD_SPLIT
        return [fnv1a64(tok)
                for tok in re.split(WORD_SPLIT, phrase.lower()) if tok]

    def phrase_match_positional(self, phrase: str) -> np.ndarray:
        """Token-adjacency phrase matching from positional postings — no
        corpus access (the proper IR semantics: the exact token sequence
        appears, regardless of the separators between tokens).

        Rare-pivot chaining over the candidates of ``match``: terms go
        df-ascending, and after each one only the phrase-start bases
        satisfying every occurrence so far survive, so the next term's
        positions are read for the surviving docs only. A base key is
        (cand_idx << 32 | ordinal) − idx: a base survives term t at
        phrase index idx iff t occurs at base + idx. Occurrences with
        ordinal < idx cannot host the idx-th phrase token (the
        subtraction would borrow into another candidate's key space, or
        wrap past zero for candidate 0) and are masked out first."""
        seq = self._phrase_keys(phrase)
        if not seq:
            return np.empty(0, np.uint64)
        uniq = sorted(set(seq))
        loaded = self._positional(uniq)
        cands = self.match(phrase)
        idxs_of: dict[int, list[int]] = {t: [] for t in uniq}
        for i, t in enumerate(seq):
            idxs_of[t].append(i)
        by_df = sorted(uniq, key=lambda t: (loaded[t].df, t))
        live = np.arange(len(cands))
        bases = None
        for i, tid in enumerate(by_df):
            if i > 1:  # one term's bases keep ~every candidate alive
                live = _live_candidates(bases)
            keys = _position_keys(loaded[tid], cands, live)
            for idx in idxs_of[tid]:
                b = keys if idx == 0 else (
                    keys[(keys & _ORD_MASK) >= np.uint64(idx)]
                    - np.uint64(idx))
                bases = b if bases is None else sorted_intersect(bases, b)
        return cands[_live_candidates(bases)]

    def proximity_match(self, q: str, window: int) -> np.ndarray:
        """Positional proximity: docs where some occurrence of every
        query term fits in a token window of ``window`` (max ordinal −
        min ordinal ≤ window). A doc matches iff for SOME occurrence
        position p, max_j next_j(p) − p ≤ window, where next_j(p) is
        term j's first occurrence ≥ p in the same doc (the optimal
        window's low end is always an occurrence, so scanning occurrence
        positions is exact); vectorized across all candidate docs."""
        tids = sorted(set(self.query_term_ids(q)))
        if not tids:
            return np.empty(0, np.uint64)
        loaded = self._positional(tids)
        cands = self.match(q)
        ci = np.arange(len(cands))
        keys = [_position_keys(loaded[t], cands, ci) for t in tids]
        P = sorted_union(keys)
        if len(P) == 0:
            return np.empty(0, np.uint64)
        sentinel = np.uint64(0xFFFFFFFFFFFFFFFF)
        max_next = np.zeros(len(P), np.uint64)
        for kj in keys:
            if len(kj) == 0:
                return np.empty(0, np.uint64)  # term absent everywhere
            i = np.searchsorted(kj, P)
            ok = i < len(kj)
            v = kj[np.minimum(i, len(kj) - 1)]
            same_doc = ok & ((v >> np.uint64(32)) == (P >> np.uint64(32)))
            nj = np.where(same_doc, v, sentinel)
            max_next = np.maximum(max_next, nj)
        good = (max_next != sentinel) & \
               (max_next - P <= np.uint64(window))
        return cands[_live_candidates(P[good])]

    # ------------------------------------------------------------------
    def term_range_docs(self, lo: int | None, hi: int | None) -> np.ndarray:
        """Key-space range scan (reference J6 full semantics: string/
        trigram range, index_file.go:1208-1422 keyRecordsBy +
        commonNearFnByKey): ascending doc_ids of every indexed term with
        ``lo <= term_id <= hi`` (None = open bound).

        Every part is touched (terms are hash-partitioned), so when Ray
        is up the scan fans out as ONE RAY TASK PER PART (each returns
        its deduped doc array; the driver unions ≤ P small arrays) — a
        wide string range at scale is parallel per-part work, never a
        driver-sequential key-space walk. The sorted ``term_id`` layout
        makes each read a binary search — only the rows in the key
        range are decoded. In trigram mode the packed key order IS the
        lexicographic order of the 3-rune windows, so this is a
        string-range scan
        (``SegmentReader.map_parts`` picks the fan-out)."""
        parts = self.segments.map_parts(_range_docs, lo, hi)
        parts = [p for p in parts if len(p)]
        if not parts:
            return np.empty(0, np.uint64)
        if len(parts) == 1:
            return self._live(parts[0])
        return self._live(sorted_union(parts))

    def select_keys(self, **kw) -> pa.Table:
        """Ordered key-space scan with a vectorized user condition
        (reference Select(OptCcondFn), index_file.go:481-537). See
        vfs_index_ray.scan.select_keys."""
        from .scan import select_keys
        return select_keys(self, **kw)

    def select(self, visit, **kw) -> int:
        """Visitor traversal of the key space (reference
        Select(OptTraverse), index_file.go:481-537). See
        vfs_index_ray.scan.select."""
        from .scan import select
        return select(self, visit, **kw)

    def nearest_term(self, key: int, less: bool = True
                     ) -> tuple[int, int] | None:
        """Nearest indexed key (reference J7 on the KEY space:
        FindNearByKey index_file.go:1461-1534 — exact hit if present,
        else climb to the closest indexed key below/above).

        Returns (term_id, df) of the largest indexed term <= key
        (``less=True``) or the smallest >= key. Per part this is one
        binary search of the segment's term_id column (terms are sorted
        within a segment file); parts probe as parallel Ray tasks
        when Ray is up (``SegmentReader.map_parts``, as for
        ``term_range_docs``/``select_keys`` — serial at 8 parts is fine,
        serial at 512 is not) and the driver merges one candidate per
        part."""
        cands = self.segments.map_parts(SegmentReader.nearest, int(key),
                                        less)
        cands = [c for c in cands if c is not None]
        if not cands:
            return None
        return (max(cands, key=lambda c: c[0]) if less
                else min(cands, key=lambda c: c[0]))

    # ------------------------------------------------------------------
    def nears(self, q: str, k: int | None = None):
        """The reference's ``Nears`` tf-share ranking (search_cond.go:
        297-381), kept for API parity — BM25 replaces it as the primary
        ranking (north_rule). Per doc: score = Σ_{matching keys}
        df_key / Σ df; distance = ceil((1−score)·1e5)/1e5; results sorted
        by distance ascending. Divergence: ties break by doc_id
        (the reference's sort is unstable)."""
        tids = sorted(set(self.query_term_ids(q)))
        if not tids:
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        loaded = self.load_terms(tids)
        tids = [t for t in tids if loaded[t].df > 0]
        if not tids:
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        total_df = float(sum(loaded[t].df for t in tids))
        if len(self.tombstones):
            loaded = {t: self._live_postings(loaded[t]) for t in tids}
        docs_all, score = accumulate_scores(
            [(p.docs, np.full(len(p.docs), p.df / total_df))
             for p in (loaded[t].decode() for t in tids)])
        dist = np.ceil((1.0 - score) * 1e5) / 1e5
        order = np.lexsort((docs_all, dist))
        if k is not None:
            order = order[:k]
        return docs_all[order], dist[order]

    def _score_targets(self, tids, loaded, targets: np.ndarray) -> np.ndarray:
        """Exact scores for sorted target docs — ascending-term sequential
        accumulation (the same fp64 additions as ``accumulate_scores``),
        each term's targets looked up by one ``codec.probe``."""
        scores = np.zeros(len(targets), np.float64)
        for t in tids:  # ascending term_id
            p = loaded[t]
            if not p.df:
                continue
            self._probes += len(targets)
            tf, dl, hit = probe(p.chunks, targets)
            if hit.any():
                scores[hit] += self._term_score(tf[hit], dl[hit], p.df)
        return scores

    # ------------------------------------------------------------------
    def cooccur_distance(self, qa: str, qb: str,
                         filter_head: bool = False) -> float:
        """Approximate co-occurrence distance between two queries
        (reference A6: search_cond.go:552-612):
        ``1 − |A∩B| / max(|A|,|B|)`` per key pair, averaged over the
        cross product of the two queries' keys (distanceOfKeys,
        search_cond.go:448-536). 1.0 = never co-occur, 0.0 = identical
        doc sets. Uses cached postings + sorted intersections.

        ``filter_head=True`` mirrors the reference's filterByAvg
        (search_cond.go:240-280, O9): with >10 keys per side, keys with
        df above the median are dropped (stop-trigram suppression)."""
        keys_a = self.query_term_ids(qa)
        keys_b = self.query_term_ids(qb)
        if not keys_a or not keys_b:
            return 1.0
        loaded = self.load_terms(list(set(keys_a) | set(keys_b)))
        if filter_head:
            def suppress(keys: list[int]) -> list[int]:
                if len(keys) <= 10:
                    return keys
                dfs = np.array([loaded[t].df for t in keys], np.float64)
                med = float(np.median(dfs))
                kept = [t for t, d in zip(keys, dfs) if d <= med]
                return kept or keys
            keys_a = suppress(keys_a)
            keys_b = suppress(keys_b)
        dists = []
        for ta in keys_a:
            for tb in keys_b:
                pa_, pb_ = loaded[ta].decode(), loaded[tb].decode()
                denom = max(len(pa_.docs), len(pb_.docs))
                if denom == 0:
                    dists.append(1.0)
                    continue
                inter = len(sorted_intersect(pa_.docs, pb_.docs))
                dists.append(1.0 - inter / denom)
        return float(np.mean(dists))

    # ------------------------------------------------------------------
    @staticmethod
    def _prune_row_groups(pf: "pq.ParquetFile", key: str,
                          want: np.ndarray) -> list[int] | None:
        """Row groups whose [min,max] statistics of ``key`` intersect the
        sorted ``want`` id set; None = stats unavailable, read all."""
        md = pf.metadata
        try:
            ki = pf.schema_arrow.names.index(key)
        except ValueError:
            return None
        keep = []
        for gi in range(md.num_row_groups):
            stats = md.row_group(gi).column(ki).statistics
            if stats is None or not stats.has_min_max:
                return None
            lo, hi = np.uint64(stats.min), np.uint64(stats.max)
            # any want id in [lo, hi]?
            a = np.searchsorted(want, lo, side="left")
            if a < len(want) and want[a] <= hi:
                keep.append(gi)
        return keep

    def fetch_rows(self, doc_ids: np.ndarray, columns=None) -> pa.Table:
        """Materialize matched rows from the corpus (J5/M8 analog) as a
        true broadcast semi-join: per-file row-group pruning on the id
        column's parquet statistics (doc_id-sorted corpora read only the
        groups containing matches), then an in-group sorted-set filter.
        Never reads row groups that cannot contain a match; falls back to
        a streaming Ray map_batches filter when ids must be derived from
        the url column (no pushdown possible).

        ``last_fetch_stats`` records row_groups_total / row_groups_read
        so pruning is assertable in tests."""
        if self.corpus_files is None:
            raise ValueError("SearchEngine built without corpus_files")

        want = self._live(np.unique(np.asarray(doc_ids, np.uint64)))
        files = (self.corpus_files if isinstance(self.corpus_files, list)
                 else [self.corpus_files])
        schema = pq.read_schema(files[0])
        key = self.id_col if self.id_col in schema.names else self.url_col
        read_cols = columns
        if read_cols is not None:
            read_cols = [c for c in read_cols if c in schema.names]
            if key not in read_cols:
                read_cols = read_cols + [key]
        if key != self.id_col:
            out = self._fetch_rows_by_url(files, want, read_cols)
        else:
            total = read = 0
            parts: list[pa.Table] = []
            for f in files:
                pf = pq.ParquetFile(f)
                total += pf.metadata.num_row_groups
                if len(want) == 0:
                    continue
                groups = self._prune_row_groups(pf, key, want)
                if groups is None:
                    groups = list(range(pf.metadata.num_row_groups))
                read += len(groups)
                if not groups:
                    continue
                tbl = pf.read_row_groups(groups, columns=read_cols,
                                         use_threads=False)
                ids = tbl[key].to_numpy(zero_copy_only=False
                                        ).astype(np.uint64)
                parts.append(tbl.filter(pa.array(_in_sorted(want, ids))))
            self.last_fetch_stats = {"row_groups_total": total,
                                     "row_groups_read": read}
            out = (pa.concat_tables(parts) if parts
                   else schema.empty_table() if read_cols is None
                   else schema.empty_table().select(read_cols))
        if columns is not None:
            out = out.select([c for c in columns if c in out.column_names])
        return out

    def _fetch_rows_by_url(self, files, want: np.ndarray,
                           read_cols) -> pa.Table:
        """Streaming semi-join for url-keyed corpora: broadcast the sorted
        id set, derive ids per batch, return only matches — the corpus is
        never materialized anywhere."""
        import ray
        import ray.data

        from .hashing import doc_ids_from_urls
        url_col = self.url_col
        if len(want) == 0:
            empty = pq.read_schema(files[0]).empty_table()
            return empty if read_cols is None else empty.select(read_cols)
        want_ref = ray.put(want)

        def keep(batch: pa.Table) -> pa.Table:
            w = ray.get(want_ref)
            col = batch[url_col]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            ids = doc_ids_from_urls(col)
            return batch.filter(pa.array(_in_sorted(w, ids)))

        ds = ray.data.read_parquet(files, columns=read_cols)
        batches = list(ds.map_batches(keep, batch_format="pyarrow",
                                      zero_copy_batch=True)
                       .iter_batches(batch_format="pyarrow"))
        if not batches:
            empty = pq.read_schema(files[0]).empty_table()
            return empty if read_cols is None else empty.select(read_cols)
        return pa.concat_tables(batches)


# ----------------------------------------------------------------------
# Ray-parallel paths
# ----------------------------------------------------------------------

class QueryActor:
    """Actor-pool batch scorer: a Dataset of query strings → top-k results.

    State (stats, decoded-postings cache) loads once per actor
    (reference T2/T5: per-process posting/page caches). Use:
    ``queries_ds.map_batches(QueryActor, fn_constructor_kwargs=...,
    concurrency=N, batch_format="pyarrow")``.
    """

    def __init__(self, index_dir: str, k: int = 10, method: str = "auto"):
        self.engine = SearchEngine(index_dir)
        self.k = k
        self.method = method

    def __call__(self, batch: pa.Table) -> pa.Table:
        q_out, rank_out, doc_out, score_out = [], [], [], []
        for q in batch["query"].to_pylist():
            docs, scores = self.engine.bm25(q, self.k, self.method)
            for r, (d, s) in enumerate(zip(docs.tolist(), scores.tolist()), 1):
                q_out.append(q)
                rank_out.append(r)
                doc_out.append(d)
                score_out.append(s)
        return pa.table({
            "query": pa.array(q_out, pa.string()),
            "rank": pa.array(rank_out, pa.int32()),
            "doc_id": pa.array(doc_out, pa.uint64()),
            "score": pa.array(score_out, pa.float64()),
        })


def fielded_bm25(fields: list[tuple["SearchEngine", float]], q: str,
                 k: int = 10):
    """Weighted multi-field BM25 (the Lucene multi-field boost query:
    ``score(d) = Σ_f w_f · BM25_f(q, d)`` — each field its own index
    with its own df/N/avgdl statistics).  Complete top-k via the
    threshold algorithm: retrieve each field's top-K (doubling K),
    exact-score the candidate UNION in every field with
    ``bm25_scores_for`` point probes, and stop once the kth combined
    score strictly exceeds ``Σ_f w_f · (f's Kth retrieved score)`` —
    any document outside every retrieved list is bounded above by
    that sum, so no unseen doc can displace the returned k (ties
    included, because the stop is strict).  Terminates at candidate
    exhaustion otherwise.  fp64 parity: combined scores accumulate
    field-by-field in the given order starting from 0.0, matching a
    SQL ``w1*s1 + w2*s2`` transcription exactly.

    Reference parity: vfs-index indexes one column per index directory
    (column.go); multi-field scoring is the extension-surface analog
    of querying several of its column indexes at once."""
    if not fields:
        return np.empty(0, np.uint64), np.empty(0, np.float64)
    K = max(64, 2 * k)
    while True:
        tops = [eng.bm25(q, K) for eng, _ in fields]
        exhausted = all(len(ids) < K for ids, _ in tops)
        floor = sum(w * (sc[K - 1] if len(sc) >= K else 0.0)
                    for (ids, sc), (_, w) in zip(tops, fields))
        cand = np.unique(np.concatenate(
            [ids for ids, _ in tops]).astype(np.uint64))
        if len(cand) == 0:
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        comb = np.zeros(len(cand), np.float64)
        for eng, w in fields:
            _, s = eng.bm25_scores_for(q, cand)
            comb += w * s
        order = np.lexsort((cand.astype(np.int64), -comb))[:k]
        if exhausted:
            break
        if len(order) == k and comb[order[-1]] > floor:
            break
        K *= 2
    return cand[order], comb[order]
