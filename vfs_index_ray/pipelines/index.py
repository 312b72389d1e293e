"""Queries answered through the inverted index: BM25 and its
variants, boolean/phrase/proximity matching, key-space scans over the
trigram index, the federated, tombstoned and upserted indexes, and
vocabulary lookups (fuzzy, wildcard, autocomplete)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import collect_arrow
from ..search import SearchEngine
from ..segment import is_committed, publish
from .common import (TOKS, _conc, _doc_file, _docs_ds, build_once,
                     cache_dir, fixed_point, get_engine, query,
                     read_table)

BM25_QUERY = "spark join window"
MATCH_QUERY = "spark window"
DF_TOKENS = ["spark", "join", "window", "batch"]
PHRASE_QUERY = "order sort table"
_TRI_ENGINES: dict[str, SearchEngine] = {}
TRI_RANGE = ("spa", "spc")   # inclusive packed-key bounds
TRI_PROBE = "spz"            # nearest-key probe (no exact hit likely)
COOCCUR_PAIRS = [("spark", "join"), ("spark", "window"), ("batch", "stream")]
BATCH_QUERIES = ["spark join window", "batch stream merge", "hash scan"]
_ORD_ENGINES: dict[str, SearchEngine] = {}
FED_QUERY = "batch stream sort"
_FED_ENGINES: dict = {}
MLT_SEED_DOC = 7


@query(f"""
WITH tok AS (
  SELECT doc_id, unnest({TOKS}) AS tok FROM documents
), tf AS (
  SELECT doc_id, tok, count(*)::DOUBLE AS tf FROM tok
  WHERE tok IN ('spark','join','window') GROUP BY doc_id, tok
), dl AS (
  SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id
), stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM tok)::DOUBLE /
         (SELECT count(*) FROM documents)::DOUBLE AS avgdl
), df AS (
  SELECT tok, count(*)::DOUBLE AS df FROM tf GROUP BY tok
), scores AS (
  SELECT tf.doc_id,
         sum(ln(1 + (stats.n - df.df + 0.5)/(df.df + 0.5)) *
             (tf.tf*2.2/(tf.tf + 1.2*(1 - 0.75 + 0.75*dl.dl/stats.avgdl))))
           AS score
  FROM tf JOIN df USING(tok) JOIN dl USING(doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
)
SELECT doc_id, CAST(floor(score*10000 + 0.5) AS BIGINT) AS score_x1e4
FROM scores ORDER BY score DESC, doc_id LIMIT 10
""")
def q_bm25_topk(sf_dir: str) -> pa.Table:
    """O8/A7 analog: BM25 top-10, deterministic ties."""
    eng = get_engine(sf_dir)
    docs, scores = eng.bm25(BM25_QUERY, 10)
    return pa.table({
        "doc_id": pa.array(docs.astype(np.int64), pa.int64()),
        "score_x1e4": pa.array(
            fixed_point(scores), pa.int64()),
    })


@query(f"""
WITH tok AS (
  SELECT doc_id, unnest({TOKS}) AS tok FROM documents
), tf AS (
  SELECT doc_id, tok, count(*)::DOUBLE AS tf FROM tok
  WHERE tok IN ('spark','join','window') GROUP BY doc_id, tok
), dl AS (
  SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id
), stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM tok)::DOUBLE /
         (SELECT count(*) FROM documents)::DOUBLE AS avgdl
), df AS (
  SELECT tok, count(*)::DOUBLE AS df FROM tf GROUP BY tok
), scores AS (
  SELECT tf.doc_id,
         sum(ln(1 + (stats.n - df.df + 0.5)/(df.df + 0.5)) *
             (tf.tf*2.2/(tf.tf + 1.2*(1 - 0.75 + 0.75*dl.dl/stats.avgdl))))
           AS score
  FROM tf JOIN df USING(tok) JOIN dl USING(doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
), b AS (
  SELECT s.doc_id,
         s.score + CASE WHEN d.source IN
           ('src0','src1','src2','src3','src4')
           THEN 0.5 ELSE 0 END AS score
  FROM scores s JOIN documents d USING (doc_id)
)
SELECT row_number() OVER (ORDER BY score DESC, doc_id)::BIGINT AS rank,
       doc_id, CAST(floor(score*10000 + 0.5) AS BIGINT) AS score_x1e4
FROM b ORDER BY score DESC, doc_id LIMIT 10
""")
def q_boosted_bm25(sf_dir: str) -> pa.Table:
    """BM25 with a static per-document PRIOR (trusted-domain boost
    +0.5 for sources src0-src4), answered with a PROVABLY-complete
    bounded re-rank: retrieve bm25 top-K, add priors, and stop once
    the 10th boosted score strictly exceeds (K-th bm25 score + max
    boost) — any unretrieved doc scores below that bound — else
    double K (terminates at candidate exhaustion).  The prior lookup
    reads only the K candidate rows (at corpus scale this is the
    fetch_rows row-group-pruned semi-join).  fp64 parity: one
    deterministic add on top of the engine/oracle-identical BM25
    sum."""
    eng = get_engine(sf_dir)
    boost, bmax, k = 0.5, 0.5, 10
    trusted = {"src0", "src1", "src2", "src3", "src4"}
    K = 40
    while True:
        ids, scores = eng.bm25(BM25_QUERY, K)
        exhausted = len(ids) < K
        t = read_table(sf_dir, "documents", columns=["doc_id", "source"],
                                            filters=[("doc_id", "in",
                                                      [int(i) for i in ids])])
        pri = dict(zip(t["doc_id"].to_pylist(),
                       t["source"].to_pylist()))
        prior = np.array([boost if pri.get(int(i)) in trusted
                          else 0.0 for i in ids])
        boosted = scores + prior
        order = np.lexsort((ids.astype(np.int64), -boosted))[:k]
        if exhausted:
            break
        if len(order) == k and boosted[order[-1]] > scores[-1] + bmax:
            break
        K *= 2
    out_ids = ids.astype(np.int64)[order]
    out_sc = fixed_point(boosted[order])
    return pa.table({
        "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64),
                         pa.int64()),
        "doc_id": pa.array(out_ids, pa.int64()),
        "score_x1e4": pa.array(out_sc, pa.int64()),
    })


@query(f"""
SELECT doc_id FROM documents
WHERE list_contains({TOKS}, 'spark') AND list_contains({TOKS}, 'window')
""")
def q_term_match(sf_dir: str) -> pa.Table:
    """J3: AND intersection of two terms' postings."""
    eng = get_engine(sf_dir)
    docs = eng.match(MATCH_QUERY)
    return pa.table({"doc_id": pa.array(docs.astype(np.int64), pa.int64())})


@query(f"""
SELECT count(*)::BIGINT AS n_docs FROM documents
WHERE list_contains({TOKS}, 'spark')
""")
def q_count_match(sf_dir: str) -> pa.Table:
    """A4: result count."""
    eng = get_engine(sf_dir)
    return pa.table({"n_docs": pa.array([eng.count("spark")], pa.int64())})


@query(f"""
WITH tok AS (
  SELECT doc_id, unnest({TOKS}) AS tok FROM documents
), counts AS (
  SELECT tok, count(DISTINCT doc_id)::BIGINT AS df FROM tok
  WHERE tok IN ('spark','join','window','batch') GROUP BY tok
), probes(token) AS (VALUES ('spark'),('join'),('window'),('batch'))
SELECT p.token, COALESCE(c.df, 0)::BIGINT AS df
FROM probes p LEFT JOIN counts c ON c.tok = p.token
""")
def q_term_df(sf_dir: str) -> pa.Table:
    """A2/A3: df per term from segment metadata."""
    eng = get_engine(sf_dir)
    dfs = eng.df(" ".join(DF_TOKENS))
    toks = sorted(DF_TOKENS)
    return pa.table({
        "token": pa.array(toks, pa.string()),
        "df": pa.array([dfs[t] for t in toks], pa.int64()),
    })


@query(f"""
SELECT doc_id, lang, n_chars FROM documents
WHERE list_contains({TOKS}, 'spark') AND list_contains({TOKS}, 'window')
""")
def q_search_and_fetch(sf_dir: str) -> pa.Table:
    """J5/M8: matched ids → row materialization (broadcast semi-join)."""
    eng = get_engine(sf_dir)
    docs = eng.match(MATCH_QUERY)
    rows = eng.fetch_rows(docs, columns=["doc_id", "lang", "n_chars"])
    return rows


@query(f"""
SELECT doc_id FROM documents
WHERE list_contains({TOKS}, 'order') AND list_contains({TOKS}, 'sort')
  AND list_contains({TOKS}, 'table')
  AND strpos(lower(text), 'order sort table') > 0
""")
def q_phrase_match(sf_dir: str) -> pa.Table:
    """Phrase search: index-AND candidates + exact substring verify."""
    eng = get_engine(sf_dir)
    docs = eng.phrase_match(PHRASE_QUERY)
    return pa.table({"doc_id": pa.array(docs.astype(np.int64), pa.int64())})


@query(f"""
WITH t AS (SELECT doc_id, {TOKS} AS toks FROM documents),
p AS (SELECT doc_id, unnest(toks) AS tok,
             generate_subscripts(toks, 1) AS ord FROM t)
SELECT DISTINCT p1.doc_id FROM p p1
JOIN p p2 ON p2.doc_id = p1.doc_id AND p2.ord = p1.ord + 1
         AND p2.tok = 'sort'
JOIN p p3 ON p3.doc_id = p1.doc_id AND p3.ord = p1.ord + 2
         AND p3.tok = 'table'
WHERE p1.tok = 'order'
""")
def q_phrase_positional(sf_dir: str) -> pa.Table:
    """Token-adjacency phrase matching from positional postings."""
    eng = get_engine(sf_dir)
    docs = eng.phrase_match_positional(PHRASE_QUERY)
    return pa.table({"doc_id": pa.array(docs.astype(np.int64), pa.int64())})


@query(f"""
WITH t AS (SELECT doc_id, {TOKS} AS toks FROM documents),
p AS (SELECT doc_id, unnest(toks) AS tok,
             generate_subscripts(toks, 1) AS ord FROM t)
SELECT DISTINCT p1.doc_id FROM p p1
JOIN p p2 ON p2.doc_id = p1.doc_id AND p2.tok = 'window'
         AND abs(p1.ord - p2.ord) <= 5
WHERE p1.tok = 'spark'
""")
def q_proximity(sf_dir: str) -> pa.Table:
    """Proximity: 'spark' and 'window' within 5 tokens."""
    eng = get_engine(sf_dir)
    docs = eng.proximity_match("spark window", 5)
    return pa.table({"doc_id": pa.array(docs.astype(np.int64), pa.int64())})


@query("""
SELECT doc_id, n_chars FROM documents WHERE n_chars >= 450
ORDER BY doc_id LIMIT 3
""")
def q_range_limit(sf_dir: str) -> pa.Table:
    """J6/O5: numeric range via parquet predicate pushdown + limit.

    The reference's numeric-key range scan (index_file.go:1208-1422)
    becomes row-group pruning on the column itself."""
    ds = _docs_ds(sf_dir, columns=["doc_id", "n_chars"])

    def local_top3(t: pa.Table) -> pa.Table:
        # per-block filter + local lowest-3 doc_ids: the global result is
        # the merge of ≤3 rows per block — no full sort shuffle
        t = t.filter(pc.greater_equal(t["n_chars"], 450))
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        keep = np.sort(np.argsort(ids, kind="stable")[:3])
        return t.take(keep)

    rows = ds.map_batches(local_top3, batch_format="pyarrow").take_all()
    if not rows:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "n_chars": pa.array([], pa.int64())})
    tbl = pa.Table.from_pylist(rows)
    order = np.argsort(tbl["doc_id"].to_numpy(zero_copy_only=False),
                       kind="stable")[:3]
    return tbl.take(order).select(["doc_id", "n_chars"])


def get_trigram_engine(sf_dir: str) -> SearchEngine:
    """Build (or resume) the trigram-mode index for sf_dir; memoized.
    Serves the key-space range / nearest-key queries (reference J6/J7
    string semantics)."""
    if sf_dir not in _TRI_ENGINES:
        idx = build_once(cache_dir(sf_dir, "tri"), [_doc_file(sf_dir)],
                         mode="trigram", num_parts=8, id_col="doc_id")
        _TRI_ENGINES[sf_dir] = SearchEngine(
            idx, corpus_files=[_doc_file(sf_dir)], id_col="doc_id")
    return _TRI_ENGINES[sf_dir]


# trigram key-space scans: every 3-char window of text; packed-key
# order == string order for 3-char BMP windows, so SQL BETWEEN on the
# window strings reproduces the engine's uint64 key-range scan
@query("""
WITH t AS (
  SELECT doc_id, text, unnest(generate_series(1, length(text) - 2)) AS i
  FROM documents WHERE length(text) >= 3
), g AS (
  SELECT doc_id, substr(text, CAST(i AS INTEGER), 3) AS tri FROM t
)
SELECT DISTINCT doc_id FROM g WHERE tri >= 'spa' AND tri <= 'spc'
""")
def q_range_string(sf_dir: str) -> pa.Table:
    """J6 string semantics: key-space range scan over the trigram index —
    docs containing any trigram in [TRI_RANGE] (packed-key order ==
    lexicographic 3-char order)."""
    from ..tokenizer import pack_trigram
    eng = get_trigram_engine(sf_dir)
    lo = pack_trigram(TRI_RANGE[0])[0]
    hi = pack_trigram(TRI_RANGE[1])[0]
    docs = eng.term_range_docs(lo, hi)
    return pa.table({"doc_id": pa.array(docs.astype(np.int64), pa.int64())})


@query("""
WITH t AS (
  SELECT doc_id, text, unnest(generate_series(1, length(text) - 2)) AS i
  FROM documents WHERE length(text) >= 3
), g AS (
  SELECT doc_id, substr(text, CAST(i AS INTEGER), 3) AS tri FROM t
), best AS (
  SELECT max(tri) AS tri FROM g WHERE tri <= 'spz'
)
SELECT b.tri AS tri, count(DISTINCT g.doc_id)::BIGINT AS df
FROM g JOIN best b ON g.tri = b.tri GROUP BY b.tri
""")
def q_nearest_key(sf_dir: str) -> pa.Table:
    """J7 on the key space: largest indexed trigram key <= probe, with
    its df (reference FindNearByKey climbing the sorted key space)."""
    from ..tokenizer import pack_trigram
    eng = get_trigram_engine(sf_dir)
    best = eng.nearest_term(pack_trigram(TRI_PROBE)[0], less=True)
    if best is None:
        return pa.table({"tri": pa.array([], pa.string()),
                         "df": pa.array([], pa.int64())})
    term, df = best
    tri = "".join(chr((term >> s) & 0xFFFF) for s in (32, 16, 0))
    return pa.table({"tri": pa.array([tri], pa.string()),
                     "df": pa.array([df], pa.int64())})


def _scan_cond_df3(tids: np.ndarray, dfs: np.ndarray) -> np.ndarray:
    """Vectorized Select condition (shipped to per-part scan tasks)."""
    return dfs >= 3


# Select visitor traversal: key-order scan of the 's??' trigram keys
# keeping keys with df >= 3, first 25 — same window derivation as
# range_string (packed-key order == 3-char string order)
@query("""
WITH t AS (
  SELECT doc_id, text, unnest(generate_series(1, length(text) - 2)) AS i
  FROM documents WHERE length(text) >= 3
), g AS (
  SELECT doc_id, substr(text, CAST(i AS INTEGER), 3) AS tri FROM t
), d AS (
  SELECT tri, count(DISTINCT doc_id)::BIGINT AS df FROM g
  WHERE tri >= 's' AND tri < 't' GROUP BY tri
)
SELECT tri, df FROM d WHERE df >= 3 ORDER BY tri LIMIT 25
""")
def q_select_scan(sf_dir: str) -> pa.Table:
    """Generic visitor traversal (reference Select(OptCcondFn/OptTraverse),
    index_file.go:481-537): walk the trigram key space in key order over
    every 's??' window, keep keys whose df passes a user condition
    (df >= 3), stop after 25 — per-part pushdown scans + vectorized
    cond, merged in key order (scan.py)."""
    from ..tokenizer import unpack_trigram
    eng = get_trigram_engine(sf_dir)
    lo = ord("s") << 32                    # 's\0\0'
    hi = (ord("s") << 32) | 0xFFFFFFFF     # 's￿￿'
    tbl = eng.select_keys(lo=lo, hi=hi, cond=_scan_cond_df3,
                          asc=True, limit=25)
    tris = [unpack_trigram(t) for t in tbl["term_id"].to_pylist()]
    return pa.table({"tri": pa.array(tris, pa.string()),
                     "df": tbl["df"].cast(pa.int64())})


@query("SELECT doc_id FROM documents WHERE 1=0")
def q_short_query_empty(sf_dir: str) -> pa.Table:
    """Reference semantics: a query with no extractable keys matches
    nothing (vfsindex_test.go:149-159)."""
    eng = get_engine(sf_dir)
    docs = eng.match("!!!")
    return pa.table({"doc_id": pa.array(docs.astype(np.int64), pa.int64())})


@query(f"""
WITH tok AS (
  SELECT doc_id, unnest({TOKS}) AS tok FROM documents
), dt AS (
  SELECT DISTINCT tok, doc_id FROM tok
), pairs(ta, tb) AS (
  VALUES ('spark','join'), ('spark','window'), ('batch','stream')
), stats AS (
  SELECT p.ta, p.tb,
    (SELECT count(*) FROM dt WHERE tok = p.ta) AS ca,
    (SELECT count(*) FROM dt WHERE tok = p.tb) AS cb,
    (SELECT count(*) FROM dt a JOIN dt b USING(doc_id)
      WHERE a.tok = p.ta AND b.tok = p.tb) AS inter
  FROM pairs p
)
SELECT ta AS token_a, tb AS token_b,
  CAST(floor((1 - inter::DOUBLE / greatest(ca, cb, 1))*10000 + 0.5)
       AS BIGINT) AS dist_x1e4
FROM stats
""")
def q_cooccur_distance(sf_dir: str) -> pa.Table:
    """A6 analog: 1 − |A∩B| / max(|A|,|B|) per token pair."""
    eng = get_engine(sf_dir)
    rows = []
    for ta, tb in COOCCUR_PAIRS:
        d = eng.cooccur_distance(ta, tb)
        rows.append((ta, tb, int(fixed_point(d))))
    return pa.table({
        "token_a": pa.array([r[0] for r in rows], pa.string()),
        "token_b": pa.array([r[1] for r in rows], pa.string()),
        "dist_x1e4": pa.array([r[2] for r in rows], pa.int64()),
    })


def _bm25_sql_for(tokens: list[str], query_id: int, k: int = 5) -> str:
    """One BM25 top-k SQL block (the bm25_topk oracle, parametrized)."""
    toklist = ",".join(f"'{t}'" for t in tokens)
    return f"""
SELECT {query_id} AS query_id, rank, doc_id, score_x1e4 FROM (
  WITH tok AS (
    SELECT doc_id, unnest({TOKS}) AS tok FROM documents
  ), tf AS (
    SELECT doc_id, tok, count(*)::DOUBLE AS tf FROM tok
    WHERE tok IN ({toklist}) GROUP BY doc_id, tok
  ), dl AS (
    SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id
  ), stats AS (
    SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
           (SELECT count(*) FROM tok)::DOUBLE /
           (SELECT count(*) FROM documents)::DOUBLE AS avgdl
  ), df AS (
    SELECT tok, count(*)::DOUBLE AS df FROM tf GROUP BY tok
  ), scores AS (
    SELECT tf.doc_id,
           sum(ln(1 + (stats.n - df.df + 0.5)/(df.df + 0.5)) *
               (tf.tf*2.2/(tf.tf + 1.2*(1 - 0.75 + 0.75*dl.dl/stats.avgdl))))
             AS score
    FROM tf JOIN df USING(tok) JOIN dl USING(doc_id) CROSS JOIN stats
    GROUP BY tf.doc_id
  )
  SELECT row_number() OVER (ORDER BY score DESC, doc_id)::BIGINT AS rank,
         doc_id,
         CAST(floor(score*10000 + 0.5) AS BIGINT) AS score_x1e4
  FROM scores ORDER BY score DESC, doc_id LIMIT {k}
)"""


@query("\nUNION ALL\n".join(
    _bm25_sql_for(q.split(), i, k=5) for i, q in enumerate(BATCH_QUERIES)))
def q_batch_bm25(sf_dir: str, concurrency=None) -> pa.Table:
    """Batch scoring of a query TABLE through the QueryActor pool (the
    batch-inference shape: one Dataset in, one result Dataset out)."""
    import ray.data

    from ..search import QueryActor
    eng = get_engine(sf_dir)  # ensure the index exists
    qds = ray.data.from_items(
        [{"query_id": i, "query": q}
         for i, q in enumerate(BATCH_QUERIES)])

    class Scorer(QueryActor):
        def __call__(self, batch: pa.Table) -> pa.Table:
            out = super().__call__(batch)
            # map query text back to its id for a stable join key
            qid = {q: i for i, q in enumerate(BATCH_QUERIES)}
            ids = [qid[q] for q in out["query"].to_pylist()]
            sc = fixed_point(out["score"])
            return pa.table({
                "query_id": pa.array(ids, pa.int64()),
                "rank": out["rank"].cast(pa.int64()),
                "doc_id": out["doc_id"].cast(pa.int64()),
                "score_x1e4": pa.array(sc, pa.int64()),
            })

    rows = qds.map_batches(
        Scorer, fn_constructor_kwargs=dict(index_dir=eng.index_dir, k=5),
        batch_format="pyarrow", concurrency=_conc(concurrency)).take_all()
    tbl = pa.Table.from_pylist(rows)
    order = np.lexsort((tbl["rank"].to_numpy(zero_copy_only=False),
                        tbl["query_id"].to_numpy(zero_copy_only=False)))
    return tbl.take(order).select(
        ["query_id", "rank", "doc_id", "score_x1e4"])


def get_orders_engine(sf_dir: str) -> SearchEngine:
    """Trigram index over orders.o_orderpriority keyed by o_orderkey —
    the reference's core use case (index one column of a JSON/CSV-shaped
    business table, point/range lookups on it)."""
    if sf_dir not in _ORD_ENGINES:
        src = os.path.join(sf_dir, "orders.parquet")
        idx = build_once(cache_dir(sf_dir, "orders", src), [src],
                         mode="trigram", num_parts=4,
                         text_col="o_orderpriority", id_col="o_orderkey")
        _ORD_ENGINES[sf_dir] = SearchEngine(idx, corpus_files=[src],
                                            id_col="o_orderkey")
    return _ORD_ENGINES[sf_dir]


@query("""
SELECT o_orderkey FROM orders WHERE strpos(o_orderpriority, 'LOW') > 0
""")
def q_orders_priority_search(sf_dir: str) -> pa.Table:
    """Trigram point lookup on a business column: orders whose priority
    contains 'LOW' (a single 3-rune key is exact — substring ⟺ trigram
    present, no verification needed)."""
    eng = get_orders_engine(sf_dir)
    docs = eng.match("LOW")
    return pa.table({"o_orderkey": pa.array(docs.astype(np.int64),
                                            pa.int64())})


@query("""
SELECT o_orderkey FROM orders
WHERE o_totalprice >= 400000 AND o_custkey < 500
""")
def q_orders_numeric_range(sf_dir: str) -> pa.Table:
    """Numeric AND over the same table via parquet pushdown (the
    reference's uint64-key range lookups)."""
    from ..planner import QueryExecutor
    src = os.path.join(sf_dir, "orders.parquet")
    ex = QueryExecutor(None, [src], text_col="o_orderpriority",
                       id_col="o_orderkey")
    docs = ex.execute("o_totalprice >= 400000 && o_custkey < 500")
    return pa.table({"o_orderkey": pa.array(docs.astype(np.int64),
                                            pa.int64())})


# Nears parity: per-token df/total division BEFORE the sum (mirrors
# the engine's accumulation; commutative for the 2-token query)
@query(f"""
WITH tok AS (
  SELECT doc_id, unnest({TOKS}) AS tok FROM documents
), dt AS (
  SELECT DISTINCT doc_id, tok FROM tok WHERE tok IN ('spark','window')
), df AS (
  SELECT tok, count(*)::DOUBLE AS df FROM dt GROUP BY tok
), tot AS (
  SELECT sum(df) AS t FROM df
), sc AS (
  SELECT dt.doc_id, sum(df.df / tot.t) AS s
  FROM dt JOIN df USING(tok) CROSS JOIN tot GROUP BY dt.doc_id
)
SELECT doc_id, CAST(ceil((1 - s) * 100000) AS BIGINT) AS dist_x1e5
FROM sc
""")
def q_nears(sf_dir: str) -> pa.Table:
    """The reference's Nears tf-share ranking (A7 parity,
    search_cond.go:297-381): score = Σ df_tok/Σdf over matched tokens,
    distance = ceil((1−score)·1e5)/1e5 ascending, doc_id ties. Two-token
    query keeps the fp sum commutative, so the SQL oracle (whose join
    may sum in either order) is bit-identical."""
    eng = get_engine(sf_dir)
    docs, dist = eng.nears(MATCH_QUERY)  # "spark window", 2 tokens
    return pa.table({
        "doc_id": pa.array(docs.astype(np.int64), pa.int64()),
        "dist_x1e5": pa.array(
            np.round(dist * 1e5).astype(np.int64), pa.int64()),
    })


# filtered ranked search: global-stat BM25 restricted to docs that
# contain every query token AND pass the numeric filter
@query(f"""
WITH tok AS (
  SELECT doc_id, unnest({TOKS}) AS tok FROM documents
), tf AS (
  SELECT doc_id, tok, count(*)::DOUBLE AS tf FROM tok
  WHERE tok IN ('spark','join') GROUP BY doc_id, tok
), dl AS (
  SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id
), stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM tok)::DOUBLE /
         (SELECT count(*) FROM documents)::DOUBLE AS avgdl
), df AS (
  SELECT tok, count(*)::DOUBLE AS df FROM tf GROUP BY tok
), scores AS (
  SELECT tf.doc_id,
         sum(ln(1 + (stats.n - df.df + 0.5)/(df.df + 0.5)) *
             (tf.tf*2.2/(tf.tf + 1.2*(1 - 0.75 + 0.75*dl.dl/stats.avgdl))))
           AS score
  FROM tf JOIN df USING(tok) JOIN dl USING(doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
), eligible AS (
  SELECT doc_id FROM documents
  WHERE n_chars >= 300
    AND list_contains({TOKS}, 'spark') AND list_contains({TOKS}, 'join')
)
SELECT s.doc_id, CAST(floor(s.score*10000 + 0.5) AS BIGINT) AS score_x1e4
FROM scores s JOIN eligible USING(doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT 10
""")
def q_filtered_bm25(sf_dir: str) -> pa.Table:
    """Filtered ranked search: expression AND (text + numeric pushdown)
    then BM25 top-10 over the text predicate, global statistics."""
    from ..planner import QueryExecutor
    eng = get_engine(sf_dir)
    ex = QueryExecutor(eng, [_doc_file(sf_dir)], text_col="text",
                       id_col="doc_id")
    docs, scores = ex.ranked('text.search("spark join") && n_chars >= 300',
                             k=10)
    return pa.table({
        "doc_id": pa.array(docs.astype(np.int64), pa.int64()),
        "score_x1e4": pa.array(
            fixed_point(scores), pa.int64()),
    })


@query(f"""
SELECT doc_id FROM documents
WHERE (list_contains({TOKS}, 'spark') AND list_contains({TOKS}, 'window'))
   OR (list_contains({TOKS}, 'stream') AND n_chars >= 450)
""")
def q_or_match(sf_dir: str) -> pa.Table:
    """Disjunctive expression (grammar extension over the reference's
    AND-only PEG): DNF groups — (spark AND window) OR (stream AND
    n_chars >= 450) — each group an index/pushdown intersection, the OR
    a sorted doc-id union."""
    from ..planner import QueryExecutor
    eng = get_engine(sf_dir)
    ex = QueryExecutor(eng, [_doc_file(sf_dir)], text_col="text",
                       id_col="doc_id")
    docs = ex.execute('text.search("spark window") || '
                      'text.search("stream") && n_chars >= 450')
    return pa.table({"doc_id": pa.array(docs.astype(np.int64), pa.int64())})


# snippet window: python t[max(i-40,0):i+40] with 0-based i ==
# substr(text, max(s-40,1), s+40-max(s-40,1)) with 1-based s
@query(f"""
WITH m AS (
  SELECT doc_id, text, strpos(text, 'spark') AS s FROM documents
  WHERE list_contains({TOKS}, 'spark') AND list_contains({TOKS}, 'window')
)
SELECT doc_id,
       substr(text, greatest(s - 40, 1),
              s + 40 - greatest(s - 40, 1)) AS snippet
FROM m
""")
def q_snippets(sf_dir: str) -> pa.Table:
    """Result snippets: for docs matching the AND query, an 80-char
    window centred on the first occurrence of the lead term. Index
    match + row-group-pruned fetch (result-set-sized — the per-row
    slice runs over k fetched rows, never the corpus)."""
    eng = get_engine(sf_dir)
    docs = eng.match("spark window")
    rows = eng.fetch_rows(np.sort(docs), columns=["doc_id", "text"])
    texts = rows["text"].to_pylist()
    # str.find counts CODE POINTS like the oracle's strpos (Arrow's
    # find_substring returns BYTE offsets — wrong for non-ASCII text);
    # per-row work is fine here: this loop is result-set-sized
    snips = []
    for t in texts:
        i = t.find("spark")
        snips.append(t[max(i - 40, 0):i + 40])
    return pa.table({
        "doc_id": rows["doc_id"].cast(pa.int64()),
        "snippet": pa.array(snips, pa.string()),
    })


@query(f"""
SELECT doc_id FROM documents
WHERE list_contains({TOKS}, 'spark') AND list_contains({TOKS}, 'join')
  AND NOT list_contains({TOKS}, 'window') AND NOT n_chars >= 450
""")
def q_not_match(sf_dir: str) -> pa.Table:
    """AND-NOT (grammar extension): docs with both 'spark' and 'join'
    but NOT 'window', and under the n_chars cap — negation is a sorted
    doc-id difference inside the positive group, never a universe scan."""
    from ..planner import QueryExecutor
    eng = get_engine(sf_dir)
    ex = QueryExecutor(eng, [_doc_file(sf_dir)], text_col="text",
                       id_col="doc_id")
    docs = ex.execute('text.search("spark join") && '
                      '!text.search("window") && !n_chars >= 450')
    return pa.table({"doc_id": pa.array(docs.astype(np.int64), pa.int64())})


@query("""
SELECT doc_id, n_chars FROM documents
ORDER BY abs(n_chars - 300), n_chars, doc_id LIMIT 1
""")
def q_nearest(sf_dir: str) -> pa.Table:
    """J7 nearest-key lookup on a numeric column."""
    eng = get_engine(sf_dir)
    from ..planner import QueryExecutor
    ex = QueryExecutor(eng, [_doc_file(sf_dir)], text_col="text",
                       id_col="doc_id")
    hit = ex.nearest("n_chars", 300)
    return pa.table({
        "doc_id": pa.array([hit["doc_id"]], pa.int64()),
        "n_chars": pa.array([int(hit["n_chars"])], pa.int64()),
    })


def get_federated_engine(sf_dir: str):
    """Two doc-disjoint half-indexes (doc_id parity split) queried
    through FederatedEngine — the reference's merge-on-search serving
    story (search_cond.go:828-837), scored via per-source Ray tasks.
    Memoized per sf_dir like get_engine."""
    if sf_dir not in _FED_ENGINES:
        import pyarrow.parquet as pqq

        from ..merge import FederatedEngine
        base = cache_dir(sf_dir, "fed")
        os.makedirs(base, exist_ok=True)
        idx_dirs = []
        for half in (0, 1):
            half_src = os.path.join(base, f"docs{half}.parquet")
            if not os.path.exists(half_src):
                tbl = read_table(sf_dir, "documents")
                ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
                publish(half_src, lambda tmp: pqq.write_table(
                    tbl.filter(pa.array(ids % 2 == half)), tmp))
            idx_dirs.append(build_once(
                os.path.join(base, f"idx{half}"), [half_src],
                mode="word", num_parts=4, id_col="doc_id"))
        _FED_ENGINES[sf_dir] = FederatedEngine(idx_dirs)
    return _FED_ENGINES[sf_dir]


# identical BM25 formula over the whole corpus: the federated path
# over two doc-disjoint half-indexes is fp64-identical to one index
@query(f"""
WITH tok AS (
  SELECT doc_id, unnest({TOKS}) AS tok FROM documents
), tf AS (
  SELECT doc_id, tok, count(*)::DOUBLE AS tf FROM tok
  WHERE tok IN ('batch','stream','sort') GROUP BY doc_id, tok
), dl AS (
  SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id
), stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM tok)::DOUBLE /
         (SELECT count(*) FROM documents)::DOUBLE AS avgdl
), df AS (
  SELECT tok, count(*)::DOUBLE AS df FROM tf GROUP BY tok
), scores AS (
  SELECT tf.doc_id,
         sum(ln(1 + (stats.n - df.df + 0.5)/(df.df + 0.5)) *
             (tf.tf*2.2/(tf.tf + 1.2*(1 - 0.75 + 0.75*dl.dl/stats.avgdl))))
           AS score
  FROM tf JOIN df USING(tok) JOIN dl USING(doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
)
SELECT doc_id, CAST(floor(score*10000 + 0.5) AS BIGINT) AS score_x1e4
FROM scores ORDER BY score DESC, doc_id LIMIT 10
""")
def q_federated_bm25(sf_dir: str) -> pa.Table:
    """Global BM25 over two unmerged doc-disjoint indexes: per-source df
    round → broadcast global (N, avgdl, df) → per-source scoring tasks →
    tiny top-k merge. fp64-identical to one merged index, so the same
    whole-corpus SQL oracle applies."""
    fed = get_federated_engine(sf_dir)
    docs, scores = fed.bm25(FED_QUERY, 10)
    return pa.table({
        "doc_id": pa.array(docs.astype(np.int64), pa.int64()),
        "score_x1e4": pa.array(
            fixed_point(scores), pa.int64()),
    })


@query(f"""
WITH v AS (
  SELECT DISTINCT unnest({TOKS}) AS tok FROM documents
), t AS (
  SELECT tok,
         list_distinct(list_transform(range(1, length(tok) - 1),
                                      i -> substr(tok, CAST(i AS INT),
                                                  3))) AS gs
  FROM v WHERE length(tok) >= 3
), s AS (
  SELECT tok, len(list_intersect(gs, ['spa', 'par', 'arc'])) AS inter,
         len(gs) AS ng
  FROM t
)
SELECT tok AS token,
       ((inter * 1000000) // (ng + 3 - inter))::BIGINT AS jacc_x1e6
FROM s WHERE inter >= 1
ORDER BY jacc_x1e6 DESC, token LIMIT 10
""")
def q_fuzzy_term(sf_dir: str) -> pa.Table:
    """Typo-tolerant term lookup: top-10 vocabulary tokens by
    character-trigram Jaccard against the misspelled query 'sparc'
    (functions/fuzzy.py).  Shuffle-free: scores are intrinsic to each
    token, so every batch emits a 10-row partial over its own distinct
    tokens and the driver merges batches × 10 rows; integer
    jacc = inter·10⁶ // union matches the SQL transcription bit for
    bit."""
    from ..functions.fuzzy import fuzzy_terms
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    return fuzzy_terms(ds, "sparc", k=10)


@query("""
SELECT doc_id FROM documents WHERE contains(text, 'k join')
ORDER BY doc_id
""")
def q_substring_search(sf_dir: str) -> pa.Table:
    """Trigram-accelerated infix search (the Code-Search pattern the
    trigram index exists for): the literal 'k join' crosses a token
    boundary, so the word index can't serve it — its trigrams ('k j',
    ' jo', 'joi', …) AND-intersect over the trigram index to a small
    candidate set, then one vectorized substring verify on the fetched
    candidates makes the result exact (search.py phrase_match,
    trigram mode)."""
    eng = get_trigram_engine(sf_dir)
    docs = eng.phrase_match("k join")
    return pa.table({"doc_id": pa.array(docs.astype(np.int64),
                                        pa.int64())})


@query("""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), d AS (
  SELECT tok, count(DISTINCT doc_id)::BIGINT AS df
  FROM toks GROUP BY 1
)
SELECT tok AS token, df FROM d WHERE tok LIKE 's%'
ORDER BY df DESC, token LIMIT 5
""")
def q_autocomplete(sf_dir: str) -> pa.Table:
    """Prefix autocomplete ranked by document frequency: the corpus
    vocabulary df table (unit_doc_frequencies — partial distinct-doc
    counts + hive disk-shuffle sum), prefix-filtered to 's', top-5 by
    (df desc, token asc).  At 100 TB the prefix predicate pushes into
    the per-part tasks (only survivors cross the wire already; the
    prefix makes that set tiny)."""
    from ..functions.boilerplate import unit_doc_frequencies
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    t = unit_doc_frequencies(ds, unit="token")
    u = t["unit"]
    if isinstance(u, pa.ChunkedArray):
        u = u.combine_chunks()
    t = pa.table({"token": u, "df": t["df"].cast(pa.int64())})
    t = t.filter(pc.starts_with(t["token"], "s"))
    return t.take(pc.sort_indices(t, sort_keys=[
        ("df", "descending"), ("token", "ascending")])[:5]).cast(
        pa.schema([("token", pa.string()), ("df", pa.int64())]))


@query("""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), d AS (
  SELECT tok, count(DISTINCT doc_id)::BIGINT AS df
  FROM toks GROUP BY 1
)
SELECT tok AS token, df FROM d WHERE tok LIKE 't%e'
ORDER BY df DESC, token LIMIT 10
""")
def q_wildcard_search(sf_dir: str) -> pa.Table:
    """Wildcard term expansion 's*e' (prefix AND suffix) over the
    corpus vocabulary: the same df table autocomplete uses
    (unit_doc_frequencies — per-batch distinct (token, doc) incidences
    + hive disk-shuffle sum), filtered by starts_with ∧ ends_with ∧
    the LIKE length rule (len ≥ |prefix|+|suffix|), top-10 by
    (df desc, token).  At 100 TB both predicates push into the
    per-part vocab tasks — only the tiny expansion crosses the
    wire."""
    from ..functions.boilerplate import unit_doc_frequencies
    prefix, suffix = "t", "e"
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    t = unit_doc_frequencies(ds, unit="token")
    u = t["unit"]
    if isinstance(u, pa.ChunkedArray):
        u = u.combine_chunks()
    t = pa.table({"token": u, "df": t["df"].cast(pa.int64())})
    keep = pc.and_(
        pc.and_(pc.starts_with(t["token"], prefix),
                pc.ends_with(t["token"], suffix)),
        pc.greater_equal(pc.utf8_length(t["token"]),
                         len(prefix) + len(suffix)))
    t = t.filter(keep)
    return t.take(pc.sort_indices(t, sort_keys=[
        ("df", "descending"), ("token", "ascending")])[:10]).cast(
        pa.schema([("token", pa.string()), ("df", pa.int64())]))


@query("""
WITH toks AS (
  SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS tok
  FROM documents
), stats AS (
  SELECT tok, count(*)::BIGINT AS df,
         sum(CASE WHEN doc_id IN (SELECT doc_id FROM toks
                                  WHERE tok = 'spark')
             THEN 1 ELSE 0 END)::BIGINT AS pair
  FROM toks GROUP BY 1
)
SELECT tok AS token, df, pair,
       ((pair * 1000000) // df)::BIGINT AS conf_x1e6
FROM stats WHERE pair >= 1 AND tok <> 'spark'
ORDER BY conf_x1e6 DESC, df DESC, token LIMIT 10
""")
def q_related_terms(sf_dir: str) -> pa.Table:
    """Related-term suggestion for 'spark': per-token document
    co-occurrence confidence pair_df·10⁶ // df in ONE streamed pass —
    each batch computes distinct (token, doc) incidences, marks the
    target's docs, and emits vocab-keyed (df, pair) partials; the
    driver merges integer partials (a disk-shuffle merge at
    100-TB vocab — same shape as token_df)."""
    from ..functions.boilerplate import _group_counts
    target = "spark"
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])

    def partial(b: pa.Table) -> pa.Table:
        texts = b["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        lists = pc.split_pattern(texts, pattern=" ")
        pairs = pa.table({"tok": pc.list_flatten(lists),
                          "p": pc.list_parent_indices(lists)})
        pairs = _group_counts(pairs, ["tok", "p"], [])
        in_tgt = pc.is_in(
            pairs["p"],
            value_set=pairs.filter(pc.equal(pairs["tok"],
                                            target))["p"]
            .combine_chunks())
        pairs = pairs.append_column(
            "hit", pc.cast(in_tgt, pa.int64()))
        return _group_counts(pairs, ["tok"],
                             [("p", "count"), ("hit", "sum")])

    parts = collect_arrow(ds.map_batches(partial, batch_format="pyarrow",
                                         zero_copy_batch=True))
    schema = pa.schema([("token", pa.string()), ("df", pa.int64()),
                        ("pair", pa.int64()),
                        ("conf_x1e6", pa.int64())])
    if parts is None:
        return schema.empty_table()
    m = _group_counts(parts, ["tok"],
                      [("p_count", "sum"), ("hit_sum", "sum")])
    df = m["p_count_sum"].to_numpy(zero_copy_only=False)
    pair = m["hit_sum_sum"].to_numpy(zero_copy_only=False)
    t = pa.table({"token": m["tok"],
                  "df": pa.array(df, pa.int64()),
                  "pair": pa.array(pair, pa.int64()),
                  "conf_x1e6": pa.array((pair * 1_000_000) // df,
                                        pa.int64())})
    keep = pc.and_(pc.greater_equal(t["pair"], 1),
                   pc.not_equal(t["token"], target))
    t = t.filter(keep)
    return t.take(pc.sort_indices(t, sort_keys=[
        ("conf_x1e6", "descending"), ("df", "descending"),
        ("token", "ascending")])[:10]).cast(schema)


# two-stage hybrid retrieval: BM25 top-20 (the bm25_topk CTE with
# LIMIT 20) reranked by embedding cosine to the rank-1 hit
@query(f"""
WITH tok AS (
  SELECT doc_id, unnest({TOKS}) AS tok FROM documents
), tf AS (
  SELECT doc_id, tok, count(*)::DOUBLE AS tf FROM tok
  WHERE tok IN ('spark','join','window') GROUP BY doc_id, tok
), dl AS (
  SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id
), stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM tok)::DOUBLE /
         (SELECT count(*) FROM documents)::DOUBLE AS avgdl
), df AS (
  SELECT tok, count(*)::DOUBLE AS df FROM tf GROUP BY tok
), scores AS (
  SELECT tf.doc_id,
         sum(ln(1 + (stats.n - df.df + 0.5)/(df.df + 0.5)) *
             (tf.tf*2.2/(tf.tf + 1.2*(1 - 0.75 + 0.75*dl.dl/stats.avgdl))))
           AS score
  FROM tf JOIN df USING(tok) JOIN dl USING(doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
), cand AS (
  SELECT doc_id, score,
         row_number() OVER (ORDER BY score DESC, doc_id) AS rn
  FROM scores ORDER BY score DESC, doc_id LIMIT 20
), withe AS (
  SELECT c.rn, c.doc_id, c.score, e.embedding
  FROM cand c JOIN embeddings e ON e.vec_id = c.doc_id
), anchor AS (
  SELECT embedding AS ae, rn AS arn FROM withe ORDER BY rn LIMIT 1
), sims AS (
  SELECT w.doc_id, w.score,
         list_cosine_similarity(w.embedding::DOUBLE[],
                                (SELECT ae FROM anchor)::DOUBLE[])
           AS sim
  FROM withe w WHERE w.rn > (SELECT arn FROM anchor)
)
SELECT doc_id,
       CAST(floor(score*10000 + 0.5) AS BIGINT) AS bm25_x1e4,
       CAST(floor(sim*10000 + 0.5) AS BIGINT) AS sim_x1e4,
       row_number() OVER (ORDER BY sim DESC, doc_id)::BIGINT AS rank
FROM sims QUALIFY rank <= 10 ORDER BY rank
""")
def q_hybrid_search(sf_dir: str) -> pa.Table:
    """Hybrid retrieval: BM25 top-20 lexical candidates reranked by
    embedding cosine to the top-1 hit (query-by-document
    pseudo-relevance rerank — the standard two-stage lexical→vector
    serving pattern).  Stage 1 is the inverted index (maxscore BM25);
    stage 2 touches ONLY the k candidate embeddings via a
    row-group-pruned point read — the corpus-sized embedding table
    never moves (at serving scale this is QueryService's resident
    ann_batch path).  Rank = (cosine desc, doc_id asc), scores on the
    shared x1e4 grid.  Reference analog: A7 tf scoring feeding M8
    projection (vfs-index has no vector stage; this is the extension
    surface)."""
    eng = get_engine(sf_dir)
    docs, scores = eng.bm25(BM25_QUERY, 20)
    docs = docs.astype(np.int64)
    schema = pa.schema([("doc_id", pa.int64()),
                        ("bm25_x1e4", pa.int64()),
                        ("sim_x1e4", pa.int64()),
                        ("rank", pa.int64())])
    if len(docs) == 0:
        return schema.empty_table()
    emb = read_table(sf_dir, "embeddings",
                     filters=[("vec_id", "in", docs.tolist())],
                     columns=["vec_id", "embedding"], use_threads=False)
    vid = emb["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    mat = np.asarray(emb["embedding"].to_pylist(), np.float64)
    pos = {int(v): i for i, v in enumerate(vid)}
    # not every document carries an embedding (sf0.1: 2k of 5k);
    # rerank the candidates that do, anchored on the best BM25 hit
    # among them — mirrored exactly by the oracle's inner join.
    have = np.array([int(d) in pos for d in docs], bool)
    docs, scores = docs[have], scores[have]
    if len(docs) < 2:
        return schema.empty_table()
    anchor = mat[pos[int(docs[0])]]
    cand = docs[1:]
    cidx = np.array([pos[int(d)] for d in cand], np.int64)
    cmat = mat[cidx]
    sims = (cmat @ anchor) / (np.linalg.norm(cmat, axis=1)
                              * np.linalg.norm(anchor))
    order = np.lexsort((cand, -sims))[:10]
    return pa.table({
        "doc_id": pa.array(cand[order], pa.int64()),
        "bm25_x1e4": pa.array(fixed_point(scores[1:][order]),
            pa.int64()),
        "sim_x1e4": pa.array(fixed_point(sims[order]), pa.int64()),
        "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
    }).cast(schema)


def _tomb_engine(sf_dir: str):
    """Word-mode index in a DEDICATED cache dir (never the shared
    get_engine index — tombstones mutate it) with docs ``doc_id % 7
    == 3`` deleted. delete_docs is idempotent, so repeated calls
    converge."""
    idx = build_once(cache_dir(sf_dir, "tombq"), [_doc_file(sf_dir)],
                     mode="word", num_parts=8, id_col="doc_id")
    eng = SearchEngine(idx, corpus_files=[_doc_file(sf_dir)],
                       id_col="doc_id")
    # actual ids from the corpus (doc_id spaces can be sparse — sf1's
    # tiled fixture is), one pruned single-column read
    ids = read_table(sf_dir, "documents", columns=["doc_id"],
                     use_threads=False)["doc_id"].to_numpy(
                         zero_copy_only=False).astype(np.uint64)
    eng.delete_docs(ids[ids % 7 == 3])
    return eng, idx


# tombstoned BM25: full-corpus statistics AND scores (stale-stats
# semantics), deleted docs filtered AFTER scoring
@query(f"""
WITH tok AS (
  SELECT doc_id, unnest({TOKS}) AS tok FROM documents
), tf AS (
  SELECT doc_id, tok, count(*)::DOUBLE AS tf FROM tok
  WHERE tok IN ('spark','join','window') GROUP BY doc_id, tok
), dl AS (
  SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id
), stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM tok)::DOUBLE /
         (SELECT count(*) FROM documents)::DOUBLE AS avgdl
), df AS (
  SELECT tok, count(*)::DOUBLE AS df FROM tf GROUP BY tok
), scores AS (
  SELECT tf.doc_id,
         sum(ln(1 + (stats.n - df.df + 0.5)/(df.df + 0.5)) *
             (tf.tf*2.2/(tf.tf + 1.2*(1 - 0.75 + 0.75*dl.dl/stats.avgdl))))
           AS score
  FROM tf JOIN df USING(tok) JOIN dl USING(doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
)
SELECT doc_id, CAST(floor(score*10000 + 0.5) AS BIGINT) AS score_x1e4
FROM scores WHERE doc_id % 7 <> 3
ORDER BY score DESC, doc_id LIMIT 10
""")
def q_delete_search(sf_dir: str) -> pa.Table:
    """Tombstoned BM25 (SearchEngine.delete_docs): docs with
    ``doc_id % 7 == 3`` are deleted; survivors keep their exact
    pre-delete fp64 scores (stale-statistics scoring, Lucene
    semantics) — so the oracle is the full-corpus BM25 score set with
    the deleted docs filtered OUT after scoring.  Extension surface:
    the reference has no delete story."""
    eng, _ = _tomb_engine(sf_dir)
    docs, scores = eng.bm25(BM25_QUERY, 10)
    return pa.table({
        "doc_id": pa.array(docs.astype(np.int64), pa.int64()),
        "score_x1e4": pa.array(
            fixed_point(scores),
            pa.int64())})


# post-purge BM25: statistics recomputed over the SURVIVING corpus
# only — the purged index is byte-identical to a fresh build
@query(f"""
WITH live AS (
  SELECT doc_id, text FROM documents WHERE doc_id % 7 <> 3
), tok AS (
  SELECT doc_id, unnest({TOKS}) AS tok FROM live
), tf AS (
  SELECT doc_id, tok, count(*)::DOUBLE AS tf FROM tok
  WHERE tok IN ('spark','join','window') GROUP BY doc_id, tok
), dl AS (
  SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id
), stats AS (
  SELECT (SELECT count(*) FROM live)::DOUBLE AS n,
         (SELECT count(*) FROM tok)::DOUBLE /
         (SELECT count(*) FROM live)::DOUBLE AS avgdl
), df AS (
  SELECT tok, count(*)::DOUBLE AS df FROM tf GROUP BY tok
), scores AS (
  SELECT tf.doc_id,
         sum(ln(1 + (stats.n - df.df + 0.5)/(df.df + 0.5)) *
             (tf.tf*2.2/(tf.tf + 1.2*(1 - 0.75 + 0.75*dl.dl/stats.avgdl))))
           AS score
  FROM tf JOIN df USING(tok) JOIN dl USING(doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
)
SELECT doc_id, CAST(floor(score*10000 + 0.5) AS BIGINT) AS score_x1e4
FROM scores ORDER BY score DESC, doc_id LIMIT 10
""")
def q_purge_search(sf_dir: str) -> pa.Table:
    """Post-purge BM25 (merge.purge_tombstones): the physically
    rewritten index scores with LIVE statistics (df, N, avgdl of the
    surviving corpus), byte-identical to a fresh build — so the
    oracle recomputes BM25 over ``documents WHERE doc_id % 7 <> 3``
    from scratch.  Together with delete_search this pins both halves
    of the delete story against SQL."""
    eng, idx = _tomb_engine(sf_dir)
    purged = idx + "-purged"
    if not is_committed(purged):
        from ..merge import purge_tombstones
        purge_tombstones(idx, purged)
    peng = SearchEngine(purged, corpus_files=[_doc_file(sf_dir)],
                        id_col="doc_id")
    docs, scores = peng.bm25(BM25_QUERY, 10)
    return pa.table({
        "doc_id": pa.array(docs.astype(np.int64), pa.int64()),
        "score_x1e4": pa.array(
            fixed_point(scores),
            pa.int64())})


@query(f"""
WITH seed AS (
  SELECT DISTINCT unnest({TOKS}) AS tok FROM documents WHERE doc_id = 7
), tok AS (
  SELECT DISTINCT doc_id, unnest({TOKS}) AS tok FROM documents
), df AS (
  SELECT tok, count(*)::BIGINT AS df FROM tok GROUP BY tok
), w AS (
  SELECT s.tok, 1000000 // d.df AS wt FROM seed s JOIN df d USING (tok)
)
SELECT t.doc_id, sum(w.wt)::BIGINT AS score
FROM tok t JOIN w USING (tok) WHERE t.doc_id <> 7
GROUP BY t.doc_id ORDER BY score DESC, t.doc_id ASC LIMIT 10
""")
def q_more_like_this(sf_dir: str) -> pa.Table:
    """More-like-this: rank the corpus by idf-weighted overlap with a
    seed document's distinct tokens, entirely through the inverted
    index (SearchEngine.weighted_or — postings union + int64 impact
    accumulation), never a corpus scan.  Weights are integer
    ``1_000_000 // df`` so engine and SQL agree bit-for-bit; ties
    (score desc, doc_id asc).  Reference analog: the A7 scoring union
    with caller impacts (search_cond.go), the classic Lucene MLT
    shape."""
    import re
    eng = get_engine(sf_dir)
    seed = eng.fetch_rows(np.array([MLT_SEED_DOC], np.uint64),
                          columns=["doc_id", "text"])
    text = seed["text"][0].as_py() or ""
    toks = sorted({t for t in re.split(r"[^a-z0-9]+", text.lower()) if t})
    dfs = eng.df(" ".join(toks))
    weights = {t: 1_000_000 // d for t, d in dfs.items() if d > 0}
    docs, scores = eng.weighted_or(weights, k=10,
                                   exclude={MLT_SEED_DOC})
    return pa.table({
        "doc_id": pa.array(docs.astype(np.int64), pa.int64()),
        "score": pa.array(scores.astype(np.int64), pa.int64())})


@query(f"""
SELECT lang, source, count(*)::BIGINT AS n FROM documents
WHERE list_contains({TOKS}, 'spark') AND list_contains({TOKS}, 'window')
GROUP BY lang, source ORDER BY lang, source
""")
def q_search_facets(sf_dir: str) -> pa.Table:
    """Faceted search: index-AND match → row-group-pruned metadata
    fetch → facet counts by (lang, source).  The aggregation runs on
    the MATCHED set only (already index-pruned), and its output space
    is langs × sources — tiny regardless of corpus size."""
    eng = get_engine(sf_dir)
    docs = eng.match(MATCH_QUERY)
    rows = eng.fetch_rows(docs, columns=["doc_id", "lang", "source"])
    agg = rows.group_by(["lang", "source"]).aggregate([("doc_id", "count")])
    t = pa.table({"lang": agg["lang"], "source": agg["source"],
                  "n": agg["doc_id_count"].cast(pa.int64())})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("lang", "ascending"), ("source", "ascending")]))


@query(f"""
WITH tok AS (SELECT doc_id, unnest({TOKS}) AS tok FROM documents)
SELECT (SELECT count(*) FROM documents)::BIGINT AS n_docs,
       count(DISTINCT tok)::BIGINT AS n_terms,
       (SELECT count(*) FROM (SELECT DISTINCT doc_id, tok FROM tok)
        )::BIGINT AS n_postings,
       count(*)::BIGINT AS total_tokens
FROM tok
""")
def q_index_stats(sf_dir: str) -> pa.Table:
    """Index integrity as an oracle query: corpus-wide distinct terms,
    total postings and total token occurrences from segment METADATA
    columns (SearchEngine.index_stats) — DuckDB recomputes all four
    numbers from raw text, so a single dropped posting anywhere in the
    build/merge path fails the gate."""
    eng = get_engine(sf_dir)
    s = eng.index_stats()
    return pa.table({k: pa.array([s[k]], pa.int64())
                     for k in ("n_docs", "n_terms", "n_postings",
                               "total_tokens")})


# deep pagination: the oracle ranks the full BM25 result with one
# row_number window and slices ranks 11-20 — cursor-equivalence
# holds because (score desc, doc_id asc) is a total order
@query("""
WITH tok AS (
  SELECT doc_id, unnest(list_filter(regexp_split_to_array(lower(text),
    '[^a-z0-9]+'), x -> x <> '')) AS tok FROM documents
), tf AS (
  SELECT doc_id, tok, count(*)::DOUBLE AS tf FROM tok
  WHERE tok IN ('spark','join','window') GROUP BY doc_id, tok
), dl AS (
  SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id
), stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM tok)::DOUBLE /
         (SELECT count(*) FROM documents)::DOUBLE AS avgdl
), df AS (
  SELECT tok, count(*)::DOUBLE AS df FROM tf GROUP BY tok
), scores AS (
  SELECT tf.doc_id,
         sum(ln(1 + (stats.n - df.df + 0.5)/(df.df + 0.5)) *
             (tf.tf*2.2/(tf.tf + 1.2*(1 - 0.75 + 0.75*dl.dl/stats.avgdl))))
           AS score
  FROM tf JOIN df USING(tok) JOIN dl USING(doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
), ranked AS (
  SELECT doc_id, score,
         row_number() OVER (ORDER BY score DESC, doc_id) AS rank
  FROM scores
)
SELECT rank::BIGINT AS rank, doc_id,
       CAST(floor(score*10000 + 0.5) AS BIGINT) AS score_x1e4
FROM ranked WHERE rank BETWEEN 11 AND 20 ORDER BY rank
""")
def q_bm25_page(sf_dir: str) -> pa.Table:
    """Stateless deep pagination: page 2 (ranks 11-20) of the flagship
    BM25 query via a ``search_after=(score, doc_id)`` cursor taken
    from page 1's last hit — page depth costs O(1), never an offset
    re-rank of prior pages (search.py bm25 search_after).  fp64
    rank-identical to one deep top-20 (the oracle's row_number
    window)."""
    eng = get_engine(sf_dir)
    ids1, sc1 = eng.bm25(BM25_QUERY, 10)
    schema = pa.schema([("rank", pa.int64()), ("doc_id", pa.int64()),
                        ("score_x1e4", pa.int64())])
    if len(ids1) < 10:
        return schema.empty_table()
    cursor = (float(sc1[-1]), int(ids1[-1]))
    ids2, sc2 = eng.bm25(BM25_QUERY, 10, search_after=cursor)
    return pa.table({
        "rank": pa.array(np.arange(11, 11 + len(ids2)), pa.int64()),
        "doc_id": pa.array(ids2.astype(np.int64), pa.int64()),
        "score_x1e4": pa.array(
            fixed_point(sc2),
            pa.int64()),
    }, schema=schema)


# multi-field BM25: text field + source field, each with its OWN
# statistics; combined = body + 0.4*field in that exact fp64 order
@query(f"""
WITH tok AS (
  SELECT doc_id, unnest({TOKS}) AS tok FROM documents
), tf AS (
  SELECT doc_id, tok, count(*)::DOUBLE AS tf FROM tok
  WHERE tok IN ('spark','join','src3') GROUP BY doc_id, tok
), dl AS (
  SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id
), stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM tok)::DOUBLE /
         (SELECT count(*) FROM documents)::DOUBLE AS avgdl
), df AS (
  SELECT tok, count(*)::DOUBLE AS df FROM tf GROUP BY tok
), body AS (
  SELECT tf.doc_id,
         sum(ln(1 + (stats.n - df.df + 0.5)/(df.df + 0.5)) *
             (tf.tf*2.2/(tf.tf + 1.2*(1 - 0.75 + 0.75*dl.dl/stats.avgdl))))
           AS score
  FROM tf JOIN df USING(tok) JOIN dl USING(doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
), stok AS (
  SELECT doc_id, unnest(list_filter(regexp_split_to_array(
    lower(source), '[^a-z0-9]+'), x -> x <> '')) AS tok FROM documents
), stf AS (
  SELECT doc_id, tok, count(*)::DOUBLE AS tf FROM stok
  WHERE tok IN ('spark','join','src3') GROUP BY doc_id, tok
), sdl AS (
  SELECT doc_id, count(*)::DOUBLE AS dl FROM stok GROUP BY doc_id
), sstats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM stok)::DOUBLE /
         (SELECT count(*) FROM documents)::DOUBLE AS avgdl
), sdf AS (
  SELECT tok, count(*)::DOUBLE AS df FROM stf GROUP BY tok
), fld AS (
  SELECT stf.doc_id,
         sum(ln(1 + (sstats.n - sdf.df + 0.5)/(sdf.df + 0.5)) *
             (stf.tf*2.2/(stf.tf + 1.2*(1 - 0.75 + 0.75*sdl.dl/sstats.avgdl))))
           AS score
  FROM stf JOIN sdf USING(tok) JOIN sdl USING(doc_id) CROSS JOIN sstats
  GROUP BY stf.doc_id
), comb AS (
  SELECT COALESCE(b.doc_id, f.doc_id) AS doc_id,
         COALESCE(b.score, 0) + 0.4 * COALESCE(f.score, 0) AS score
  FROM body b FULL OUTER JOIN fld f ON b.doc_id = f.doc_id
)
SELECT doc_id, CAST(floor(score*10000 + 0.5) AS BIGINT) AS score_x1e4
FROM comb ORDER BY score DESC, doc_id LIMIT 10
""")
def q_fielded_bm25(sf_dir: str) -> pa.Table:
    """Multi-field weighted BM25 (search.fielded_bm25): body = the
    text index, field 2 = a word-mode index over the ``source`` column
    with its OWN statistics (df over sources, dl=1, avgdl=1); query
    'spark join src3' so the source field actually discriminates.
    score = BM25_text + 0.4·BM25_source, complete top-10 via the
    threshold algorithm + point-probe rescoring."""
    from ..search import fielded_bm25
    body = get_engine(sf_dir)
    srcf = SearchEngine(build_once(
        cache_dir(sf_dir, "srcfield"), [_doc_file(sf_dir)], mode="word",
        num_parts=4, id_col="doc_id", text_col="source"))
    docs, scores = fielded_bm25([(body, 1.0), (srcf, 0.4)],
                                "spark join src3", k=10)
    return pa.table({
        "doc_id": pa.array(docs.astype(np.int64), pa.int64()),
        "score_x1e4": pa.array(
            fixed_point(scores),
            pa.int64())})


# BM25 over the LATEST-snapshot corpus: docs with doc_id%11=5 were
# re-crawled with new text (losing the 'spark' token), absorbed via
# delete->purge->build->merge; live stats == fresh build over docs2
@query(f"""
WITH docs2 AS (
  SELECT doc_id,
         CASE WHEN doc_id % 11 = 5
              THEN 'refreshed revision ' || replace(text, 'spark', 'glint')
              ELSE text END AS text
  FROM documents
), tok AS (
  SELECT doc_id, unnest({TOKS}) AS tok FROM docs2
), tf AS (
  SELECT doc_id, tok, count(*)::DOUBLE AS tf FROM tok
  WHERE tok IN ('spark','join','window') GROUP BY doc_id, tok
), dl AS (
  SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id
), stats AS (
  SELECT (SELECT count(*) FROM docs2)::DOUBLE AS n,
         (SELECT count(*) FROM tok)::DOUBLE /
         (SELECT count(*) FROM docs2)::DOUBLE AS avgdl
), df AS (
  SELECT tok, count(*)::DOUBLE AS df FROM tf GROUP BY tok
), scores AS (
  SELECT tf.doc_id,
         sum(ln(1 + (stats.n - df.df + 0.5)/(df.df + 0.5)) *
             (tf.tf*2.2/(tf.tf + 1.2*(1 - 0.75 + 0.75*dl.dl/stats.avgdl))))
           AS score
  FROM tf JOIN df USING(tok) JOIN dl USING(doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
)
SELECT doc_id, CAST(floor(score*10000 + 0.5) AS BIGINT) AS score_x1e4
FROM scores ORDER BY score DESC, doc_id LIMIT 10
""")
def q_recrawl_upsert(sf_dir: str) -> pa.Table:
    """Re-crawl upsert (merge.upsert_docs): docs with ``doc_id % 11 ==
    5`` arrive as a new snapshot whose text is ``'refreshed revision '
    || replace(text, 'spark', 'glint')`` — they lose the 'spark' token
    entirely, so stale postings would be a visible wrong answer and
    live statistics (df of 'spark' drops, shifting every score) pin
    the delete→purge→build→merge composition against a BM25 oracle
    computed over the latest-snapshot corpus."""
    from ..merge import upsert_docs
    src = _doc_file(sf_dir)
    root = cache_dir(sf_dir, "upsq")
    base = build_once(os.path.join(root, "base"), [src], mode="word",
                      num_parts=8, id_col="doc_id")
    v2 = os.path.join(root, "v2.parquet")
    if not os.path.exists(v2):
        import pyarrow.parquet as pq
        t = read_table(sf_dir, "documents", columns=["doc_id", "text"],
                       use_threads=False)
        t = t.filter(pa.array(
            (t["doc_id"].to_numpy(zero_copy_only=False) % 11) == 5))
        txt = pc.replace_substring(t["text"], "spark", "glint")
        txt = pc.binary_join_element_wise(
            pa.array(["refreshed revision"] * t.num_rows), txt, " ")
        publish(v2, lambda tmp: pq.write_table(
            pa.table({"doc_id": t["doc_id"], "text": txt}), tmp))
    latest = os.path.join(root, "latest")
    upsert_docs(base, [v2], latest, id_col="doc_id", old_files=[src])
    eng = SearchEngine(latest, corpus_files=[src], id_col="doc_id")
    docs, scores = eng.bm25(BM25_QUERY, 10)
    return pa.table({
        "doc_id": pa.array(docs.astype(np.int64), pa.int64()),
        "score_x1e4": pa.array(
            fixed_point(scores),
            pa.int64())})


@query("""
WITH m AS (
  SELECT doc_id,
         (CASE WHEN list_contains(toks, 'spark') THEN 1 ELSE 0 END
        + CASE WHEN list_contains(toks, 'shuffle') THEN 1 ELSE 0 END
        + CASE WHEN list_contains(toks, 'window') THEN 1 ELSE 0 END)
           AS n_matched
  FROM (SELECT doc_id,
               list_filter(regexp_split_to_array(lower(text),
                                                 '[^a-z0-9]+'),
                           x -> x <> '') AS toks
        FROM documents)
)
SELECT doc_id, n_matched::BIGINT AS n_matched FROM m
WHERE n_matched >= 2 ORDER BY doc_id
""")
def q_min_should_match(sf_dir: str) -> pa.Table:
    """minimum_should_match retrieval: docs matching >= 2 of the three
    query terms — the standard IR relaxation between AND and OR,
    answered from the SAME posting lists as ``match`` with one
    concat + sort + boundary-diff multiplicity count
    (search.py min_should_match)."""
    eng = get_engine(sf_dir)
    docs, n = eng.min_should_match("spark shuffle window", 2)
    return pa.table({"doc_id": pa.array(docs.astype(np.int64),
                                        pa.int64()),
                     "n_matched": pa.array(n, pa.int64())})


@query("""
WITH v AS (
  SELECT DISTINCT unnest(list_filter(regexp_split_to_array(lower(text),
    '[^a-z0-9]+'), x -> x <> '')) AS tok FROM documents
), tg AS (
  SELECT tok, list_distinct(list_transform(range(1, length(tok) - 1),
                                           i -> substr(tok,
                                                       CAST(i AS INT),
                                                       3))) AS gs
  FROM v WHERE length(tok) >= 3
), q(qtok, qg) AS (
  VALUES ('sparkk', ['spa', 'par', 'ark', 'rkk']),
         ('windoww', ['win', 'ind', 'ndo', 'dow', 'oww']),
         ('joinz', ['joi', 'oin', 'inz'])
), sc AS (
  SELECT q.qtok, tg.tok,
         len(list_intersect(tg.gs, q.qg)) AS inter,
         len(tg.gs) + len(q.qg) - len(list_intersect(tg.gs, q.qg))
           AS un
  FROM tg, q
), best AS (
  SELECT tok FROM (
    SELECT qtok, tok,
           row_number() OVER (PARTITION BY qtok
             ORDER BY (inter * 1000000) // un DESC, tok ASC) AS rn
    FROM sc WHERE inter >= 1)
  WHERE rn = 1
), ct AS (SELECT DISTINCT tok FROM best),
tokd AS (
  SELECT doc_id, unnest(list_filter(regexp_split_to_array(lower(text),
    '[^a-z0-9]+'), x -> x <> '')) AS tok FROM documents
), tf AS (
  SELECT doc_id, tok, count(*)::DOUBLE AS tf FROM tokd
  WHERE tok IN (SELECT tok FROM ct) GROUP BY doc_id, tok
), dl AS (
  SELECT doc_id, count(*)::DOUBLE AS dl FROM tokd GROUP BY doc_id
), stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM tokd)::DOUBLE /
         (SELECT count(*) FROM documents)::DOUBLE AS avgdl
), df AS (
  SELECT tok, count(*)::DOUBLE AS df FROM tf GROUP BY tok
), scores AS (
  SELECT tf.doc_id,
         sum(ln(1 + (stats.n - df.df + 0.5)/(df.df + 0.5)) *
             (tf.tf*2.2/(tf.tf + 1.2*(1 - 0.75 +
                                      0.75*dl.dl/stats.avgdl))))
           AS score
  FROM tf JOIN df USING(tok) JOIN dl USING(doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
)
SELECT doc_id, CAST(floor(score*10000 + 0.5) AS BIGINT) AS score_x1e4
FROM scores ORDER BY score DESC, doc_id LIMIT 10
""")
def q_corrected_search(sf_dir: str) -> pa.Table:
    """Did-you-mean search: each misspelled query token is corrected
    to the top vocabulary token by trigram Jaccard (functions/fuzzy.py
    — jacc_x1e6 desc, token asc, so the pick is deterministic), the
    corrected DISTINCT term set feeds standard BM25.  At corpus scale
    the vocabulary pass would read the token_df artifact instead of
    re-scanning text; the arithmetic is identical."""
    from ..functions.fuzzy import fuzzy_terms
    ds = _docs_ds(sf_dir, columns=["doc_id", "text"])
    corrected = []
    for typo in ("sparkk", "windoww", "joinz"):
        top = fuzzy_terms(ds, typo, k=1)
        if top.num_rows:
            corrected.append(top["token"][0].as_py())
    corrected = sorted(set(corrected))
    eng = get_engine(sf_dir)
    docs, scores = eng.bm25(" ".join(corrected), 10)
    return pa.table({
        "doc_id": pa.array(docs.astype(np.int64), pa.int64()),
        "score_x1e4": pa.array(
            fixed_point(scores),
            pa.int64())})


@query("""
WITH d AS (
  SELECT doc_id, n_chars,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents
)
SELECT doc_id FROM d
WHERE (list_contains(toks, 'spark') OR list_contains(toks, 'batch'))
  AND NOT (list_contains(toks, 'window')
           OR list_contains(toks, 'merge'))
  AND n_chars >= 300
ORDER BY doc_id
""")
def q_paren_query(sf_dir: str) -> pa.Table:
    """Parenthesized boolean grouping (planner.py round-5 grammar):
    ``(spark || batch) && !(window || merge) && n_chars >= 300`` —
    the parser pushes the negated parenthesis to the leaves by De
    Morgan and distributes AND over OR, so execution stays the same
    DNF machinery (two groups, each with the AND-NOT pair inside)."""
    from ..planner import QueryExecutor
    eng = get_engine(sf_dir)
    ex = QueryExecutor(eng, [_doc_file(sf_dir)], text_col="text",
                       id_col="doc_id")
    docs = ex.execute(
        '(text.search("spark") || text.search("batch")) && '
        '!(text.search("window") || text.search("merge")) && '
        'n_chars >= 300')
    return pa.table({"doc_id": pa.array(docs.astype(np.int64),
                                        pa.int64())})


@query("""
WITH t AS (
  SELECT doc_id, list_filter(regexp_split_to_array(lower(text),
    '[^a-z0-9]+'), x -> x <> '') AS toks FROM documents
), p AS (
  SELECT doc_id, unnest(toks) AS tok,
         generate_subscripts(toks, 1) AS ord FROM t
), th AS (
  SELECT DISTINCT p1.doc_id FROM p p1
  JOIN p p2 ON p2.doc_id = p1.doc_id AND p2.ord = p1.ord + 1
           AND p2.tok = 'hash'
  WHERE p1.tok = 'table'
), mg AS (
  SELECT DISTINCT p1.doc_id FROM p p1
  JOIN p p2 ON p2.doc_id = p1.doc_id AND p2.ord = p1.ord + 1
           AND p2.tok = 'group'
  WHERE p1.tok = 'merge'
), ost AS (
  SELECT DISTINCT p1.doc_id FROM p p1
  JOIN p p2 ON p2.doc_id = p1.doc_id AND p2.ord = p1.ord + 1
           AND p2.tok = 'sort'
  JOIN p p3 ON p3.doc_id = p1.doc_id AND p3.ord = p1.ord + 2
           AND p3.tok = 'table'
  WHERE p1.tok = 'order'
)
SELECT doc_id FROM (
  SELECT doc_id FROM th
  WHERE doc_id NOT IN (SELECT doc_id FROM mg)
  UNION
  SELECT doc_id FROM ost
) ORDER BY doc_id
""")
def q_phrase_bool(sf_dir: str) -> pa.Table:
    """Phrase predicates inside the boolean planner (round-5 grammar):
    ``text.phrase("table hash") && !text.phrase("merge group") ||
    text.phrase("order sort table")`` — exact positional adjacency
    (phrase_match_positional) composed through the same DNF
    intersection/AND-NOT/union machinery as term predicates."""
    from ..planner import QueryExecutor
    eng = get_engine(sf_dir)
    ex = QueryExecutor(eng, [_doc_file(sf_dir)], text_col="text",
                       id_col="doc_id")
    docs = ex.execute(
        'text.phrase("table hash") && !text.phrase("merge group") || '
        'text.phrase("order sort table")')
    return pa.table({"doc_id": pa.array(docs.astype(np.int64),
                                        pa.int64())})


@query("""
WITH t AS (
  SELECT doc_id, list_filter(regexp_split_to_array(lower(text),
    '[^a-z0-9]+'), x -> x <> '') AS toks FROM documents
), p AS (
  SELECT doc_id, unnest(toks) AS tok,
         generate_subscripts(toks, 1) AS ord FROM t
), a AS (
  SELECT DISTINCT p1.doc_id FROM p p1
  JOIN p p2 ON p2.doc_id = p1.doc_id AND p2.tok = 'window'
           AND abs(p1.ord - p2.ord) <= 4
  WHERE p1.tok = 'spark'
), b AS (
  SELECT DISTINCT p1.doc_id FROM p p1
  JOIN p p2 ON p2.doc_id = p1.doc_id AND p2.tok = 'key'
           AND abs(p1.ord - p2.ord) <= 3
  WHERE p1.tok = 'slow'
)
SELECT doc_id FROM a
WHERE doc_id NOT IN (SELECT doc_id FROM b)
ORDER BY doc_id
""")
def q_near_bool(sf_dir: str) -> pa.Table:
    """Windowed-proximity predicates in the boolean planner:
    ``text.near("spark window", 4) && !text.near("slow key", 3)`` —
    the positional minimal-range scan (proximity_match) composed
    through the same DNF machinery, negation included."""
    from ..planner import QueryExecutor
    eng = get_engine(sf_dir)
    ex = QueryExecutor(eng, [_doc_file(sf_dir)], text_col="text",
                       id_col="doc_id")
    docs = ex.execute('text.near("spark window", 4) && '
                      '!text.near("slow key", 3)')
    return pa.table({"doc_id": pa.array(docs.astype(np.int64),
                                        pa.int64())})


@query("""
WITH tok AS (
  SELECT doc_id, unnest(list_filter(regexp_split_to_array(lower(text),
    '[^a-z0-9]+'), x -> x <> '')) AS tok FROM documents
), tf AS (
  SELECT doc_id, tok, count(*)::DOUBLE AS tf FROM tok
  WHERE tok IN ('spark', 'join') GROUP BY doc_id, tok
), dl AS (
  SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id
), stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM tok)::DOUBLE /
         (SELECT count(*) FROM documents)::DOUBLE AS avgdl
), df AS (
  SELECT tok, count(*)::DOUBLE AS df FROM tf GROUP BY tok
), scores AS (
  SELECT tf.doc_id,
         sum(ln(1 + (stats.n - df.df + 0.5)/(df.df + 0.5)) *
             (tf.tf*2.2/(tf.tf + 1.2*(1 - 0.75 +
                                      0.75*dl.dl/stats.avgdl))))
           AS score
  FROM tf JOIN df USING(tok) JOIN dl USING(doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
), el AS (
  SELECT d.doc_id, d.lang FROM documents d
  WHERE list_contains(list_filter(regexp_split_to_array(lower(text),
          '[^a-z0-9]+'), x -> x <> ''), 'spark')
    AND list_contains(list_filter(regexp_split_to_array(lower(text),
          '[^a-z0-9]+'), x -> x <> ''), 'join')
), r AS (
  SELECT el.lang, s.doc_id, s.score,
         row_number() OVER (PARTITION BY el.lang
                            ORDER BY s.score DESC, s.doc_id) AS rank
  FROM scores s JOIN el USING (doc_id)
)
SELECT lang, rank::BIGINT AS rank, doc_id,
       CAST(floor(score * 10000 + 0.5) AS BIGINT) AS score_x1e4
FROM r WHERE rank <= 3 ORDER BY lang, rank
""")
def q_grouped_search(sf_dir: str) -> pa.Table:
    """Diversified (per-facet) retrieval: the BM25 top-3 PER LANGUAGE
    for one query — result diversification by running the filtered
    ranked path once per facet value (global corpus statistics; the
    facet narrows candidates, not the model — planner.ranked).  Facet
    values come from a distinct-scan partial, so nothing is
    hardcoded."""
    from ..planner import QueryExecutor
    ds = _docs_ds(sf_dir, columns=["lang"])

    def uniq(t: pa.Table) -> pa.Table:
        return pa.table({"lang": pc.unique(t["lang"].combine_chunks())})

    langs = sorted(set(collect_arrow(ds.map_batches(
        uniq, batch_format="pyarrow"))["lang"].to_pylist()))
    eng = get_engine(sf_dir)
    ex = QueryExecutor(eng, [_doc_file(sf_dir)], text_col="text",
                       id_col="doc_id")
    rows = []
    for lg in langs:
        docs, scores = ex.ranked(
            f'text.search("spark join") && lang == "{lg}"', k=3)
        for r, (d, s) in enumerate(zip(docs, scores), 1):
            rows.append({"lang": lg, "rank": r, "doc_id": int(d),
                         "score_x1e4": int(fixed_point(s))})
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("lang", pa.string()), ("rank", pa.int64()),
         ("doc_id", pa.int64()), ("score_x1e4", pa.int64())]))
