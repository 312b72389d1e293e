"""Statistics over the event and business tables: quantiles, moments,
correlation, sketches, graph walks, integrity audits and profiles."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.sketches import cms_oracle_sql, hll_oracle_sql
from .common import _collect, _docs_ds, _sdiv, fixed_point, query, read_ds

CMS_QUERY_KEYS = list(range(10)) + [10**9]   # last key is absent


# exact discrete quantiles over the quantized multiset: decimal
# literals keep q*n exact in DuckDB (float ceil(0.99*400) would be
# 397; both sides compute 396), so the grid values hash-match
@query("""
WITH v AS (
  SELECT event_type,
         CAST(floor(value * 10000 + 0.5) AS BIGINT) AS vq
  FROM events WHERE value IS NOT NULL
)
SELECT event_type, pct, value_x1e4 FROM (
  SELECT event_type, 50::BIGINT AS pct,
         quantile_disc(vq, 0.50) AS value_x1e4 FROM v GROUP BY event_type
  UNION ALL
  SELECT event_type, 90::BIGINT, quantile_disc(vq, 0.90)
  FROM v GROUP BY event_type
  UNION ALL
  SELECT event_type, 99::BIGINT, quantile_disc(vq, 0.99)
  FROM v GROUP BY event_type
)
ORDER BY event_type, pct
""")
def q_events_quantiles(sf_dir: str) -> pa.Table:
    """Exact p50/p90/p99 of the event value per type over the x1e4
    fixed-point grid — per-batch partial (key, grid) counts, no sort
    shuffle; DuckDB-identical ceil(pct*n/100) discrete rank."""
    from ..functions.quantiles import grouped_quantiles
    ds = read_ds(sf_dir, "events", columns=["event_type", "value"])
    return grouped_quantiles(ds, key_col="event_type", val_col="value",
                             pcts=(50, 90, 99)).cast(pa.schema([
        ("event_type", pa.string()), ("pct", pa.int64()),
        ("value_x1e4", pa.int64())]))


# generated: recomputes the engine's exact integer HLL sketch
# (functions/sketches.py hll_oracle_sql — shared literals)
@query(hll_oracle_sql("events", "user_id", "event_type", "approx_users"))
def q_events_approx_users(sf_dir: str) -> pa.Table:
    """APPROXIMATE distinct users per event type via the 64-register
    HyperLogLog sketch (functions/sketches.py) — the shuffle-free
    companion to events_distinct: batches fold into tiny max-register
    partials, nothing keyed ever moves.  Integer-exact closed form,
    so the oracle SQL recomputes the identical sketch (mix32 hash in
    HUGEINT, printf('%b') bitlen, shared linear-counting literals)."""
    from ..functions.sketches import approx_distinct
    ds = read_ds(sf_dir, "events", columns=["event_type", "user_id"])
    return approx_distinct(ds, key_col="user_id",
                           group_col="event_type",
                           out_col="approx_users")


# generated: recomputes the engine's exact integer CMS sketch
# (functions/sketches.py cms_oracle_sql — shared salts/width)
@query(cms_oracle_sql("events", "user_id", CMS_QUERY_KEYS,
                      out_col="approx_count"))
def q_events_cms_counts(sf_dir: str) -> pa.Table:
    """APPROXIMATE per-user event counts via a 4x1024 Count-Min
    Sketch (functions/sketches.py cms_counts) — the shuffle-free
    frequency probe: batches fold into 16 KiB additive counter
    partials, estimates are collision-inflated upper bounds, and the
    oracle SQL recomputes the identical sketch (salted mix32 buckets
    in HUGEINT, min over rows).  One deliberately-absent key
    (10^9) exercises the zero/collision path."""
    from ..functions.sketches import cms_counts
    ds = read_ds(sf_dir, "events", columns=["user_id"])
    return cms_counts(ds, key_col="user_id",
                      query_keys=CMS_QUERY_KEYS,
                      out_col="approx_count")


@query("""
SELECT LEAST(CAST(floor(value / 10.0) AS BIGINT), 49) AS bucket,
       count(*)::BIGINT AS n,
       sum(CAST(floor(value * 10000 + 0.5) AS BIGINT))::BIGINT
         AS sum_x1e4
FROM events GROUP BY 1 ORDER BY 1
""")
def q_events_histogram(sf_dir: str) -> pa.Table:
    """Histogram (width_bucket shape): value bucketed to [0,49] by
    floor(value/10) capped at 49, count + x1e4 sum per bucket — pure
    per-batch partials (partial_aggregate), zero shuffle: 50 buckets
    × blocks is all that ever moves."""
    from ..functions.boilerplate import partial_aggregate
    ds = read_ds(sf_dir, "events", columns=["value"])

    def prep(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        b = np.minimum(np.floor(v / 10.0), 49.0).astype(np.int64)
        vx = fixed_point(v)
        return pa.table({"bucket": pa.array(b, pa.int64()),
                         "v": pa.array(vx, pa.int64())})

    t = partial_aggregate(ds, ["bucket"],
                          [("v", "count"), ("v", "sum")], prepare=prep)
    schema = pa.schema([("bucket", pa.int64()), ("n", pa.int64()),
                        ("sum_x1e4", pa.int64())])
    if t is None:
        return schema.empty_table()
    t = pa.table({"bucket": t["bucket"], "n": t["v_count"],
                  "sum_x1e4": t["v_sum"]}).cast(schema)
    return t.take(pc.sort_indices(t, sort_keys=[("bucket",
                                                 "ascending")]))


@query("""
WITH e AS (
  SELECT event_type,
         CAST(floor(value * 10000 + 0.5) AS BIGINT) AS v
  FROM events
), g AS (
  SELECT event_type, count(*)::HUGEINT AS n,
         sum(v::HUGEINT) AS s, sum((v::HUGEINT) * v) AS ss
  FROM e GROUP BY 1
)
SELECT event_type, n::BIGINT AS n, (s // n)::BIGINT AS mean_x1e4,
       ((n * ss - s * s) // (n * n))::BIGINT AS var_x1e8
FROM g ORDER BY event_type
""")
def q_events_variance(sf_dir: str) -> pa.Table:
    """Per-type population variance from ONE pass of integer moment
    partials (n, Σv, Σv² on the x1e4 grid) — no shuffle, groups ×
    blocks is all that moves.  The closing arithmetic
    (n·Σv² − (Σv)²) // n² runs in arbitrary-precision Python ints on
    the tiny merged groups (n·Σv² overflows int64 past ~1e6 rows) and
    HUGEINT in the oracle — the same floor division, bit-stable."""
    from ..functions.boilerplate import partial_aggregate
    ds = read_ds(sf_dir, "events", columns=["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        v = fixed_point(t["value"])
        return pa.table({"event_type": t["event_type"],
                         "v": pa.array(v, pa.int64()),
                         "vv": pa.array(v * v, pa.int64())})

    out = partial_aggregate(ds, ["event_type"],
                            [("v", "count"), ("v", "sum"),
                             ("vv", "sum")], prepare=prep)
    schema = pa.schema([("event_type", pa.string()),
                        ("n", pa.int64()),
                        ("mean_x1e4", pa.int64()),
                        ("var_x1e8", pa.int64())])
    if out is None:
        return schema.empty_table()
    rows = []
    for e, n, s, ss in zip(out["event_type"].to_pylist(),
                           out["v_count"].to_pylist(),
                           out["v_sum"].to_pylist(),
                           out["vv_sum"].to_pylist()):
        n, s, ss = int(n), int(s), int(ss)
        rows.append({"event_type": e, "n": n,
                     "mean_x1e4": s // n,
                     "var_x1e8": (n * ss - s * s) // (n * n)})
    rows.sort(key=lambda r: r["event_type"])
    return pa.Table.from_pylist(rows, schema=schema)


@query("""
WITH b AS (
  SELECT l_returnflag,
         CAST(floor(l_quantity * 100 + 0.5) AS BIGINT) AS q,
         CAST(floor(l_discount * 100 + 0.5) AS BIGINT) AS d
  FROM lineitem
), m AS (
  SELECT l_returnflag, count(*)::BIGINT AS n, sum(q)::BIGINT AS sq,
         sum(d)::BIGINT AS sd, sum(q * q)::BIGINT AS sqq,
         sum(d * d)::BIGINT AS sdd, sum(q * d)::BIGINT AS sqd
  FROM b GROUP BY 1
)
SELECT l_returnflag, n, sq AS sum_q, sd AS sum_d,
       CAST(floor(
         ((n::HUGEINT * sqd - sq::HUGEINT * sd)::DOUBLE /
          (sqrt((n::HUGEINT * sqq - sq::HUGEINT * sq)::DOUBLE) *
           sqrt((n::HUGEINT * sdd - sd::HUGEINT * sd)::DOUBLE)))
         * 1000000 + 0.5) AS BIGINT) AS corr_x1e6
FROM m ORDER BY l_returnflag
""")
def q_corr_stats(sf_dir: str) -> pa.Table:
    """Pearson correlation per group from ONE pass of integer moment
    partials (n, Σq, Σd, Σq², Σd², Σqd on the x100 grid) — zero
    shuffle, 3 groups × blocks is all that moves.  The closing
    arithmetic (HUGEINT-exact differences -> fp64 -> one division) is
    the identical expression tree the oracle SQL evaluates, so the
    x1e6 quantization is bit-stable across engines."""
    import math


    from ..functions.boilerplate import partial_aggregate
    line = read_ds(sf_dir, "lineitem",
                   columns=["l_returnflag", "l_quantity", "l_discount"])

    def prep(t: pa.Table) -> pa.Table:
        q = fixed_point(t["l_quantity"], 100.0)
        d = fixed_point(t["l_discount"], 100.0)
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "q": pa.array(q, pa.int64()),
            "d": pa.array(d, pa.int64()),
            "qq": pa.array(q * q, pa.int64()),
            "dd": pa.array(d * d, pa.int64()),
            "qd": pa.array(q * d, pa.int64())})

    t = partial_aggregate(
        line, ["l_returnflag"],
        [("q", "count"), ("q", "sum"), ("d", "sum"),
         ("qq", "sum"), ("dd", "sum"), ("qd", "sum")], prepare=prep)
    schema = pa.schema([("l_returnflag", pa.string()),
                        ("n", pa.int64()), ("sum_q", pa.int64()),
                        ("sum_d", pa.int64()),
                        ("corr_x1e6", pa.int64())])
    if t is None:
        return schema.empty_table()
    t = t.take(pc.sort_indices(t, sort_keys=[("l_returnflag",
                                              "ascending")]))
    corrs = []
    for i in range(t.num_rows):
        n = t["q_count"][i].as_py()
        sq, sd = t["q_sum"][i].as_py(), t["d_sum"][i].as_py()
        sqq, sdd = t["qq_sum"][i].as_py(), t["dd_sum"][i].as_py()
        sqd = t["qd_sum"][i].as_py()
        num = float(n * sqd - sq * sd)          # exact python ints
        den = (math.sqrt(float(n * sqq - sq * sq))
               * math.sqrt(float(n * sdd - sd * sd)))
        c = num / den if den else 0.0
        corrs.append(int(fixed_point(c, 1e6)))
    return pa.table({
        "l_returnflag": t["l_returnflag"],
        "n": t["q_count"].cast(pa.int64()),
        "sum_q": t["q_sum"].cast(pa.int64()),
        "sum_d": t["d_sum"].cast(pa.int64()),
        "corr_x1e6": pa.array(corrs, pa.int64())}).cast(schema)


@query("""
WITH e0 AS (
  SELECT event_type, user_id,
         lead(user_id) OVER (PARTITION BY event_type
                             ORDER BY ts, event_id) AS nxt
  FROM events
), e AS (
  SELECT user_id AS src, nxt AS dst FROM e0
  WHERE nxt IS NOT NULL AND nxt <> user_id
), nodes AS (SELECT DISTINCT user_id AS node FROM events),
nn AS (SELECT count(*)::BIGINT AS cnt FROM nodes),
od AS (SELECT src, count(*)::BIGINT AS outdeg FROM e GROUP BY 1),
r0 AS (SELECT node, (1000000000000 // cnt)::BIGINT AS r
       FROM nodes CROSS JOIN nn),
c1 AS (SELECT e.dst AS node, sum(r0.r // od.outdeg)::BIGINT AS s
       FROM e JOIN r0 ON e.src = r0.node JOIN od ON od.src = e.src
       GROUP BY 1),
r1 AS (SELECT nodes.node,
              ((15 * 1000000000000 // 100) // cnt
               + (85 * COALESCE(c1.s, 0)) // 100)::BIGINT AS r
       FROM nodes CROSS JOIN nn LEFT JOIN c1 ON nodes.node = c1.node),
c2 AS (SELECT e.dst AS node, sum(r1.r // od.outdeg)::BIGINT AS s
       FROM e JOIN r1 ON e.src = r1.node JOIN od ON od.src = e.src
       GROUP BY 1),
r2 AS (SELECT nodes.node,
              ((15 * 1000000000000 // 100) // cnt
               + (85 * COALESCE(c2.s, 0)) // 100)::BIGINT AS r
       FROM nodes CROSS JOIN nn LEFT JOIN c2 ON nodes.node = c2.node),
c3 AS (SELECT e.dst AS node, sum(r2.r // od.outdeg)::BIGINT AS s
       FROM e JOIN r2 ON e.src = r2.node JOIN od ON od.src = e.src
       GROUP BY 1),
r3 AS (SELECT nodes.node,
              ((15 * 1000000000000 // 100) // cnt
               + (85 * COALESCE(c3.s, 0)) // 100)::BIGINT AS r
       FROM nodes CROSS JOIN nn LEFT JOIN c3 ON nodes.node = c3.node)
SELECT node AS user_id, r AS rank_x1e12 FROM r3 ORDER BY user_id
""")
def q_pagerank(sf_dir: str) -> pa.Table:
    """Integer-exact PageRank over the user transition graph (edges =
    consecutive users within each event_type's time-ordered stream):
    one keyed exchange extracts edges, then 3 damped iterations of
    broadcast-rank message passing with per-batch per-dst partial sums
    (functions/graph.py pagerank — all-integer floor arithmetic, so
    the distributed result is bit-identical to the oracle's serial
    SQL transcription)."""
    from ..functions.boilerplate import partial_aggregate
    from ..functions.graph import pagerank, transition_edges
    events = read_ds(sf_dir, "events",
                     columns=["event_id", "ts", "user_id", "event_type"])
    users = partial_aggregate(events, ["user_id"],
                              [("user_id", "count")])
    schema = pa.schema([("user_id", pa.int64()),
                        ("rank_x1e12", pa.int64())])
    if users is None:
        return schema.empty_table()
    edges = transition_edges(events)
    pr = pagerank(edges, users["user_id"], iterations=3)
    t = pa.table({"user_id": pr["node"],
                  "rank_x1e12": pr["rank"]})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("user_id", "ascending")])).cast(schema)


@query("""
WITH e0 AS (
  SELECT event_type, user_id,
         lead(user_id) OVER (PARTITION BY event_type
                             ORDER BY ts, event_id) AS nxt
  FROM events
), e AS (
  SELECT user_id AS src, nxt AS dst FROM e0
  WHERE nxt IS NOT NULL AND nxt <> user_id
), s AS (
  SELECT DISTINCT user_id AS node FROM events WHERE user_id % 97 = 0
), h1 AS (
  SELECT DISTINCT e.dst AS node FROM e JOIN s ON e.src = s.node
  WHERE e.dst NOT IN (SELECT node FROM s)
), h2 AS (
  SELECT DISTINCT e.dst AS node FROM e JOIN h1 ON e.src = h1.node
  WHERE e.dst NOT IN (SELECT node FROM s UNION ALL
                      SELECT node FROM h1)
), h3 AS (
  SELECT DISTINCT e.dst AS node FROM e JOIN h2 ON e.src = h2.node
  WHERE e.dst NOT IN (SELECT node FROM s UNION ALL
                      SELECT node FROM h1 UNION ALL
                      SELECT node FROM h2)
)
SELECT node AS user_id, hops FROM (
  SELECT node, 0::BIGINT AS hops FROM s
  UNION ALL SELECT node, 1::BIGINT FROM h1
  UNION ALL SELECT node, 2::BIGINT FROM h2
  UNION ALL SELECT node, 3::BIGINT FROM h3
) ORDER BY user_id
""")
def q_bfs_reach(sf_dir: str) -> pa.Table:
    """Multi-source BFS over the user transition graph: minimum hops
    (≤3) from the deterministic seed set user_id % 97 == 0.  Each
    round is ONE streamed pass over the materialized edges with the
    frontier broadcast as a sorted array — per-batch membership via
    searchsorted, per-batch distinct dst partials, node-sized driver
    merge (functions/graph.py bfs_hops)."""
    from ..functions.boilerplate import partial_aggregate
    from ..functions.graph import bfs_hops, transition_edges
    events = read_ds(sf_dir, "events",
                     columns=["event_id", "ts", "user_id", "event_type"])
    users = partial_aggregate(events, ["user_id"],
                              [("user_id", "count")])
    schema = pa.schema([("user_id", pa.int64()),
                        ("hops", pa.int64())])
    if users is None:
        return schema.empty_table()
    uid = users["user_id"].combine_chunks().cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    seeds = pa.array(uid[uid % 97 == 0], pa.int64())
    edges = transition_edges(events)
    t = bfs_hops(edges, seeds, max_hops=3)
    t = pa.table({"user_id": t["node"], "hops": t["hops"]})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("user_id", "ascending")])).cast(schema)


@query("""
WITH q AS (
  SELECT event_type,
         CAST(floor(value * 10000 + 0.5) AS BIGINT) AS v
  FROM events WHERE value IS NOT NULL
), r AS (
  SELECT event_type, v,
         row_number() OVER (PARTITION BY event_type ORDER BY v) - 1
           AS rn,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM q
), px AS (
  SELECT event_type, n, unnest([50, 90, 99]) AS pct
  FROM (SELECT DISTINCT event_type, n FROM r)
), b AS (
  SELECT event_type, pct, n,
         (pct * (n - 1)) // 100 AS idx,
         (pct * (n - 1)) % 100 AS frac
  FROM px
)
SELECT b.event_type, b.pct::BIGINT AS pct,
       (lo.v * (100 - b.frac) + hi.v * b.frac)::BIGINT AS value_x1e6
FROM b
JOIN r lo ON lo.event_type = b.event_type AND lo.rn = b.idx
JOIN r hi ON hi.event_type = b.event_type
         AND hi.rn = LEAST(b.idx + 1, b.n - 1)
ORDER BY b.event_type, b.pct
""")
def q_events_quantiles_cont(sf_dir: str) -> pa.Table:
    """Interpolated (percentile_cont-convention) p50/p90/p99 per event
    type, EXACT: positions pct·(n−1)/100 have a denominator-100
    fraction, so the linear interpolation stays in integers on a 100×
    finer grid (value_x1e6 = lo·(100−frac) + hi·frac on the x1e4
    quantization).  Same shuffle-free (key, grid)-partials substrate
    as the discrete variant."""
    from ..functions.quantiles import grouped_quantiles
    ds = read_ds(sf_dir, "events", columns=["event_type", "value"])
    return grouped_quantiles(ds, key_col="event_type", val_col="value",
                             pcts=(50, 90, 99),
                             interpolated=True).cast(pa.schema([
        ("event_type", pa.string()), ("pct", pa.int64()),
        ("value_x1e6", pa.int64())]))


@query("""
WITH h AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS hour_id,
         count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2
), s AS (
  SELECT event_type, count(*)::HUGEINT AS hh,
         sum(n)::HUGEINT AS ss, sum(n::HUGEINT * n)::HUGEINT AS sq
  FROM h GROUP BY event_type
)
SELECT h.event_type, h.hour_id::BIGINT AS hour_id, h.n,
       (CASE WHEN (h.n * s.hh - s.ss) > 0
             AND (h.n * s.hh - s.ss) * (h.n * s.hh - s.ss)
                 > 4 * (s.hh * s.sq - s.ss * s.ss)
             THEN 1 ELSE 0 END)::BIGINT AS anom
FROM h JOIN s USING (event_type) ORDER BY 1, 2
""")
def q_events_anomaly(sf_dir: str) -> pa.Table:
    """Integer-exact hourly volume anomalies per event type
    (functions/windows.py hourly_anomalies): 2-sigma outlier hours
    flagged via the cross-multiplied variance inequality in Python
    ints / HUGEINT — engine and oracle share the closed form, no
    epsilon."""
    from ..functions.windows import hourly_anomalies
    ds = read_ds(sf_dir, "events", columns=["event_type", "ts", "value"])
    return hourly_anomalies(ds, sigmas=2)


@query("""
WITH t AS (
  SELECT o_orderkey,
         CAST(floor(o_totalprice * 10000 + 0.5) AS BIGINT) AS px,
         epoch_us(o_orderdate) AS dus
  FROM orders WHERE o_orderpriority = '1-URGENT'
), g AS (
  SELECT px, dus FROM t GROUP BY 1, 2
), s AS (
  SELECT px, dus FROM (
    SELECT px, dus,
           max(dus) OVER (ORDER BY px DESC, dus DESC
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS pm,
           max(dus) OVER (PARTITION BY px) AS gm
    FROM g)
  WHERE dus = gm AND (pm IS NULL OR dus > pm)
)
SELECT a.o_orderkey, a.px AS totalprice_x1e4,
       make_timestamp(a.dus) AS o_orderdate
FROM t a JOIN s ON a.px = s.px AND a.dus = s.dus
ORDER BY totalprice_x1e4 DESC, o_orderdate, o_orderkey
""")
def q_skyline_orders(sf_dir: str) -> pa.Table:
    """Pareto skyline of urgent orders maximizing (totalprice,
    orderdate): per-batch local frontier prune (sort + boundary-diff
    kernel, never all-pairs), driver merges the staircase-sized
    frontiers with the same kernel.  Prices compare on the x1e4 grid;
    exact (price, date) duplicates all survive, matching the SQL
    dominance definition."""
    from ..functions.skyline import skyline
    ds = read_ds(sf_dir, "orders",
                 columns=["o_orderkey", "o_totalprice", "o_orderdate",
                          "o_orderpriority"])

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderpriority"], "1-URGENT"))
        px = fixed_point(t["o_totalprice"])
        return pa.table({
            "o_orderkey": t["o_orderkey"].cast(pa.int64()),
            "totalprice_x1e4": pa.array(px, pa.int64()),
            "dus": t["o_orderdate"].cast(pa.int64())})

    out = skyline(ds.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True),
                  x_col="totalprice_x1e4", y_col="dus")
    res = pa.table({"o_orderkey": out["o_orderkey"],
                    "totalprice_x1e4": out["totalprice_x1e4"],
                    "o_orderdate": out["dus"].cast(pa.timestamp("us"))})
    return res.take(pc.sort_indices(res, sort_keys=[
        ("totalprice_x1e4", "descending"),
        ("o_orderdate", "ascending"),
        ("o_orderkey", "ascending")]))


@query("""
WITH p AS (
  SELECT 'doc_id' AS col, count(*)::BIGINT AS n_rows,
         coalesce(sum(CASE WHEN doc_id IS NULL THEN 1 ELSE 0 END),
                  0)::BIGINT AS n_nulls,
         NULL::BIGINT AS n_distinct,
         CAST(min(doc_id) AS VARCHAR) AS min_val,
         CAST(max(doc_id) AS VARCHAR) AS max_val
  FROM documents
  UNION ALL
  SELECT 'n_chars', count(*)::BIGINT,
         coalesce(sum(CASE WHEN n_chars IS NULL THEN 1 ELSE 0 END),
                  0)::BIGINT,
         NULL::BIGINT, CAST(min(n_chars) AS VARCHAR),
         CAST(max(n_chars) AS VARCHAR)
  FROM documents
  UNION ALL
  SELECT 'lang', count(*)::BIGINT,
         coalesce(sum(CASE WHEN lang IS NULL THEN 1 ELSE 0 END),
                  0)::BIGINT,
         count(DISTINCT lang)::BIGINT, min(lang), max(lang)
  FROM documents
  UNION ALL
  SELECT 'source', count(*)::BIGINT,
         coalesce(sum(CASE WHEN source IS NULL THEN 1 ELSE 0 END),
                  0)::BIGINT,
         count(DISTINCT source)::BIGINT, min(source), max(source)
  FROM documents
)
SELECT * FROM p ORDER BY col
""")
def q_table_profile(sf_dir: str) -> pa.Table:
    """Data-quality profile of the documents table in ONE streaming
    pass: per-column row/null counts, min/max, and exact distinct
    counts for the low-cardinality enum-ish columns — each batch ships
    one tiny partial row per column (functions/profile.py), the driver
    folds partials; the corpus never gathers anywhere."""
    from ..functions.profile import table_profile
    ds = _docs_ds(sf_dir, columns=["doc_id", "n_chars", "lang", "source"])
    out = table_profile(ds, num_cols=["doc_id", "n_chars"],
                        str_cols=["lang", "source"],
                        distinct_cols=["lang", "source"])
    return out.take(pc.sort_indices(out, sort_keys=[
        ("col", "ascending")]))


@query("""
WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
p AS (
  SELECT a.l_partkey AS part_a, b.l_partkey AS part_b,
         count(*)::BIGINT AS n_orders
  FROM d a JOIN d b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2
)
SELECT * FROM p ORDER BY n_orders DESC, part_a, part_b LIMIT 100
""")
def q_part_pairs(sf_dir: str) -> pa.Table:
    """Market-basket pair mining: top-100 part pairs by the number of
    orders whose lineitems contain both (ties part_a asc, part_b asc).
    Same cooccur_pairs substrate keyed by orderkey; the top-k is
    per-batch local partials (≤k rows each) + one driver merge — the
    full pair table never reaches the driver (functions/pairs.py
    top_pairs)."""
    from ..functions.pairs import cooccur_pairs, top_pairs
    ds = read_ds(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    pairs = cooccur_pairs(ds, group_col="l_orderkey",
                          item_col="l_partkey")
    tbl = top_pairs(pairs, k=100, min_count=1)
    return pa.table({
        "part_a": tbl["item_a"], "part_b": tbl["item_b"],
        "n_orders": tbl["n_groups"]}).cast(pa.schema([
            ("part_a", pa.int64()), ("part_b", pa.int64()),
            ("n_orders", pa.int64())]))


@query("""
WITH e AS (
  SELECT event_type,
         (epoch_us(ts) // 60000000) - 28401120 AS x,
         CAST(floor(value * 10000 + 0.5) AS BIGINT) AS y
  FROM events
), g AS (
  SELECT event_type, count(*)::HUGEINT AS n,
         sum(x::HUGEINT) AS sx, sum(y::HUGEINT) AS sy,
         sum((x::HUGEINT) * x) AS sxx, sum((x::HUGEINT) * y) AS sxy
  FROM e GROUP BY 1
), c AS (
  SELECT event_type, n,
         n * sxy - sx * sy AS num,
         n * sxx - sx * sx AS den,
         sy * sxx - sx * sxy AS inum
  FROM g
)
SELECT event_type, n::BIGINT AS n,
  (CASE WHEN den = 0 THEN 0
        WHEN num < 0 THEN -(((-num) * 1000000) // den)
        ELSE (num * 1000000) // den END)::BIGINT AS slope_x1e6,
  (CASE WHEN den = 0 THEN 0
        WHEN inum < 0 THEN -((-inum) // den)
        ELSE inum // den END)::BIGINT AS icept_x1e4
FROM c ORDER BY event_type
""")
def q_events_ols(sf_dir: str) -> pa.Table:
    """Per-type simple linear regression (value vs time) from ONE pass
    of integer moment partials (n, Σx, Σy, Σx², Σxy with x = minutes
    since 2024-01-01, y on the x1e4 grid) — zero shuffle; the closing
    normal-equation arithmetic (slope = (nΣxy−ΣxΣy)/(nΣx²−(Σx)²),
    intercept = (ΣyΣx²−ΣxΣxy)/den) runs in arbitrary-precision Python
    ints here and HUGEINT in the oracle.  Reference analog: vfs-index
    only counts per key (query.go); this is the regression companion
    for trend extraction over event streams at 100-TB scale."""
    from ..functions.boilerplate import partial_aggregate
    ds = read_ds(sf_dir, "events", columns=["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        x = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
             // 60_000_000) - 28_401_120
        y = fixed_point(t["value"])
        return pa.table({"event_type": t["event_type"],
                         "x": pa.array(x, pa.int64()),
                         "y": pa.array(y, pa.int64()),
                         "xx": pa.array(x * x, pa.int64()),
                         "xy": pa.array(x * y, pa.int64())})

    out = partial_aggregate(ds, ["event_type"],
                            [("x", "count"), ("x", "sum"), ("y", "sum"),
                             ("xx", "sum"), ("xy", "sum")], prepare=prep)
    schema = pa.schema([("event_type", pa.string()), ("n", pa.int64()),
                        ("slope_x1e6", pa.int64()),
                        ("icept_x1e4", pa.int64())])
    if out is None:
        return schema.empty_table()
    rows = []
    for e, n, sx, sy, sxx, sxy in zip(
            out["event_type"].to_pylist(), out["x_count"].to_pylist(),
            out["x_sum"].to_pylist(), out["y_sum"].to_pylist(),
            out["xx_sum"].to_pylist(), out["xy_sum"].to_pylist()):
        n, sx, sy, sxx, sxy = (int(n), int(sx), int(sy), int(sxx),
                               int(sxy))
        den = n * sxx - sx * sx
        num = n * sxy - sx * sy
        inum = sy * sxx - sx * sxy
        rows.append({
            "event_type": e, "n": n,
            "slope_x1e6": _sdiv(num * 1_000_000, den) if den else 0,
            "icept_x1e4": _sdiv(inum, den) if den else 0})
    rows.sort(key=lambda r: r["event_type"])
    return pa.Table.from_pylist(rows, schema=schema)


@query("""
WITH ok AS (
  SELECT (CAST(o_orderkey AS BIGINT) * 1000003
          + o_custkey * 10007
          + CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) * 31) AS k
  FROM orders
), lk AS (
  SELECT (CAST(l_orderkey AS BIGINT) * 1000003
          + CAST(l_linenumber AS BIGINT) * 10007
          + CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) * 31)
         AS k
  FROM lineitem
), oh AS (
  SELECT xor(v2, v2 >> 13) AS h FROM (
    SELECT CAST((CAST(xor(v1, v1 >> 16) AS HUGEINT) * 2246822519)
                % 4294967296 AS BIGINT) AS v2
    FROM (SELECT CAST((CAST(k AS HUGEINT) * 2654435761)
                      % 4294967296 AS BIGINT) AS v1 FROM ok))
), lh AS (
  SELECT xor(v2, v2 >> 13) AS h FROM (
    SELECT CAST((CAST(xor(v1, v1 >> 16) AS HUGEINT) * 2246822519)
                % 4294967296 AS BIGINT) AS v2
    FROM (SELECT CAST((CAST(k AS HUGEINT) * 2654435761)
                      % 4294967296 AS BIGINT) AS v1 FROM lk))
)
SELECT 'lineitem' AS tbl, count(*)::BIGINT AS n,
       (sum(h::HUGEINT) % 9223372036854775808)::BIGINT AS hash_sum
FROM lh
UNION ALL
SELECT 'orders' AS tbl, count(*)::BIGINT AS n,
       (sum(h::HUGEINT) % 9223372036854775808)::BIGINT AS hash_sum
FROM oh
ORDER BY tbl
""")
def q_table_checksum(sf_dir: str) -> pa.Table:
    """Order-independent table integrity checksum — the 100-TB
    copy-verification primitive (did the migrated / re-partitioned /
    re-crawled copy keep every row bit-intact?).  Each row folds its
    identifying columns into one int64 key, mix32-hashes it, and the
    COMMUTATIVE sum of hashes (mod 2^63) makes the digest independent
    of partitioning, block order, and parallelism: per-batch (n, Σh)
    partials are all that move, merged in Python ints.  Reference
    analog: vfs-index trusts file sizes/mtimes (file.go); this is the
    content-level check its merge protocol lacks."""
    from ..hashing import mix32

    def fold_orders(t: pa.Table) -> pa.Table:
        k = (t["o_orderkey"].to_numpy(zero_copy_only=False) * 1_000_003
             + t["o_custkey"].to_numpy(zero_copy_only=False) * 10_007
             + fixed_point(t["o_totalprice"], 100.0) * 31)
        h = mix32(k)
        return pa.table({"n": pa.array([len(h)], pa.int64()),
                         "s": pa.array([int(h.sum())], pa.int64())})

    def fold_line(t: pa.Table) -> pa.Table:
        k = (t["l_orderkey"].to_numpy(zero_copy_only=False) * 1_000_003
             + t["l_linenumber"].to_numpy(zero_copy_only=False)
               .astype(np.int64) * 10_007
             + fixed_point(t["l_extendedprice"], 100.0) * 31)
        h = mix32(k)
        return pa.table({"n": pa.array([len(h)], pa.int64()),
                         "s": pa.array([int(h.sum())], pa.int64())})

    specs = [("lineitem", ["l_orderkey", "l_linenumber", "l_extendedprice"],
              fold_line),
             ("orders", ["o_orderkey", "o_custkey", "o_totalprice"],
              fold_orders)]
    rows = []
    for name, cols, fold in specs:
        ds = read_ds(sf_dir, name, cols)
        part = _collect(ds.map_batches(fold, batch_format="pyarrow",
                                       zero_copy_batch=True))
        n = sum(int(v) for v in part["n"].to_pylist())
        s = sum(int(v) for v in part["s"].to_pylist())
        rows.append({"tbl": name, "n": n,
                     "hash_sum": s % (1 << 63)})
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("tbl", pa.string()), ("n", pa.int64()),
         ("hash_sum", pa.int64())]))


@query("""
WITH q AS (
  SELECT event_type,
         CAST(floor(value * 10000 + 0.5) AS BIGINT) AS v
  FROM events WHERE value IS NOT NULL
), m AS (
  SELECT event_type, v,
         row_number() OVER (PARTITION BY event_type ORDER BY v) AS rn,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM q
), med AS (
  SELECT event_type, n, v AS med FROM m
  WHERE rn = (n * 50 + 99) // 100
), d AS (
  SELECT q.event_type, abs(q.v - med.med) AS dv
  FROM q JOIN med USING (event_type)
), m2 AS (
  SELECT event_type, dv,
         row_number() OVER (PARTITION BY event_type ORDER BY dv) AS rn,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM d
)
SELECT m2.event_type, med.n::BIGINT AS n, med.med AS median_x1e4,
       m2.dv AS mad_x1e4
FROM m2 JOIN med USING (event_type)
WHERE m2.rn = (m2.n * 50 + 99) // 100
ORDER BY m2.event_type
""")
def q_events_mad(sf_dir: str) -> pa.Table:
    """Per-type median absolute deviation — robust dispersion the
    variance query can't give (one planted outlier moves variance, not
    MAD).  Both the median and the MAD come from ONE pass of (key,
    grid, count) partials (functions/quantiles.py grouped_mad): the
    merged grid is the full quantized multiset, so |v − median| is
    re-ranked with its counts driver-side.  DuckDB-identical discrete
    rank ceil(n/2)."""
    from ..functions.quantiles import grouped_mad
    ds = read_ds(sf_dir, "events", columns=["event_type", "value"])
    return grouped_mad(ds, key_col="event_type", val_col="value")


@query("""
WITH q AS (
  SELECT l_returnflag AS k,
         CAST(floor(l_extendedprice * 10000 + 0.5) AS BIGINT) AS v,
         CAST(floor(l_quantity + 0.5) AS BIGINT) AS w
  FROM lineitem
), g AS (
  SELECT k, v, sum(w)::BIGINT AS w FROM q GROUP BY 1, 2
), c AS (
  SELECT k, v, sum(w) OVER (PARTITION BY k ORDER BY v) AS cw,
         sum(w) OVER (PARTITION BY k) AS tw
  FROM g
)
SELECT k AS l_returnflag, min(tw)::BIGINT AS total_w,
       min(v)::BIGINT AS wmedian_x1e4
FROM c WHERE cw >= (tw * 50 + 99) // 100
GROUP BY k ORDER BY k
""")
def q_weighted_median(sf_dir: str) -> pa.Table:
    """Per-returnflag QUANTITY-WEIGHTED median of the extended price —
    the weighted-statistics variant of the exact grid quantiles: the
    single (key, grid, Σw) pass makes the cumulative-weight rank
    ceil(W/2) exact at any scale (functions/quantiles.py
    grouped_weighted_median)."""
    from ..functions.quantiles import grouped_weighted_median
    ds = read_ds(sf_dir, "lineitem",
                 columns=["l_returnflag", "l_extendedprice", "l_quantity"])
    return grouped_weighted_median(
        ds, key_col="l_returnflag", val_col="l_extendedprice",
        weight_col="l_quantity")


@query("""
WITH q AS (
  SELECT event_type,
         CAST(floor(value * 10000 + 0.5) AS BIGINT) AS v
  FROM events WHERE value IS NOT NULL
), m AS (
  SELECT event_type, v,
         row_number() OVER (PARTITION BY event_type ORDER BY v) AS rn,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM q
), qs AS (
  SELECT event_type, n,
         min(CASE WHEN rn = (n * 25 + 99) // 100 THEN v END) AS q1,
         min(CASE WHEN rn = (n * 75 + 99) // 100 THEN v END) AS q3
  FROM m GROUP BY 1, 2
)
SELECT q.event_type, qs.n::BIGINT AS n, qs.q1 AS q1_x1e4,
       qs.q3 AS q3_x1e4,
       count(*) FILTER (2 * q.v < 5 * qs.q1 - 3 * qs.q3
                        OR 2 * q.v > 5 * qs.q3 - 3 * qs.q1)::BIGINT
         AS n_outliers
FROM q JOIN qs USING (event_type)
GROUP BY 1, 2, 3, 4 ORDER BY 1
""")
def q_events_iqr(sf_dir: str) -> pa.Table:
    """Per-type Tukey-fence outlier counts (1.5·IQR rule) — the robust
    row-level anomaly flag next to the hourly 2-sigma volume check
    (events_anomaly): Q1/Q3 and the outlier count all come from ONE
    (key, grid, count) pass; the 1.5 factor stays integer via the
    cross-multiplied 2v vs 5Q1−3Q3 inequality both engines share."""
    from ..functions.quantiles import grouped_iqr_outliers
    ds = read_ds(sf_dir, "events", columns=["event_type", "value"])
    return grouped_iqr_outliers(ds, key_col="event_type",
                                val_col="value")


@query("""
WITH f AS (
  SELECT event_type AS side, user_id FROM events
  WHERE event_type IN ('purchase', 'click')
    AND CAST(floor(value * 10000 + 0.5) AS BIGINT) > 3000000
), uh AS (
  SELECT DISTINCT side, xor(v2, v2 >> 13) AS h FROM (
    SELECT side,
           CAST((CAST(xor(v1, v1 >> 16) AS HUGEINT) * 2246822519)
                % 4294967296 AS BIGINT) AS v2
    FROM (SELECT side,
                 CAST((CAST(user_id AS HUGEINT) * 2654435761)
                      % 4294967296 AS BIGINT) AS v1 FROM f))
), a AS (SELECT h FROM uh WHERE side = 'purchase'
         ORDER BY h LIMIT 64),
b AS (SELECT h FROM uh WHERE side = 'click' ORDER BY h LIMIT 64),
u AS (SELECT DISTINCT h
      FROM (SELECT h FROM a UNION ALL SELECT h FROM b)
      ORDER BY h LIMIT 64),
s AS (
  SELECT count(*)::BIGINT AS k_eff, max(h)::BIGINT AS theta,
         (SELECT count(*) FROM u
          WHERE h IN (SELECT h FROM a)
            AND h IN (SELECT h FROM b))::BIGINT AS c
  FROM u
)
SELECT k_eff, theta, c,
  (CASE WHEN k_eff < 64 THEN k_eff
        ELSE ((k_eff - 1) * 4294967296) // theta END)::BIGINT
    AS union_est,
  (c * 1000000 // k_eff)::BIGINT AS jacc_x1e6,
  (c * (CASE WHEN k_eff < 64 THEN k_eff
             ELSE ((k_eff - 1) * 4294967296) // theta END)
   // k_eff)::BIGINT AS inter_est
FROM s
""")
def q_kmv_overlap(sf_dir: str) -> pa.Table:
    """Approximate audience overlap via bottom-k (KMV) sketches: how
    many users both clicked AND purchased at value > 300, without
    shuffling either user set — batches ship ≤2k hash rows, and the
    closed-form integer estimator (union ≈ (k−1)·2³² / θ, overlap =
    c/k of the union sketch) is reproduced exactly by the oracle.
    The sketch-family companion to the HLL per-group cardinality
    (events_approx_users) for BETWEEN-set questions."""
    from ..functions.sketches import kmv_overlap
    ds = read_ds(sf_dir, "events", columns=["event_type", "user_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        v = fixed_point(t["value"])
        keep = pa.array(v > 3_000_000)
        return t.filter(keep)

    return kmv_overlap(ds, id_col="user_id", side_col="event_type",
                       side_a="purchase", side_b="click", k=64,
                       prepare=prep)


@query("""
SELECT 'lineitem->orders' AS relation,
       (SELECT count(*) FROM lineitem)::BIGINT AS n_child,
       (SELECT count(*) FROM lineitem l
        WHERE NOT EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_orderkey = l.l_orderkey))::BIGINT
         AS n_orphans
UNION ALL
SELECT 'orders->customer' AS relation,
       (SELECT count(*) FROM orders)::BIGINT AS n_child,
       (SELECT count(*) FROM orders o
        WHERE NOT EXISTS (SELECT 1 FROM customer c
                          WHERE c.c_custkey = o.o_custkey))::BIGINT
         AS n_orphans
ORDER BY relation
""")
def q_fk_orphans(sf_dir: str) -> pa.Table:
    """Referential-integrity audit: child rows whose foreign key has
    no parent (lineitem→orders, orders→customer), counted through the
    REAL co-partitioned LEFT ANTI join with a per-partition count
    kernel — partitions ship one count row each, the orphan rows
    themselves never reach the driver.  Zero on healthy data; the unit
    test plants orphans and watches them surface."""
    from ..functions.joins import hash_join
    specs = [("lineitem->orders", "lineitem", "l_orderkey",
              "orders", "o_orderkey"),
             ("orders->customer", "orders", "o_custkey",
              "customer", "c_custkey")]
    rows = []
    for name, ct, ck, pt, pk in specs:
        child = read_ds(sf_dir, ct, [ck])
        parent = read_ds(sf_dir, pt, [pk])
        n_child = child.count()
        res = hash_join(
            child, parent, left_on=ck, right_on=pk, how="left anti",
            post=lambda t: pa.table({"n": pa.array([t.num_rows],
                                                   pa.int64())}))
        part = _collect(res)
        orphans = int(pc.sum(part["n"]).as_py() or 0) \
            if part.num_rows else 0
        rows.append({"relation": name, "n_child": int(n_child),
                     "n_orphans": orphans})
    rows.sort(key=lambda r: r["relation"])
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("relation", pa.string()), ("n_child", pa.int64()),
         ("n_orphans", pa.int64())]))


@query("""
WITH b AS (
  SELECT CAST(floor(l_quantity * 100 + 0.5) AS BIGINT) AS qty,
         CAST(floor(l_extendedprice + 0.5) AS BIGINT) AS price,
         CAST(floor(l_discount * 100 + 0.5) AS BIGINT) AS disc,
         CAST(floor(l_tax * 100 + 0.5) AS BIGINT) AS tax
  FROM lineitem
), m AS (
  SELECT count(*)::BIGINT AS n,
         sum(disc)::BIGINT AS s_disc, sum(price)::BIGINT AS s_price,
         sum(qty)::BIGINT AS s_qty, sum(tax)::BIGINT AS s_tax,
         sum(disc * disc)::BIGINT AS m_dd,
         sum(price * price)::BIGINT AS m_pp,
         sum(qty * qty)::BIGINT AS m_qq,
         sum(tax * tax)::BIGINT AS m_tt,
         sum(disc * price)::BIGINT AS m_dp,
         sum(disc * qty)::BIGINT AS m_dq,
         sum(disc * tax)::BIGINT AS m_dt,
         sum(price * qty)::BIGINT AS m_pq,
         sum(price * tax)::BIGINT AS m_pt,
         sum(qty * tax)::BIGINT AS m_qt
  FROM b
)
SELECT 'disc' AS var_a, 'price' AS var_b, n,
  CAST(floor(((n::HUGEINT * m_dp - s_disc::HUGEINT * s_price)::DOUBLE
    / (sqrt((n::HUGEINT * m_dd - s_disc::HUGEINT * s_disc)::DOUBLE)
     * sqrt((n::HUGEINT * m_pp - s_price::HUGEINT * s_price)::DOUBLE)))
    * 1000000 + 0.5) AS BIGINT) AS corr_x1e6 FROM m
UNION ALL
SELECT 'disc', 'qty', n,
  CAST(floor(((n::HUGEINT * m_dq - s_disc::HUGEINT * s_qty)::DOUBLE
    / (sqrt((n::HUGEINT * m_dd - s_disc::HUGEINT * s_disc)::DOUBLE)
     * sqrt((n::HUGEINT * m_qq - s_qty::HUGEINT * s_qty)::DOUBLE)))
    * 1000000 + 0.5) AS BIGINT) FROM m
UNION ALL
SELECT 'disc', 'tax', n,
  CAST(floor(((n::HUGEINT * m_dt - s_disc::HUGEINT * s_tax)::DOUBLE
    / (sqrt((n::HUGEINT * m_dd - s_disc::HUGEINT * s_disc)::DOUBLE)
     * sqrt((n::HUGEINT * m_tt - s_tax::HUGEINT * s_tax)::DOUBLE)))
    * 1000000 + 0.5) AS BIGINT) FROM m
UNION ALL
SELECT 'price', 'qty', n,
  CAST(floor(((n::HUGEINT * m_pq - s_price::HUGEINT * s_qty)::DOUBLE
    / (sqrt((n::HUGEINT * m_pp - s_price::HUGEINT * s_price)::DOUBLE)
     * sqrt((n::HUGEINT * m_qq - s_qty::HUGEINT * s_qty)::DOUBLE)))
    * 1000000 + 0.5) AS BIGINT) FROM m
UNION ALL
SELECT 'price', 'tax', n,
  CAST(floor(((n::HUGEINT * m_pt - s_price::HUGEINT * s_tax)::DOUBLE
    / (sqrt((n::HUGEINT * m_pp - s_price::HUGEINT * s_price)::DOUBLE)
     * sqrt((n::HUGEINT * m_tt - s_tax::HUGEINT * s_tax)::DOUBLE)))
    * 1000000 + 0.5) AS BIGINT) FROM m
UNION ALL
SELECT 'qty', 'tax', n,
  CAST(floor(((n::HUGEINT * m_qt - s_qty::HUGEINT * s_tax)::DOUBLE
    / (sqrt((n::HUGEINT * m_qq - s_qty::HUGEINT * s_qty)::DOUBLE)
     * sqrt((n::HUGEINT * m_tt - s_tax::HUGEINT * s_tax)::DOUBLE)))
    * 1000000 + 0.5) AS BIGINT) FROM m
ORDER BY var_a, var_b
""")
def q_lineitem_corr_matrix(sf_dir: str) -> pa.Table:
    """Pairwise correlation MATRIX over four lineitem measures from
    ONE pass of integer moment partials (n, four sums, ten second
    moments) — the table-profiling generalization of corr_stats; the
    closing Pearson arithmetic per pair is the identical
    HUGEINT-difference → fp64 → one-division expression tree the
    oracle evaluates.  Grids are per-column (price in whole units,
    the rest x100) so every second-moment SUM stays inside int64 at
    fixture scales; the 100-TB upgrade is a decimal128 merge, same
    partials."""
    import math


    from ..functions.boilerplate import partial_aggregate
    line = read_ds(sf_dir, "lineitem",
                   columns=["l_quantity", "l_extendedprice", "l_discount",
                            "l_tax"])
    names = ["disc", "price", "qty", "tax"]

    def prep(t: pa.Table) -> pa.Table:
        v = {"qty": fixed_point(t["l_quantity"], 100.0),
             "price": fixed_point(t["l_extendedprice"], 1.0),
             "disc": fixed_point(t["l_discount"], 100.0),
             "tax": fixed_point(t["l_tax"], 100.0)}
        cols = {"one": pa.array(np.ones(len(v["qty"]), np.int64))}
        for a in names:
            cols[f"s_{a}"] = pa.array(v[a], pa.int64())
        for i, a in enumerate(names):
            for b in names[i:]:
                cols[f"m_{a}_{b}"] = pa.array(v[a] * v[b], pa.int64())
        return pa.table(cols)

    aggs = [("one", "count")]
    aggs += [(f"s_{a}", "sum") for a in names]
    aggs += [(f"m_{a}_{b}", "sum")
             for i, a in enumerate(names) for b in names[i:]]

    # partial_aggregate needs >= 1 key; a constant group column makes
    # the whole table one group (partials are still one row per batch)
    def prep_keyed(t: pa.Table) -> pa.Table:
        t = prep(t)
        return t.append_column("g", pa.array(["x"] * t.num_rows))

    out = partial_aggregate(line, ["g"], aggs, prepare=prep_keyed)
    schema = pa.schema([("var_a", pa.string()), ("var_b", pa.string()),
                        ("n", pa.int64()), ("corr_x1e6", pa.int64())])
    if out is None:
        return schema.empty_table()
    n = int(out["one_count"][0].as_py())
    s = {a: int(out[f"s_{a}_sum"][0].as_py()) for a in names}
    m = {(a, b): int(out[f"m_{a}_{b}_sum"][0].as_py())
         for i, a in enumerate(names) for b in names[i:]}
    rows = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            num = float(n * m[(a, b)] - s[a] * s[b])
            den = (math.sqrt(float(n * m[(a, a)] - s[a] * s[a]))
                   * math.sqrt(float(n * m[(b, b)] - s[b] * s[b])))
            c = num / den if den else 0.0
            rows.append({"var_a": a, "var_b": b, "n": n,
                         "corr_x1e6": int(fixed_point(c, 1e6))})
    rows.sort(key=lambda r: (r["var_a"], r["var_b"]))
    return pa.Table.from_pylist(rows, schema=schema)


@query("""
WITH v AS (
  SELECT event_type,
         CAST(floor(value * 10000 + 0.5) AS BIGINT) AS vq
  FROM events WHERE value IS NOT NULL
)
SELECT event_type, pct, value_x1e4 FROM (
  SELECT event_type, 10::BIGINT AS pct,
         quantile_disc(vq, 0.10) AS value_x1e4 FROM v GROUP BY 1
  UNION ALL SELECT event_type, 20::BIGINT, quantile_disc(vq, 0.20)
  FROM v GROUP BY 1
  UNION ALL SELECT event_type, 30::BIGINT, quantile_disc(vq, 0.30)
  FROM v GROUP BY 1
  UNION ALL SELECT event_type, 40::BIGINT, quantile_disc(vq, 0.40)
  FROM v GROUP BY 1
  UNION ALL SELECT event_type, 50::BIGINT, quantile_disc(vq, 0.50)
  FROM v GROUP BY 1
  UNION ALL SELECT event_type, 60::BIGINT, quantile_disc(vq, 0.60)
  FROM v GROUP BY 1
  UNION ALL SELECT event_type, 70::BIGINT, quantile_disc(vq, 0.70)
  FROM v GROUP BY 1
  UNION ALL SELECT event_type, 80::BIGINT, quantile_disc(vq, 0.80)
  FROM v GROUP BY 1
  UNION ALL SELECT event_type, 90::BIGINT, quantile_disc(vq, 0.90)
  FROM v GROUP BY 1
  UNION ALL SELECT event_type, 100::BIGINT, quantile_disc(vq, 1.00)
  FROM v GROUP BY 1
)
ORDER BY event_type, pct
""")
def q_equi_depth_bins(sf_dir: str) -> pa.Table:
    """Equi-depth histogram bin edges (decile upper bounds) per event
    type — the bucketing a histogram-based optimizer or equi-depth
    partitioner needs; exactly the grid-quantile substrate evaluated
    at 10..100 (grouped_quantiles, one pass, no shuffle)."""
    from ..functions.quantiles import grouped_quantiles
    ds = read_ds(sf_dir, "events", columns=["event_type", "value"])
    return grouped_quantiles(
        ds, key_col="event_type", val_col="value",
        pcts=tuple(range(10, 101, 10))).cast(pa.schema([
            ("event_type", pa.string()), ("pct", pa.int64()),
            ("value_x1e4", pa.int64())]))


@query("""
WITH d AS (
  SELECT CAST(substr(CAST(CAST(floor(o_totalprice * 100 + 0.5)
                               AS BIGINT) AS VARCHAR), 1, 1)
              AS BIGINT) AS digit
  FROM orders
), g AS (
  SELECT digit, count(*)::BIGINT AS n FROM d GROUP BY 1
), t AS (SELECT sum(n)::HUGEINT AS total FROM g)
SELECT digit, n, (n::HUGEINT * 1000000 // total)::BIGINT
         AS share_x1e6
FROM g CROSS JOIN t ORDER BY digit
""")
def q_benford_prices(sf_dir: str) -> pa.Table:
    """Benford leading-digit audit of order totals — the classic
    fabricated-data screen: the distribution of the first digit of
    the integer cents, per-batch digit-count partials (string slice
    of the decimal rendering — exact, no float log10 edge cases),
    shares on the x1e6 grid."""
    from ..functions.boilerplate import partial_aggregate
    ds = read_ds(sf_dir, "orders", columns=["o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        cents = fixed_point(t["o_totalprice"], 100.0)
        s = pc.cast(pa.array(cents, pa.int64()), pa.string())
        digit = pc.cast(pc.utf8_slice_codeunits(s, 0, 1), pa.int64())
        return pa.table({"digit": digit})

    out = partial_aggregate(ds, ["digit"], [("digit", "count")],
                            prepare=prep)
    schema = pa.schema([("digit", pa.int64()), ("n", pa.int64()),
                        ("share_x1e6", pa.int64())])
    if out is None:
        return schema.empty_table()
    d = out["digit"].to_numpy(zero_copy_only=False)
    n = out["digit_count"].to_numpy(zero_copy_only=False)
    total = int(n.sum())
    order = np.argsort(d, kind="stable")
    return pa.table({
        "digit": pa.array(d[order], pa.int64()),
        "n": pa.array(n[order], pa.int64()),
        "share_x1e6": pa.array(
            [int(x) * 1_000_000 // total for x in n[order]],
            pa.int64())}).cast(schema)


@query("""
WITH u AS (
  SELECT user_id, count(*)::BIGINT AS c FROM events GROUP BY 1
), r AS (
  SELECT c, row_number() OVER (ORDER BY c DESC, user_id) AS rk FROM u
), t AS (SELECT sum(c)::HUGEINT AS total FROM u)
SELECT k, events,
       (events::HUGEINT * 1000000 // total)::BIGINT AS share_x1e6
FROM (
  SELECT 1::BIGINT AS k, sum(c)::BIGINT AS events FROM r WHERE rk <= 1
  UNION ALL
  SELECT 10::BIGINT, sum(c)::BIGINT FROM r WHERE rk <= 10
  UNION ALL
  SELECT 50::BIGINT, sum(c)::BIGINT FROM r WHERE rk <= 50
) CROSS JOIN t ORDER BY k
""")
def q_pareto_users(sf_dir: str) -> pa.Table:
    """Concentration report: what share of all events do the top-k
    most active users generate (k = 1, 10, 50)?  Per-user count
    partials (user dimension bounded), one driver sort — shares on
    the x1e6 grid with the deterministic (count desc, user asc)
    ordering the oracle's window rank uses."""
    from ..functions.boilerplate import partial_aggregate
    ds = read_ds(sf_dir, "events", columns=["user_id"])
    out = partial_aggregate(ds, ["user_id"], [("user_id", "count")])
    schema = pa.schema([("k", pa.int64()), ("events", pa.int64()),
                        ("share_x1e6", pa.int64())])
    if out is None:
        return schema.empty_table()
    u = out["user_id"].to_numpy(zero_copy_only=False)
    c = out["user_id_count"].to_numpy(zero_copy_only=False)
    order = np.lexsort((u, -c))
    cs = c[order]
    total = int(cs.sum())
    rows = []
    for k in (1, 10, 50):
        top = int(cs[:k].sum())
        rows.append({"k": k, "events": top,
                     "share_x1e6": top * 1_000_000 // total})
    return pa.Table.from_pylist(rows, schema=schema)


@query("""
WITH c AS (
  SELECT o_custkey, max(epoch_us(o_orderdate)) AS last_us,
         count(*)::BIGINT AS cnt,
         sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))::BIGINT
           AS cents
  FROM orders GROUP BY 1
), b AS (
  SELECT ntile(5) OVER (ORDER BY last_us DESC, o_custkey) AS r,
         ntile(5) OVER (ORDER BY cnt DESC, o_custkey) AS f,
         ntile(5) OVER (ORDER BY cents DESC, o_custkey) AS m
  FROM c
)
SELECT r::BIGINT AS r, f::BIGINT AS f, m::BIGINT AS m,
       count(*)::BIGINT AS n_customers
FROM b GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
""")
def q_orders_rfm(sf_dir: str) -> pa.Table:
    """RFM customer segmentation: per-customer (last order date,
    order count, total cents) from ONE pass of mergeable partials
    (max/count/sum), then NTILE(5) buckets per dimension with SQL's
    exact remainder rule ``((rank−1)·5) // n + 1`` over the
    deterministic (value desc, custkey asc) order — output is the
    (r, f, m) segment histogram.  The per-customer table is customer-
    dimension sized; at a customer dimension too big for the driver
    the bucket ranks come from the same grid-quantile substrate."""
    from ..functions.boilerplate import partial_aggregate
    ds = read_ds(sf_dir, "orders",
                 columns=["o_custkey", "o_orderdate", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        cents = fixed_point(t["o_totalprice"], 100.0)
        return pa.table({
            "o_custkey": t["o_custkey"],
            "last": t["o_orderdate"].cast(pa.int64()),
            "cnt": pa.array(np.ones(t.num_rows, np.int64)),
            "cents": pa.array(cents, pa.int64())})

    out = partial_aggregate(ds, ["o_custkey"],
                            [("last", "max"), ("cnt", "sum"),
                             ("cents", "sum")], prepare=prep)
    schema = pa.schema([("r", pa.int64()), ("f", pa.int64()),
                        ("m", pa.int64()), ("n_customers", pa.int64())])
    if out is None:
        return schema.empty_table()
    out = pa.table({"o_custkey": out["o_custkey"],
                    "last_max": out["last_max"],
                    "cnt_sum": out["cnt_sum"],
                    "cents_sum": out["cents_sum"]})
    ck = out["o_custkey"].to_numpy(zero_copy_only=False)
    n = len(ck)

    def ntile5(vals: np.ndarray) -> np.ndarray:
        order = np.lexsort((ck, -vals))
        i = np.empty(n, np.int64)
        i[order] = np.arange(n)
        # SQL NTILE remainder rule: first n%5 buckets get n//5 + 1
        q, r = n // 5, n % 5
        big = r * (q + 1)
        return np.where(i < big, i // max(q + 1, 1),
                        r + (i - big) // max(q, 1)) + 1

    r = ntile5(out["last_max"].to_numpy(zero_copy_only=False)
               .astype(np.int64))
    f = ntile5(out["cnt_sum"].to_numpy(zero_copy_only=False)
               .astype(np.int64))
    m = ntile5(out["cents_sum"].to_numpy(zero_copy_only=False)
               .astype(np.int64))
    key = r * 100 + f * 10 + m
    uk, cnt = np.unique(key, return_counts=True)
    return pa.table({
        "r": pa.array(uk // 100, pa.int64()),
        "f": pa.array(uk // 10 % 10, pa.int64()),
        "m": pa.array(uk % 10, pa.int64()),
        "n_customers": pa.array(cnt.astype(np.int64), pa.int64()),
    }).cast(schema)


@query("""
WITH q AS (
  SELECT s_nationkey,
         CAST(floor(s_acctbal * 10000 + 0.5) AS BIGINT) AS v
  FROM supplier WHERE s_acctbal IS NOT NULL
), m AS (
  SELECT s_nationkey, v,
         row_number() OVER (PARTITION BY s_nationkey
                            ORDER BY v) AS rn,
         count(*) OVER (PARTITION BY s_nationkey) AS n
  FROM q
), qs AS (
  SELECT s_nationkey, n,
         min(CASE WHEN rn = (n * 25 + 99) // 100 THEN v END) AS q1,
         min(CASE WHEN rn = (n * 75 + 99) // 100 THEN v END) AS q3
  FROM m GROUP BY 1, 2
)
SELECT q.s_nationkey::BIGINT AS nation_key, qs.n::BIGINT AS n,
       qs.q1 AS q1_x1e4, qs.q3 AS q3_x1e4,
       count(*) FILTER (2 * q.v < 5 * qs.q1 - 3 * qs.q3
                        OR 2 * q.v > 5 * qs.q3 - 3 * qs.q1)::BIGINT
         AS n_outliers
FROM q JOIN qs USING (s_nationkey)
GROUP BY 1, 2, 3, 4 ORDER BY 1
""")
def q_nation_balance_iqr(sf_dir: str) -> pa.Table:
    """Per-nation supplier account-balance robust stats (Tukey 1.5·IQR
    outlier counts) — the grid-IQR substrate over a second table and a
    NEGATIVE-valued measure (acctbal can be < 0; the x1e4 grid floors
    negatives identically on both sides)."""
    from ..functions.quantiles import grouped_iqr_outliers
    ds = read_ds(sf_dir, "supplier", columns=["s_nationkey", "s_acctbal"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"k": pc.cast(t["s_nationkey"], pa.string()),
                         "v": t["s_acctbal"]})

    out = grouped_iqr_outliers(
        ds.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True), key_col="k", val_col="v")
    schema = pa.schema([("nation_key", pa.int64()), ("n", pa.int64()),
                        ("q1_x1e4", pa.int64()), ("q3_x1e4", pa.int64()),
                        ("n_outliers", pa.int64())])
    if out.num_rows == 0:
        return schema.empty_table()
    rows = [{"nation_key": int(r["k"]), "n": r["n"],
             "q1_x1e4": r["q1_x1e4"], "q3_x1e4": r["q3_x1e4"],
             "n_outliers": r["n_outliers"]} for r in out.to_pylist()]
    rows.sort(key=lambda r: r["nation_key"])
    return pa.Table.from_pylist(rows, schema=schema)
