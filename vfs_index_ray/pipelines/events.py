"""Queries over the events table: event-time windows, sessions,
per-user sequences, pivots and rollups."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import collect_arrow
from .common import _collect, _sdiv, fixed_point, query, read_ds

_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


@query("""
SELECT event_type, date_trunc('hour', ts) AS window_start,
       count(*)::BIGINT AS n,
       CAST(floor(sum(value)*100 + 0.5) AS BIGINT) AS sum_value_x100
FROM events GROUP BY event_type, date_trunc('hour', ts)
""")
def q_events_hourly(sf_dir: str) -> pa.Table:
    """Tumbling hourly windows: per-batch partial hash aggregation
    (output space = types × hours, tiny), no sort shuffle — the
    groupby().aggregate() equivalent moved every row through the sort
    exchange (21.1 s vs ~2 s at 10M events, 32 cpus)."""
    from ..functions.windows import tumbling_aggregate

    ds = read_ds(sf_dir, "events", columns=["event_type", "ts", "value"])
    tbl = tumbling_aggregate(ds, window_minutes=60)
    sv = fixed_point(tbl["sum_value"], 100.0)
    return pa.table({
        "event_type": tbl["event_type"].cast(pa.string()),
        "window_start": tbl["window_us"].cast(pa.timestamp("us")),
        "n": tbl["n"],
        "sum_value_x100": pa.array(sv, pa.int64()),
    })


@query("""
WITH e AS (
  SELECT event_type, epoch_us(ts) AS us,
         CAST(floor(value * 10000 + 0.5) AS BIGINT) AS v
  FROM events
), w AS (
  SELECT event_type,
         (us // 1800000000 - k) * 1800000000 AS window_us, v
  FROM e, (SELECT unnest(range(0, 4)) AS k)
)
SELECT event_type, make_timestamp(window_us) AS window_start,
       count(*)::BIGINT AS n, sum(v)::BIGINT AS sum_x1e4
FROM w GROUP BY 1, 2 ORDER BY 1, 2
""")
def q_events_hopping(sf_dir: str) -> pa.Table:
    """Hopping (sliding) windows: 120-min windows advancing every
    30 min — each event lands in exactly 4 overlapping windows.  The
    replication happens inside the per-batch partial (shifted copies
    → one Arrow hash agg), so batches still ship one row per
    (type, window) seen; values fold integer-exactly on the x1e4
    grid."""
    from ..functions.windows import hopping_aggregate

    ds = read_ds(sf_dir, "events", columns=["event_type", "ts", "value"])
    tbl = hopping_aggregate(ds, window_minutes=120, hop_minutes=30)
    out = pa.table({
        "event_type": tbl["event_type"].cast(pa.string()),
        "window_start": tbl["window_us"].cast(pa.timestamp("us")),
        "n": tbl["n"],
        "sum_x1e4": tbl["sum_x1e4"],
    })
    return out.take(pc.sort_indices(out, sort_keys=[
        ("event_type", "ascending"), ("window_start", "ascending")]))


@query("""
SELECT event_type,
       make_timestamp((epoch_us(ts) // 3600000000) * 3600000000)
         AS window_start,
       count(*)::BIGINT AS n,
       sum(CAST(floor(value * 10000 + 0.5) AS BIGINT))::BIGINT
         AS sum_x1e4
FROM events GROUP BY 1, 2 ORDER BY 1, 2
""")
def q_events_agg_store(sf_dir: str) -> pa.Table:
    """Incremental windowed-aggregate STORE (aggstore.py): absorb the
    event file into a fresh store (tmp+rename partial, sidecar-last
    commit — the index build's wave protocol applied to aggregates),
    absorb it AGAIN to prove exactly-once (the second absorb must be
    a no-op), then answer from committed partials only.  x1e4-exact
    sums; byte-identical regardless of absorb order/granularity
    (tests/test_aggstore.py)."""
    import tempfile

    from ..aggstore import AggStore
    root = tempfile.mkdtemp(prefix="aggstore_")
    try:
        store = AggStore(root, window_minutes=60)
        src = os.path.join(sf_dir, "events.parquet")
        store.absorb([src])
        st = store.absorb([src])  # exactly-once: committed => no-op
        assert st["absorbed"] == 0 and st["skipped"] == 1
        t = store.query()
    finally:
        import shutil
        shutil.rmtree(root, ignore_errors=True)
    return pa.table({
        "event_type": t["event_type"],
        "window_start": t["window_us"].cast(pa.timestamp("us")),
        "n": t["n"],
        "sum_x1e4": t["sum_x1e4"],
    })


@query("""
WITH a AS (
  SELECT event_type,
         (epoch_us(ts) // 900000000) * 900000000 AS w,
         CAST(floor(value * 10000 + 0.5) AS BIGINT) AS v
  FROM events
), g AS (
  SELECT event_type, w, count(*)::BIGINT AS n, sum(v)::BIGINT AS s
  FROM a GROUP BY 1, 2
), r AS (
  SELECT event_type, min(w) AS mn, max(w) AS mx FROM g GROUP BY 1
), grid AS (
  SELECT event_type, unnest(range(mn, mx + 1, 900000000)) AS w FROM r
)
SELECT grid.event_type, make_timestamp(grid.w) AS window_start,
       coalesce(n, 0)::BIGINT AS n, coalesce(s, 0)::BIGINT AS sum_x1e4
FROM grid LEFT JOIN g ON grid.event_type = g.event_type
                     AND grid.w = g.w
ORDER BY 1, 2
""")
def q_events_resample(sf_dir: str) -> pa.Table:
    """Gap-filled 15-min resample per event type: shuffle-free window
    partials, then zero rows for every missing bucket between each
    type's first and last observation (grid fill on the tiny merged
    result, one np.arange per type)."""
    from ..functions.windows import resample_aggregate

    ds = read_ds(sf_dir, "events", columns=["event_type", "ts", "value"])
    tbl = resample_aggregate(ds, freq_minutes=15)
    return pa.table({
        "event_type": tbl["event_type"],
        "window_start": tbl["window_us"].cast(pa.timestamp("us")),
        "n": tbl["n"],
        "sum_x1e4": tbl["sum_x1e4"],
    })


@query("""
WITH e AS (
  SELECT user_id, ts, event_id,
    CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id)
              > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_sess
  FROM events
), s AS (
  SELECT *, sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) AS session_id
  FROM e
)
SELECT user_id, session_id::BIGINT AS session_id,
       min(ts) AS session_start, max(ts) AS session_end,
       count(*)::BIGINT AS n_events
FROM s GROUP BY user_id, session_id
""")
def q_events_sessions(sf_dir: str) -> pa.Table:
    """Gap-based session windows (30 min) per user (§2.10)."""
    from ..functions.windows import sessionize_table
    ds = read_ds(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    return sessionize_table(ds, gap_minutes=30)


@query("""
SELECT user_id, event_id, ts FROM events
QUALIFY row_number() OVER (PARTITION BY user_id
                           ORDER BY ts DESC, event_id DESC) = 1
""")
def q_events_latest(sf_dir: str) -> pa.Table:
    """Latest record per key (the re-crawl keep-newest-snapshot dedup
    shape): hash-partition groupby + one vectorized kernel; ties on ts
    break to the larger event_id."""
    from ..functions.windows import latest_per_key
    ds = read_ds(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    rows = latest_per_key(ds).take_all()
    tbl = pa.Table.from_pylist(rows)
    return tbl.select(["user_id", "event_id", "ts"]).cast(pa.schema([
        ("user_id", pa.int64()), ("event_id", pa.int64()),
        ("ts", pa.timestamp("us"))]))


@query("""
SELECT event_type, count(*)::BIGINT AS n,
       sum(CAST(json_extract_string(props, '$.k') AS BIGINT))::BIGINT
         AS k_sum
FROM events GROUP BY event_type
""")
def q_events_props(sf_dir: str) -> pa.Table:
    """JSON property extraction (vectorized RE2) + per-type aggregate."""
    from ..functions.boilerplate import partial_aggregate
    from ..functions.windows import JsonExtractInt
    ds = read_ds(sf_dir, "events", columns=["event_type", "props"])
    tbl = partial_aggregate(
        ds, ["event_type"], [("event_type", "count"), ("k", "sum")],
        prepare=JsonExtractInt("k"))
    return pa.table({
        "event_type": tbl["event_type"].cast(pa.string()),
        "n": tbl["event_type_count"].cast(pa.int64()),
        "k_sum": tbl["k_sum"].cast(pa.int64()),
    })


# as-of join: last_value IGNORE NULLS over ROWS ... 1 PRECEDING is
# exactly "latest strictly-prior right-type row in (ts, id) order";
# -1 sentinels keep the match columns pure BIGINT for the hash
@query("""
WITH ev AS (
  SELECT event_id, user_id, ts, event_type FROM events
  WHERE event_type IN ('click', 'purchase')
), w AS (
  SELECT event_id, user_id, ts, event_type,
         last_value(CASE WHEN event_type = 'click' THEN event_id END
                    IGNORE NULLS)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS m_id,
         last_value(CASE WHEN event_type = 'click' THEN ts END
                    IGNORE NULLS)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS m_ts
  FROM ev
)
SELECT event_id, user_id,
       coalesce(m_id, -1)::BIGINT AS match_event_id,
       (CASE WHEN m_id IS NULL THEN -1
             ELSE epoch_us(ts) - epoch_us(m_ts) END)::BIGINT AS lag_us
FROM w WHERE event_type = 'purchase' ORDER BY event_id
""")
def q_events_asof(sf_dir: str) -> pa.Table:
    """As-of join: each purchase matched to the same user's most recent
    strictly-prior click ((ts, event_id) order; -1 when none). The
    sessionize shuffle shape + one vectorized running-max kernel per
    partition."""
    from ..functions.windows import asof_prior
    ds = read_ds(sf_dir, "events",
                 columns=["event_id", "ts", "user_id", "event_type"])
    out = asof_prior(ds, left_type="purchase", right_type="click")
    tbl = _collect(out)
    return tbl.select(["event_id", "user_id", "match_event_id",
                       "lag_us"]).cast(pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("match_event_id", pa.int64()), ("lag_us", pa.int64())]))


# range-join windowed aggregate: inequality join bounds mirror the
# kernel's half-open (ts - 1h, ts) window with (ts, id) order
@query("""
SELECT p.event_id, p.user_id, count(c.event_id)::BIGINT AS n_window
FROM (SELECT * FROM events WHERE event_type = 'purchase') p
LEFT JOIN (SELECT * FROM events WHERE event_type = 'click') c
  ON c.user_id = p.user_id
 AND c.ts > p.ts - INTERVAL 60 MINUTE
 AND (c.ts < p.ts OR (c.ts = p.ts AND c.event_id < p.event_id))
GROUP BY p.event_id, p.user_id ORDER BY p.event_id
""")
def q_events_window_count(sf_dir: str) -> pa.Table:
    """Range-join windowed aggregate: clicks in the hour before each
    purchase (same user, strictly prior in (ts, event_id) order)."""
    from ..functions.windows import window_count_prior
    ds = read_ds(sf_dir, "events",
                 columns=["event_id", "ts", "user_id", "event_type"])
    out = window_count_prior(ds, left_type="purchase",
                             right_type="click", window_minutes=60)
    tbl = _collect(out)
    return tbl.select(["event_id", "user_id", "n_window"]).cast(
        pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                   ("n_window", pa.int64())]))


@query("""
SELECT event_id, user_id,
       SUM(CAST(floor(value * 10000 + 0.5) AS BIGINT))
         OVER (PARTITION BY user_id
               ORDER BY ts, event_id)::BIGINT AS running_x1e4
FROM events ORDER BY event_id
""")
def q_events_running(sf_dir: str) -> pa.Table:
    """Per-user running value total (the SQL SUM OVER window): one
    hash partition by user, one vectorized cumsum-minus-run-base
    kernel per partition (functions/windows.py running_total);
    per-row x1e4 quantization makes the cumulative sums exact."""
    from ..functions.windows import running_total
    ds = read_ds(sf_dir, "events",
                 columns=["event_id", "ts", "user_id", "value"])
    out = running_total(ds)
    tbl = _collect(out)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[
        ("event_id", "ascending")]))
    return tbl.select(["event_id", "user_id", "running_x1e4"]).cast(
        pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                   ("running_x1e4", pa.int64())]))


@query("""
WITH q AS (
  SELECT event_id, user_id,
         CAST(floor(value * 10000 + 0.5) AS BIGINT) AS value_x1e4
  FROM events
), r AS (
  SELECT user_id, event_id, value_x1e4,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY value_x1e4 DESC, event_id)::BIGINT
           AS rank
  FROM q
)
SELECT user_id, rank, event_id, value_x1e4 FROM r
WHERE rank <= 3 ORDER BY user_id, rank
""")
def q_events_top_per_user(sf_dir: str) -> pa.Table:
    """Per-key top-n (group-top-N): each user's 3 highest-value events
    — one hash partition + a vectorized sort/run-rank kernel per
    partition (functions/windows.py top_n_per_key).  Values quantize
    x1e4 per row so the rank order and output are hash-exact."""
    from ..functions.windows import top_n_per_key
    ds = read_ds(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def quantize(t: pa.Table) -> pa.Table:
        v = fixed_point(t["value"])
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"],
                         "value_x1e4": pa.array(v, pa.int64())})

    out = top_n_per_key(ds.map_batches(quantize, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        val_col="value_x1e4", n=3)
    tbl = _collect(out)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[
        ("user_id", "ascending"), ("rank", "ascending")]))
    return tbl.select(["user_id", "rank", "event_id",
                       "value_x1e4"]).cast(pa.schema([
        ("user_id", pa.int64()), ("rank", pa.int64()),
        ("event_id", pa.int64()), ("value_x1e4", pa.int64())]))


@query("""
SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_distinct
FROM events GROUP BY event_type ORDER BY event_type
""")
def q_events_distinct(sf_dir: str) -> pa.Table:
    """Exact distinct aggregation (count(DISTINCT user) per event
    type): per-batch distinct pairs + pair-hash disk spill + per-part
    dedup/count (functions/boilerplate.py distinct_aggregate) — the
    aggregate shape that is NOT sum-mergeable over raw rows."""
    from ..functions.boilerplate import distinct_aggregate
    ds = read_ds(sf_dir, "events", columns=["event_type", "user_id"])
    t = distinct_aggregate(ds, ["event_type"], "user_id")
    t = t.take(pc.sort_indices(t, sort_keys=[("event_type",
                                              "ascending")]))
    return t.cast(pa.schema([("event_type", pa.string()),
                             ("n_distinct", pa.int64())]))


@query("""
SELECT event_id, user_id,
       COALESCE(date_diff('microsecond',
                          lag(ts) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id),
                          ts), -1)::BIGINT AS gap_us
FROM events ORDER BY event_id
""")
def q_events_gaps(sf_dir: str) -> pa.Table:
    """Per-user inter-event gap (the lag()/lead() window family):
    gap_us = ts - lag(ts) OVER (PARTITION BY user ORDER BY ts, id),
    -1 sentinel for each user's first event (the oracle COALESCEs its
    NULL lag to -1).  One hash partition by user + one vectorized
    shift-and-diff kernel per partition (functions/windows.py
    lag_gaps)."""
    from ..functions.windows import lag_gaps
    ds = read_ds(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    tbl = _collect(lag_gaps(ds))
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[
        ("event_id", "ascending")]))
    return tbl.select(["event_id", "user_id", "gap_us"]).cast(
        pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                   ("gap_us", pa.int64())]))


@query("""
SELECT event_id, user_id,
       SUM(CAST(floor(value * 10000 + 0.5) AS BIGINT))
         OVER (PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)::BIGINT
         AS moving_x1e4
FROM events ORDER BY event_id
""")
def q_events_moving(sf_dir: str) -> pa.Table:
    """Per-user moving-window sum (SQL ROWS BETWEEN 2 PRECEDING AND
    CURRENT ROW frame): cumsum-difference kernel with the frame start
    clamped to each user's run start (functions/windows.py
    moving_sum); per-row x1e4 quantization keeps the frame sums
    integer-exact."""
    from ..functions.windows import moving_sum
    ds = read_ds(sf_dir, "events",
                 columns=["event_id", "ts", "user_id", "value"])
    tbl = _collect(moving_sum(ds, frame=3))
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[
        ("event_id", "ascending")]))
    return tbl.select(["event_id", "user_id", "moving_x1e4"]).cast(
        pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                   ("moving_x1e4", pa.int64())]))


@query("""
SELECT user_id,
       string_agg(event_type, ',' ORDER BY ts, event_id) AS seq,
       count(*)::BIGINT AS n_events
FROM events GROUP BY user_id ORDER BY user_id
""")
def q_user_event_seq(sf_dir: str) -> pa.Table:
    """Per-user ordered event-type sequence (SQL string_agg(type, ','
    ORDER BY ts, id) — the sequence-assembly shape behind session
    mining and doc reassembly): one hash partition by user, one
    ListArray + binary_join kernel per partition (functions/windows.py
    string_agg_per_key) — no per-key Python loop anywhere."""
    from ..functions.windows import string_agg_per_key
    ds = read_ds(sf_dir, "events",
                 columns=["event_id", "ts", "user_id", "event_type"])
    tbl = _collect(string_agg_per_key(ds))
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[
        ("user_id", "ascending")]))
    return tbl.select(["user_id", "seq", "n_events"]).cast(
        pa.schema([("user_id", pa.int64()), ("seq", pa.string()),
                   ("n_events", pa.int64())]))


@query("""
WITH q AS (
  SELECT event_type,
         epoch_us(date_trunc('hour', ts))::BIGINT AS window_us,
         CAST(floor(value * 10000 + 0.5) AS BIGINT) AS v
  FROM events
)
SELECT COALESCE(event_type, 'ALL') AS event_type,
       COALESCE(window_us, -1)::BIGINT AS window_us,
       count(v)::BIGINT AS n, sum(v)::BIGINT AS sum_x1e4
FROM q GROUP BY ROLLUP(event_type, window_us)
ORDER BY 1, 2
""")
def q_events_rollup(sf_dir: str) -> pa.Table:
    """GROUP BY ROLLUP(event_type, hour) — all three grouping levels
    (type×hour, per-type totals, grand total) from ONE streaming pass:
    per-batch partials at the finest level, coarser levels re-aggregate
    the tiny finest table (functions/boilerplate.py rollup_aggregate).
    Sentinels 'ALL'/-1 stand in for ROLLUP's NULLs so the schema is
    level-invariant; the oracle COALESCEs to the same values.  Per-row
    x1e4 quantization makes every level's sums integer-exact."""
    from ..functions.boilerplate import rollup_aggregate
    ds = read_ds(sf_dir, "events", columns=["ts", "event_type", "value"])

    def prepare(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64())
        w = pc.multiply(pc.floor(pc.divide(us, 3_600_000_000)),
                        3_600_000_000).cast(pa.int64())
        v = fixed_point(t["value"])
        return pa.table({"event_type": t["event_type"],
                         "window_us": w,
                         "v": pa.array(v, pa.int64())})

    t = rollup_aggregate(ds, ["event_type", "window_us"],
                         [("v", "count"), ("v", "sum")],
                         prepare=prepare,
                         sentinels={"event_type": "ALL",
                                    "window_us": -1})
    t = pa.table({"event_type": t["event_type"],
                  "window_us": t["window_us"],
                  "n": t["v_count"].cast(pa.int64()),
                  "sum_x1e4": t["v_sum"].cast(pa.int64())})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("event_type", "ascending"), ("window_us", "ascending")]))


@query("""
SELECT user_id,
  sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)::BIGINT
    AS n_click,
  sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)::BIGINT
    AS n_error,
  sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)::BIGINT
    AS n_purchase,
  sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END)::BIGINT
    AS n_signup,
  sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END)::BIGINT
    AS n_view,
  count(*)::BIGINT AS n_total,
  sum(CAST(floor(value * 10000 + 0.5) AS BIGINT))::BIGINT AS value_x1e4
FROM events GROUP BY user_id ORDER BY user_id
""")
def q_events_pivot(sf_dir: str) -> pa.Table:
    """Pivot: per-user counts of every event type as COLUMNS (the SQL
    ``sum(CASE WHEN type=t THEN 1 END)`` conditional-aggregation
    shape).  The indicator columns are materialized per batch, so the
    whole pivot is one hash_aggregate over user_id — per-batch
    combiner, key-hash disk spill, per-part merge; no per-type passes
    and nothing row-wise."""
    from ..functions.boilerplate import hash_aggregate
    ds = read_ds(sf_dir, "events", columns=["user_id", "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        cols = {"user_id": t["user_id"]}
        et = t["event_type"]
        for ty in _EVENT_TYPES:
            cols[f"n_{ty}"] = pc.cast(pc.equal(et, ty), pa.int64())
        v = fixed_point(t["value"])
        cols["v"] = pa.array(v, pa.int64())
        return pa.table(cols)

    aggs = [(f"n_{ty}", "sum") for ty in _EVENT_TYPES] + \
        [("v", "count"), ("v", "sum")]
    out = hash_aggregate(ds, ["user_id"], aggs, prepare=prep)
    names = (["user_id"] + [f"n_{ty}" for ty in _EVENT_TYPES]
             + ["n_total", "value_x1e4"])
    schema = pa.schema([(n, pa.int64()) for n in names])
    if out is None:
        return schema.empty_table()
    t = _collect(out)
    t = t.take(pc.sort_indices(t, sort_keys=[("user_id", "ascending")]))
    return pa.table(dict(zip(names, [
        t["user_id"]] + [t[f"n_{ty}_sum"] for ty in _EVENT_TYPES]
        + [t["v_count"], t["v_sum"]]))).cast(schema)


@query("""
WITH q AS (
  SELECT event_type,
         epoch_us(date_trunc('hour', ts))::BIGINT AS window_us,
         CAST(floor(value * 10000 + 0.5) AS BIGINT) AS v
  FROM events
)
SELECT COALESCE(event_type, 'ALL') AS event_type,
       COALESCE(window_us, -1)::BIGINT AS window_us,
       count(v)::BIGINT AS n, sum(v)::BIGINT AS sum_x1e4
FROM q GROUP BY CUBE(event_type, window_us)
ORDER BY 1, 2
""")
def q_events_cube(sf_dir: str) -> pa.Table:
    """GROUP BY CUBE(event_type, hour) — all four grouping levels
    (type x hour, per-type, per-hour, grand total) from ONE streaming
    pass (functions/boilerplate.py cube_aggregate: margins re-aggregate
    the finest partial table, which is output-sized).  Sentinels
    'ALL'/-1 stand in for CUBE's NULLs; per-row x1e4 quantization makes
    every level's sums integer-exact."""
    from ..functions.boilerplate import cube_aggregate
    ds = read_ds(sf_dir, "events", columns=["ts", "event_type", "value"])

    def prepare(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64())
        w = pc.multiply(pc.floor(pc.divide(us, 3_600_000_000)),
                        3_600_000_000).cast(pa.int64())
        v = fixed_point(t["value"])
        return pa.table({"event_type": t["event_type"],
                         "window_us": w,
                         "v": pa.array(v, pa.int64())})

    t = cube_aggregate(ds, ["event_type", "window_us"],
                       [("v", "count"), ("v", "sum")],
                       prepare=prepare,
                       sentinels={"event_type": "ALL",
                                  "window_us": -1})
    t = pa.table({"event_type": t["event_type"],
                  "window_us": t["window_us"],
                  "n": t["v_count"].cast(pa.int64()),
                  "sum_x1e4": t["v_sum"].cast(pa.int64())})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("event_type", "ascending"), ("window_us", "ascending")]))


@query("""
WITH c AS (
  SELECT user_id, event_type, count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2
), r AS (
  SELECT user_id, event_type, n,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY n DESC, event_type ASC) AS rn
  FROM c
)
SELECT user_id, event_type AS mode_type, n
FROM r WHERE rn = 1 ORDER BY user_id
""")
def q_user_mode(sf_dir: str) -> pa.Table:
    """Mode per key (most frequent event_type per user, ties broken by
    type asc): hash_aggregate counts (user, type) pairs — per-batch
    combiner, pair-hash disk spill — then the group-top-1 runs as the
    same keyed-partition kernel as events_top_per_user (sort +
    run-rank, no per-key loop).  Both stages are key-partitioned, so
    nothing user-sized ever sits on the driver."""
    from ..functions.boilerplate import hash_aggregate
    from ..functions.windows import top_n_per_key
    ds = read_ds(sf_dir, "events", columns=["user_id", "event_type"])
    agg = hash_aggregate(ds, ["user_id", "event_type"],
                         [("event_type", "count")])
    schema = pa.schema([("user_id", pa.int64()),
                        ("mode_type", pa.string()),
                        ("n", pa.int64())])
    if agg is None:
        return schema.empty_table()
    mode = top_n_per_key(agg, key_col="user_id",
                         val_col="event_type_count",
                         id_col="event_type", n=1)
    t = _collect(mode)
    t = t.take(pc.sort_indices(t, sort_keys=[("user_id", "ascending")]))
    return pa.table({"user_id": t["user_id"],
                     "mode_type": t["event_type"],
                     "n": t["event_type_count"]}).cast(schema)


@query("""
WITH u AS (
  SELECT user_id,
         min(CASE WHEN event_type = 'view' THEN ts END) AS v,
         max(CASE WHEN event_type = 'purchase' THEN ts END) AS p
  FROM events GROUP BY user_id
)
SELECT count(*)::BIGINT AS n_users,
       count(v)::BIGINT AS n_viewers,
       count(p)::BIGINT AS n_purchasers,
       sum(CASE WHEN v < p THEN 1 ELSE 0 END)::BIGINT AS n_converted
FROM u
""")
def q_funnel(sf_dir: str) -> pa.Table:
    """Conversion funnel (view -> purchase): per-user min view-ts and
    max purchase-ts via one hash_aggregate (conditional columns are
    nulled per batch, Arrow min/max skip nulls across the merge), then
    per-part converted/viewer/purchaser counts fold to ONE row — the
    user dimension never leaves the partitioned stage."""
    from ..functions.boilerplate import hash_aggregate
    ds = read_ds(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        ts = t["ts"].cast(pa.int64())
        null64 = pa.scalar(None, pa.int64())
        return pa.table({
            "user_id": t["user_id"],
            "view_ts": pc.if_else(
                pc.equal(t["event_type"], "view"), ts, null64),
            "purch_ts": pc.if_else(
                pc.equal(t["event_type"], "purchase"), ts, null64)})

    agg = hash_aggregate(ds, ["user_id"],
                         [("view_ts", "min"), ("purch_ts", "max")],
                         prepare=prep)
    schema = pa.schema([("n_users", pa.int64()),
                        ("n_viewers", pa.int64()),
                        ("n_purchasers", pa.int64()),
                        ("n_converted", pa.int64())])
    if agg is None:
        return pa.table({n: pa.array([0], pa.int64())
                         for n in schema.names}).cast(schema)

    def counts(t: pa.Table) -> pa.Table:
        v, p = t["view_ts_min"], t["purch_ts_max"]
        conv = pc.fill_null(pc.less(v, p), False)
        return pa.table({
            "n_users": pa.array([t.num_rows], pa.int64()),
            "n_viewers": pa.array(
                [pc.sum(pc.cast(pc.is_valid(v), pa.int64())).as_py()
                 or 0], pa.int64()),
            "n_purchasers": pa.array(
                [pc.sum(pc.cast(pc.is_valid(p), pa.int64())).as_py()
                 or 0], pa.int64()),
            "n_converted": pa.array(
                [pc.sum(pc.cast(conv, pa.int64())).as_py() or 0],
                pa.int64())})

    t = _collect(agg.map_batches(counts, batch_format="pyarrow",
                                 zero_copy_batch=True))
    return pa.table({n: pa.array([pc.sum(t[n]).as_py() or 0],
                                 pa.int64())
                     for n in schema.names}).cast(schema)


@query("""
WITH r AS (
  SELECT event_id, user_id, value,
         rank() OVER w AS rnk,
         dense_rank() OVER (PARTITION BY user_id
                            ORDER BY value DESC) AS drnk,
         percent_rank() OVER w AS pr
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY value DESC, event_id ASC)
)
SELECT event_id, user_id,
       CAST(floor(value * 10000 + 0.5) AS BIGINT) AS value_x1e4,
       rnk::BIGINT AS rnk, drnk::BIGINT AS drnk,
       CAST(floor(pr * 1000000 + 0.5) AS BIGINT) AS pct_rank_x1e6
FROM r ORDER BY user_id, rnk
""")
def q_events_rank(sf_dir: str) -> pa.Table:
    """SQL window trio rank()/dense_rank()/percent_rank() OVER
    (PARTITION BY user ORDER BY value DESC, event_id) for EVERY event:
    keyed-partition sort + run-rank kernel (functions/windows.py
    rank_per_key) — output is input-sized and stays partitioned until
    the gate collects it.  percent_rank is the same exact-integer
    division both engines perform, quantized x1e6."""
    from ..functions.windows import rank_per_key
    ds = read_ds(sf_dir, "events", columns=["event_id", "user_id", "value"])
    out = rank_per_key(ds, key_col="user_id", val_col="value",
                       id_col="event_id")
    t = _collect(out)
    vx = fixed_point(t["value"])
    t = pa.table({"event_id": t["event_id"],
                  "user_id": t["user_id"],
                  "value_x1e4": pa.array(vx, pa.int64()),
                  "rnk": t["rnk"], "drnk": t["drnk"],
                  "pct_rank_x1e6": t["pct_rank_x1e6"]})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("user_id", "ascending"), ("rnk", "ascending")]))


@query("""
SELECT event_id, user_id,
       rank() OVER w::BIGINT AS rnk,
       ntile(4) OVER w::BIGINT AS ntile
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY value DESC, event_id)
ORDER BY user_id, rnk
""")
def q_events_ntile(sf_dir: str) -> pa.Table:
    """SQL NTILE(4) OVER (PARTITION BY user ORDER BY value DESC,
    event_id) for every event: the rank kernel already materializes
    (rank, run_len) per row, so the quartile assignment is two integer
    divisions — no extra sort, no per-key loop."""
    from ..functions.windows import rank_per_key
    ds = read_ds(sf_dir, "events", columns=["event_id", "user_id", "value"])
    out = rank_per_key(ds, key_col="user_id", val_col="value",
                       id_col="event_id", ntile=4)
    t = _collect(out)
    t = pa.table({"event_id": t["event_id"],
                  "user_id": t["user_id"],
                  "rnk": t["rnk"], "ntile": t["ntile"]})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("user_id", "ascending"), ("rnk", "ascending")]))


@query("""
WITH d AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day FROM events
), c AS (
  SELECT user_id, min(day) AS cohort FROM d GROUP BY user_id
)
SELECT c.cohort::BIGINT AS cohort_day,
       (d.day - c.cohort)::BIGINT AS day_offset,
       count(*)::BIGINT AS n_users
FROM d JOIN c USING (user_id)
GROUP BY 1, 2 ORDER BY 1, 2
""")
def q_events_retention(sf_dir: str) -> pa.Table:
    """Cohort retention triangle over events (functions/windows.py
    retention_cohorts): one user-hash partition pass, per-partition
    vectorized (user, day) dedupe + cohort/offset partials, tiny
    merge."""
    from ..functions.windows import retention_cohorts
    ds = read_ds(sf_dir, "events", columns=["user_id", "ts"])
    return retention_cohorts(ds)


# audience overlap: distinct (user, type) pairs self-joined on
# user with a < b value order — the engine's value-ranked
# dictionary codes reproduce VARCHAR binary collation
@query("""
WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       count(*)::BIGINT AS n_users
FROM d a JOIN d b
  ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY 1, 2 ORDER BY 1, 2
""")
def q_type_overlap(sf_dir: str) -> pa.Table:
    """Audience-overlap matrix: for every unordered pair of event
    types, how many distinct users performed BOTH.  One group-keyed
    hash partition (users disjoint per task) + a vectorized distinct →
    pair-expansion → run-length-count kernel per partition
    (functions/pairs.py cooccur_pairs); pair partials merge through
    the partial/hash aggregation substrate, never a sort exchange."""
    from ..functions.pairs import cooccur_pairs
    ds = read_ds(sf_dir, "events", columns=["user_id", "event_type"])
    tbl = _collect(cooccur_pairs(ds, group_col="user_id",
                                 item_col="event_type"))
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[
        ("item_a", "ascending"), ("item_b", "ascending")]))
    return pa.table({
        "type_a": tbl["item_a"], "type_b": tbl["item_b"],
        "n_users": tbl["n_groups"]}).cast(pa.schema([
            ("type_a", pa.string()), ("type_b", pa.string()),
            ("n_users", pa.int64())]))


@query("""
WITH p AS (
  SELECT user_id,
         sum(CASE WHEN event_type='click'    THEN 1 ELSE 0 END)::BIGINT AS n_click,
         sum(CASE WHEN event_type='error'    THEN 1 ELSE 0 END)::BIGINT AS n_error,
         sum(CASE WHEN event_type='purchase' THEN 1 ELSE 0 END)::BIGINT AS n_purchase,
         sum(CASE WHEN event_type='signup'   THEN 1 ELSE 0 END)::BIGINT AS n_signup,
         sum(CASE WHEN event_type='view'     THEN 1 ELSE 0 END)::BIGINT AS n_view
  FROM events GROUP BY user_id
), m AS (
  SELECT user_id, 'n_click' AS name, n_click AS value FROM p
  UNION ALL SELECT user_id, 'n_error', n_error FROM p
  UNION ALL SELECT user_id, 'n_purchase', n_purchase FROM p
  UNION ALL SELECT user_id, 'n_signup', n_signup FROM p
  UNION ALL SELECT user_id, 'n_view', n_view FROM p
)
SELECT user_id, name, value FROM m WHERE user_id % 97 = 0
ORDER BY user_id, name
""")
def q_events_unpivot(sf_dir: str) -> pa.Table:
    """Unpivot (melt): the per-user pivot's count columns back into
    (user_id, name, value) rows via functions/reshape.py — a purely
    per-batch reshape with no shuffle on top of the distributed
    hash_aggregate.  Sampled to every 97th user to keep the gate
    output bounded while still crossing the agg + melt path."""
    from ..functions.boilerplate import hash_aggregate
    from ..functions.reshape import unpivot
    ds = read_ds(sf_dir, "events", columns=["user_id", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        cols = {"user_id": t["user_id"]}
        et = t["event_type"]
        for ty in _EVENT_TYPES:
            cols[f"n_{ty}"] = pc.cast(pc.equal(et, ty), pa.int64())
        return pa.table(cols)

    aggs = [(f"n_{ty}", "sum") for ty in _EVENT_TYPES]
    out = hash_aggregate(ds, ["user_id"], aggs, prepare=prep)
    names = [f"n_{ty}" for ty in _EVENT_TYPES]
    schema = pa.schema([("user_id", pa.int64()),
                        ("name", pa.string()), ("value", pa.int64())])
    if out is None:
        return schema.empty_table()

    def trim(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(u % 97 == 0))
        return pa.table(dict(
            [("user_id", t["user_id"])]
            + [(n, t[f"{n}_sum"]) for n in names]))

    melted = unpivot(out.map_batches(trim, batch_format="pyarrow",
                                     zero_copy_batch=True),
                     id_cols=["user_id"], value_cols=names)
    t = _collect(melted).cast(schema)
    return t.take(pc.sort_indices(t, sort_keys=[
        ("user_id", "ascending"), ("name", "ascending")]))


@query("""
WITH RECURSIVE h AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS w,
         count(*)::BIGINT AS c
  FROM events GROUP BY 1, 2
), o AS (
  SELECT event_type, c,
         row_number() OVER (PARTITION BY event_type ORDER BY w) AS rn,
         count(*) OVER (PARTITION BY event_type) AS nh
  FROM h
), r AS (
  SELECT event_type, rn, nh, c AS s FROM o WHERE rn = 1
  UNION ALL
  SELECT o.event_type, o.rn, o.nh, (o.c + r.s) // 2
  FROM r JOIN o ON o.event_type = r.event_type AND o.rn = r.rn + 1
)
SELECT event_type, nh::BIGINT AS n_hours, s::BIGINT AS ewma
FROM r WHERE rn = nh ORDER BY event_type
""")
def q_events_ewma(sf_dir: str) -> pa.Table:
    """Integer EWMA (alpha = 1/2) over each type's hourly event
    counts — time-series smoothing whose recursion ``s_t = (c_t +
    s_{t-1}) // 2`` stays exactly reproducible: the DISTRIBUTED work
    is the (type, hour) count partials; the recursion itself runs on
    the tiny hour series driver-side here and as a recursive CTE in
    the oracle — same floor division, same order."""
    from ..functions.boilerplate import partial_aggregate
    ds = read_ds(sf_dir, "events", columns=["event_type", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        w = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
             // 3_600_000_000)
        return pa.table({"event_type": t["event_type"],
                         "w": pa.array(w, pa.int64())})

    out = partial_aggregate(ds, ["event_type", "w"], [("w", "count")],
                            prepare=prep)
    schema = pa.schema([("event_type", pa.string()),
                        ("n_hours", pa.int64()), ("ewma", pa.int64())])
    if out is None:
        return schema.empty_table()
    et = np.asarray(out["event_type"].to_pylist())
    w = out["w"].to_numpy(zero_copy_only=False)
    c = out["w_count"].to_numpy(zero_copy_only=False)
    rows = []
    for e in np.unique(et):
        m = et == e
        cc = c[m][np.argsort(w[m], kind="stable")]
        s = int(cc[0])
        for x in cc[1:]:
            s = (int(x) + s) // 2
        rows.append({"event_type": str(e), "n_hours": int(m.sum()),
                     "ewma": s})
    rows.sort(key=lambda r: r["event_type"])
    return pa.Table.from_pylist(rows, schema=schema)


@query("""
WITH c AS (
  SELECT user_id, min(ts) AS mc FROM events
  WHERE event_type = 'click' GROUP BY 1
), p AS (
  SELECT e.user_id,
         min(epoch_us(e.ts) - epoch_us(c.mc)) AS lag_us
  FROM events e JOIN c USING (user_id)
  WHERE e.event_type = 'purchase' AND e.ts >= c.mc
  GROUP BY 1
)
SELECT user_id, (lag_us // 1000000)::BIGINT AS lag_s
FROM p ORDER BY user_id
""")
def q_conversion_lag(sf_dir: str) -> pa.Table:
    """Per-user click→purchase conversion lag (seconds from the FIRST
    click to the first purchase at-or-after it) in TWO mergeable
    streaming passes — no shuffle, no co-location: pass 1 reduces
    min(click ts) per user (a true min-merge), pass 2 broadcasts that
    small table and reduces min(purchase ts ≥ first click) per user.  At
    a user dimension too big to broadcast this becomes one
    co-partitioned pass (windows.py substrate); the arithmetic is
    unchanged."""
    import ray

    from ..functions.boilerplate import _group_counts
    ds = read_ds(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def min_click(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "click"))
        if t.num_rows == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "mc": pa.array([], pa.int64())})
        g = _group_counts(pa.table({
            "user_id": t["user_id"],
            "mc": t["ts"].cast(pa.int64())}), ["user_id"],
            [("mc", "min")])
        return pa.table({"user_id": g["user_id"],
                         "mc": g["mc_min"].cast(pa.int64())})

    parts = collect_arrow(ds.map_batches(min_click, batch_format="pyarrow",
                                         zero_copy_batch=True))
    schema = pa.schema([("user_id", pa.int64()), ("lag_s", pa.int64())])
    if parts is None:
        return schema.empty_table()
    mc = _group_counts(parts, ["user_id"], [("mc", "min")])
    mc = pa.table({"user_id": mc["user_id"],
                   "mc": mc["mc_min"].cast(pa.int64())})
    mc_ref = ray.put(mc)

    def min_purchase(t: pa.Table) -> pa.Table:
        m = ray.get(mc_ref)
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        empty = pa.table({"user_id": pa.array([], pa.int64()),
                          "lag": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        idx = pc.index_in(t["user_id"], value_set=m["user_id"])
        ok = pc.is_valid(idx)
        t, idx = t.filter(ok), idx.filter(ok)
        if t.num_rows == 0:
            return empty
        mcv = m["mc"].take(idx).to_numpy(zero_copy_only=False)
        ts = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = ts >= mcv
        if not keep.any():
            return empty
        g = _group_counts(pa.table({
            "user_id": t["user_id"].filter(pa.array(keep)),
            "lag": pa.array(ts[keep] - mcv[keep], pa.int64())}),
            ["user_id"], [("lag", "min")])
        return pa.table({"user_id": g["user_id"],
                         "lag": g["lag_min"].cast(pa.int64())})

    parts = collect_arrow(ds.map_batches(min_purchase, batch_format="pyarrow",
                                         zero_copy_batch=True))
    if parts is None:
        return schema.empty_table()
    lag = _group_counts(parts, ["user_id"], [("lag", "min")])
    out = pa.table({
        "user_id": lag["user_id"].cast(pa.int64()),
        "lag_s": pc.divide(lag["lag_min"].cast(pa.int64()),
                           pa.scalar(1_000_000, pa.int64()))})
    return out.take(pc.sort_indices(out, sort_keys=[
        ("user_id", "ascending")])).cast(schema)


@query("""
WITH h AS (
  SELECT event_type, epoch_us(ts) // 604800000000 AS w,
         count(*)::BIGINT AS c
  FROM events GROUP BY 1, 2
), l AS (
  SELECT event_type, w, c,
         lag(c) OVER (PARTITION BY event_type ORDER BY w) AS p
  FROM h
)
SELECT event_type, w::BIGINT AS week, c AS n,
  (CASE WHEN c >= p THEN ((c - p) * 1000000) // p
        ELSE -(((p - c) * 1000000) // p) END)::BIGINT AS chg_x1e6
FROM l WHERE p IS NOT NULL ORDER BY event_type, week
""")
def q_events_wow(sf_dir: str) -> pa.Table:
    """Week-over-week volume change per event type on the x1e6 grid —
    the trend-report shape: distributed (type, week) count partials,
    then the lag/percent arithmetic on the tiny weekly series
    driver-side with the same sign-safe floor division the oracle's
    window expression evaluates."""
    from ..functions.boilerplate import partial_aggregate
    ds = read_ds(sf_dir, "events", columns=["event_type", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        w = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
             // 604_800_000_000)
        return pa.table({"event_type": t["event_type"],
                         "w": pa.array(w, pa.int64())})

    out = partial_aggregate(ds, ["event_type", "w"], [("w", "count")],
                            prepare=prep)
    schema = pa.schema([("event_type", pa.string()), ("week", pa.int64()),
                        ("n", pa.int64()), ("chg_x1e6", pa.int64())])
    if out is None:
        return schema.empty_table()
    et = np.asarray(out["event_type"].to_pylist())
    w = out["w"].to_numpy(zero_copy_only=False)
    c = out["w_count"].to_numpy(zero_copy_only=False)
    rows = []
    for e in np.unique(et):
        m = et == e
        order = np.argsort(w[m], kind="stable")
        ws, cs = w[m][order], c[m][order]
        for i in range(1, len(ws)):
            cur, prev = int(cs[i]), int(cs[i - 1])
            rows.append({"event_type": str(e), "week": int(ws[i]),
                         "n": cur,
                         "chg_x1e6": _sdiv((cur - prev) * 1_000_000,
                                           prev)})
    rows.sort(key=lambda r: (r["event_type"], r["week"]))
    return pa.Table.from_pylist(rows, schema=schema)


@query("""
WITH e AS (
  SELECT event_type,
         ((epoch_us(ts) // 300000000) - gs) * 300000000 AS window_us
  FROM events, generate_series(0, 5) t(gs)
), g AS (
  SELECT event_type, window_us, count(*)::BIGINT AS n
  FROM e GROUP BY 1, 2
), r AS (
  SELECT event_type, window_us, n,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY n DESC, window_us) AS rk
  FROM g
)
SELECT event_type, window_us, n AS peak_n
FROM r WHERE rk = 1 ORDER BY event_type
""")
def q_events_peak(sf_dir: str) -> pa.Table:
    """Peak-load report: the busiest sliding 30-minute window (hop 5)
    per event type — the hopping-window partials (each batch ships one
    row per (type, window) it saw) plus one argmax per type on the
    tiny window series (tie → earliest window), matching the oracle's
    rank-1 row."""
    from ..functions.windows import hopping_aggregate
    ds = read_ds(sf_dir, "events", columns=["event_type", "ts", "value"])
    t = hopping_aggregate(ds, window_minutes=30, hop_minutes=5)
    schema = pa.schema([("event_type", pa.string()),
                        ("window_us", pa.int64()),
                        ("peak_n", pa.int64())])
    if t.num_rows == 0:
        return schema.empty_table()
    et = np.asarray(t["event_type"].to_pylist())
    w = t["window_us"].to_numpy(zero_copy_only=False)
    n = t["n"].to_numpy(zero_copy_only=False)
    rows = []
    for e in np.unique(et):
        m = et == e
        order = np.lexsort((w[m], -n[m]))
        rows.append({"event_type": str(e),
                     "window_us": int(w[m][order[0]]),
                     "peak_n": int(n[m][order[0]])})
    rows.sort(key=lambda r: r["event_type"])
    return pa.Table.from_pylist(rows, schema=schema)


@query("""
WITH d AS (
  SELECT event_type,
         ((epoch_us(ts) // 86400000000) + 4) % 7 AS dow
  FROM events
), g AS (
  SELECT event_type, dow, count(*)::BIGINT AS n
  FROM d GROUP BY 1, 2
), t AS (
  SELECT event_type, sum(n)::HUGEINT AS total FROM g GROUP BY 1
)
SELECT g.event_type, g.dow::BIGINT AS dow, g.n,
       (g.n::HUGEINT * 1000000 // t.total)::BIGINT AS share_x1e6
FROM g JOIN t USING (event_type)
ORDER BY g.event_type, g.dow
""")
def q_events_dow(sf_dir: str) -> pa.Table:
    """Day-of-week seasonality profile per event type (calendar
    feature extraction): dow from pure epoch-day arithmetic
    ((days + 4) % 7, 1970-01-01 = Thursday — matching DuckDB's ISO
    dayofweek numbering via the same closed form), counts + share of
    the type's volume on the x1e6 grid; one partial-aggregate pass."""
    from ..functions.boilerplate import partial_aggregate
    ds = read_ds(sf_dir, "events", columns=["event_type", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        days = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
                // 86_400_000_000)
        return pa.table({"event_type": t["event_type"],
                         "dow": pa.array((days + 4) % 7, pa.int64())})

    out = partial_aggregate(ds, ["event_type", "dow"],
                            [("dow", "count")], prepare=prep)
    schema = pa.schema([("event_type", pa.string()), ("dow", pa.int64()),
                        ("n", pa.int64()), ("share_x1e6", pa.int64())])
    if out is None:
        return schema.empty_table()
    et = np.asarray(out["event_type"].to_pylist())
    dw = out["dow"].to_numpy(zero_copy_only=False)
    c = out["dow_count"].to_numpy(zero_copy_only=False)
    rows = []
    for e in np.unique(et):
        m = et == e
        total = int(c[m].sum())
        for d, n in sorted(zip(dw[m].tolist(), c[m].tolist())):
            rows.append({"event_type": str(e), "dow": int(d),
                         "n": int(n),
                         "share_x1e6": int(n) * 1_000_000 // total})
    return pa.Table.from_pylist(rows, schema=schema)
