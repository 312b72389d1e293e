"""TPC-H-shaped joins and aggregates over the business tables
(customer, orders, lineitem, part, supplier, nation)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .common import _collect, fixed_point, query, read_ds, read_table


# broadcast join + integer-cents partial sums: exact, order-free
@query("""
SELECT c.c_mktsegment,
       count(*)::BIGINT AS n_orders,
       sum(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT))::BIGINT
         AS revenue_x100
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment ORDER BY c.c_mktsegment
""")
def q_segment_revenue(sf_dir: str) -> pa.Table:
    """Broadcast hash join + partial aggregation: revenue per customer
    market segment. The small side (customer key → segment) is built
    once, shipped via ray.put, and probed with one vectorized index_in
    per orders batch — never a shuffle join; prices convert to integer
    cents PER ROW before summing, so partial sums are exact and
    order-free."""
    import ray

    from ..functions.boilerplate import partial_aggregate
    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_mktsegment"])
    cust_ref = ray.put(cust)
    orders = read_ds(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def join_segment(t: pa.Table) -> pa.Table:
        c = ray.get(cust_ref)
        keys = c["c_custkey"]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        seg = c["c_mktsegment"]
        if isinstance(seg, pa.ChunkedArray):
            seg = seg.combine_chunks()
        pos = pc.index_in(t["o_custkey"], value_set=keys)
        cents = fixed_point(t["o_totalprice"], 100.0)
        return pa.table({
            "c_mktsegment": seg.take(pos),
            "cents": pa.array(cents, pa.int64()),
        })

    tbl = partial_aggregate(orders, ["c_mktsegment"],
                            [("c_mktsegment", "count"), ("cents", "sum")],
                            prepare=join_segment)
    return pa.table({
        "c_mktsegment": tbl["c_mktsegment"].cast(pa.string()),
        "n_orders": tbl["c_mktsegment_count"].cast(pa.int64()),
        "revenue_x100": tbl["cents_sum"].cast(pa.int64()),
    })


# TPC-H Q1 shape: every measure quantized to hundredths PER ROW
# (both sides compute the same IEEE fp64 row product), summed as
# exact integers
@query("""
SELECT l_returnflag, l_linestatus,
       count(*)::BIGINT AS n_rows,
       sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT))::BIGINT
         AS sum_qty_x100,
       sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT))::BIGINT
         AS sum_base_x100,
       sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                AS BIGINT))::BIGINT AS sum_disc_x100
FROM lineitem
GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus
""")
def q_lineitem_pricing(sf_dir: str) -> pa.Table:
    """TPC-H Q1-shape pricing summary over lineitem: per (returnflag,
    linestatus) sums of quantity, base price and discounted price —
    every measure quantized to integer hundredths PER ROW (the fp64
    row product is IEEE-identical on both sides), so the distributed
    partial sums are exact integers."""
    from ..functions.boilerplate import partial_aggregate
    ds = read_ds(sf_dir, "lineitem",
                 columns=["l_returnflag", "l_linestatus", "l_quantity",
                          "l_extendedprice", "l_discount"])

    def measures(t: pa.Table) -> pa.Table:
        q = t["l_quantity"].to_numpy(zero_copy_only=False)
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = t["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty_x100": pa.array(
                fixed_point(q, 100.0), pa.int64()),
            "base_x100": pa.array(
                fixed_point(ep, 100.0), pa.int64()),
            "disc_x100": pa.array(
                fixed_point(ep * (1.0 - dc), 100.0), pa.int64()),
        })

    tbl = partial_aggregate(
        ds, ["l_returnflag", "l_linestatus"],
        [("l_returnflag", "count"), ("qty_x100", "sum"),
         ("base_x100", "sum"), ("disc_x100", "sum")], prepare=measures)
    return pa.table({
        "l_returnflag": tbl["l_returnflag"].cast(pa.string()),
        "l_linestatus": tbl["l_linestatus"].cast(pa.string()),
        "n_rows": tbl["l_returnflag_count"].cast(pa.int64()),
        "sum_qty_x100": tbl["qty_x100_sum"].cast(pa.int64()),
        "sum_base_x100": tbl["base_x100_sum"].cast(pa.int64()),
        "sum_disc_x100": tbl["disc_x100_sum"].cast(pa.int64()),
    })


# fp64 product identical on both sides: extendedprice * (1-discount)
# * 10000 left-assoc, floor(x+0.5), THEN integer sum — so the hash
# compare is exact; tie order is total (rev, orderdate, orderkey)
@query("""
SELECT l_orderkey,
       sum(CAST(floor(l_extendedprice * (1 - l_discount) * 10000 + 0.5)
                AS BIGINT))::BIGINT AS revenue_x1e4,
       o_orderdate, o_orderpriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING'
  AND c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate < TIMESTAMP '1998-06-01'
  AND l_shipdate > TIMESTAMP '1998-06-01'
GROUP BY l_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue_x1e4 DESC, o_orderdate, l_orderkey
LIMIT 10
""")
def q_tpch_q3(sf_dir: str) -> pa.Table:
    """TPC-H Q3-shape shipping-priority top-10: the general
    co-partitioned hash join (functions/joins.py) over filtered
    lineitem ⋈ filtered orders, with the customer dimension reduced to
    a broadcast semi-join filter (keys shipped once via ray.put).
    The join partitions BY the grouping key (orderkey), so the revenue
    aggregate and a local top-10 run inside each join task — no second
    shuffle; the driver merges P candidate top-10s. Revenue quantizes
    per row (the fp64 product is IEEE-identical on both sides) so the
    distributed sums are exact integers with a deterministic total
    order (rev desc, orderdate asc, orderkey asc)."""
    import ray

    from ..functions.boilerplate import _group_counts
    from ..functions.joins import hash_join
    cut = pa.scalar(np.datetime64("1998-06-01", "us"), pa.timestamp("us"))
    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_mktsegment"])
    keys = cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING"))
    keys = keys["c_custkey"].combine_chunks()
    keys_ref = ray.put(keys)

    orders = read_ds(sf_dir, "orders",
                     columns=["o_orderkey", "o_custkey", "o_orderdate",
                              "o_orderpriority"])

    def filt_orders(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.less(t["o_orderdate"], cut),
                    pc.is_in(t["o_custkey"], value_set=ray.get(keys_ref)))
        return t.filter(m).select(
            ["o_orderkey", "o_orderdate", "o_orderpriority"])

    line = read_ds(sf_dir, "lineitem",
                   columns=["l_orderkey", "l_extendedprice", "l_discount",
                            "l_shipdate"])

    def filt_line(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_shipdate"], cut))
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = t["l_discount"].to_numpy(zero_copy_only=False)
        rev = fixed_point(ep * (1.0 - dc))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "rev": pa.array(rev, pa.int64())})

    gcols = ["l_orderkey", "o_orderdate", "o_orderpriority"]
    skeys = [("rev_sum", "descending"), ("o_orderdate", "ascending"),
             ("l_orderkey", "ascending")]

    def local_topk(j: pa.Table) -> pa.Table:
        g = _group_counts(j, gcols, [("rev", "sum")])
        return g.take(pc.sort_indices(g, sort_keys=skeys)[:10])

    out = hash_join(
        line.map_batches(filt_line, batch_format="pyarrow",
                         zero_copy_batch=True),
        orders.map_batches(filt_orders, batch_format="pyarrow",
                           zero_copy_batch=True),
        left_on="l_orderkey", right_on="o_orderkey", post=local_topk)
    schema = pa.schema([("l_orderkey", pa.int64()),
                        ("revenue_x1e4", pa.int64()),
                        ("o_orderdate", pa.timestamp("us")),
                        ("o_orderpriority", pa.string())])
    if out is None:
        return schema.empty_table()
    t = _collect(out)
    t = t.take(pc.sort_indices(t, sort_keys=skeys)[:10])
    return pa.table({
        "l_orderkey": t["l_orderkey"].cast(pa.int64()),
        "revenue_x1e4": t["rev_sum"].cast(pa.int64()),
        "o_orderdate": t["o_orderdate"],
        "o_orderpriority": t["o_orderpriority"].cast(pa.string()),
    })


@query("""
SELECT n_name, count(*)::BIGINT AS n_items,
       sum(CAST(floor(l_extendedprice * (1 - l_discount) * 10000 + 0.5)
                AS BIGINT))::BIGINT AS revenue_x1e4
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1998-01-01'
GROUP BY n_name ORDER BY n_name
""")
def q_tpch_q5(sf_dir: str) -> pa.Table:
    """TPC-H Q5-shape local-supplier revenue: region/nation/customer/
    supplier dims reduced driver-side and applied as BROADCAST joins
    (functions/joins.py broadcast_join — shipped once, probed per
    batch), the one genuinely large-large edge (lineitem ⋈ orders)
    as the co-partitioned hash join with the nation-equality filter +
    revenue partial aggregate run inside each join task; the driver
    merges a handful of per-partition partials."""
    from ..functions.boilerplate import _group_counts
    from ..functions.joins import broadcast_join, hash_join
    lo = pa.scalar(np.datetime64("1996-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"), pa.timestamp("us"))

    region = read_table(sf_dir, "region")
    nation = read_table(sf_dir, "nation")
    rk = region.filter(pc.equal(region["r_name"], "ASIA"))["r_regionkey"]
    asia = nation.filter(pc.is_in(nation["n_regionkey"],
                                  value_set=rk.combine_chunks()))
    nkeys = asia["n_nationkey"].combine_chunks()
    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_nationkey"])
    cust = cust.filter(pc.is_in(cust["c_nationkey"], value_set=nkeys))
    supp = read_table(sf_dir, "supplier",
                      columns=["s_suppkey", "s_nationkey"])
    supp = supp.filter(pc.is_in(supp["s_nationkey"], value_set=nkeys))

    orders = read_ds(sf_dir, "orders",
                     columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def filt_orders(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                    pc.less(t["o_orderdate"], hi))
        return t.filter(m).select(["o_orderkey", "o_custkey"])

    # inner broadcast joins also FILTER to the Asia dims
    orders_f = broadcast_join(
        orders.map_batches(filt_orders, batch_format="pyarrow",
                           zero_copy_batch=True),
        cust, left_on="o_custkey", right_on="c_custkey")

    line = read_ds(sf_dir, "lineitem",
                   columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                            "l_discount"])

    def rev_rows(t: pa.Table) -> pa.Table:
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = t["l_discount"].to_numpy(zero_copy_only=False)
        rev = fixed_point(ep * (1.0 - dc))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_suppkey": t["l_suppkey"],
                         "rev": pa.array(rev, pa.int64())})

    line_f = broadcast_join(
        line.map_batches(rev_rows, batch_format="pyarrow",
                         zero_copy_batch=True),
        supp, left_on="l_suppkey", right_on="s_suppkey")

    def local_agg(j: pa.Table) -> pa.Table:
        j = j.filter(pc.equal(j["s_nationkey"], j["c_nationkey"]))
        return _group_counts(j, ["s_nationkey"],
                             [("rev", "count"), ("rev", "sum")])

    out = hash_join(line_f, orders_f, left_on="l_orderkey",
                    right_on="o_orderkey", post=local_agg)
    schema = pa.schema([("n_name", pa.string()),
                        ("n_items", pa.int64()),
                        ("revenue_x1e4", pa.int64())])
    if out is None:
        return schema.empty_table()
    partials = _collect(out)
    m = _group_counts(partials, ["s_nationkey"],
                      [("rev_count", "sum"), ("rev_sum", "sum")])
    names = asia["n_name"].combine_chunks().take(
        pc.index_in(m["s_nationkey"], value_set=nkeys))
    t = pa.table({"n_name": names,
                  "n_items": m["rev_count_sum"].cast(pa.int64()),
                  "revenue_x1e4": m["rev_sum_sum"].cast(pa.int64())})
    return t.take(pc.sort_indices(t, sort_keys=[("n_name", "ascending")]))


@query("""
SELECT c_custkey, c_name, c_mktsegment FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                        WHERE o_orderpriority = '1-URGENT')
ORDER BY c_custkey
""")
def q_customers_no_urgent(sf_dir: str) -> pa.Table:
    """Distributed ANTI join (functions/joins.py hash_join, Acero
    'left anti' per partition pair): customers with no 1-URGENT
    order.  Both sides co-partition by custkey through the disk
    spill — the shape that holds when neither side fits in a worker
    heap."""
    from ..functions.joins import hash_join
    cust = read_ds(sf_dir, "customer",
                   columns=["c_custkey", "c_name", "c_mktsegment"])
    orders = read_ds(sf_dir, "orders",
                     columns=["o_custkey", "o_orderpriority"])

    def urgent(t: pa.Table) -> pa.Table:
        m = pc.equal(t["o_orderpriority"], "1-URGENT")
        return t.filter(m).select(["o_custkey"])

    out = hash_join(cust,
                    orders.map_batches(urgent, batch_format="pyarrow",
                                       zero_copy_batch=True),
                    left_on="c_custkey", right_on="o_custkey",
                    how="left anti")
    schema = pa.schema([("c_custkey", pa.int64()),
                        ("c_name", pa.string()),
                        ("c_mktsegment", pa.string())])
    if out is None:
        return schema.empty_table()
    t = _collect(out)
    t = t.take(pc.sort_indices(t, sort_keys=[("c_custkey",
                                              "ascending")]))
    return t.select(["c_custkey", "c_name", "c_mktsegment"]).cast(schema)


@query("""
WITH q AS (
  SELECT l_orderkey, l_partkey, l_suppkey,
         CAST(floor(l_quantity * 100 + 0.5) AS BIGINT) AS qty_x100
  FROM lineitem
), mx AS (
  SELECT l_partkey, l_suppkey, max(qty_x100) AS max_qty
  FROM q GROUP BY l_partkey, l_suppkey
)
SELECT q.l_orderkey, q.l_partkey, q.l_suppkey, q.qty_x100
FROM q JOIN mx ON q.l_partkey = mx.l_partkey
              AND q.l_suppkey = mx.l_suppkey
WHERE q.qty_x100 = mx.max_qty
ORDER BY q.l_orderkey, q.l_partkey, q.l_suppkey, q.qty_x100
""")
def q_lineitem_maxline(sf_dir: str) -> pa.Table:
    """Multi-column equi-join: lines achieving their (partkey,
    suppkey) pair's MAX quantity.  The per-pair max is a
    high-cardinality hash_aggregate; the join back to lineitem
    co-partitions BOTH sides on the combined two-column key hash
    (functions/joins.py list keys) with the equality filter running
    inside each join task.  Quantities quantize to integer x100 so
    the compared values are exact."""
    from ..functions.boilerplate import hash_aggregate
    from ..functions.joins import hash_join

    def prep(t: pa.Table) -> pa.Table:
        q = t["l_quantity"].to_numpy(zero_copy_only=False)
        qx = fixed_point(q, 100.0)
        return pa.table({
            "l_orderkey": t["l_orderkey"].cast(pa.int64()),
            "l_partkey": t["l_partkey"].cast(pa.int64()),
            "l_suppkey": t["l_suppkey"].cast(pa.int64()),
            "qty_x100": pa.array(qx, pa.int64())})

    def read():
        return read_ds(sf_dir, "lineitem",
                       columns=["l_orderkey", "l_partkey", "l_suppkey",
                                "l_quantity"]
                   ).map_batches(prep, batch_format="pyarrow",
                      zero_copy_batch=True)

    right = hash_aggregate(read(), ["l_partkey", "l_suppkey"],
                           [("qty_x100", "max")])

    def keep_max(j: pa.Table) -> pa.Table:
        j = j.filter(pc.equal(j["qty_x100"], j["qty_x100_max"]))
        return j.select(["l_orderkey", "l_partkey", "l_suppkey",
                         "qty_x100"])

    out = hash_join(read(), right,
                    left_on=["l_partkey", "l_suppkey"],
                    post=keep_max)
    schema = pa.schema([("l_orderkey", pa.int64()),
                        ("l_partkey", pa.int64()),
                        ("l_suppkey", pa.int64()),
                        ("qty_x100", pa.int64())])
    if out is None:
        return schema.empty_table()
    t = _collect(out)
    return t.take(pc.sort_indices(t, sort_keys=[
        ("l_orderkey", "ascending"), ("l_partkey", "ascending"),
        ("l_suppkey", "ascending"), ("qty_x100", "ascending")]))


@query("""
SELECT o_custkey,
       count(*)::BIGINT AS n_orders,
       sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))::BIGINT
         AS revenue_x100,
       max(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))::BIGINT
         AS max_order_x100
FROM orders GROUP BY o_custkey ORDER BY o_custkey
""")
def q_customer_revenue(sf_dir: str) -> pa.Table:
    """High-cardinality grouped aggregate (one row per customer):
    hash_aggregate — per-batch Arrow partials, hive disk-shuffle by
    key hash, per-part merges — with prices quantized to integer
    cents per row so the distributed sums/maxes are exact."""
    from ..functions.boilerplate import hash_aggregate
    orders = read_ds(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        c = fixed_point(t["o_totalprice"], 100.0)
        return pa.table({"o_custkey": t["o_custkey"],
                         "cents": pa.array(c, pa.int64())})

    out = hash_aggregate(orders, ["o_custkey"],
                         [("o_custkey", "count"), ("cents", "sum"),
                          ("cents", "max")], prepare=cents)
    t = _collect(out)
    return pa.table({
        "o_custkey": t["o_custkey"].cast(pa.int64()),
        "n_orders": t["o_custkey_count"].cast(pa.int64()),
        "revenue_x100": t["cents_sum"].cast(pa.int64()),
        "max_order_x100": t["cents_max"].cast(pa.int64()),
    })


@query("""
WITH q AS (
  SELECT l_orderkey,
         sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT))
           AS sum_qty_x100
  FROM lineitem GROUP BY l_orderkey
  HAVING sum_qty_x100 > 15000
)
SELECT c_custkey, c_name, o.o_orderkey, o.o_orderdate,
       CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
         AS totalprice_x100,
       q.sum_qty_x100::BIGINT AS sum_qty_x100
FROM q JOIN orders o ON o.o_orderkey = q.l_orderkey
       JOIN customer ON c_custkey = o.o_custkey
ORDER BY totalprice_x100 DESC, o.o_orderdate, o.o_orderkey LIMIT 100
""")
def q_tpch_q18(sf_dir: str) -> pa.Table:
    """TPC-H Q18-shape large-volume customers: the HAVING-on-a-
    high-cardinality-aggregate plan. hash_aggregate sums quantity per
    orderkey (per-batch combiner -> key-hash disk spill -> per-part
    merge — orderkey cardinality is input-sized, so no driver merge),
    the HAVING filter runs inside each merge part and only qualifying
    keys ever leave; that set is broadcast once (ray.put) and orders
    stream through an is_in + index_in attach.  The top-100 by
    totalprice is taken BEFORE the customer lookup, so the name join
    reads at most 100 customers via a pushed-down point filter."""
    import ray

    from ..functions.boilerplate import hash_aggregate
    line = read_ds(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def prep(t: pa.Table) -> pa.Table:
        q = fixed_point(t["l_quantity"], 100.0)
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "qty": pa.array(q, pa.int64())})

    agg = hash_aggregate(line, ["l_orderkey"], [("qty", "sum")],
                         prepare=prep)
    schema = pa.schema([
        ("c_custkey", pa.int64()), ("c_name", pa.string()),
        ("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us")),
        ("totalprice_x100", pa.int64()), ("sum_qty_x100", pa.int64())])
    if agg is None:
        return schema.empty_table()

    def having(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["qty_sum"], 15000))

    qual = _collect(agg.map_batches(having, batch_format="pyarrow",
                                    zero_copy_batch=True))
    if qual.num_rows == 0:
        return schema.empty_table()
    qual_keys = qual["l_orderkey"].combine_chunks()
    qual_sums = qual["qty_sum"].combine_chunks()
    keys_ref = ray.put(qual_keys)
    sums_ref = ray.put(qual_sums)

    orders = read_ds(sf_dir, "orders",
                     columns=["o_orderkey", "o_custkey", "o_orderdate",
                              "o_totalprice"])

    def attach(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["o_orderkey"], value_set=ray.get(keys_ref))
        m = pc.is_valid(idx)
        t = t.filter(m)
        idx = idx.filter(m)
        tp = fixed_point(t["o_totalprice"], 100.0)
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_custkey": t["o_custkey"],
            "o_orderdate": t["o_orderdate"],
            "totalprice_x100": pa.array(tp, pa.int64()),
            "sum_qty_x100": ray.get(sums_ref).take(idx)})

    top = _collect(orders.map_batches(attach, batch_format="pyarrow",
                                      zero_copy_batch=True))
    top = top.take(pc.sort_indices(top, sort_keys=[
        ("totalprice_x100", "descending"), ("o_orderdate", "ascending"),
        ("o_orderkey", "ascending")])[:100])
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_name"],
                      filters=[("c_custkey", "in",
                                sorted(set(top["o_custkey"].to_pylist())))])
    cidx = pc.index_in(top["o_custkey"],
                       value_set=cust["c_custkey"].combine_chunks())
    return pa.table({
        "c_custkey": top["o_custkey"],
        "c_name": cust["c_name"].combine_chunks().take(cidx),
        "o_orderkey": top["o_orderkey"],
        "o_orderdate": top["o_orderdate"],
        "totalprice_x100": top["totalprice_x100"],
        "sum_qty_x100": top["sum_qty_x100"]}).cast(schema)


@query("""
WITH rev AS (
  SELECT o_custkey, sum(r)::BIGINT AS revenue
  FROM (SELECT l_orderkey,
               CAST(floor(l_extendedprice * (1 - l_discount) * 10000
                          + 0.5) AS BIGINT) AS r
        FROM lineitem WHERE l_returnflag = 'R') l
  JOIN orders ON l_orderkey = o_orderkey
  WHERE o_orderdate >= TIMESTAMP '1995-01-01'
    AND o_orderdate < TIMESTAMP '1996-01-01'
  GROUP BY o_custkey
)
SELECT c_custkey, c_name, revenue AS revenue_x1e4,
       CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS acctbal_x100,
       n_name
FROM rev JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
ORDER BY revenue_x1e4 DESC, c_custkey LIMIT 20
""")
def q_tpch_q10(sf_dir: str) -> pa.Table:
    """TPC-H Q10-shape returned-item top customers: revenue per
    orderkey (hash_aggregate over the R-flagged lineitems) joins the
    date-windowed orders co-partitioned by orderkey with a per-task
    partial custkey aggregate, then a SECOND hash_aggregate re-keys
    those partials by custkey (a custkey spans many orderkey
    partitions) with a local top-20 per merge part — the driver only
    ever merges P twenty-row candidates.  Customer + nation names
    attach at the end via point-filtered reads on the 20 winners."""
    from ..functions.boilerplate import _group_counts, hash_aggregate
    from ..functions.joins import hash_join
    lo = pa.scalar(np.datetime64("1995-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1996-01-01", "us"), pa.timestamp("us"))

    line = read_ds(sf_dir, "lineitem",
                   columns=["l_orderkey", "l_extendedprice", "l_discount",
                            "l_returnflag"])

    def prep_line(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], "R"))
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = t["l_discount"].to_numpy(zero_copy_only=False)
        rev = fixed_point(ep * (1.0 - dc))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "rev": pa.array(rev, pa.int64())})

    agg = hash_aggregate(line, ["l_orderkey"], [("rev", "sum")],
                         prepare=prep_line)
    schema = pa.schema([
        ("c_custkey", pa.int64()), ("c_name", pa.string()),
        ("revenue_x1e4", pa.int64()), ("acctbal_x100", pa.int64()),
        ("n_name", pa.string())])
    if agg is None:
        return schema.empty_table()

    orders = read_ds(sf_dir, "orders",
                     columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def filt_orders(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                    pc.less(t["o_orderdate"], hi))
        return t.filter(m).select(["o_orderkey", "o_custkey"])

    def by_cust(j: pa.Table) -> pa.Table:
        return _group_counts(j, ["o_custkey"], [("rev_sum", "sum")])

    joined = hash_join(
        agg,
        orders.map_batches(filt_orders, batch_format="pyarrow",
                           zero_copy_batch=True),
        left_on="l_orderkey", right_on="o_orderkey", post=by_cust)
    if joined is None:
        return schema.empty_table()
    cust_rev = hash_aggregate(joined, ["o_custkey"],
                              [("rev_sum_sum", "sum")])
    if cust_rev is None:
        return schema.empty_table()

    def local_top(t: pa.Table) -> pa.Table:
        return t.take(pc.sort_indices(t, sort_keys=[
            ("rev_sum_sum_sum", "descending"),
            ("o_custkey", "ascending")])[:20])

    top = _collect(cust_rev.map_batches(local_top,
                                        batch_format="pyarrow",
                                        zero_copy_batch=True))
    top = top.take(pc.sort_indices(top, sort_keys=[
        ("rev_sum_sum_sum", "descending"),
        ("o_custkey", "ascending")])[:20])
    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_name", "c_acctbal",
                               "c_nationkey"],
                      filters=[("c_custkey", "in",
                                sorted(set(top["o_custkey"].to_pylist())))])
    nation = read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    cidx = pc.index_in(top["o_custkey"],
                       value_set=cust["c_custkey"].combine_chunks())
    nkey = cust["c_nationkey"].combine_chunks().take(cidx)
    nidx = pc.index_in(nkey,
                       value_set=nation["n_nationkey"].combine_chunks())
    ab = fixed_point(cust["c_acctbal"].combine_chunks().take(cidx), 100.0)
    return pa.table({
        "c_custkey": top["o_custkey"],
        "c_name": cust["c_name"].combine_chunks().take(cidx),
        "revenue_x1e4": top["rev_sum_sum_sum"],
        "acctbal_x100": pa.array(ab, pa.int64()),
        "n_name": nation["n_name"].combine_chunks().take(nidx),
    }).cast(schema)


@query("""
WITH m AS (
  SELECT l_orderkey, max(l_shipdate) AS ms FROM lineitem GROUP BY 1
)
SELECT o_orderpriority, count(*)::BIGINT AS n_late
FROM orders JOIN m ON o_orderkey = l_orderkey
WHERE ms > o_orderdate + INTERVAL 60 DAY
GROUP BY 1 ORDER BY 1
""")
def q_order_priority_late(sf_dir: str) -> pa.Table:
    """TPC-H Q4-shape order-priority check (EXISTS rewritten as a
    mergeable max): max(l_shipdate) per orderkey via hash_aggregate,
    co-partitioned join with orders, and the 'shipped >60 days after
    order' predicate + priority partial counts run INSIDE each join
    task — only 5-row partials reach the driver."""
    from ..functions.boilerplate import _group_counts, hash_aggregate
    from ..functions.joins import hash_join
    line = read_ds(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])
    maxship = hash_aggregate(line, ["l_orderkey"],
                             [("l_shipdate", "max")])
    schema = pa.schema([("o_orderpriority", pa.string()),
                        ("n_late", pa.int64())])
    if maxship is None:
        return schema.empty_table()
    orders = read_ds(sf_dir, "orders",
                     columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    sixty_us = 60 * 86_400_000_000

    def late_counts(j: pa.Table) -> pa.Table:
        ship = j["l_shipdate_max"].cast(pa.int64())
        od = j["o_orderdate"].cast(pa.int64())
        j = j.filter(pc.greater(ship, pc.add(od, sixty_us)))
        return _group_counts(j, ["o_orderpriority"],
                             [("l_orderkey", "count")])

    out = hash_join(maxship, orders, left_on="l_orderkey",
                    right_on="o_orderkey", post=late_counts)
    if out is None:
        return schema.empty_table()
    t = _collect(out)
    if t.num_rows == 0:
        return schema.empty_table()
    m = _group_counts(t, ["o_orderpriority"],
                      [("l_orderkey_count", "sum")])
    m = pa.table({"o_orderpriority": m["o_orderpriority"],
                  "n_late": m["l_orderkey_count_sum"].cast(pa.int64())})
    return m.take(pc.sort_indices(m, sort_keys=[
        ("o_orderpriority", "ascending")])).cast(schema)


@query("""
WITH l AS (
  SELECT CAST(floor(l_extendedprice * (1 - l_discount) * 10000 + 0.5)
              AS BIGINT) AS rev,
         (p_type = 'PROMO') AS isp
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1997-01-01'
), s AS (
  SELECT sum(CASE WHEN isp THEN rev ELSE 0 END)::BIGINT AS promo,
         sum(rev)::BIGINT AS total
  FROM l
)
SELECT promo AS promo_x1e4, total AS total_x1e4,
       CAST(floor((100.0 * promo::DOUBLE) / total::DOUBLE * 10000
                  + 0.5) AS BIGINT) AS ratio_x1e4
FROM s
""")
def q_promo_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q14-shape promo revenue ratio: the PROMO partkey set is
    shipped ONCE (ray.put) and lineitems fold into per-batch
    (is_promo -> sum, count) partials — zero shuffle; the ratio is the
    same exact-integer division both engines perform, quantized x1e4.
    At 100 TB the part dimension outgrowing the broadcast budget flips
    this to the co-partitioned hash_join + the identical partial."""
    import ray

    from ..functions.boilerplate import partial_aggregate
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_type"])
    promo = part.filter(pc.equal(part["p_type"], "PROMO"))
    promo_ref = ray.put(promo["p_partkey"].combine_chunks())
    lo = pa.scalar(np.datetime64("1996-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"), pa.timestamp("us"))

    line = read_ds(sf_dir, "lineitem",
                   columns=["l_partkey", "l_extendedprice", "l_discount",
                            "l_shipdate"])

    def prep(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                    pc.less(t["l_shipdate"], hi))
        t = t.filter(m)
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = t["l_discount"].to_numpy(zero_copy_only=False)
        rev = fixed_point(ep * (1.0 - dc))
        isp = pc.cast(pc.is_in(t["l_partkey"],
                               value_set=ray.get(promo_ref)),
                      pa.int64())
        return pa.table({"is_promo": isp,
                         "rev": pa.array(rev, pa.int64())})

    t = partial_aggregate(line, ["is_promo"], [("rev", "sum")],
                          prepare=prep)
    schema = pa.schema([("promo_x1e4", pa.int64()),
                        ("total_x1e4", pa.int64()),
                        ("ratio_x1e4", pa.int64())])
    if t is None:
        return pa.table({n: pa.array([0], pa.int64())
                         for n in schema.names}).cast(schema)
    promo_sum = total = 0
    for flag, s in zip(t["is_promo"].to_pylist(),
                       t["rev_sum"].to_pylist()):
        total += s
        if flag == 1:
            promo_sum += s
    ratio = (100.0 * float(promo_sum)) / float(total) if total else 0.0
    rx = int(fixed_point(ratio))
    return pa.table({"promo_x1e4": pa.array([promo_sum], pa.int64()),
                     "total_x1e4": pa.array([total], pa.int64()),
                     "ratio_x1e4": pa.array([rx], pa.int64())})


@query("""
SELECT p_brand, p_size,
       count(DISTINCT l_suppkey)::BIGINT AS supplier_cnt
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                        WHERE s_acctbal < 0)
GROUP BY 1, 2
ORDER BY supplier_cnt DESC, p_brand, p_size
""")
def q_part_supplier_cnt(sf_dir: str) -> pa.Table:
    """TPC-H Q16-shape supplier counts: NOT-IN anti-filter (the tiny
    negative-balance supplier set broadcasts once), part attrs attach
    by broadcast index_in, then count(DISTINCT suppkey) per
    (brand, size) via the pair-hash distinct_aggregate spill — the
    only exact-distinct shape that never ships raw rows twice."""
    import ray

    from ..functions.boilerplate import distinct_aggregate
    sup = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_acctbal"])
    bad = sup.filter(pc.less(sup["s_acctbal"], 0.0))
    bad_ref = ray.put(bad["s_suppkey"].combine_chunks())
    part = read_table(sf_dir, "part",
                      columns=["p_partkey", "p_brand", "p_size"])
    part_ref = ray.put(part.combine_chunks())

    line = read_ds(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def attach(t: pa.Table) -> pa.Table:
        keep = pc.invert(pc.is_in(t["l_suppkey"],
                                  value_set=ray.get(bad_ref)))
        t = t.filter(keep)
        p = ray.get(part_ref)
        idx = pc.index_in(t["l_partkey"], value_set=p["p_partkey"])
        return pa.table({"p_brand": p["p_brand"].take(idx),
                         "p_size": p["p_size"].take(idx),
                         "l_suppkey": t["l_suppkey"]})

    ds = line.map_batches(attach, batch_format="pyarrow",
                          zero_copy_batch=True)
    t = distinct_aggregate(ds, ["p_brand", "p_size"], "l_suppkey")
    schema = pa.schema([("p_brand", pa.string()),
                        ("p_size", pa.int32()),
                        ("supplier_cnt", pa.int64())])
    if t is None:
        return schema.empty_table()
    t = pa.table({"p_brand": t["p_brand"], "p_size": t["p_size"],
                  "supplier_cnt": t["n_distinct"]}).cast(schema)
    return t.take(pc.sort_indices(t, sort_keys=[
        ("supplier_cnt", "descending"), ("p_brand", "ascending"),
        ("p_size", "ascending")]))


@query("""
WITH e AS (
  SELECT l_partkey,
         min(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
             * 16777216 + l_suppkey) AS enc
  FROM lineitem GROUP BY 1
)
SELECT l_partkey, (enc % 16777216)::BIGINT AS best_suppkey,
       (enc // 16777216)::BIGINT AS min_price_x100
FROM e ORDER BY l_partkey
""")
def q_cheapest_supplier(sf_dir: str) -> pa.Table:
    """TPC-H Q2-shape argmin-per-group join-back, without a join:
    (price, suppkey) packs into ONE sortable int64 (price_x100 · 2²⁴ +
    suppkey — suppkey < 2²⁴ holds through sf100), so min(enc) under
    hash_aggregate IS arg_min with the (price asc, suppkey asc)
    tie-break, mergeable across every partial.  The oracle decodes the
    identical encoding."""
    from ..functions.boilerplate import hash_aggregate
    line = read_ds(sf_dir, "lineitem",
                   columns=["l_partkey", "l_suppkey", "l_extendedprice"])

    def prep(t: pa.Table) -> pa.Table:
        cost = fixed_point(t["l_extendedprice"], 100.0)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False)
        enc = cost * (1 << 24) + sk
        return pa.table({"l_partkey": t["l_partkey"],
                         "enc": pa.array(enc, pa.int64())})

    agg = hash_aggregate(line, ["l_partkey"], [("enc", "min")],
                         prepare=prep)
    schema = pa.schema([("l_partkey", pa.int64()),
                        ("best_suppkey", pa.int64()),
                        ("min_price_x100", pa.int64())])
    if agg is None:
        return schema.empty_table()
    t = _collect(agg)
    enc = t["enc_min"].to_numpy(zero_copy_only=False)
    out = pa.table({
        "l_partkey": t["l_partkey"],
        "best_suppkey": pa.array(enc % (1 << 24), pa.int64()),
        "min_price_x100": pa.array(enc >> 24, pa.int64())})
    return out.take(pc.sort_indices(out, sort_keys=[
        ("l_partkey", "ascending")])).cast(schema)


@query("""
WITH c AS (
  SELECT c_custkey, count(o_orderkey)::BIGINT AS c_count
  FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey
  GROUP BY 1
)
SELECT c_count, count(*)::BIGINT AS custdist
FROM c GROUP BY 1 ORDER BY custdist DESC, c_count DESC
""")
def q_tpch_q13(sf_dir: str) -> pa.Table:
    """TPC-H Q13-shape customer order-count distribution: orders fold
    to per-custkey counts (hash_aggregate), customers LEFT OUTER join
    those counts co-partitioned by custkey, and each join task emits a
    tiny (c_count -> n) histogram partial — the driver merges P
    histograms, never customer rows.  Zero-order customers survive via
    the null-extended outer rows (fill 0)."""
    from ..functions.boilerplate import _group_counts, hash_aggregate
    from ..functions.joins import hash_join
    orders = read_ds(sf_dir, "orders", columns=["o_custkey", "o_orderkey"])
    counts = hash_aggregate(orders, ["o_custkey"],
                            [("o_orderkey", "count")])
    cust = read_ds(sf_dir, "customer", columns=["c_custkey"])
    schema = pa.schema([("c_count", pa.int64()),
                        ("custdist", pa.int64())])

    def hist_partial(j: pa.Table) -> pa.Table:
        cc = pc.fill_null(j["o_orderkey_count"], 0).cast(pa.int64())
        return _group_counts(pa.table({"c_count": cc}),
                             ["c_count"], [("c_count", "count")])

    if counts is None:
        # no orders at all: every customer has count 0
        n = _collect(cust).num_rows
        if n == 0:
            return schema.empty_table()
        return pa.table({"c_count": pa.array([0], pa.int64()),
                         "custdist": pa.array([n], pa.int64())})
    out = hash_join(cust, counts, left_on="c_custkey",
                    right_on="o_custkey", how="left outer",
                    post=hist_partial)
    if out is None:
        return schema.empty_table()
    t = _collect(out)
    m = _group_counts(t, ["c_count"], [("c_count_count", "sum")])
    m = pa.table({"c_count": m["c_count"],
                  "custdist": m["c_count_count_sum"].cast(pa.int64())})
    return m.take(pc.sort_indices(m, sort_keys=[
        ("custdist", "descending"),
        ("c_count", "descending")])).cast(schema)


@query("""
WITH l AS (
  SELECT l_partkey,
         CAST(floor(l_quantity * 100 + 0.5) AS BIGINT) AS q,
         CAST(floor(l_extendedprice * 10000 + 0.5) AS BIGINT) AS ep
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE p_brand = 'Brand#13'
), a AS (
  SELECT l_partkey, sum(q)::BIGINT AS sq, count(*)::BIGINT AS cnt
  FROM l GROUP BY 1
), s AS (
  SELECT COALESCE(sum(ep), 0)::BIGINT AS total
  FROM l JOIN a USING (l_partkey)
  WHERE 5 * q * cnt < sq
)
SELECT total AS total_x1e4, (total // 7)::BIGINT AS avg_yearly_x1e4
FROM s
""")
def q_tpch_q17(sf_dir: str) -> pa.Table:
    """TPC-H Q17-shape small-quantity revenue: per-partkey quantity
    moments for ONE brand fold shuffle-free (partial_aggregate — the
    brand subset is ~1/25 of part), broadcast once, and the second
    lineitem pass keeps rows with 5·q·cnt < Σq — the integer-exact
    rewrite of qty < 0.2·avg(qty) on the x100 grid, so no fp division
    ever happens.  Total revenue folds as one-row per-batch partials;
    avg-yearly is the same BIGINT floor division the oracle runs."""
    import ray

    from ..functions.boilerplate import partial_aggregate
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_brand"])
    pk = part.filter(pc.equal(part["p_brand"], "Brand#13"))
    pk_ref = ray.put(pk["p_partkey"].combine_chunks())

    line = read_ds(sf_dir, "lineitem",
                   columns=["l_partkey", "l_quantity", "l_extendedprice"])

    def prep_moments(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["l_partkey"],
                              value_set=ray.get(pk_ref)))
        q = fixed_point(t["l_quantity"], 100.0)
        return pa.table({"l_partkey": t["l_partkey"],
                         "q": pa.array(q, pa.int64())})

    mom = partial_aggregate(line, ["l_partkey"],
                            [("q", "sum"), ("q", "count")],
                            prepare=prep_moments)
    schema = pa.schema([("total_x1e4", pa.int64()),
                        ("avg_yearly_x1e4", pa.int64())])
    if mom is None:
        return pa.table({"total_x1e4": pa.array([0], pa.int64()),
                         "avg_yearly_x1e4":
                         pa.array([0], pa.int64())}).cast(schema)
    mom_ref = ray.put(mom.combine_chunks())

    def prep_small(t: pa.Table) -> pa.Table:
        m = ray.get(mom_ref)
        idx = pc.index_in(t["l_partkey"], value_set=m["l_partkey"])
        keep = pc.is_valid(idx)
        t, idx = t.filter(keep), idx.filter(keep)
        q = fixed_point(t["l_quantity"], 100.0)
        sq = m["q_sum"].take(idx).to_numpy(zero_copy_only=False)
        cnt = m["q_count"].take(idx).to_numpy(zero_copy_only=False)
        sel = 5 * q * cnt < sq
        ep = fixed_point(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)[sel])
        return pa.table({"one": pa.array([1], pa.int64()),
                         "ep": pa.array([int(ep.sum())], pa.int64())})

    tot = partial_aggregate(line, ["one"], [("ep", "sum")],
                            prepare=prep_small)
    total = int(tot["ep_sum"][0].as_py()) if tot is not None else 0
    return pa.table({
        "total_x1e4": pa.array([total], pa.int64()),
        "avg_yearly_x1e4": pa.array([total // 7], pa.int64())})


@query("""
WITH b AS (
  SELECT c_custkey, c_nationkey,
         CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS bal
  FROM customer
), s AS (
  SELECT sum(bal)::BIGINT AS sm, count(*)::BIGINT AS n
  FROM b WHERE bal > 0
)
SELECT c_nationkey::BIGINT AS c_nationkey,
       count(*)::BIGINT AS numcust,
       sum(bal)::BIGINT AS totacctbal_x100
FROM b, s
WHERE bal * n > sm
  AND NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderdate >= TIMESTAMP '2000-01-01')
GROUP BY 1 ORDER BY 1
""")
def q_tpch_q22(sf_dir: str) -> pa.Table:
    """TPC-H Q22-shape dormant rich customers: the global
    positive-balance average is two integers (Σbal, n) folded from
    one-row batch partials; 'above average' is the exact integer
    cross-multiplication bal·n > Σbal.  'Dormant' (no order since
    2000-01-01) is the bloom-routed LEFT ANTI hash join — customers
    provably absent from the recent-orders key set bypass the shuffle
    entirely — and survivors fold to per-nation (count, Σbal)
    partials."""
    from ..functions.boilerplate import partial_aggregate
    from ..functions.joins import hash_join

    def read_cust():
        return read_ds(sf_dir, "customer",
                       columns=["c_custkey", "c_nationkey", "c_acctbal"])

    def prep_stats(t: pa.Table) -> pa.Table:
        bal = fixed_point(t["c_acctbal"], 100.0)
        bal = bal[bal > 0]
        return pa.table({"one": pa.array([1], pa.int64()),
                         "sm": pa.array([int(bal.sum())], pa.int64()),
                         "n": pa.array([len(bal)], pa.int64())})

    st = partial_aggregate(read_cust(), ["one"],
                           [("sm", "sum"), ("n", "sum")],
                           prepare=prep_stats)
    schema = pa.schema([("c_nationkey", pa.int64()),
                        ("numcust", pa.int64()),
                        ("totacctbal_x100", pa.int64())])
    if st is None:
        return schema.empty_table()
    sm = int(st["sm_sum"][0].as_py())
    n = int(st["n_sum"][0].as_py())

    def rich(t: pa.Table) -> pa.Table:
        bal = fixed_point(t["c_acctbal"], 100.0)
        keep = bal * n > sm
        return pa.table({
            "c_custkey": t["c_custkey"].filter(pa.array(keep)),
            "c_nationkey": t["c_nationkey"].filter(
                pa.array(keep)).cast(pa.int64()),
            "bal": pa.array(bal[keep], pa.int64())})

    eligible = read_cust().map_batches(rich, batch_format="pyarrow",
                                       zero_copy_batch=True)
    cutoff = pa.scalar(np.datetime64("2000-01-01", "us"),
                       pa.timestamp("us"))
    orders = read_ds(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    def recent(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(
            t["o_orderdate"], cutoff)).select(["o_custkey"])

    out = hash_join(eligible,
                    orders.map_batches(recent, batch_format="pyarrow",
                                       zero_copy_batch=True),
                    left_on="c_custkey", right_on="o_custkey",
                    how="left anti", bloom_prefilter=True)
    if out is None:
        return schema.empty_table()
    agg = partial_aggregate(out, ["c_nationkey"],
                            [("bal", "count"), ("bal", "sum")])
    if agg is None:
        return schema.empty_table()
    t = pa.table({"c_nationkey": agg["c_nationkey"],
                  "numcust": agg["bal_count"].cast(pa.int64()),
                  "totacctbal_x100": agg["bal_sum"].cast(pa.int64())})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("c_nationkey", "ascending")])).cast(schema)


@query("""
WITH l AS (
  SELECT l_orderkey, s_nationkey AS supp_n,
         EXTRACT(year FROM l_shipdate)::BIGINT AS l_year,
         CAST(floor(l_extendedprice * (1 - l_discount) * 10000
                    + 0.5) AS BIGINT) AS rev
  FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1998-01-01'
    AND s_nationkey IN (6, 9)
), j AS (
  SELECT supp_n, c_nationkey AS cust_n, l_year, rev
  FROM l JOIN orders ON l_orderkey = o_orderkey
         JOIN customer ON o_custkey = c_custkey
  WHERE (supp_n = 6 AND c_nationkey = 9)
     OR (supp_n = 9 AND c_nationkey = 6)
)
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation, l_year,
       sum(rev)::BIGINT AS revenue_x1e4
FROM j JOIN nation n1 ON supp_n = n1.n_nationkey
       JOIN nation n2 ON cust_n = n2.n_nationkey
GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
""")
def q_tpch_q7(sf_dir: str) -> pa.Table:
    """TPC-H Q7-shape volume shipping between two nations: supplier
    (tiny, nation-filtered) broadcasts into the lineitem scan so only
    the two nations' shipments survive the read; the two big joins
    (orderkey, then custkey) run co-partitioned with per-task partial
    aggregates INSIDE each join task, so each shuffle ships keyed
    partials, never raw lineitems twice.  Nation names attach at the
    end by broadcast lookup on the ≤ (2·2·years)-row result."""
    import ray

    from ..functions.boilerplate import _group_counts
    from ..functions.joins import hash_join
    n1, n2 = 6, 9
    sup = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    sup = sup.filter(pc.is_in(sup["s_nationkey"],
                              value_set=pa.array([n1, n2], pa.int32())))
    sup_ref = ray.put(sup.combine_chunks())
    lo = pa.scalar(np.datetime64("1996-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"), pa.timestamp("us"))

    line = read_ds(sf_dir, "lineitem",
                   columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                            "l_discount", "l_shipdate"])

    def prep(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                    pc.less(t["l_shipdate"], hi))
        t = t.filter(m)
        s = ray.get(sup_ref)
        idx = pc.index_in(t["l_suppkey"], value_set=s["s_suppkey"])
        keep = pc.is_valid(idx)
        t, idx = t.filter(keep), idx.filter(keep)
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = t["l_discount"].to_numpy(zero_copy_only=False)
        rev = fixed_point(ep * (1.0 - dc))
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "supp_n": s["s_nationkey"].take(idx).cast(pa.int64()),
            "l_year": pc.year(t["l_shipdate"]).cast(pa.int64()),
            "rev": pa.array(rev, pa.int64())})

    lmap = line.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)
    orders = read_ds(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def post1(j: pa.Table) -> pa.Table:
        return _group_counts(j, ["o_custkey", "supp_n", "l_year"],
                             [("rev", "sum")])

    j1 = hash_join(lmap, orders, left_on="l_orderkey",
                   right_on="o_orderkey", post=post1)
    schema = pa.schema([("supp_nation", pa.string()),
                        ("cust_nation", pa.string()),
                        ("l_year", pa.int64()),
                        ("revenue_x1e4", pa.int64())])
    if j1 is None:
        return schema.empty_table()
    cust = read_ds(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def post2(j: pa.Table) -> pa.Table:
        cn = j["c_nationkey"].cast(pa.int64())
        sn = j["supp_n"]
        keep = pc.or_(
            pc.and_(pc.equal(sn, n1), pc.equal(cn, n2)),
            pc.and_(pc.equal(sn, n2), pc.equal(cn, n1)))
        j = pa.table({"supp_n": sn, "cust_n": cn,
                      "l_year": j["l_year"],
                      "rev_sum": j["rev_sum"]}).filter(keep)
        return _group_counts(j, ["supp_n", "cust_n", "l_year"],
                             [("rev_sum", "sum")])

    j2 = hash_join(j1, cust, left_on="o_custkey",
                   right_on="c_custkey", post=post2)
    if j2 is None:
        return schema.empty_table()
    t = _collect(j2)
    if t.num_rows == 0:
        return schema.empty_table()
    m = _group_counts(t, ["supp_n", "cust_n", "l_year"],
                      [("rev_sum_sum", "sum")])
    nation = read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    nk = nation["n_nationkey"].combine_chunks().cast(pa.int64())
    names = nation["n_name"].combine_chunks()
    out = pa.table({
        "supp_nation": names.take(pc.index_in(m["supp_n"],
                                              value_set=nk)),
        "cust_nation": names.take(pc.index_in(m["cust_n"],
                                              value_set=nk)),
        "l_year": m["l_year"],
        "revenue_x1e4": m["rev_sum_sum_sum"].cast(pa.int64())})
    return out.take(pc.sort_indices(out, sort_keys=[
        ("supp_nation", "ascending"), ("cust_nation", "ascending"),
        ("l_year", "ascending")])).cast(schema)


@query("""
SELECT COALESCE(sum(CAST(floor(l_extendedprice * l_discount * 10000
                               + 0.5) AS BIGINT)), 0)::BIGINT
         AS revenue_x1e4,
       count(*)::BIGINT AS n_lines
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1997-01-01'
  AND CAST(floor(l_discount * 100 + 0.5) AS BIGINT) BETWEEN 5 AND 7
  AND l_quantity < 24
""")
def q_tpch_q6(sf_dir: str) -> pa.Table:
    """TPC-H Q6-shape forecast revenue change: the canonical pure
    streaming aggregate — column-pruned scan, vectorized triple
    predicate, per-batch integer partial sums, one scalar to the
    driver.  Zero shuffle at any scale (reference analog: full-scan
    count/sum fold, vfs-index qparser aggregation path)."""
    from ..functions.boilerplate import partial_aggregate
    lo = pa.scalar(np.datetime64("1996-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"), pa.timestamp("us"))
    line = read_ds(sf_dir, "lineitem",
                   columns=["l_shipdate", "l_discount", "l_quantity",
                            "l_extendedprice"])

    def prep(t: pa.Table) -> pa.Table:
        dc = t["l_discount"].to_numpy(zero_copy_only=False)
        # discount is stored as a float of a 2-decimal value: compare
        # on the x100 integer grid so BETWEEN matches SQL exactly.
        d100 = fixed_point(dc, 100.0)
        m = pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                    pc.less(t["l_shipdate"], hi))
        m = pc.and_(m, pc.less(t["l_quantity"], 24.0))
        m = pc.and_(m, pa.array((d100 >= 5) & (d100 <= 7)))
        t2 = t.filter(m)
        ep = t2["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc2 = t2["l_discount"].to_numpy(zero_copy_only=False)
        rev = fixed_point(ep * dc2)
        n = len(rev)
        return pa.table({"g": pa.array(np.zeros(n, np.int64)),
                         "rev": pa.array(rev, pa.int64())})

    t = partial_aggregate(line, ["g"], [("rev", "sum"), ("rev", "count")],
                          prepare=prep)
    schema = pa.schema([("revenue_x1e4", pa.int64()),
                        ("n_lines", pa.int64())])
    if t is None or t.num_rows == 0:
        return pa.table({"revenue_x1e4": pa.array([0], pa.int64()),
                         "n_lines": pa.array([0], pa.int64())})
    return pa.table({
        "revenue_x1e4": pa.array([t["rev_sum"][0].as_py() or 0],
                                 pa.int64()),
        "n_lines": pa.array([t["rev_count"][0].as_py() or 0],
                            pa.int64())}).cast(schema)


@query("""
WITH r AS (
  SELECT l_suppkey,
         sum(CAST(floor(l_extendedprice * (1 - l_discount) * 10000
                        + 0.5) AS BIGINT))::BIGINT AS total_revenue_x1e4
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1996-04-01'
  GROUP BY 1
)
SELECT s_suppkey::BIGINT AS s_suppkey, s_name, total_revenue_x1e4
FROM supplier JOIN r ON s_suppkey = l_suppkey
WHERE total_revenue_x1e4 = (SELECT max(total_revenue_x1e4) FROM r)
ORDER BY s_suppkey
""")
def q_tpch_q15(sf_dir: str) -> pa.Table:
    """TPC-H Q15-shape top supplier: quarter-filtered per-supplier
    revenue via hash_aggregate (per-batch combiner -> key-hash spill ->
    per-part merge; supplier cardinality ~10k/SF so only keyed partials
    move), driver-side max over the small result, supplier names attach
    by broadcast index_in.  Ties on max revenue all return (ordered by
    suppkey), matching the SQL view semantics."""
    from ..functions.boilerplate import hash_aggregate
    lo = pa.scalar(np.datetime64("1996-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1996-04-01", "us"), pa.timestamp("us"))
    line = read_ds(sf_dir, "lineitem",
                   columns=["l_suppkey", "l_extendedprice", "l_discount",
                            "l_shipdate"])

    def prep(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                    pc.less(t["l_shipdate"], hi))
        t = t.filter(m)
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = t["l_discount"].to_numpy(zero_copy_only=False)
        rev = fixed_point(ep * (1.0 - dc))
        return pa.table({"l_suppkey": t["l_suppkey"],
                         "rev": pa.array(rev, pa.int64())})

    out = hash_aggregate(line, ["l_suppkey"], [("rev", "sum")],
                         prepare=prep)
    schema = pa.schema([("s_suppkey", pa.int64()),
                        ("s_name", pa.string()),
                        ("total_revenue_x1e4", pa.int64())])
    if out is None:
        return schema.empty_table()
    t = _collect(out)
    if t.num_rows == 0:
        return schema.empty_table()
    rev = t["rev_sum"].to_numpy(zero_copy_only=False)
    best = rev.max()
    t = t.filter(pa.array(rev == best))
    sup = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    idx = pc.index_in(t["l_suppkey"],
                      value_set=sup["s_suppkey"].combine_chunks())
    out = pa.table({
        "s_suppkey": t["l_suppkey"].cast(pa.int64()),
        "s_name": sup["s_name"].combine_chunks().take(idx),
        "total_revenue_x1e4": t["rev_sum"].cast(pa.int64())})
    return out.take(pc.sort_indices(out, sort_keys=[
        ("s_suppkey", "ascending")])).cast(schema)


@query("""
SELECT COALESCE(sum(CAST(floor(l_extendedprice * (1 - l_discount)
                               * 10000 + 0.5) AS BIGINT)), 0)::BIGINT
         AS revenue_x1e4,
       count(*)::BIGINT AS n_lines
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5
       AND l_quantity BETWEEN 1 AND 11)
   OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 10
       AND l_quantity BETWEEN 10 AND 20)
   OR (p_brand = 'Brand#3' AND p_size BETWEEN 1 AND 15
       AND l_quantity BETWEEN 20 AND 30)
""")
def q_tpch_q19(sf_dir: str) -> pa.Table:
    """TPC-H Q19-shape disjunctive discounted revenue: the part
    dimension's (brand, size) attributes ship ONCE via ray.put and
    attach to each lineitem batch by index_in (no shuffle — the join
    key is only needed to evaluate a predicate, so a broadcast attach
    replaces the entire join); the three-arm OR evaluates as one
    vectorized mask and only integer partials reach the driver.  At
    100 TB a part dimension beyond the broadcast budget flips the
    attach to the co-partitioned hash_join with the same mask as its
    post kernel."""
    import ray

    from ..functions.boilerplate import partial_aggregate
    part = read_table(sf_dir, "part",
                      columns=["p_partkey", "p_brand", "p_size"])
    part_ref = ray.put(part.combine_chunks())
    arms = [("Brand#12", 1, 5, 1.0, 11.0),
            ("Brand#23", 1, 10, 10.0, 20.0),
            ("Brand#3", 1, 15, 20.0, 30.0)]

    line = read_ds(sf_dir, "lineitem",
                   columns=["l_partkey", "l_quantity", "l_extendedprice",
                            "l_discount"])

    def prep(t: pa.Table) -> pa.Table:
        p = ray.get(part_ref)
        idx = pc.index_in(t["l_partkey"], value_set=p["p_partkey"])
        brand = p["p_brand"].take(idx)
        size = p["p_size"].take(idx)
        qty = t["l_quantity"]
        mask = None
        for b, slo, shi, qlo, qhi in arms:
            arm = pc.and_(pc.equal(brand, b),
                          pc.and_(pc.greater_equal(size, slo),
                                  pc.less_equal(size, shi)))
            arm = pc.and_(arm,
                          pc.and_(pc.greater_equal(qty, qlo),
                                  pc.less_equal(qty, qhi)))
            mask = arm if mask is None else pc.or_(mask, arm)
        t2 = t.filter(mask)
        ep = t2["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = t2["l_discount"].to_numpy(zero_copy_only=False)
        rev = fixed_point(ep * (1.0 - dc))
        return pa.table({"g": pa.array(np.zeros(len(rev), np.int64)),
                         "rev": pa.array(rev, pa.int64())})

    t = partial_aggregate(line, ["g"], [("rev", "sum"), ("rev", "count")],
                          prepare=prep)
    schema = pa.schema([("revenue_x1e4", pa.int64()),
                        ("n_lines", pa.int64())])
    if t is None or t.num_rows == 0:
        return pa.table({"revenue_x1e4": pa.array([0], pa.int64()),
                         "n_lines": pa.array([0], pa.int64())})
    return pa.table({
        "revenue_x1e4": pa.array([t["rev_sum"][0].as_py() or 0],
                                 pa.int64()),
        "n_lines": pa.array([t["rev_count"][0].as_py() or 0],
                            pa.int64())}).cast(schema)


@query("""
WITH l AS (
  SELECT l_orderkey, s_nationkey AS supp_n,
         CAST(floor(l_extendedprice * (1 - l_discount) * 10000
                    + 0.5) AS BIGINT) AS rev
  FROM lineitem
    JOIN part ON l_partkey = p_partkey AND p_type = 'STANDARD'
    JOIN supplier ON l_suppkey = s_suppkey
), j AS (
  SELECT EXTRACT(year FROM o_orderdate)::BIGINT AS o_year,
         (supp_n = 7) AS is_t, rev
  FROM l JOIN orders ON l_orderkey = o_orderkey
         JOIN customer ON o_custkey = c_custkey
  WHERE o_orderdate >= TIMESTAMP '1996-01-01'
    AND o_orderdate < TIMESTAMP '1998-01-01'
    AND c_nationkey IN (2, 7, 12, 17, 22)
), y AS (
  SELECT o_year,
         sum(CASE WHEN is_t THEN rev ELSE 0 END)::BIGINT AS num,
         sum(rev)::BIGINT AS den
  FROM j GROUP BY 1
)
SELECT o_year, num AS nation_x1e4, den AS total_x1e4,
       CASE WHEN den = 0 THEN 0
            ELSE ((num::HUGEINT * 1000000) // den)::BIGINT
       END AS mkt_share_x1e6
FROM y ORDER BY o_year
""")
def q_tpch_q8(sf_dir: str) -> pa.Table:
    """TPC-H Q8-shape national market share: STANDARD-part keys and
    the supplier->nation map broadcast into the lineitem scan (the two
    dimension joins vanish into index_in attaches), then the two big
    joins (orderkey, custkey) run co-partitioned with per-task partial
    aggregates, exactly the Q7 substrate.  The share division happens
    ONCE on the driver over per-(year, is-target-nation) integer
    partials — floor((num * 1e6) / den), reproduced verbatim by the
    oracle so the ratio is integer-exact."""
    import ray

    from ..functions.boilerplate import _group_counts
    from ..functions.joins import hash_join
    target_n = 7
    asia = [2, 7, 12, 17, 22]
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_type"])
    pk = part.filter(pc.equal(part["p_type"], "STANDARD"))["p_partkey"]
    pk_ref = ray.put(pk.combine_chunks())
    sup = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    sup_ref = ray.put(sup.combine_chunks())

    line = read_ds(sf_dir, "lineitem",
                   columns=["l_orderkey", "l_partkey", "l_suppkey",
                            "l_extendedprice", "l_discount"])

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["l_partkey"],
                              value_set=ray.get(pk_ref)))
        s = ray.get(sup_ref)
        idx = pc.index_in(t["l_suppkey"], value_set=s["s_suppkey"])
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = t["l_discount"].to_numpy(zero_copy_only=False)
        rev = fixed_point(ep * (1.0 - dc))
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "supp_n": s["s_nationkey"].take(idx).cast(pa.int64()),
            "rev": pa.array(rev, pa.int64())})

    lmap = line.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)
    lo = pa.scalar(np.datetime64("1996-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"), pa.timestamp("us"))
    orders = read_ds(sf_dir, "orders",
                     columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def oprep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                             pc.less(t["o_orderdate"], hi)))
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_custkey": t["o_custkey"],
            "o_year": pc.year(t["o_orderdate"]).cast(pa.int64())})

    omap = orders.map_batches(oprep, batch_format="pyarrow",
                              zero_copy_batch=True)

    def post1(j: pa.Table) -> pa.Table:
        return _group_counts(j, ["o_custkey", "o_year", "supp_n"],
                             [("rev", "sum")])

    j1 = hash_join(lmap, omap, left_on="l_orderkey",
                   right_on="o_orderkey", post=post1)
    schema = pa.schema([("o_year", pa.int64()),
                        ("nation_x1e4", pa.int64()),
                        ("total_x1e4", pa.int64()),
                        ("mkt_share_x1e6", pa.int64())])
    if j1 is None:
        return schema.empty_table()
    cust = read_ds(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    asia_arr = pa.array(asia, pa.int32())

    def post2(j: pa.Table) -> pa.Table:
        j = j.filter(pc.is_in(j["c_nationkey"], value_set=asia_arr))
        flag = pc.cast(pc.equal(j["supp_n"], target_n), pa.int64())
        j = pa.table({"o_year": j["o_year"], "is_t": flag,
                      "rev_sum": j["rev_sum"]})
        return _group_counts(j, ["o_year", "is_t"],
                             [("rev_sum", "sum")])

    j2 = hash_join(j1, cust, left_on="o_custkey",
                   right_on="c_custkey", post=post2)
    if j2 is None:
        return schema.empty_table()
    t = _collect(j2)
    if t.num_rows == 0:
        return schema.empty_table()
    m = _group_counts(t, ["o_year", "is_t"], [("rev_sum_sum", "sum")])
    acc: dict[int, list[int]] = {}
    for y, f, s in zip(m["o_year"].to_pylist(), m["is_t"].to_pylist(),
                       m["rev_sum_sum_sum"].to_pylist()):
        a = acc.setdefault(int(y), [0, 0])
        a[1] += int(s)
        if f == 1:
            a[0] += int(s)
    years = sorted(acc)
    return pa.table({
        "o_year": pa.array(years, pa.int64()),
        "nation_x1e4": pa.array([acc[y][0] for y in years], pa.int64()),
        "total_x1e4": pa.array([acc[y][1] for y in years], pa.int64()),
        "mkt_share_x1e6": pa.array(
            [(acc[y][0] * 1_000_000) // acc[y][1] if acc[y][1] else 0
             for y in years], pa.int64())}).cast(schema)


@query("""
WITH l AS (
  SELECT s_nationkey AS supp_n,
         EXTRACT(year FROM o_orderdate)::BIGINT AS o_year,
         (CAST(floor(l_extendedprice * (1 - l_discount) * 10000
                     + 0.5) AS BIGINT)
          - CAST(floor(p_retailprice * 10000 + 0.5) AS BIGINT)
            * CAST(floor(l_quantity + 0.5) AS BIGINT)) AS profit
  FROM lineitem
    JOIN part ON l_partkey = p_partkey AND p_name LIKE '%gear%'
    JOIN supplier ON l_suppkey = s_suppkey
    JOIN orders ON l_orderkey = o_orderkey
)
SELECT n_name AS nation, o_year,
       sum(profit)::BIGINT AS sum_profit_x1e4
FROM l JOIN nation ON supp_n = n_nationkey
GROUP BY 1, 2 ORDER BY nation, o_year DESC
""")
def q_tpch_q9(sf_dir: str) -> pa.Table:
    """TPC-H Q9-shape product-type profit by supplier nation and
    order year (adapted: no partsupp table in this corpus, so unit
    cost is p_retailprice).  Part cost map ('gear' parts) and the
    supplier->nation map broadcast into the lineitem scan; the single
    big join (orderkey, for the year) runs co-partitioned with
    per-(nation, year) integer partials inside each join task —
    profit_x1e4 = rev_x1e4 - retail_x1e4 * qty stays in int64 end to
    end, so the distributed sum is bit-exact vs the oracle."""
    import ray

    from ..functions.boilerplate import _group_counts
    from ..functions.joins import hash_join
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_name",
                                               "p_retailprice"])
    part = part.filter(pc.match_substring(part["p_name"], "gear"))
    cost = fixed_point(part["p_retailprice"])
    pmap = pa.table({"p_partkey": part["p_partkey"],
                     "cost_x1e4": pa.array(cost, pa.int64())})
    pmap_ref = ray.put(pmap.combine_chunks())
    sup = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    sup_ref = ray.put(sup.combine_chunks())

    line = read_ds(sf_dir, "lineitem",
                   columns=["l_orderkey", "l_partkey", "l_suppkey",
                            "l_quantity", "l_extendedprice", "l_discount"])

    def prep(t: pa.Table) -> pa.Table:
        p = ray.get(pmap_ref)
        idx = pc.index_in(t["l_partkey"], value_set=p["p_partkey"])
        keep = pc.is_valid(idx)
        t, idx = t.filter(keep), idx.filter(keep)
        s = ray.get(sup_ref)
        sidx = pc.index_in(t["l_suppkey"], value_set=s["s_suppkey"])
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = t["l_discount"].to_numpy(zero_copy_only=False)
        qty = fixed_point(t["l_quantity"], 1.0)
        rev = fixed_point(ep * (1.0 - dc))
        c = p["cost_x1e4"].take(idx).to_numpy(zero_copy_only=False)
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "supp_n": s["s_nationkey"].take(sidx).cast(pa.int64()),
            "profit": pa.array(rev - c * qty, pa.int64())})

    lmap = line.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)
    orders = read_ds(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])

    def oprep(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_year": pc.year(t["o_orderdate"]).cast(pa.int64())})

    omap = orders.map_batches(oprep, batch_format="pyarrow",
                              zero_copy_batch=True)

    def post(j: pa.Table) -> pa.Table:
        return _group_counts(j, ["supp_n", "o_year"],
                             [("profit", "sum")])

    out = hash_join(lmap, omap, left_on="l_orderkey",
                    right_on="o_orderkey", post=post)
    schema = pa.schema([("nation", pa.string()),
                        ("o_year", pa.int64()),
                        ("sum_profit_x1e4", pa.int64())])
    if out is None:
        return schema.empty_table()
    t = _collect(out)
    if t.num_rows == 0:
        return schema.empty_table()
    m = _group_counts(t, ["supp_n", "o_year"], [("profit_sum", "sum")])
    nation = read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    nk = nation["n_nationkey"].combine_chunks().cast(pa.int64())
    out = pa.table({
        "nation": nation["n_name"].combine_chunks().take(
            pc.index_in(m["supp_n"], value_set=nk)),
        "o_year": m["o_year"],
        "sum_profit_x1e4": m["profit_sum_sum"].cast(pa.int64())})
    return out.take(pc.sort_indices(out, sort_keys=[
        ("nation", "ascending"),
        ("o_year", "descending")])).cast(schema)


@query("""
WITH f AS (
  SELECT l_orderkey, l_suppkey, l_shipdate
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
  WHERE o_orderstatus = 'F'
), m AS (
  SELECT l_orderkey, max(l_shipdate) AS ms,
         count(DISTINCT l_suppkey) AS ns
  FROM f GROUP BY 1
), w AS (
  SELECT f.l_orderkey, min(f.l_suppkey) AS sk,
         count(DISTINCT f.l_suppkey) AS nl
  FROM f JOIN m ON f.l_orderkey = m.l_orderkey
                AND f.l_shipdate = m.ms
  WHERE m.ns >= 2 GROUP BY 1
)
SELECT s_name, count(*)::BIGINT AS numwait
FROM w JOIN supplier ON w.sk = s_suppkey
WHERE nl = 1
GROUP BY 1 ORDER BY numwait DESC, s_name LIMIT 10
""")
def q_tpch_q21(sf_dir: str) -> pa.Table:
    """TPC-H Q21-shape waiting-supplier count (adapted: this corpus
    has no commit/receipt dates, so 'kept the order waiting' = the
    order's sole latest-shipping supplier on a multi-supplier 'F'
    order — same EXISTS + NOT-EXISTS correlated structure).  One
    co-partitioned join (lineitem x F-orders on orderkey) puts every
    order's lines in one partition; a vectorized kernel computes
    per-order max shipdate, distinct-supplier count, and the
    distinct-suppliers-at-max via boundary diffs + reduceat (never a
    per-order Python loop), emitting keyed partials only.  Reference
    analog: correlated semi/anti probes (vfs-index qparser EXISTS
    path)."""
    from ..functions.boilerplate import _group_counts
    from ..functions.joins import hash_join
    line = read_ds(sf_dir, "lineitem",
                   columns=["l_orderkey", "l_suppkey", "l_shipdate"])

    def lprep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "l_suppkey": t["l_suppkey"],
            "ship": t["l_shipdate"].cast(pa.int64())})

    lmap = line.map_batches(lprep, batch_format="pyarrow",
                            zero_copy_batch=True)
    orders = read_ds(sf_dir, "orders",
                     columns=["o_orderkey", "o_orderstatus"])

    def oprep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderstatus"], "F"))
        return t.select(["o_orderkey"])

    omap = orders.map_batches(oprep, batch_format="pyarrow",
                              zero_copy_batch=True)

    def post(j: pa.Table) -> pa.Table:
        empty = pa.table({"sk": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64())})
        if j.num_rows == 0:
            return empty
        ok = j["l_orderkey"].to_numpy(zero_copy_only=False)
        sk = j["l_suppkey"].to_numpy(zero_copy_only=False)
        sd = j["ship"].to_numpy(zero_copy_only=False)
        srt = np.lexsort((sk, ok))
        ok, sk, sd = ok[srt], sk[srt], sd[srt]
        new_ord = np.r_[True, ok[1:] != ok[:-1]]
        starts = np.flatnonzero(new_ord)
        counts = np.diff(np.r_[starts, len(ok)])
        oidx = np.repeat(np.arange(len(starts)), counts)
        grpmax = np.maximum.reduceat(sd, starts)
        new_pair = np.r_[True, (ok[1:] != ok[:-1]) |
                               (sk[1:] != sk[:-1])]
        pstart = np.flatnonzero(new_pair)
        ns = np.add.reduceat(new_pair.astype(np.int64), starts)
        atmax = sd == grpmax[oidx]
        hasmax = np.maximum.reduceat(
            atmax.astype(np.int8), pstart).astype(bool)
        porder = oidx[pstart]
        nm = np.bincount(porder, weights=hasmax,
                         minlength=len(starts)).astype(np.int64)
        sole = hasmax & (nm[porder] == 1) & (ns[porder] >= 2)
        emit = sk[pstart[sole]]
        if len(emit) == 0:
            return empty
        return _group_counts(
            pa.table({"sk": pa.array(emit.astype(np.int64), pa.int64()),
                      "n": pa.array(np.ones(len(emit), np.int64))}),
            ["sk"], [("n", "sum")]).rename_columns(["sk", "n"])

    out = hash_join(lmap, omap, left_on="l_orderkey",
                    right_on="o_orderkey", how="inner", post=post)
    schema = pa.schema([("s_name", pa.string()),
                        ("numwait", pa.int64())])
    if out is None:
        return schema.empty_table()
    t = _collect(out)
    if t.num_rows == 0:
        return schema.empty_table()
    m = _group_counts(t, ["sk"], [("n", "sum")])
    sup = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    idx = pc.index_in(m["sk"],
                      value_set=sup["s_suppkey"].combine_chunks())
    out = pa.table({
        "s_name": sup["s_name"].combine_chunks().take(idx),
        "numwait": m["n_sum"].cast(pa.int64())})
    return out.take(pc.sort_indices(out, sort_keys=[
        ("numwait", "descending"),
        ("s_name", "ascending")])[:10]).cast(schema)


@query("""
SELECT l_linestatus,
       sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END)::BIGINT AS high_line_count,
       sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 0 ELSE 1 END)::BIGINT AS low_line_count
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE l_shipdate > o_orderdate + INTERVAL 60 DAY
GROUP BY 1 ORDER BY 1
""")
def q_tpch_q12(sf_dir: str) -> pa.Table:
    """TPC-H Q12-shape late-shipment priority counts (adapted: this
    corpus has no l_shipmode/commitdate, so the mode axis is
    l_linestatus and 'late' = shipped more than 60 days after the
    order date).  One co-partitioned hash join on orderkey with the
    conditional counts folded INSIDE each join task — only (status,
    high, low) partials leave the shuffle; the driver merges a
    handful of rows.  Reference analog: qparser conditional-count
    aggregation over an AND probe."""
    from ..functions.boilerplate import _group_counts
    from ..functions.joins import hash_join
    line = read_ds(sf_dir, "lineitem",
                   columns=["l_orderkey", "l_linestatus", "l_shipdate"])
    orders = read_ds(sf_dir, "orders",
                     columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    late_us = 60 * 86_400 * 1_000_000  # 60 days in microseconds

    def lprep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "l_linestatus": t["l_linestatus"],
            "ship": t["l_shipdate"].cast(pa.int64())})

    def oprep(t: pa.Table) -> pa.Table:
        hi = pc.is_in(t["o_orderpriority"],
                      value_set=pa.array(["1-URGENT", "2-HIGH"]))
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "odate": t["o_orderdate"].cast(pa.int64()),
            "is_high": pc.cast(hi, pa.int64())})

    def post(j: pa.Table) -> pa.Table:
        empty = pa.table({"l_linestatus": pa.array([], pa.string()),
                          "high": pa.array([], pa.int64()),
                          "low": pa.array([], pa.int64())})
        if j.num_rows == 0:
            return empty
        late = pc.greater(pc.subtract(j["ship"], j["odate"]),
                          pa.scalar(late_us, pa.int64()))
        j = j.filter(late)
        if j.num_rows == 0:
            return empty
        g = _group_counts(
            pa.table({"l_linestatus": j["l_linestatus"],
                      "high": j["is_high"],
                      "low": pc.subtract(pa.scalar(1, pa.int64()),
                                         j["is_high"])}),
            ["l_linestatus"], [("high", "sum"), ("low", "sum")])
        return g.rename_columns(["l_linestatus", "high", "low"])

    out = hash_join(
        line.map_batches(lprep, batch_format="pyarrow",
                         zero_copy_batch=True),
        orders.map_batches(oprep, batch_format="pyarrow",
                           zero_copy_batch=True),
        left_on="l_orderkey", right_on="o_orderkey", how="inner",
        post=post)
    schema = pa.schema([("l_linestatus", pa.string()),
                        ("high_line_count", pa.int64()),
                        ("low_line_count", pa.int64())])
    if out is None:
        return schema.empty_table()
    t = _collect(out)
    if t.num_rows == 0:
        return schema.empty_table()
    m = _group_counts(t, ["l_linestatus"],
                      [("high", "sum"), ("low", "sum")])
    t = pa.table({"l_linestatus": m["l_linestatus"],
                  "high_line_count": m["high_sum"],
                  "low_line_count": m["low_sum"]}).cast(schema)
    return t.take(pc.sort_indices(t, sort_keys=[
        ("l_linestatus", "ascending")]))


@query("""
WITH v AS (
  SELECT l_partkey::BIGINT AS p_partkey,
         sum(CAST(floor(l_extendedprice * (1 - l_discount) * 10000
                        + 0.5) AS BIGINT))::BIGINT AS value_x1e4
  FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
  WHERE s_nationkey = 9 GROUP BY 1
)
SELECT p_partkey, value_x1e4 FROM v
WHERE value_x1e4 * (SELECT count(*) FROM v)
      > 2 * (SELECT sum(value_x1e4) FROM v)
ORDER BY value_x1e4 DESC, p_partkey
""")
def q_tpch_q11(sf_dir: str) -> pa.Table:
    """TPC-H Q11-shape important parts (adapted: no partsupp table, so
    'value' = revenue shipped per part by one nation's suppliers, and
    the HAVING threshold is 'more than 2x the mean per-part value' —
    scale-free where Q11's fixed fraction goes vacuous as part
    cardinality grows).  The nation's supplier key set broadcasts
    once (at 100 TB the supplier dim is still ~1e-3 of lineitem;
    past the broadcast budget this flips to hash_join); revenue
    folds per batch into per-part integer partials — zero shuffle —
    and the threshold is the exact integer comparison
    value*n_parts > 2*total both engines run.  Reference analog:
    count-by-key traversal + threshold scan."""
    import ray

    from ..functions.boilerplate import partial_aggregate
    sup = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    keep = sup.filter(pc.equal(sup["s_nationkey"], 9))
    keep_ref = ray.put(keep["s_suppkey"].combine_chunks())

    line = read_ds(sf_dir, "lineitem",
                   columns=["l_partkey", "l_suppkey", "l_extendedprice",
                            "l_discount"])

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["l_suppkey"],
                              value_set=ray.get(keep_ref)))
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = t["l_discount"].to_numpy(zero_copy_only=False)
        rev = fixed_point(ep * (1.0 - dc))
        return pa.table({"p_partkey": t["l_partkey"].cast(pa.int64()),
                         "rev": pa.array(rev, pa.int64())})

    t = partial_aggregate(line, ["p_partkey"], [("rev", "sum")],
                          prepare=prep)
    schema = pa.schema([("p_partkey", pa.int64()),
                        ("value_x1e4", pa.int64())])
    if t is None:
        return schema.empty_table()
    vals = t["rev_sum"].to_numpy(zero_copy_only=False)
    total = int(vals.sum())
    mask = vals * len(vals) > 2 * total
    t = pa.table({"p_partkey": t["p_partkey"],
                  "value_x1e4": t["rev_sum"]}).filter(
        pa.array(mask)).cast(schema)
    return t.take(pc.sort_indices(t, sort_keys=[
        ("value_x1e4", "descending"), ("p_partkey", "ascending")]))


@query("""
WITH fam AS (
  SELECT p_partkey FROM part WHERE p_name LIKE 'small %'
), q AS (
  SELECT l_suppkey,
         sum(CASE WHEN l_shipdate >= TIMESTAMP '1999-01-01'
                  THEN CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)
                  ELSE 0 END)::BIGINT AS recent_x100,
         sum(CAST(floor(l_quantity * 100 + 0.5)
                  AS BIGINT))::BIGINT AS total_x100
  FROM lineitem JOIN fam ON l_partkey = p_partkey GROUP BY 1
)
SELECT s_name, n_name AS nation, recent_x100, total_x100
FROM q JOIN supplier ON l_suppkey = s_suppkey
       JOIN nation ON s_nationkey = n_nationkey
WHERE recent_x100 * 2 > total_x100
ORDER BY s_name
""")
def q_tpch_q20(sf_dir: str) -> pa.Table:
    """TPC-H Q20-shape excess suppliers (adapted: no partsupp/availqty,
    so the nested EXISTS becomes 'suppliers who shipped more than half
    of their all-time small-part quantity since 1999' — the same
    part-family semi-join feeding a per-supplier grouped threshold).
    The family partkey set broadcasts once; quantities fold into
    per-supplier (recent, total) integer partials per batch — zero
    shuffle; names attach by broadcast index_in at the end.
    Reference analog: nested semi-join probe (qparser EXISTS path)."""
    import ray

    from ..functions.boilerplate import partial_aggregate
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_name"])
    fam = part.filter(pc.starts_with(part["p_name"], "small "))
    fam_ref = ray.put(fam["p_partkey"].combine_chunks())
    cut = pa.scalar(np.datetime64("1999-01-01", "us"),
                    pa.timestamp("us"))

    line = read_ds(sf_dir, "lineitem",
                   columns=["l_partkey", "l_suppkey", "l_quantity",
                            "l_shipdate"])

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["l_partkey"],
                              value_set=ray.get(fam_ref)))
        q = fixed_point(t["l_quantity"], 100.0)
        recent = pc.greater_equal(t["l_shipdate"], cut).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "sk": t["l_suppkey"].cast(pa.int64()),
            "recent": pa.array(np.where(recent, q, 0), pa.int64()),
            "total": pa.array(q, pa.int64())})

    t = partial_aggregate(line, ["sk"],
                          [("recent", "sum"), ("total", "sum")],
                          prepare=prep)
    schema = pa.schema([("s_name", pa.string()),
                        ("nation", pa.string()),
                        ("recent_x100", pa.int64()),
                        ("total_x100", pa.int64())])
    if t is None:
        return schema.empty_table()
    rec = t["recent_sum"].to_numpy(zero_copy_only=False)
    tot = t["total_sum"].to_numpy(zero_copy_only=False)
    t = t.filter(pa.array(rec * 2 > tot))
    if t.num_rows == 0:
        return schema.empty_table()
    sup = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_name",
                                                  "s_nationkey"])
    nat = read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    sidx = pc.index_in(t["sk"],
                       value_set=sup["s_suppkey"].combine_chunks())
    snat = sup["s_nationkey"].combine_chunks().take(sidx)
    nidx = pc.index_in(snat,
                       value_set=nat["n_nationkey"].combine_chunks())
    out = pa.table({
        "s_name": sup["s_name"].combine_chunks().take(sidx),
        "nation": nat["n_name"].combine_chunks().take(nidx),
        "recent_x100": t["recent_sum"],
        "total_x100": t["total_sum"]}).cast(schema)
    return out.take(pc.sort_indices(out, sort_keys=[
        ("s_name", "ascending")]))


@query("""
WITH o AS (
  SELECT o_custkey, count(*)::BIGINT AS order_cnt
  FROM orders WHERE year(o_orderdate) = 1995 GROUP BY 1
), c AS (
  SELECT c_custkey,
         CAST(floor(c_acctbal * 10000 + 0.5) AS BIGINT) AS acctbal_x1e4
  FROM customer WHERE c_acctbal > 5000
)
SELECT COALESCE(o.o_custkey, c.c_custkey) AS custkey,
       order_cnt, acctbal_x1e4
FROM o FULL OUTER JOIN c ON o.o_custkey = c.c_custkey
ORDER BY custkey
""")
def q_orders_customer_full(sf_dir: str) -> pa.Table:
    """FULL OUTER equi-join with genuinely-disjoint sides: per-customer
    1995 order counts (hash_aggregate — per-batch partials, hive key
    shuffle) FULL OUTER the high-balance customer subset.  Customers
    with 1995 orders but low balance null-extend on the right;
    high-balance customers with no 1995 orders null-extend on the
    left — co_partition_apply's ``include_missing_left`` runs right
    partitions the probe never touched against an empty left table,
    so each unmatched right row surfaces exactly once.  Acero
    coalesces the equi-key into one column."""
    from ..functions.boilerplate import hash_aggregate
    from ..functions.joins import hash_join
    schema = pa.schema([("custkey", pa.int64()),
                        ("order_cnt", pa.int64()),
                        ("acctbal_x1e4", pa.int64())])

    orders = read_ds(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    def prep_o(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(pc.year(t["o_orderdate"]), 1995))
        return pa.table({"o_custkey": t["o_custkey"]})

    counts = hash_aggregate(orders, ["o_custkey"],
                            [("o_custkey", "count")], prepare=prep_o)

    cust = read_ds(sf_dir, "customer", columns=["c_custkey", "c_acctbal"])

    def prep_c(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["c_acctbal"], 5000.0))
        bal = fixed_point(t["c_acctbal"])
        return pa.table({"c_custkey": t["c_custkey"].cast(pa.int64()),
                         "acctbal_x1e4": pa.array(bal, pa.int64())})

    cust_f = cust.map_batches(prep_c, batch_format="pyarrow",
                              zero_copy_batch=True)
    if counts is None:  # no 1995 orders at all: right side only
        t = _collect(cust_f)
        res = pa.table({
            "custkey": t["c_custkey"],
            "order_cnt": pa.nulls(t.num_rows, pa.int64()),
            "acctbal_x1e4": t["acctbal_x1e4"]})
        return res.take(pc.sort_indices(
            res, sort_keys=[("custkey", "ascending")])).cast(schema)
    out = hash_join(counts, cust_f, left_on="o_custkey",
                    right_on="c_custkey", how="full outer")
    t = _collect(out)
    res = pa.table({"custkey": t["o_custkey"].cast(pa.int64()),
                    "order_cnt": t["o_custkey_count"].cast(pa.int64()),
                    "acctbal_x1e4": t["acctbal_x1e4"]})
    return res.take(pc.sort_indices(
        res, sort_keys=[("custkey", "ascending")])).cast(schema)


# snapshot diff: the oracle derives version B with the same mix32
# (HUGEINT arithmetic + xor) and classifies via a FULL OUTER JOIN
# with IS DISTINCT FROM column compares
@query("""
WITH h1 AS (
  SELECT *, CAST((CAST(o_orderkey AS HUGEINT) * 2654435761)
                 % 4294967296 AS BIGINT) AS v
  FROM orders
), h2 AS (
  SELECT * REPLACE (CAST((CAST(xor(v, v >> 16) AS HUGEINT)
                          * 2246822519) % 4294967296 AS BIGINT) AS v)
  FROM h1
), hh AS (
  SELECT *, xor(v, v >> 13) % 19 AS h FROM h2
), b AS (
  SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice,
         o_orderdate,
         CASE WHEN h = 7 THEN '9-SYNTH'
              ELSE o_orderpriority END AS o_orderpriority
  FROM hh WHERE h <> 0
  UNION ALL
  SELECT o_orderkey + 10000000, o_custkey, o_orderstatus,
         o_totalprice, o_orderdate, '0-NEW'
  FROM hh WHERE h = 3
), d AS (
  SELECT coalesce(a.o_orderkey, b.o_orderkey) AS o_orderkey,
         CASE WHEN b.o_orderkey IS NULL THEN 'removed'
              WHEN a.o_orderkey IS NULL THEN 'added'
              WHEN (a.o_custkey IS DISTINCT FROM b.o_custkey)
                OR (a.o_orderstatus IS DISTINCT FROM b.o_orderstatus)
                OR (a.o_totalprice IS DISTINCT FROM b.o_totalprice)
                OR (a.o_orderdate IS DISTINCT FROM b.o_orderdate)
                OR (a.o_orderpriority IS DISTINCT FROM
                    b.o_orderpriority)
              THEN 'changed' END AS change
  FROM orders a FULL OUTER JOIN b ON a.o_orderkey = b.o_orderkey
)
SELECT o_orderkey, change FROM d WHERE change IS NOT NULL
ORDER BY o_orderkey
""")
def q_orders_diff(sf_dir: str) -> pa.Table:
    """Snapshot diff (incremental-maintenance primitive): classify
    every orderkey as added / removed / changed between the orders
    table and a deterministically derived next version (mix32(key)%19:
    0 → deleted, 7 → priority rewritten, 3 → an extra key+10M row).
    Both snapshots co-partition by key hash through the disk-spill
    substrate; the per-partition kernel is one vectorized index_in
    probe + null-safe column compare (functions/diff.py
    snapshot_diff)."""
    from ..functions.diff import snapshot_diff
    from ..hashing import mix32
    cols = ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
            "o_orderdate", "o_orderpriority"]
    a = read_ds(sf_dir, "orders", columns=cols)

    def derive(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        h = mix32(k) % 19
        base = t.filter(pa.array(h != 0))
        hb = h[h != 0]
        pi = base.schema.get_field_index("o_orderpriority")
        base = base.set_column(pi, "o_orderpriority", pc.if_else(
            pa.array(hb == 7), pa.scalar("9-SYNTH"),
            base["o_orderpriority"]))
        add = t.filter(pa.array(h == 3))
        ki = add.schema.get_field_index("o_orderkey")
        add = add.set_column(ki, "o_orderkey", pc.add(
            add["o_orderkey"], pa.scalar(10_000_000, pa.int64())))
        api = add.schema.get_field_index("o_orderpriority")
        add = add.set_column(api, "o_orderpriority", pa.array(
            np.full(add.num_rows, "0-NEW")))
        return pa.concat_tables([base, add]).combine_chunks()

    b = a.map_batches(derive, batch_format="pyarrow",
                      zero_copy_batch=True)
    out = snapshot_diff(a, b, key="o_orderkey",
                        compare_cols=[c for c in cols
                                      if c != "o_orderkey"])
    tbl = _collect(out)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[
        ("key", "ascending")]))
    return pa.table({"o_orderkey": tbl["key"],
                     "change": tbl["change"]}).cast(pa.schema([
                         ("o_orderkey", pa.int64()),
                         ("change", pa.string())]))


@query("""
SELECT o_orderkey, price_x1e4, rn FROM (
  SELECT o_orderkey,
         CAST(floor(o_totalprice * 10000 + 0.5) AS BIGINT) AS price_x1e4,
         row_number() OVER (
           ORDER BY CAST(floor(o_totalprice * 10000 + 0.5) AS BIGINT) DESC,
                    o_orderkey) AS rn
  FROM orders)
WHERE (rn - 1) % 97 = 0
ORDER BY rn
""")
def q_orders_ranked(sf_dir: str) -> pa.Table:
    """Global ORDER BY with exact ROW_NUMBER ordinals via the
    sample-split range-partitioned sort (functions/sort.py): routing
    prefix → hive range spill → per-part full-key sort → cumulative
    offsets.  Prices rank on the x1e4 grid so engine and SQL agree on
    ties; the output samples every 97th rank, which pins the global
    partition offsets without shipping the whole sorted relation
    through the gate."""
    from ..functions.sort import order_by
    ds = read_ds(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        px = fixed_point(t["o_totalprice"])
        return pa.table({
            "o_orderkey": t["o_orderkey"].cast(pa.int64()),
            "price_x1e4": pa.array(px, pa.int64())})

    out = order_by(ds.map_batches(prep, batch_format="pyarrow",
                                  zero_copy_batch=True),
                   [("price_x1e4", "desc"), ("o_orderkey", "asc")],
                   row_number_col="rn")

    def stride(t: pa.Table) -> pa.Table:
        rn = t["rn"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array((rn - 1) % 97 == 0))

    tbl = _collect(out.map_batches(stride, batch_format="pyarrow",
                                   zero_copy_batch=True))
    return tbl.select(["o_orderkey", "price_x1e4", "rn"]).sort_by("rn")


@query("""
SELECT year(o_orderdate)::BIGINT AS year,
       month(o_orderdate)::BIGINT AS month,
       count(*)::BIGINT AS n_orders,
       sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))::BIGINT
         AS revenue_cents
FROM orders GROUP BY 1, 2 ORDER BY 1, 2
""")
def q_orders_monthly(sf_dir: str) -> pa.Table:
    """Monthly order volume + integer-cents revenue — the calendar
    rollup every BI layer asks for first; month arithmetic is pure
    integer (epoch days → civil month via the days-from-civil inverse
    is avoided: both sides truncate via SQL date_trunc and the engine
    reads the SAME truncation from DuckDB-compatible year*12+month
    keys derived with datetime64[M])."""
    from ..functions.boilerplate import partial_aggregate
    ds = read_ds(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        us = t["o_orderdate"].cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        months = us.astype("datetime64[us]").astype("datetime64[M]")
        mkey = months.astype(np.int64)        # months since 1970-01
        cents = fixed_point(t["o_totalprice"], 100.0)
        return pa.table({"mkey": pa.array(mkey, pa.int64()),
                         "one": pa.array(np.ones(len(us), np.int64)),
                         "cents": pa.array(cents, pa.int64())})

    out = partial_aggregate(ds, ["mkey"],
                            [("one", "sum"), ("cents", "sum")],
                            prepare=prep)
    schema = pa.schema([("year", pa.int64()), ("month", pa.int64()),
                        ("n_orders", pa.int64()),
                        ("revenue_cents", pa.int64())])
    if out is None:
        return schema.empty_table()
    mk = out["mkey"].to_numpy(zero_copy_only=False)
    order = np.argsort(mk, kind="stable")
    mk = mk[order]
    return pa.table({
        "year": pa.array(1970 + mk // 12, pa.int64()),
        "month": pa.array(mk % 12 + 1, pa.int64()),
        "n_orders": pa.array(
            out["one_sum"].to_numpy(zero_copy_only=False)[order],
            pa.int64()),
        "revenue_cents": pa.array(
            out["cents_sum"].to_numpy(zero_copy_only=False)[order],
            pa.int64())}).cast(schema)
