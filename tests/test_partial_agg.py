"""partial_aggregate / tumbling_aggregate / _collect primitives."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest


def _ds(t):
    import ray.data
    return ray.data.from_arrow(t)


def test_partial_aggregate_counts_and_sums(ray_session):
    from vfs_index_ray.functions.boilerplate import partial_aggregate
    t = pa.table({
        "k": pa.array(["a", "b", "a", "a", "b"]),
        "v": pa.array([1, 2, 3, 4, 5], pa.int64()),
    })
    out = partial_aggregate(_ds(t), ["k"], [("k", "count"), ("v", "sum")])
    got = {k: (c, s) for k, c, s in zip(out["k"].to_pylist(),
                                        out["k_count"].to_pylist(),
                                        out["v_sum"].to_pylist())}
    assert got == {"a": (3, 8), "b": (2, 7)}


def test_partial_aggregate_sum_skips_nulls(ray_session):
    from vfs_index_ray.functions.boilerplate import partial_aggregate
    t = pa.table({
        "k": pa.array(["a", "a", "a"]),
        "v": pa.array([1, None, 3], pa.int64()),
    })
    out = partial_aggregate(_ds(t), ["k"], [("k", "count"), ("v", "sum")])
    assert out["k_count"].to_pylist() == [3]
    assert out["v_sum"].to_pylist() == [4]


def test_partial_aggregate_empty_input_returns_none(ray_session):
    from vfs_index_ray.functions.boilerplate import partial_aggregate
    t = pa.table({"k": pa.array([], pa.string()),
                  "v": pa.array([], pa.int64())})
    assert partial_aggregate(_ds(t), ["k"], [("v", "sum")]) is None


def test_partial_aggregate_matches_bruteforce_two_keys(ray_session):
    from vfs_index_ray.functions.boilerplate import partial_aggregate
    rng = np.random.default_rng(17)
    k1 = np.array(["x", "y", "z"])[rng.integers(0, 3, 500)]
    k2 = rng.integers(0, 4, 500)
    v = rng.integers(-100, 100, 500)
    t = pa.table({"a": pa.array(k1), "b": pa.array(k2, pa.int64()),
                  "v": pa.array(v, pa.int64())})
    out = partial_aggregate(_ds(t), ["a", "b"],
                            [("a", "count"), ("v", "sum")])
    got = {(a, b): (c, s) for a, b, c, s in zip(
        out["a"].to_pylist(), out["b"].to_pylist(),
        out["a_count"].to_pylist(), out["v_sum"].to_pylist())}
    exp = {}
    for a, b, x in zip(k1, k2, v):
        c, s = exp.get((a, b), (0, 0))
        exp[(a, b)] = (c + 1, s + int(x))
    assert got == exp


def test_tumbling_aggregate_matches_bruteforce(ray_session):
    from vfs_index_ray.functions.windows import tumbling_aggregate
    rng = np.random.default_rng(19)
    n = 400
    ts = (rng.integers(0, 10 * 3600, n) * 1_000_000).astype(np.int64)
    typ = np.array(["a", "b"])[rng.integers(0, 2, n)]
    val = rng.random(n)
    t = pa.table({
        "event_type": pa.array(typ),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "value": pa.array(val, pa.float64()),
    })
    out = tumbling_aggregate(_ds(t), window_minutes=60)
    got = {(k, w): (c, round(s, 9)) for k, w, c, s in zip(
        out["event_type"].to_pylist(), out["window_us"].to_pylist(),
        out["n"].to_pylist(), out["sum_value"].to_pylist())}
    exp = {}
    for k, tus, v in zip(typ, ts, val):
        w = (tus // 3_600_000_000) * 3_600_000_000
        c, s = exp.get((k, w), (0, 0.0))
        exp[(k, w)] = (c + 1, s + v)
    assert set(got) == set(exp)
    for key in exp:
        assert got[key][0] == exp[key][0]
        assert abs(got[key][1] - round(exp[key][1], 9)) < 1e-6


def test_collect_preserves_rows_and_schema(ray_session):
    from vfs_index_ray.pipelines.common import _collect
    t = pa.table({"x": pa.array(range(1000), pa.int64())})
    out = _collect(_ds(t).map_batches(lambda b: b,
                                      batch_format="pyarrow"))
    assert out.num_rows == 1000
    assert sorted(out["x"].to_pylist()) == list(range(1000))


def test_collect_empty_dataset(ray_session):
    from vfs_index_ray.pipelines.common import _collect
    t = pa.table({"x": pa.array([], pa.int64())})
    out = _collect(_ds(t).map_batches(lambda b: b,
                                      batch_format="pyarrow"))
    assert out.num_rows == 0


def test_hash_aggregate_matches_duckdb(ray_session):
    """High-cardinality disk-shuffle aggregate: multi-key (string+int),
    count/sum/min/max, vs DuckDB on the same table."""
    import duckdb
    import ray
    import ray.data

    from vfs_index_ray.functions.boilerplate import hash_aggregate

    g = np.random.Generator(np.random.Philox(key=[5, 0]))
    n = 5000
    t = pa.table({
        "s": pa.array([f"k{i}" for i in g.integers(0, 400, n)]),
        "b": pa.array(g.integers(0, 3, n), pa.int64()),
        "v": pa.array(g.integers(-50, 50, n), pa.int64()),
    })
    out = hash_aggregate(ray.data.from_arrow(t), ["s", "b"],
                         [("v", "count"), ("v", "sum"), ("v", "min"),
                          ("v", "max")], num_parts=7)
    got = pa.concat_tables(ray.get(out.to_arrow_refs())).combine_chunks()
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute("""
        SELECT s, b, count(v)::BIGINT AS v_count, sum(v)::BIGINT AS v_sum,
               min(v)::BIGINT AS v_min, max(v)::BIGINT AS v_max
        FROM t GROUP BY s, b""").arrow()
    keys = [("s", "ascending"), ("b", "ascending")]
    got = got.take(pc.sort_indices(got, sort_keys=keys))
    want = want.take(pc.sort_indices(want, sort_keys=keys))
    assert got.cast(want.schema).equals(want)


def test_hash_aggregate_rejects_non_mergeable(ray_session):
    import ray.data

    from vfs_index_ray.functions.boilerplate import hash_aggregate

    ds = ray.data.from_arrow(pa.table({"k": [1], "v": [1.0]}))
    with pytest.raises(ValueError):
        hash_aggregate(ds, ["k"], [("v", "mean")])


def test_distinct_aggregate_matches_duckdb(ray_session):
    import duckdb
    import ray

    from vfs_index_ray.functions.boilerplate import distinct_aggregate

    g = np.random.Generator(np.random.Philox(key=[9, 0]))
    n = 8000
    t = pa.table({
        "k": pa.array([f"g{i}" for i in g.integers(0, 6, n)]),
        "u": pa.array(g.integers(0, 900, n), pa.int64()),
    })
    got = distinct_aggregate(_ds(t), ["k"], "u", num_parts=5)
    got = got.take(pc.sort_indices(got, sort_keys=[("k", "ascending")]))
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute("""
        SELECT k, count(DISTINCT u)::BIGINT AS n_distinct
        FROM t GROUP BY k ORDER BY k""").arrow()
    assert got.cast(want.schema).equals(want)


def test_rollup_aggregate_vs_pandas(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from vfs_index_ray.functions.boilerplate import rollup_aggregate
    rng = np.random.default_rng(np.random.Philox(key=[11, 0]))
    n = 4000
    t = pa.table({
        "a": pa.array([f"g{r}" for r in rng.integers(0, 4, n)]),
        "b": pa.array(rng.integers(0, 6, n), pa.int64()),
        "v": pa.array(rng.integers(-50, 50, n), pa.int64()),
    })
    got = rollup_aggregate(
        ray.data.from_arrow(t), ["a", "b"],
        [("v", "count"), ("v", "sum"), ("v", "min"), ("v", "max")],
        sentinels={"a": "ALL", "b": -1}).to_pandas()
    df = t.to_pandas()
    import pandas as pd
    lvls = []
    fine = df.groupby(["a", "b"])["v"].agg(
        ["count", "sum", "min", "max"]).reset_index()
    lvls.append(fine)
    mid = df.groupby(["a"])["v"].agg(
        ["count", "sum", "min", "max"]).reset_index()
    mid["b"] = -1
    lvls.append(mid)
    top = pd.DataFrame([{
        "a": "ALL", "b": -1, "count": len(df), "sum": df["v"].sum(),
        "min": df["v"].min(), "max": df["v"].max()}])
    lvls.append(top)
    want = pd.concat(lvls, ignore_index=True).rename(columns={
        "count": "v_count", "sum": "v_sum", "min": "v_min",
        "max": "v_max"})[got.columns.tolist()]
    got = got.sort_values(["a", "b"]).reset_index(drop=True)
    want = want.sort_values(["a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # empty input
    assert rollup_aggregate(
        ray.data.from_arrow(t.slice(0, 0)), ["a", "b"],
        [("v", "sum")]) is None


def test_hopping_aggregate_matches_bruteforce(ray_session):
    from vfs_index_ray.functions.windows import hopping_aggregate
    rng = np.random.default_rng(23)
    n = 400
    ts = (rng.integers(0, 10 * 3600, n) * 1_000_000).astype(np.int64)
    typ = np.array(["a", "b"])[rng.integers(0, 2, n)]
    val = rng.random(n)
    t = pa.table({
        "event_type": pa.array(typ),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "value": pa.array(val, pa.float64()),
    })
    out = hopping_aggregate(_ds(t), window_minutes=120,
                            hop_minutes=30)
    got = {(k, w): (c, s) for k, w, c, s in zip(
        out["event_type"].to_pylist(), out["window_us"].to_pylist(),
        out["n"].to_pylist(), out["sum_x1e4"].to_pylist())}
    hop = 1_800_000_000
    exp = {}
    for k, tus, v in zip(typ, ts, val):
        fx = int(np.floor(v * 10000 + 0.5))
        for kk in range(4):
            w = (tus // hop - kk) * hop
            c, s = exp.get((k, w), (0, 0))
            exp[(k, w)] = (c + 1, s + fx)
    assert got == exp
    # every event is in exactly window/hop windows
    assert sum(c for c, _ in got.values()) == 4 * n


def test_hopping_equals_tumbling_when_hop_is_window(ray_session):
    from vfs_index_ray.functions.windows import (hopping_aggregate,
                                                 tumbling_aggregate)
    rng = np.random.default_rng(29)
    n = 300
    ts = (rng.integers(0, 5 * 3600, n) * 1_000_000).astype(np.int64)
    t = pa.table({
        "event_type": pa.array(["x"] * n),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "value": pa.array(rng.random(n), pa.float64()),
    })
    hop = hopping_aggregate(_ds(t), window_minutes=60,
                            hop_minutes=60)
    tum = tumbling_aggregate(_ds(t), window_minutes=60)
    gh = dict(zip(hop["window_us"].to_pylist(), hop["n"].to_pylist()))
    gt = dict(zip(tum["window_us"].to_pylist(), tum["n"].to_pylist()))
    assert gh == gt


def test_hopping_rejects_non_divisor_hop(ray_session):
    import pytest

    from vfs_index_ray.functions.windows import hopping_aggregate
    t = pa.table({"event_type": pa.array(["x"]),
                  "ts": pa.array(np.array([0], "datetime64[us]")),
                  "value": pa.array([1.0], pa.float64())})
    with pytest.raises(ValueError):
        hopping_aggregate(_ds(t), window_minutes=100, hop_minutes=33)


def test_resample_fills_gaps(ray_session):
    from vfs_index_ray.functions.windows import resample_aggregate
    # type "a": events at minute 0 and minute 45 -> buckets 15 and 30
    # must appear with zeros; type "b": single event, no fill
    ts = np.array([0, 45 * 60_000_000, 7 * 60_000_000],
                  dtype=np.int64)
    t = pa.table({
        "event_type": pa.array(["a", "a", "b"]),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "value": pa.array([1.0, 2.0, 3.0], pa.float64()),
    })
    out = resample_aggregate(_ds(t), freq_minutes=15)
    rows = {(r["event_type"], r["window_us"]): (r["n"], r["sum_x1e4"])
            for r in out.to_pylist()}
    q = 15 * 60_000_000
    assert rows[("a", 0)] == (1, 10000)
    assert rows[("a", q)] == (0, 0)
    assert rows[("a", 2 * q)] == (0, 0)
    assert rows[("a", 3 * q)] == (1, 20000)
    assert rows[("b", 0)] == (1, 30000)
    assert len(rows) == 5


def test_partial_aggregate_minmax_multibatch(ray_session):
    """min/max partials must merge by min/max across batches — the
    old blanket sum-merge returned a sum of per-batch maxes (latent in
    rollup/cube; single-batch tests hid it)."""
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray.data

    from vfs_index_ray.functions.boilerplate import partial_aggregate

    t = pa.table({"k": ["a"] * 100 + ["b"] * 100,
                  "v": list(range(100)) + list(range(1000, 1100))})
    # MANY blocks so the merge really crosses batches
    ds = ray.data.from_arrow(t).repartition(8)
    out = partial_aggregate(ds, ["k"], [("v", "max"), ("v", "min"),
                                        ("v", "sum")])
    got = {r["k"]: r for r in out.to_pylist()}
    assert got["a"]["v_max"] == 99 and got["a"]["v_min"] == 0
    assert got["b"]["v_max"] == 1099 and got["b"]["v_min"] == 1000
    assert got["a"]["v_sum"] == sum(range(100))
    with pytest.raises(ValueError, match="non-mergeable"):
        partial_aggregate(ds, ["k"], [("v", "mean")])
