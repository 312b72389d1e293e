"""Distributed equi-join tests (functions/joins.py): broadcast vs
co-partitioned hash join, inner + left outer, int + string keys,
per-partition post kernel, and a DuckDB cross-check."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest


def _left_table(n=2000, seed=7):
    rng = np.random.Philox(key=[seed, 0])
    g = np.random.Generator(rng)
    return pa.table({
        "k": pa.array(g.integers(0, 300, n), pa.int64()),
        "v": pa.array(g.integers(0, 1000, n), pa.int64()),
    })


def _right_table():
    # keys 0..249: left keys 250..299 are unmatched on purpose
    return pa.table({
        "k2": pa.array(np.arange(250), pa.int64()),
        "w": pa.array(np.arange(250) * 10, pa.int64()),
    })


def _sorted(t: pa.Table) -> pa.Table:
    cols = sorted(t.column_names)
    t = t.select(cols)
    return t.take(pc.sort_indices(t, sort_keys=[(c, "ascending")
                                                for c in cols]))


def _duck(lt, rt, how):
    con = duckdb.connect()
    con.register("l", lt)
    con.register("r", rt)
    jt = "JOIN" if how == "inner" else "LEFT JOIN"
    return con.execute(
        f"SELECT l.k, l.v, r.w FROM l {jt} r ON l.k = r.k2").arrow()


@pytest.mark.parametrize("how", ["inner", "left outer"])
def test_hash_join_matches_duckdb(ray_session, how):
    import ray.data

    from vfs_index_ray.functions.joins import hash_join

    lt, rt = _left_table(), _right_table()
    out = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                    left_on="k", right_on="k2", how=how, num_parts=5)
    got = _sorted(pa.concat_tables(ray.get(out.to_arrow_refs()))
                  .combine_chunks())
    want = _sorted(_duck(lt, rt, how))
    assert got.equals(want.cast(got.schema))


def test_broadcast_join_matches_hash_join(ray_session):
    import ray.data

    from vfs_index_ray.functions.joins import broadcast_join, hash_join

    lt, rt = _left_table(seed=11), _right_table()
    b = broadcast_join(ray.data.from_arrow(lt), rt, left_on="k",
                       right_on="k2", how="inner")
    h = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                  left_on="k", right_on="k2", how="inner", num_parts=7)
    import ray
    bt = _sorted(pa.concat_tables(ray.get(b.to_arrow_refs()))
                 .combine_chunks())
    ht = _sorted(pa.concat_tables(ray.get(h.to_arrow_refs()))
                 .combine_chunks())
    assert bt.equals(ht.cast(bt.schema))


def test_hash_join_string_keys_and_post(ray_session):
    import ray
    import ray.data

    from vfs_index_ray.functions.joins import hash_join

    lt = pa.table({"s": pa.array(["a", "b", "a", "c", "b", "a"]),
                   "n": pa.array([1, 2, 3, 4, 5, 6], pa.int64())})
    rt = pa.table({"s": pa.array(["a", "b", "d"]),
                   "m": pa.array([10, 20, 40], pa.int64())})

    def post(j: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(j, ["s"], use_threads=False).aggregate(
            [("n", "sum")])
        return g

    out = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                    left_on="s", how="inner", num_parts=3, post=post)
    t = pa.concat_tables(ray.get(out.to_arrow_refs())).combine_chunks()
    got = dict(zip(t["s"].to_pylist(), t["n_sum"].to_pylist()))
    assert got == {"a": 10, "b": 7}  # c unmatched, d never probed


def test_hash_join_empty_right(ray_session):
    import ray
    import ray.data

    from vfs_index_ray.functions.joins import hash_join

    lt = _left_table(n=50)
    rt = pa.table({"k2": pa.array([], pa.int64()),
                   "w": pa.array([], pa.int64())})
    inner = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                      left_on="k", right_on="k2", how="inner",
                      num_parts=3)
    assert inner is None or sum(
        t.num_rows for t in ray.get(inner.to_arrow_refs())) == 0
    louter = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                       left_on="k", right_on="k2", how="left outer",
                       num_parts=3)
    t = pa.concat_tables(ray.get(louter.to_arrow_refs())).combine_chunks()
    assert t.num_rows == 50 and t["w"].null_count == 50


@pytest.mark.parametrize("how,sql", [
    ("left semi", "SELECT l.k, l.v FROM l SEMI JOIN r ON l.k = r.k2"),
    ("left anti", "SELECT l.k, l.v FROM l ANTI JOIN r ON l.k = r.k2"),
])
def test_hash_join_semi_anti(ray_session, how, sql):
    import ray
    import ray.data

    from vfs_index_ray.functions.joins import hash_join

    lt, rt = _left_table(seed=21), _right_table()
    out = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                    left_on="k", right_on="k2", how=how, num_parts=5)
    got = _sorted(pa.concat_tables(ray.get(out.to_arrow_refs()))
                  .combine_chunks())
    con = duckdb.connect()
    con.register("l", lt)
    con.register("r", rt)
    want = _sorted(con.execute(sql).arrow())
    assert got.equals(want.cast(got.schema))


def test_join_auto_dispatch(ray_session):
    """Small right side -> broadcast; both give identical results."""
    import ray
    import ray.data

    from vfs_index_ray.functions.joins import hash_join, join_auto

    lt, rt = _left_table(seed=31), _right_table()
    a = join_auto(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                  left_on="k", right_on="k2", how="inner")
    h = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                  left_on="k", right_on="k2", how="inner", num_parts=4)
    at = _sorted(pa.concat_tables(ray.get(a.to_arrow_refs()))
                 .combine_chunks())
    ht = _sorted(pa.concat_tables(ray.get(h.to_arrow_refs()))
                 .combine_chunks())
    assert at.cast(ht.schema).equals(ht)


@pytest.mark.parametrize("how", ["inner", "left outer", "left semi",
                                 "left anti"])
def test_hash_join_salted_matches_unsalted(ray_session, how):
    """Hot-key mitigation: 70% of probe rows share one key; salt=4
    must give identical results to salt=1 for every join type."""
    import ray
    import ray.data

    g = np.random.Generator(np.random.Philox(key=[41, 0]))
    n = 3000
    keys = np.where(g.random(n) < 0.7, 7,
                    g.integers(0, 300, n)).astype(np.int64)
    lt = pa.table({"k": pa.array(keys, pa.int64()),
                   "v": pa.array(np.arange(n), pa.int64())})
    rt = _right_table()

    from vfs_index_ray.functions.joins import hash_join

    def run(salt):
        out = hash_join(ray.data.from_arrow(lt),
                        ray.data.from_arrow(rt), left_on="k",
                        right_on="k2", how=how, num_parts=5, salt=salt,
                        salt_keys=[7] if salt > 1 else None)
        return _sorted(pa.concat_tables(ray.get(out.to_arrow_refs()))
                       .combine_chunks())

    a, b = run(1), run(4)
    assert a.equals(b.cast(a.schema))


def test_detect_hot_keys(ray_session):
    import ray.data

    from vfs_index_ray.functions.joins import detect_hot_keys

    g = np.random.Generator(np.random.Philox(key=[51, 0]))
    n = 20_000
    keys = np.where(g.random(n) < 0.4, 7,
                    g.integers(0, 5000, n)).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"k": pa.array(keys, pa.int64())}))
    hot = detect_hot_keys(ds, "k", threshold_frac=0.05)
    assert hot == [7]

@pytest.mark.parametrize("how,sql", [
    ("inner", "SELECT l.k, l.v, r.w FROM l JOIN r ON l.k = r.k2"),
    ("left outer",
     "SELECT l.k, l.v, r.w FROM l LEFT JOIN r ON l.k = r.k2"),
    ("left semi", "SELECT l.k, l.v FROM l SEMI JOIN r ON l.k = r.k2"),
    ("left anti", "SELECT l.k, l.v FROM l ANTI JOIN r ON l.k = r.k2"),
])
def test_hash_join_null_keys_match_duckdb(ray_session, how, sql):
    """ANSI null-key semantics, differential vs DuckDB: a null key
    matches nothing — inner/semi drop it, left outer null-extends it,
    anti keeps it. Nulls on BOTH sides."""
    import ray
    import ray.data

    from vfs_index_ray.functions.joins import hash_join

    g = np.random.Generator(np.random.Philox(key=[61, 0]))
    n = 1200
    keys = g.integers(0, 300, n).astype(np.int64)
    mask = g.random(n) < 0.15  # ~15% null keys
    lt = pa.table({
        "k": pa.array([None if m else int(k)
                       for k, m in zip(keys, mask)], pa.int64()),
        "v": pa.array(np.arange(n), pa.int64()),
    })
    rt = pa.table({
        "k2": pa.array(list(range(250)) + [None, None], pa.int64()),
        "w": pa.array([i * 10 for i in range(252)], pa.int64()),
    })
    out = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                    left_on="k", right_on="k2", how=how, num_parts=5)
    got = _sorted(pa.concat_tables(ray.get(out.to_arrow_refs()))
                  .combine_chunks())
    con = duckdb.connect()
    con.register("l", lt)
    con.register("r", rt)
    want = _sorted(con.execute(sql).arrow())
    assert got.equals(want.cast(got.schema))


def test_string_null_keys_broadcast_and_hash(ray_session):
    import ray
    import ray.data

    from vfs_index_ray.functions.joins import broadcast_join, hash_join

    lt = pa.table({"s": pa.array(["a", None, "b", None, "c"]),
                   "v": pa.array([1, 2, 3, 4, 5], pa.int64())})
    rt = pa.table({"s": pa.array(["a", "b", None]),
                   "w": pa.array([10, 20, 30], pa.int64())})
    h = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                  left_on="s", how="left outer", num_parts=3)
    b = broadcast_join(ray.data.from_arrow(lt), rt, left_on="s",
                       how="left outer")
    ht = _sorted(pa.concat_tables(ray.get(h.to_arrow_refs()))
                 .combine_chunks())
    bt = _sorted(pa.concat_tables(ray.get(b.to_arrow_refs()))
                 .combine_chunks())
    assert ht.equals(bt.cast(ht.schema))
    # null keys never match: their w must be null
    nulls = ht.filter(pc.is_null(ht["s"]))
    assert nulls.num_rows == 2 and nulls["w"].null_count == 2


def test_size_based_parts_scale_with_data(ray_session):
    """10x the input at fixed CPUs -> ~10x partitions (per-task peak
    memory stays bounded); small inputs keep the CPU-count floor."""
    import ray.data

    from vfs_index_ray.functions.joins import _size_based_parts

    small = ray.data.from_arrow(_left_table(n=2000))
    big = ray.data.from_arrow(_left_table(n=20_000))
    target = 2048
    p_small = _size_based_parts((small,), target_bytes=target)
    p_big = _size_based_parts((big,), target_bytes=target)
    assert p_big >= 5 * p_small / 2  # ~10x bytes -> >=~5x parts
    # huge target: floor = max(8, CPUs) regardless of data size
    floor = _size_based_parts((big,), target_bytes=1 << 40)
    assert floor >= 8


def test_join_auto_decoded_overshoot_falls_back(ray_session):
    """Encoded estimate under budget but decoded blocks overshoot ->
    join_auto hands the materialized blocks to the hash join; results
    identical to the broadcast answer."""
    import ray
    import ray.data

    from vfs_index_ray.functions.joins import join_auto

    lt, rt = _left_table(seed=71), _right_table()
    over = join_auto(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                     left_on="k", right_on="k2", how="inner",
                     broadcast_bytes=1 << 30,
                     broadcast_decoded_bytes=1)  # force overshoot
    normal = join_auto(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                       left_on="k", right_on="k2", how="inner",
                       broadcast_bytes=1 << 30)
    a = _sorted(pa.concat_tables(ray.get(over.to_arrow_refs()))
                .combine_chunks())
    b = _sorted(pa.concat_tables(ray.get(normal.to_arrow_refs()))
                .combine_chunks())
    assert a.equals(b.cast(a.schema))


def _unsized_ds(table: pa.Table):
    """``table`` read through a datasource that reports no size: its
    plan's size estimate is unknown."""
    import ray.data
    from ray.data.block import BlockMetadata
    from ray.data.datasource import Datasource, ReadTask

    class Unsized(Datasource):
        def estimate_inmemory_data_size(self):
            return None

        def get_read_tasks(self, parallelism, **kw):
            meta = BlockMetadata(num_rows=None, size_bytes=None,
                                 input_files=None, exec_stats=None)
            return [ReadTask(lambda: [table], meta)]

    return ray.data.read_datasource(Unsized())


def test_join_auto_unknown_size_takes_hash_path(ray_session):
    """A right side whose size estimate is unknown (a leaf without a
    size) must take the co-partitioned path, never materialize the
    right side on the driver."""
    from unittest import mock

    import ray
    import ray.data

    from vfs_index_ray.functions import _plan_size_bytes, joins
    from vfs_index_ray.functions.joins import join_auto

    lt, rt = _left_table(seed=81), _right_table()
    rds = _unsized_ds(rt)
    assert _plan_size_bytes(rds._logical_plan.dag) == (0, False)
    called = {}
    real_hash = joins.hash_join

    def spy(*a, **k):
        called["hash"] = True
        return real_hash(*a, **k)

    with mock.patch.object(joins, "hash_join", side_effect=spy):
        out = join_auto(ray.data.from_arrow(lt), rds,
                        left_on="k", right_on="k2", how="inner")
        t = _sorted(pa.concat_tables(ray.get(out.to_arrow_refs()))
                    .combine_chunks())
    assert called.get("hash") is True
    want = _sorted(_duck(lt, rt, "inner")
                   .select(["k", "v", "w"]))
    assert t.select(sorted(t.column_names)).equals(
        want.cast(t.select(sorted(t.column_names)).schema))


def _marked_read(tmp_path, table: pa.Table, name: str):
    """(read, mapped, calls): a parquet read of ``table`` and a
    ``map_batches`` over it that touches a file in ``calls`` per batch,
    so a test can see whether anything executed the plan."""
    import os
    import time

    import pyarrow.parquet as pq
    import ray.data

    src = str(tmp_path / f"{name}.parquet")
    pq.write_table(table, src)
    calls = tmp_path / f"{name}_calls"
    calls.mkdir()

    def mark(batch):
        (calls / f"{os.getpid()}-{time.monotonic_ns()}").touch()
        return batch

    read = ray.data.read_parquet(src)
    return read, read.map_batches(mark, batch_format="pyarrow"), calls


def test_size_based_parts_never_executes_its_input(ray_session, tmp_path):
    """``_size_based_parts`` sizes a derived input from its plan (here
    the parquet read under a map) and runs none of it."""
    from vfs_index_ray.functions import joins

    read, mapped, calls = _marked_read(tmp_path, _left_table(), "l")
    size = read._logical_plan.dag.infer_metadata().size_bytes
    target = max(1, size // 20)
    assert joins._size_based_parts((mapped, mapped),
                                   target_bytes=target) \
        == -(-2 * size // target) > 8
    assert list(calls.iterdir()) == []


def test_join_auto_never_executes_its_input(ray_session, tmp_path,
                                            monkeypatch):
    """The broadcast-or-shuffle decision reads the right side's plan
    estimate and executes neither input: one byte under the estimate
    takes the co-partitioned join with no map call on either side; at
    the estimate the right side is broadcast."""
    from vfs_index_ray.functions import joins

    _, left, lcalls = _marked_read(tmp_path, _left_table(), "l")
    read, right, rcalls = _marked_read(tmp_path, _right_table(), "r")
    size = read._logical_plan.dag.infer_metadata().size_bytes
    chosen = []
    monkeypatch.setattr(joins, "hash_join",
                        lambda *a, **k: chosen.append("hash"))
    monkeypatch.setattr(joins, "broadcast_join",
                        lambda *a, **k: chosen.append("broadcast"))
    joins.join_auto(left, right, left_on="k", right_on="k2",
                    broadcast_bytes=size - 1)
    assert chosen == ["hash"]
    assert list(lcalls.iterdir()) == list(rcalls.iterdir()) == []
    joins.join_auto(left, right, left_on="k", right_on="k2",
                    broadcast_bytes=size)
    assert chosen == ["hash", "broadcast"]
    assert list(lcalls.iterdir()) == []


def test_detect_hot_keys_derived_dataset_single_pass(ray_session):
    """A mapped (derived) dataset has no metadata row count; detection
    must still work via the single aggregation pass (no count()
    pre-pass) and honor an explicit sample_frac."""
    import ray.data

    from vfs_index_ray.functions.joins import detect_hot_keys

    g = np.random.Generator(np.random.Philox(key=[91, 0]))
    n = 20_000
    keys = np.where(g.random(n) < 0.4, 7,
                    g.integers(0, 5000, n)).astype(np.int64)
    ds = ray.data.from_arrow(
        pa.table({"k": pa.array(keys, pa.int64())}))
    derived = ds.map_batches(lambda b: b, batch_format="pyarrow")
    assert detect_hot_keys(derived, "k", threshold_frac=0.05) == [7]
    assert detect_hot_keys(derived, "k", threshold_frac=0.05,
                           sample_frac=0.5) == [7]


def test_tpch_q18_vs_duckdb(ray_session):
    import duckdb

    from vfs_index_ray.pipelines.queries import ORACLE_SQL
    from vfs_index_ray.pipelines.tpch import q_tpch_q18
    sf = "/root/testdata/sf0.001"
    got = q_tpch_q18(sf).to_pandas()
    con = duckdb.connect()
    for t in ["customer", "orders", "lineitem"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = con.execute(ORACLE_SQL["tpch_q18"]).df()
    assert len(got) == len(want) > 0
    cols = sorted(got.columns)
    g = got[cols].sort_values(cols).reset_index(drop=True)
    w = want[cols].sort_values(cols).reset_index(drop=True)
    import pandas as pd
    pd.testing.assert_frame_equal(g, w, check_dtype=False)


def test_hash_join_full_outer_matches_duckdb(ray_session):
    import ray
    import ray.data

    from vfs_index_ray.functions.joins import hash_join

    lt = _left_table()  # keys 0..299 (+ some null below)
    lt = pa.concat_tables([lt, pa.table({
        "k": pa.array([None, None], pa.int64()),
        "v": pa.array([1, 2], pa.int64())})])
    # right keys 0..249 matched, 400..419 right-only, one null key
    rt = pa.table({
        "k2": pa.array(list(range(250)) + list(range(400, 420))
                       + [None], pa.int64()),
        "w": pa.array([i * 10 for i in range(270)] + [7], pa.int64()),
    })
    out = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                    left_on="k", right_on="k2", how="full outer",
                    num_parts=5)
    got = _sorted(pa.concat_tables(ray.get(out.to_arrow_refs()))
                  .combine_chunks())
    con = duckdb.connect()
    con.register("l", lt)
    con.register("r", rt)
    # Acero coalesces the key column in full outer joins
    want = _sorted(con.execute(
        "SELECT COALESCE(l.k, r.k2) AS k, l.v, r.w FROM l "
        "FULL OUTER JOIN r ON l.k = r.k2").arrow())
    assert got.equals(want.cast(got.schema))


def test_full_outer_guards(ray_session):
    import ray.data

    from vfs_index_ray.functions.joins import broadcast_join, hash_join

    lt, rt = _left_table(64), _right_table()
    with pytest.raises(ValueError):
        broadcast_join(ray.data.from_arrow(lt), rt, left_on="k",
                       right_on="k2", how="full outer")
    with pytest.raises(ValueError):
        hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                  left_on="k", right_on="k2", how="full outer",
                  salt=4, salt_keys=[1])
    with pytest.raises(ValueError):
        hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                  left_on="k", right_on="k2", how="full outer",
                  bloom_prefilter=True)


def test_full_outer_empty_left(ray_session):
    import ray
    import ray.data

    from vfs_index_ray.functions.joins import hash_join

    lt = _left_table(8).slice(0, 0)
    rt = _right_table()
    out = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                    left_on="k", right_on="k2", how="full outer",
                    num_parts=4)
    got = pa.concat_tables(ray.get(out.to_arrow_refs()))
    assert got.num_rows == rt.num_rows
    assert got["v"].null_count == rt.num_rows
