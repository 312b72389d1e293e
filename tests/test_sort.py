"""Distributed global sort (functions/sort.py): differential vs a
one-node full pyarrow sort, routing-prefix edge cases, row-number
exactness and skew."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from vfs_index_ray.functions.sort import _route_u64, order_by


def _mk_table(n=20000, seed=11, with_nulls=True):
    rng = np.random.default_rng(seed)
    lens = rng.integers(0, 14, size=n)
    strs = ["".join(chr(97 + int(c)) for c in rng.integers(0, 26, size=int(L)))
            for L in lens]
    strs[0] = ""
    strs[1] = "zzzzzzzzzz\xe9中"  # >8 bytes, multi-byte tail
    strs[2] = strs[3] = "sameprefix-abcdefgh-different-tails-a"
    t = pa.table({
        "s": pa.array(strs),
        "f": pa.array(rng.normal(size=n), pa.float64()),
        "i": pa.array(rng.integers(-500, 500, size=n), pa.int64()),
    })
    if with_nulls:
        mask = pa.array(rng.random(n) < 0.02)
        t = t.set_column(1, "f", pc.if_else(
            mask, pa.scalar(None, pa.float64()), t["f"].combine_chunks()))
        smask = pa.array(rng.random(n) < 0.02)
        t = t.set_column(0, "s", pc.if_else(
            smask, pa.scalar(None, pa.string()), t["s"].combine_chunks()))
    return t


def _expected(t, keys):
    idx = pc.sort_indices(
        t, sort_keys=[(c, "descending" if d == "desc" else "ascending")
                      for c, d in keys],
        null_placement="at_end")
    return t.take(idx)


def _got(out):
    import ray
    tbl = pa.concat_tables(ray.get(out.to_arrow_refs()))
    return tbl.sort_by("rn")


def _assert_key_cols_equal(got, exp, keys):
    for c, _ in keys:
        g, e = got[c].combine_chunks(), exp[c].combine_chunks()
        gn, en = np.asarray(g.is_null()), np.asarray(e.is_null())
        assert (gn == en).all(), f"null placement differs on {c}"
        ga = g.to_numpy(zero_copy_only=False)
        ea = e.to_numpy(zero_copy_only=False)
        if ga.dtype.kind == "f":
            ok = (ga == ea) | (np.isnan(ga) & np.isnan(ea)) | gn
            assert ok.all(), f"key order differs on {c}"
        else:
            assert all((a == b) or n for a, b, n in zip(ga, ea, gn)), \
                f"key order differs on {c}"


@pytest.mark.parametrize("keys", [
    [("i", "asc"), ("s", "asc"), ("f", "asc")],
    [("f", "desc"), ("i", "asc")],
    [("s", "asc"), ("i", "desc")],
    [("s", "desc"), ("f", "asc"), ("i", "asc")],
])
def test_order_by_matches_single_node_sort(ray_session, keys):
    import ray.data
    t = _mk_table()
    ds = ray.data.from_arrow(t).repartition(8)
    out = order_by(ds, keys, row_number_col="rn", num_parts=5)
    got = _got(out)
    assert got["rn"].to_pylist() == list(range(1, t.num_rows + 1))
    _assert_key_cols_equal(got, _expected(t, keys), keys)


def test_order_by_skewed_key(ray_session):
    """90%-one-value primary key: every tie co-partitions (searchsorted
    routing) and the secondary key orders them globally."""
    import ray.data
    rng = np.random.default_rng(3)
    n = 10000
    i = np.where(rng.random(n) < 0.9, 7, rng.integers(-50, 50, size=n))
    t = pa.table({"i": pa.array(i, pa.int64()),
                  "j": pa.array(rng.permutation(n), pa.int64())})
    keys = [("i", "asc"), ("j", "desc")]
    out = order_by(ray.data.from_arrow(t).repartition(6), keys,
                   row_number_col="rn", num_parts=4)
    got = _got(out)
    exp = _expected(t, keys)
    assert got["i"].to_pylist() == exp["i"].to_pylist()
    assert got["j"].to_pylist() == exp["j"].to_pylist()


def test_order_by_low_cardinality_leading_key_spreads(ray_session):
    """5-distinct-value leading key: composite routing must spread the
    data over more partitions than distinct leading values (the 100-TB
    skew case), while staying exactly ordered."""
    import ray.data
    rng = np.random.default_rng(9)
    n = 30000
    langs = np.array(["de", "en", "fr", "ja", "pt"])
    t = pa.table({
        "lang": pa.array(langs[rng.integers(0, 5, size=n)]),
        "score": pa.array(rng.permutation(n), pa.int64())})
    keys = [("lang", "asc"), ("score", "desc")]
    out = order_by(ray.data.from_arrow(t).repartition(8), keys,
                   row_number_col="rn", num_parts=12)
    import ray
    refs = out.to_arrow_refs()
    nonempty = sum(1 for b in ray.get(refs) if b.num_rows)
    assert nonempty > 5, f"routing collapsed to {nonempty} partitions"
    got = pa.concat_tables(ray.get(refs)).sort_by("rn")
    exp = _expected(t, keys)
    assert got["lang"].to_pylist() == exp["lang"].to_pylist()
    assert got["score"].to_pylist() == exp["score"].to_pylist()


def test_order_by_string_routing_prefix_edges(ray_session):
    """Strings sharing an 8-byte prefix but differing later MUST order
    correctly (they co-partition and the local sort uses full keys)."""
    import ray.data
    strs = ["prefix00" + tail for tail in
            ["zzz", "", "aaa", "mmm", "aab", "zza"]] + ["prefix0", "pre", ""]
    t = pa.table({"s": pa.array(strs),
                  "k": pa.array(range(len(strs)), pa.int64())})
    keys = [("s", "asc"), ("k", "asc")]
    out = order_by(ray.data.from_arrow(t).repartition(3), keys,
                   row_number_col="rn", num_parts=3)
    got = _got(out)
    assert got["s"].to_pylist() == sorted(strs)


def test_route_u64_monotone_int_float(ray_session):
    ints = pa.array([-2**62, -5, -1, 0, 1, 7, 2**62], pa.int64())
    u = _route_u64(ints)
    assert (u[1:] > u[:-1]).all()
    fl = pa.array([-np.inf, -3.5, -0.0, 0.0, 1e-300, 2.5, np.inf],
                  pa.float64())
    uf = _route_u64(fl)
    assert (uf[1:] >= uf[:-1]).all()
    # descending flips the order; nulls stay last either way
    ud = _route_u64(ints, descending=True)
    assert (ud[1:] < ud[:-1]).all()
    withnull = pa.array([3, None, -4], pa.int64())
    un = _route_u64(withnull, descending=True)
    assert un[1] == np.uint64(0xFFFFFFFFFFFFFFFF)


def test_order_by_empty_and_single_part(ray_session):
    import ray.data
    t = pa.table({"i": pa.array([], pa.int64())})
    out = order_by(ray.data.from_arrow(t), [("i", "asc")],
                   row_number_col="rn")
    assert out.count() == 0
    t2 = pa.table({"i": pa.array([3, 1, 2], pa.int64())})
    out2 = order_by(ray.data.from_arrow(t2), [("i", "desc")],
                    row_number_col="rn", num_parts=1)
    assert _got(out2)["i"].to_pylist() == [3, 2, 1]


def test_sort_parts_never_executes_its_input(ray_session, tmp_path):
    """``_num_parts`` sizes a derived input from its plan (the parquet
    read under a map) and runs none of it: the map function runs zero
    times while the partition count is decided."""
    import os
    import time

    import pyarrow.parquet as pq
    import ray.data

    from vfs_index_ray.functions import sort

    src = str(tmp_path / "t.parquet")
    pq.write_table(_mk_table(with_nulls=False), src)
    calls = tmp_path / "calls"
    calls.mkdir()

    def mark(batch):
        (calls / f"{os.getpid()}-{time.monotonic_ns()}").touch()
        return batch

    read = ray.data.read_parquet(src)
    mapped = read.map_batches(mark, batch_format="pyarrow")
    size = read._logical_plan.dag.infer_metadata().size_bytes
    assert sort._num_parts(mapped, -(-size // 3)) == 3
    assert list(calls.iterdir()) == []
