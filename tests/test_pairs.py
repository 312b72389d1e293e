"""Per-group co-occurrence pair mining (functions/pairs.py):
kernel vs brute force, substrate-path equality, hot-group cap, top-k."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pyarrow as pa

from vfs_index_ray.functions.pairs import (_pairs_kernel, cooccur_pairs,
                                           top_pairs)


def _brute(groups, items, max_items=None):
    by_g = {}
    for g, it in zip(groups, items):
        by_g.setdefault(g, set()).add(it)
    cnt = {}
    for s in by_g.values():
        if max_items is not None and len(s) > max_items:
            continue
        for a, b in combinations(sorted(s), 2):
            cnt[(a, b)] = cnt.get((a, b), 0) + 1
    return cnt


def _to_dict(t: pa.Table) -> dict:
    return {(a, b): c for a, b, c in zip(
        t["item_a"].to_pylist(), t["item_b"].to_pylist(),
        t["n_groups" if "n_groups" in t.column_names else "cnt"]
        .to_pylist())}


def test_kernel_matches_brute_random():
    rng = np.random.default_rng(7)
    g = rng.integers(0, 50, 2000).tolist()
    items = [f"it{int(x)}" for x in rng.integers(0, 12, 2000)]
    t = pa.table({"g": pa.array(g, pa.int64()), "it": items})
    out = _pairs_kernel(t, "g", "it", None)
    assert _to_dict(out) == _brute(g, items)


def test_kernel_max_items_skips_hot_groups():
    g = [1] * 6 + [2, 2]
    items = ["a", "b", "c", "d", "e", "f", "x", "y"]
    t = pa.table({"g": pa.array(g, pa.int64()), "it": items})
    out = _pairs_kernel(t, "g", "it", 3)
    assert _to_dict(out) == {("x", "y"): 1}


def test_kernel_int_items_value_order():
    t = pa.table({"g": pa.array([1, 1, 1], pa.int64()),
                  "it": pa.array([300, 5, 40], pa.int64())})
    out = _pairs_kernel(t, "g", "it", None)
    assert out["item_a"].to_pylist() == [5, 5, 40]
    assert out["item_b"].to_pylist() == [40, 300, 300]


def test_cooccur_pairs_paths_agree(ray_session, tmp_path, disk_calls):
    """The default on this small input runs the groupby partial and the
    driver merge; ``spill_dir`` runs the disk partial and the
    pair-hash disk merge."""
    import ray
    import ray.data

    rng = np.random.default_rng(11)
    n = 5000
    t = pa.table({
        "g": pa.array(rng.integers(0, 300, n), pa.int64()),
        "it": pa.array([f"t{int(x)}" for x in rng.integers(0, 9, n)]),
    })
    ds = ray.data.from_arrow(t).repartition(8)
    expect = _brute(t["g"].to_pylist(), t["it"].to_pylist())
    for spill_dir, spills in [(None, []),
                              (str(tmp_path), ["winpart_", "hashagg_"])]:
        disk_calls.clear()
        out = cooccur_pairs(ds, group_col="g", item_col="it",
                            spill_dir=spill_dir)
        tbls = [t2 for t2 in ray.get(out.to_arrow_refs())
                if t2.num_rows]
        got = _to_dict(pa.concat_tables(tbls))
        assert disk_calls == spills
        assert got == expect, spill_dir


def test_top_pairs_order_and_floor(ray_session):
    import ray.data

    t = pa.table({
        "item_a": pa.array([1, 2, 3, 4], pa.int64()),
        "item_b": pa.array([9, 9, 9, 9], pa.int64()),
        "n_groups": pa.array([5, 2, 5, 1], pa.int64()),
    })
    out = top_pairs(ray.data.from_arrow(t).repartition(2),
                    k=2, min_count=2)
    assert out["item_a"].to_pylist() == [1, 3]
    assert out["n_groups"].to_pylist() == [5, 5]
