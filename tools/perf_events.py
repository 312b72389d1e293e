"""Scale timings for the event-log operators on a deterministic
synthetic stream (10M events by default).

    python tools/perf_events.py [--events 10000000] [--cpus 32] \
        [--ops sessionize latest asof window quantiles] [--spill-dir D]

Each op runs its full pipeline to a parquet sink (or aggregate result);
prints one JSON line with per-op wall seconds.  The keyed ops pick their
substrate by input size (``windows._use_disk``); ``--spill-dir`` forces
the disk spill under that root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)


def _events_corpus(n: int) -> str:
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = f"/tmp/vfsray_bench/events_{n}"
    marker = os.path.join(d, "_done")
    if not os.path.exists(marker):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d, exist_ok=True)
        rng = np.random.Generator(np.random.Philox(key=[20260818, 0]))
        nfiles = 16
        step = (n + nfiles - 1) // nfiles
        types = np.array(["click", "purchase", "view", "error", "signup"])
        for i in range(nfiles):
            m = min(step, n - i * step)
            if m <= 0:
                break
            eid = np.arange(i * step, i * step + m, dtype=np.int64)
            t = pa.table({
                "event_id": pa.array(eid),
                "ts": pa.array((rng.integers(0, 30 * 86_400, m)
                                * 1_000_000).astype("datetime64[us]")),
                "user_id": pa.array(rng.integers(0, 100_000, m)),
                "event_type": pa.array(types[rng.integers(0, 5, m)]),
                "value": pa.array(rng.random(m) * 100.0),
            })
            pq.write_table(t, os.path.join(d, f"part-{i:02d}.parquet"))
        open(marker, "w").close()
    return d


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--events", type=int, default=10_000_000)
    ap.add_argument("--cpus", type=int, default=32)
    ap.add_argument("--ops", nargs="*", default=[
        "sessionize", "latest", "asof", "window", "quantiles",
        "running", "topn", "distinct", "hll", "graph",
        "hopping", "resample", "ntile", "skyline", "sort"])
    ap.add_argument("--spill-dir", default=None,
                    help="spill root; forces the keyed ops' disk substrate")
    args = ap.parse_args(argv)

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus,
                 include_dashboard=False, logging_level="ERROR")
    import ray.data
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    bdir = _events_corpus(args.events)
    sink = "/tmp/vfsray_bench/events_out"
    times: dict[str, float] = {}

    def ds(cols):
        return ray.data.read_parquet(bdir, columns=cols)

    def run(name, out):
        shutil.rmtree(sink, ignore_errors=True)
        out.write_parquet(sink)
        times[name] = round(time.perf_counter() - t0, 3)

    from vfs_index_ray.functions import windows as W

    if "sessionize" in args.ops:
        t0 = time.perf_counter()
        run("sessionize", W.sessionize(
            ds(["event_id", "ts", "user_id"]), gap_minutes=30,
            spill_dir=args.spill_dir))
    if "latest" in args.ops:
        t0 = time.perf_counter()
        run("latest", W.latest_per_key(
            ds(["event_id", "ts", "user_id", "event_type", "value"]),
            spill_dir=args.spill_dir))
    if "asof" in args.ops:
        t0 = time.perf_counter()
        run("asof", W.asof_prior(
            ds(["event_id", "ts", "user_id", "event_type"]),
            left_type="purchase", right_type="click",
            spill_dir=args.spill_dir))
    if "window" in args.ops:
        t0 = time.perf_counter()
        run("window", W.window_count_prior(
            ds(["event_id", "ts", "user_id", "event_type"]),
            left_type="purchase", right_type="click", window_minutes=60,
            spill_dir=args.spill_dir))
    if "running" in args.ops:
        t0 = time.perf_counter()
        run("running", W.running_total(
            ds(["event_id", "ts", "user_id", "value"]),
            spill_dir=args.spill_dir))
    if "topn" in args.ops:
        t0 = time.perf_counter()
        run("topn", W.top_n_per_key(
            ds(["event_id", "user_id", "value"]), val_col="value",
            n=3, spill_dir=args.spill_dir))
    if "distinct" in args.ops:
        from vfs_index_ray.functions.boilerplate import distinct_aggregate
        t0 = time.perf_counter()
        t = distinct_aggregate(ds(["event_type", "user_id"]),
                               ["event_type"], "user_id")
        times["distinct"] = round(time.perf_counter() - t0, 3)
    if "hll" in args.ops:
        from vfs_index_ray.functions.sketches import approx_distinct
        t0 = time.perf_counter()
        t = approx_distinct(ds(["event_type", "user_id"]),
                            key_col="user_id", group_col="event_type")
        times["hll"] = round(time.perf_counter() - t0, 3)
    if "hopping" in args.ops:
        t0 = time.perf_counter()
        t = W.hopping_aggregate(ds(["event_type", "ts", "value"]),
                                window_minutes=120, hop_minutes=30)
        times["hopping"] = round(time.perf_counter() - t0, 3)
    if "resample" in args.ops:
        t0 = time.perf_counter()
        t = W.resample_aggregate(ds(["event_type", "ts", "value"]),
                                 freq_minutes=15)
        times["resample"] = round(time.perf_counter() - t0, 3)
    if "ntile" in args.ops:
        t0 = time.perf_counter()
        run("ntile", W.rank_per_key(
            ds(["event_id", "user_id", "value"]), ntile=4,
            spill_dir=args.spill_dir))
    if "skyline" in args.ops:
        import numpy as np
        import pyarrow as pa

        from vfs_index_ray.functions.skyline import skyline

        def prep(t):
            import pyarrow.compute as pc
            px = np.floor(t["value"].to_numpy(zero_copy_only=False)
                          * 10000.0 + 0.5).astype(np.int64)
            return pa.table({
                "event_id": t["event_id"],
                "vx": pa.array(px, pa.int64()),
                "tus": t["ts"].cast(pa.int64())})

        t0 = time.perf_counter()
        t = skyline(ds(["event_id", "ts", "value"]).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True),
            x_col="vx", y_col="tus")
        times["skyline"] = round(time.perf_counter() - t0, 3)
    if "quantiles" in args.ops:
        from vfs_index_ray.functions.quantiles import grouped_quantiles
        t0 = time.perf_counter()
        t = grouped_quantiles(ds(["event_type", "value"]))
        times["quantiles"] = round(time.perf_counter() - t0, 3)
    if "mad" in args.ops:
        from vfs_index_ray.functions.quantiles import grouped_mad
        t0 = time.perf_counter()
        t = grouped_mad(ds(["event_type", "value"]))
        times["mad"] = round(time.perf_counter() - t0, 3)
    if "iqr" in args.ops:
        from vfs_index_ray.functions.quantiles import (
            grouped_iqr_outliers)
        t0 = time.perf_counter()
        t = grouped_iqr_outliers(ds(["event_type", "value"]),
                                 key_col="event_type",
                                 val_col="value")
        times["iqr"] = round(time.perf_counter() - t0, 3)
    if "ols" in args.ops:
        import numpy as np
        import pyarrow as pa

        from vfs_index_ray.functions.boilerplate import (
            partial_aggregate)

        def prep_ols(t):
            x = (t["ts"].cast(pa.int64())
                 .to_numpy(zero_copy_only=False)
                 // 60_000_000) - 28_401_120
            y = np.floor(t["value"].to_numpy(zero_copy_only=False)
                         * 10000.0 + 0.5).astype(np.int64)
            return pa.table({"event_type": t["event_type"],
                             "x": pa.array(x, pa.int64()),
                             "y": pa.array(y, pa.int64()),
                             "xx": pa.array(x * x, pa.int64()),
                             "xy": pa.array(x * y, pa.int64())})

        t0 = time.perf_counter()
        t = partial_aggregate(
            ds(["event_type", "ts", "value"]), ["event_type"],
            [("x", "count"), ("x", "sum"), ("y", "sum"),
             ("xx", "sum"), ("xy", "sum")], prepare=prep_ols)
        times["ols"] = round(time.perf_counter() - t0, 3)
    if "sort" in args.ops:
        from vfs_index_ray.functions.sort import order_by
        t0 = time.perf_counter()
        run("sort", order_by(
            ds(["event_id", "user_id", "value"]),
            [("value", "desc"), ("event_id", "asc")],
            row_number_col="rn"))
        # string-key global sort (8-byte routing prefix path)
        t0 = time.perf_counter()
        run("sort_str", order_by(
            ds(["event_id", "event_type", "value"]),
            [("event_type", "asc"), ("value", "desc"),
             ("event_id", "asc")], row_number_col="rn"))
    if "graph" in args.ops:
        import numpy as np
        import pyarrow as pa

        from vfs_index_ray.functions.graph import (bfs_hops, pagerank,
                                                   transition_edges)
        t0 = time.perf_counter()
        edges = transition_edges(
            ds(["event_id", "ts", "user_id", "event_type"]),
            spill_dir=args.spill_dir).materialize()
        times["graph_edges"] = round(time.perf_counter() - t0, 3)
        nodes = pa.array(np.arange(100_000, dtype=np.int64))
        t0 = time.perf_counter()
        pr = pagerank(edges, nodes, iterations=3)
        times["graph_pagerank3"] = round(time.perf_counter() - t0, 3)
        seeds = pa.array(np.arange(0, 100_000, 97, dtype=np.int64))
        t0 = time.perf_counter()
        bh = bfs_hops(edges, seeds, max_hops=3)
        times["graph_bfs3"] = round(time.perf_counter() - t0, 3)

    shutil.rmtree(sink, ignore_errors=True)
    print(json.dumps({"events": args.events, "cpus": args.cpus,
                      "spill_dir": args.spill_dir, "sec": times}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
