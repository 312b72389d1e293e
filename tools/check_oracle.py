"""Local simulation of the driver's correctness gate:
run queries() vs oracle_sql() via DuckDB at a given sf, compare
row-count + schema + order-insensitive value hash. Usage:
    python tools/check_oracle.py [sf_dir] [name ...]

Env: GATE_TIMEOUT_S=N puts a per-query wall-clock budget on
(engine + oracle) — a query over budget prints TIMEOUT and counts as
skipped, not failed (used for the once-per-round sf1-scale gate where a
few all-pairs oracle SQLs are quadratic in corpus size).

The run ends with one summary line,
``N ok, F failed, S skipped, R rows-only of T``; the exit code is 1 iff
any query failed.
"""

from __future__ import annotations

import os
import signal
import sys
import time

import duckdb
import pandas as pd


class _GateTimeout(Exception):
    pass


def _alarm(_sig, _frm):
    raise _GateTimeout()


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    budget = int(os.environ.get("GATE_TIMEOUT_S", "0"))
    failures = skipped = ok = rows_only = total = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        total += 1
        t0 = time.perf_counter()
        if budget:
            signal.signal(signal.SIGALRM, _alarm)
            signal.alarm(budget)
        try:
            res = fn(sf_dir)
            if hasattr(res, "to_pandas"):
                got = res.to_pandas()
            elif not isinstance(res, pd.DataFrame):
                got = res.to_pandas()
            else:
                got = res
        except _GateTimeout:
            print(f"TIMEOUT {name}: engine side over {budget}s budget")
            skipped += 1
            continue
        except Exception as e:  # noqa: BLE001
            signal.alarm(0)
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        if name not in sqls:
            signal.alarm(0)
            print(f"ok?  {name}: rows-only ({len(got)} rows, "
                  f"{time.perf_counter() - t0:.1f}s)")
            rows_only += 1
            continue
        signal.alarm(0)
        # DuckDB runs in C without yielding to Python signal handlers;
        # a watchdog thread calls con.interrupt() instead
        timer = None
        if budget:
            import threading
            timer = threading.Timer(budget, con.interrupt)
            timer.start()
        try:
            want = con.execute(sqls[name]).fetchdf()
        except (duckdb.InterruptException, RuntimeError) as e:
            print(f"TIMEOUT {name}: oracle SQL over {budget}s budget "
                  f"(engine side returned {len(got)} rows): "
                  f"{type(e).__name__}")
            skipped += 1
            continue
        finally:
            if timer is not None:
                timer.cancel()
        g, w = normalize(got.copy()), normalize(want.copy())
        if list(g.columns) != list(w.columns):
            print(f"FAIL {name}: columns {list(g.columns)} vs {list(w.columns)}")
            failures += 1
            continue
        if len(g) != len(w):
            print(f"FAIL {name}: rows {len(g)} vs {len(w)}")
            failures += 1
            continue
        # order-insensitive value compare
        eq = True
        for c in g.columns:
            a, b = g[c], w[c]
            try:
                same = (a.astype(str).values == b.astype(str).values).all()
            except Exception:  # noqa: BLE001
                same = False
            if not same:
                eq = False
                bad = (a.astype(str).values != b.astype(str).values)
                i = bad.argmax()
                print(f"FAIL {name}: col {c} differs at row {i}: "
                      f"{a.iloc[i]!r} vs {b.iloc[i]!r}")
                break
        if eq:
            print(f"OK   {name}: {len(g)} rows "
                  f"({time.perf_counter() - t0:.1f}s)")
            ok += 1
        else:
            failures += 1
    print(f"{ok} ok, {failures} failed, {skipped} skipped, "
          f"{rows_only} rows-only of {total}")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
