"""Streaming incremental-maintenance daemon (``ray job submit`` target).

Watches an input glob and absorbs new files into an existing index as
fresh waves — the reference's daemon-mode Regist story (indexer.go:77-93:
new data files picked up and indexed continuously) on the wave/segment
model:

    python scripts/watch_absorb.py --index /data/index \
        --input '/data/incoming/*.parquet' [--interval 30] [--once]

Already-ingested files are recovered from the committed wave sidecars,
so the daemon is restartable: kill it anywhere, start it again, nothing
is double-ingested and a partially-built wave resumes.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)


def _ingested_files(index_dir: str) -> set[str]:
    from vfs_index_ray.segment import read_waves
    return {f for w in read_waves(index_dir) for f in w.get("files", [])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--index", required=True)
    ap.add_argument("--input", required=True, help="watched file glob")
    ap.add_argument("--mode", default="word", choices=["word", "trigram"])
    ap.add_argument("--id-col", default="doc_id")
    ap.add_argument("--num-parts", type=int, default=64)
    ap.add_argument("--interval", type=float, default=30.0,
                    help="poll seconds between scans")
    ap.add_argument("--once", action="store_true",
                    help="one scan+absorb, then exit (cron mode)")
    ap.add_argument("--scratch", default=None)
    ap.add_argument("--address", default=None,
                    help="Ray cluster address (default $RAY_ADDRESS or a local session); non-local addresses ship the package via py_modules")
    args = ap.parse_args(argv)

    import ray
    from vfs_index_ray.cluster import connect
    connect(args.address)
    from vfs_index_ray.build import IndexBuilder

    b = IndexBuilder(args.index, mode=args.mode, num_parts=args.num_parts,
                     id_col=args.id_col, scratch_dir=args.scratch)
    while True:
        seen = _ingested_files(args.index)
        new = sorted(f for f in glob.glob(args.input) if f not in seen)
        if new:
            t0 = time.perf_counter()
            stats = b.absorb(new)
            print(json.dumps({
                "absorbed": len(new), "n_docs": stats["n_docs"],
                "seconds": round(time.perf_counter() - t0, 2)}),
                flush=True)
        if args.once:
            break
        time.sleep(args.interval)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
