"""Compaction/merge job entry point (``ray job submit`` target).

    python scripts/merge_index.py --src /data/idx_a /data/idx_b \
        --out /data/idx_merged [--max-parts 64] [--n-docs 12345]

Merges indexes built with identical (mode, num_parts). ``--max-parts``
bounds one round (resumable — rerun to continue). ``--repartition N``
instead rewrites a single --src under a new partition count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", nargs="+", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--max-parts", type=int, default=None)
    ap.add_argument("--n-docs", type=int, default=None,
                    help="override doc count when inputs share docs")
    ap.add_argument("--repartition", type=int, default=None,
                    help="rewrite a single src under this partition count")
    ap.add_argument("--clean-after-merge", action="store_true",
                    help="delete source indexes once the merged index is "
                         "fully committed + verified (reference "
                         "EnableCleanAfterMerge)")
    ap.add_argument("--address", default=None,
                    help="Ray cluster address (default $RAY_ADDRESS or a local session); non-local addresses ship the package via py_modules")
    args = ap.parse_args(argv)

    import ray
    from vfs_index_ray.cluster import connect
    connect(args.address)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from vfs_index_ray.merge import merge_indexes, repartition_index

    if args.repartition is not None:
        if len(args.src) != 1:
            ap.error("--repartition takes exactly one --src")
        stats = repartition_index(args.src[0], args.out, args.repartition)
    else:
        stats = merge_indexes(
            args.src, args.out,
            n_docs_override=args.n_docs, max_parts=args.max_parts,
            clean_after_merge=args.clean_after_merge)
    stats.pop("merge_report", None)
    print(json.dumps(stats, default=str))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
