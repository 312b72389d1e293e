"""Index-build job entry point (``ray job submit`` target).

    ray job submit -- python scripts/build_index.py \
        --input '/data/pages/*.parquet' --index /data/index \
        --mode word --num-parts 4096 --waves 8 --scratch /local/scratch

Owns its Ray session (guarded init — works standalone or under an
existing cluster driver)."""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True,
                    help="input file glob (parquet/jsonl/csv)")
    ap.add_argument("--index", required=True, help="index output dir")
    ap.add_argument("--mode", default="word", choices=["word", "trigram"])
    ap.add_argument("--text-col", default="text")
    ap.add_argument("--id-col", default="doc_id")
    ap.add_argument("--url-col", default="url")
    ap.add_argument("--num-parts", type=int, default=64)
    ap.add_argument("--waves", type=int, default=1,
                    help="input waves (resume granularity)")
    ap.add_argument("--scratch", default=None,
                    help="ephemeral spill dir (fast local storage)")
    ap.add_argument("--positions", action="store_true",
                    help="build positional postings (phrase/proximity)")
    ap.add_argument("--config", default=None,
                    help="TOML job config (reference K6 named-config "
                         "parity); CLI flags override file values")
    ap.add_argument("--address", default=None,
                    help="Ray cluster address (default $RAY_ADDRESS or "
                         "a local session); non-local addresses ship "
                         "the package to all nodes via py_modules")
    args = ap.parse_args(argv)
    if args.config:
        # named index configs, the reference's cmd_config.go TOML story:
        # each key names an argument and sets its default; any other key
        # (a typo, a retired option) is an error, never a silent default
        import tomllib
        with open(args.config, "rb") as f:
            cfg = tomllib.load(f)
        passed = {a.split("=")[0].lstrip("-").replace("-", "_")
                  for a in (argv if argv is not None else sys.argv[1:])
                  if a.startswith("--")}
        for k, v in cfg.items():
            name = k.replace("-", "_")
            if name == "config" or not hasattr(args, name):
                print(f"unknown key {k!r} in {args.config}",
                      file=sys.stderr)
                return 2
            if name not in passed:
                setattr(args, name, v)

    files = sorted(glob.glob(args.input))
    if not files:
        print(f"no input files match {args.input!r}", file=sys.stderr)
        return 2

    import ray
    from vfs_index_ray.cluster import connect
    connect(args.address)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from vfs_index_ray.build import IndexBuilder

    t0 = time.perf_counter()
    stats = IndexBuilder(
        args.index, mode=args.mode, num_parts=args.num_parts,
        text_col=args.text_col,
        id_col=args.id_col, url_col=args.url_col,
        scratch_dir=args.scratch, positions=args.positions,
    ).build(files, waves=args.waves)
    stats["build_seconds"] = round(time.perf_counter() - t0, 3)
    stats["docs_per_sec"] = round(stats["n_docs"] /
                                  max(stats["build_seconds"], 1e-9), 1)
    print(json.dumps(stats))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
