"""Positional-phrase latency harness on the synthetic bench corpus.

    python tools/perf_phrase.py [--docs 1600000] [--cpus N] \
        [--rounds 3] [--phrases "bababa babade" ...]

Builds (or reuses) a positional index over the deterministic bench
corpus under /tmp/vfsray_bench (64 parts, keyed on the package version
so an index another version wrote is never read), then times
``SearchEngine.phrase_match_positional`` warm on each phrase: the best
of ``--rounds`` runs after one warm-up. Prints one JSON line for the
index (its segment bytes, the bytes of their ``pos`` columns and those
per token) and one per phrase (candidates from ``match``, matching
docs, best ms). ``--cpus`` defaults to this process's CPU affinity.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)

DEFAULT_PHRASES = [
    "bababa babade xenolithite",   # pure-head 2 + rare (miss)
    "bababa babade",               # pure-head pair
    "babade bababa kekeke",        # pure-head triple (miss-ish)
    "bababa bababa babade",        # pure-head triple with a repeat
]


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f))
               for f in os.listdir(path))


def _pos_bytes(seg_dir: str) -> int:
    """The summed buffers of the segments' ``pos`` columns."""
    import pyarrow as pa

    total = 0
    for f in os.listdir(seg_dir):
        if f.endswith(".arrow"):
            with pa.memory_map(os.path.join(seg_dir, f)) as src:
                batch = pa.ipc.open_file(src).get_batch(0)
                total += batch.column("pos").nbytes
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--docs", type=int, default=1_600_000)
    ap.add_argument("--cpus", type=int,
                    default=len(os.sched_getaffinity(0)))
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--phrases", nargs="*", default=DEFAULT_PHRASES)
    args = ap.parse_args(argv)

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from bench import _bench_corpus

    from vfs_index_ray import __version__
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    bdir = _bench_corpus(args.docs)
    files = sorted(os.path.join(bdir, f) for f in os.listdir(bdir)
                   if f.endswith(".parquet"))
    idx = f"/tmp/vfsray_bench/idx_pos_{args.docs}_v{__version__}"
    stats = IndexBuilder(idx, mode="word", num_parts=64, id_col=None,
                         positions=True).build(files)  # resume-aware
    pos_bytes = _pos_bytes(os.path.join(idx, "segments"))
    print(json.dumps({
        "index": idx, "corpus_docs": args.docs,
        "tokens": stats["total_tokens"],
        "segment_bytes": _dir_bytes(os.path.join(idx, "segments")),
        "positions_bytes": pos_bytes,
        "positions_bytes_per_token": round(
            pos_bytes / max(1, stats["total_tokens"]), 3)}))

    eng = SearchEngine(idx)
    for phrase in args.phrases:
        eng.phrase_match_positional(phrase)           # warm
        best = float("inf")
        for _ in range(args.rounds):
            t0 = time.perf_counter()
            docs = eng.phrase_match_positional(phrase)
            best = min(best, time.perf_counter() - t0)
        print(json.dumps({"phrase": phrase,
                          "candidates": len(eng.match(phrase)),
                          "n_docs": len(docs), "ms": round(best * 1000, 1),
                          "corpus_docs": args.docs, "cpus": args.cpus}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
