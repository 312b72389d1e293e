"""Positional-phrase latency harness on the synthetic bench corpus.

    python tools/perf_phrase.py [--docs 1600000] [--cpus 32] \
        [--rounds 3] [--phrases "bababa babade" ...]

Builds (or reuses) a positional index over the deterministic bench
corpus under /tmp/vfsray_bench, then times each phrase warm on three
paths: batched (pushdown; ``PHRASE_STAGE_THRESHOLD`` raised so nothing
stages), serial staged (rare-pivot; ``_phrase_positional_staged``
called directly) and distributed (chunked fan-out, the pure-head scale
path; ``_phrase_positional_distributed`` called directly) — asserting
all three return identical docs. Prints one JSON line per phrase.
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
    "the table scan",              # natural head phrase
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--docs", type=int, default=1_600_000)
    ap.add_argument("--cpus", type=int, default=32)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--phrases", nargs="*", default=DEFAULT_PHRASES)
    ap.add_argument("--paths", nargs="*",
                    default=["staged", "distributed"],
                    choices=["batched", "staged", "distributed"])
    args = ap.parse_args(argv)

    import numpy as np
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, _REPO)
    from bench import _bench_corpus

    from vfs_index_ray import search
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    default_threshold = search.PHRASE_STAGE_THRESHOLD

    bdir = _bench_corpus(args.docs)
    files = sorted(os.path.join(bdir, f) for f in os.listdir(bdir)
                   if f.endswith(".parquet"))
    idx = f"/tmp/vfsray_bench/idx_pos_{args.docs}"
    IndexBuilder(idx, mode="word", num_parts=64, id_col=None,
                 positions=True).build(files)  # resume-aware: reuses

    eng = SearchEngine(idx)

    def chain(positional):
        def run(phrase):
            cands = np.sort(np.asarray(eng.match(phrase), np.uint64))
            if len(cands) == 0:
                return cands
            seq = eng._phrase_keys(phrase)
            return positional(seq, sorted(set(seq)), cands)
        return run

    paths = {"batched": eng.phrase_match_positional,
             "staged": chain(eng._phrase_positional_staged),
             "distributed": chain(eng._phrase_positional_distributed)}
    for phrase in args.phrases:
        results, times = {}, {}
        for path in args.paths:
            run = paths[path]
            if path == "batched":
                search.PHRASE_STAGE_THRESHOLD = 1 << 40  # never stage
            run(phrase)                                   # warm
            best = float("inf")
            for _ in range(args.rounds):
                t0 = time.perf_counter()
                docs = run(phrase)
                best = min(best, time.perf_counter() - t0)
            search.PHRASE_STAGE_THRESHOLD = default_threshold
            results[path] = docs.tolist()
            times[path] = round(best * 1000, 1)
        vals = list(results.values())
        assert all(v == vals[0] for v in vals), f"path mismatch: {phrase}"
        print(json.dumps({"phrase": phrase, "n_docs": len(vals[0]),
                          "ms": times, "corpus_docs": args.docs,
                          "cpus": args.cpus}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
