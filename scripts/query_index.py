"""Query CLI (``ray job submit`` target for batch query jobs).

    python scripts/query_index.py --index /data/index --q "spark join" \
        [--k 10] [--method exact|maxscore|auto] [--corpus '/data/pages/*.parquet']
    python scripts/query_index.py --index /data/index \
        --expr 'text.search("spark") && n_chars >= 100' \
        --corpus '/data/pages/*.parquet'
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)


def main(argv=None) -> int:
    from vfs_index_ray.search import BM25_METHODS
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--index", required=True)
    ap.add_argument("--q", help="BM25 top-k query")
    ap.add_argument("--expr", help="planner expression (AND query)")
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--method", default="exact",
                    choices=BM25_METHODS)
    ap.add_argument("--corpus", default=None,
                    help="corpus glob for --expr / row fetch")
    ap.add_argument("--out", default=None,
                    help="write results here (.json/.jsonl/.csv/.parquet)")
    ap.add_argument("--rank", action="store_true",
                    help="with --expr: BM25-rank the AND-filtered docs "
                         "by the expression's text predicates")
    ap.add_argument("--explain", action="store_true",
                    help="with --q: print the execution profile instead")
    ap.add_argument("--fetch", action="store_true",
                    help="emit full corpus records for matches (the "
                         "reference's JSON/CSV record output), not ids; "
                         "requires --corpus")
    ap.add_argument("--address", default=None,
                    help="Ray cluster address (default $RAY_ADDRESS or a local session); non-local addresses ship the package via py_modules")
    args = ap.parse_args(argv)

    import ray
    from vfs_index_ray.cluster import connect
    connect(args.address)

    import pyarrow as pa

    from vfs_index_ray.search import SearchEngine

    corpus_files = sorted(glob.glob(args.corpus)) if args.corpus else None
    eng = SearchEngine(args.index, corpus_files=corpus_files)
    if args.q and args.explain:
        print(json.dumps(eng.explain(args.q, args.k, args.method),
                         default=str))
        ray.shutdown()
        return 0
    if args.q:
        docs, scores = eng.bm25(args.q, args.k, method=args.method)
        tbl = pa.table({"doc_id": pa.array(docs, pa.uint64()),
                        "score": pa.array(scores, pa.float64())})
    elif args.expr:
        from vfs_index_ray.planner import QueryExecutor
        if not corpus_files:
            ap.error("--expr requires --corpus")
        ex = QueryExecutor(eng, corpus_files)
        if args.rank:
            docs, scores = ex.ranked(args.expr, k=args.k)
            tbl = pa.table({"doc_id": pa.array(docs, pa.uint64()),
                            "score": pa.array(scores, pa.float64())})
        else:
            docs = ex.execute(args.expr, limit=args.k)
            tbl = pa.table({"doc_id": pa.array(docs, pa.uint64())})
    else:
        ap.error("need --q or --expr")
        return 2
    if args.fetch:
        if not corpus_files:
            ap.error("--fetch requires --corpus")
        import numpy as np
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
        rows = eng.fetch_rows(ids.astype(np.uint64))
        if "score" in tbl.column_names and eng.id_col in rows.column_names:
            score_of = dict(zip((int(d) for d in ids),
                                tbl["score"].to_pylist()))
            rid = rows[eng.id_col].to_pylist()
            rows = rows.append_column(
                "score", pa.array([score_of.get(int(d)) for d in rid],
                                  pa.float64()))
        tbl = rows
    if args.out:
        from vfs_index_ray.sinks import write_results
        write_results(tbl, args.out)
        print(json.dumps({"rows": tbl.num_rows, "out": args.out}))
    else:
        print(json.dumps(tbl.to_pylist(), default=str))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
