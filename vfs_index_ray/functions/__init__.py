"""Large-scale training-data operators built on Ray Data primitives:
dedup (exact / MinHash-LSH / SimHash / n-gram Jaccard / embedding),
similarity search, text analysis, multimodal plumbing."""

from __future__ import annotations

import pyarrow as pa


def collect_arrow(ds) -> pa.Table | None:
    """Materialize a (possibly large) result Dataset as ONE Arrow table
    on the driver without per-row Python dicts: ``take_all`` builds a
    dict per row, which at tens of millions of rows costs minutes of
    single-core driver CPU and GBs of heap; pulling the block refs keeps
    everything columnar. Returns None when empty."""
    import ray

    tbls = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tbls:
        return None
    return pa.concat_tables(tbls).combine_chunks()


def _plan_size_bytes(op) -> tuple[int, bool]:
    """``(bytes, complete)``: a size estimate of a logical operator's
    output, never executing it. An operator with a known metadata
    estimate (a parquet read's, a materialized dataset's) counts that,
    any other its inputs' summed (a map or filter is sized by the
    nearest upstream operator that knows); a leaf without one counts 0
    and makes ``complete`` False."""
    meta = op.infer_metadata()
    if meta is not None and meta.size_bytes is not None:
        return meta.size_bytes, True
    if not op.input_dependencies:
        return 0, False
    sizes = [_plan_size_bytes(dep) for dep in op.input_dependencies]
    return sum(b for b, _ in sizes), all(c for _, c in sizes)
