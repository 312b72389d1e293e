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
