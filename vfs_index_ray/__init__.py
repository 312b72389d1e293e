"""vfs_index_ray — a Ray-Data-native inverted-index build + BM25 query engine.

A brand-new engine with the query/data-processing capabilities of the
reference (kazu/vfs-index, a Go file-backed secondary index — see SURVEY.md),
re-expressed Ray-Data-first:

- build:  read_parquet → map_batches(tokenize) → (term_id, doc_id, tf, dl)
          postings, hive-partitioned by part on disk → one encode task
          per part → posting-list segments + manifest (build.py)
- query:  term lookup via hash-partition pruning → vectorized decode →
          df-ordered intersection / BM25 top-k with MaxScore pruning (search.py)
- merge:  merge, purge and repartition decode source parts and re-encode
          them through the build's per-part segment driver (merge.py)
- extras: dedup (exact/MinHash-LSH/SimHash/ngram-Jaccard/embedding),
          ANN similarity search, text analysis, multimodal plumbing
          (functions/)

Everything here derives from public knowledge only: the Ray Data and
pyarrow APIs, and the reference repo's observable behavior.
"""

__version__ = "0.10.0"

BM25_K1 = 1.2
BM25_B = 0.75
