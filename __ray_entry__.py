"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here calls ray.init()/ray.shutdown(). See vfs_index_ray/ for the engine.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: build the word-mode
    inverted index over documents (resumable segment build) and return the
    BM25 top-10 for the reference query."""
    from vfs_index_ray.pipelines.common import get_engine
    from vfs_index_ray.pipelines.index import q_bm25_topk

    sf_dir = "/root/testdata/sf0.001"
    get_engine(sf_dir)           # builds (or resumes) the index
    return q_bm25_topk(sf_dir).to_pandas()


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented pipeline/operator (SURVEY.md §2)."""
    from vfs_index_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL per query (omissions = rows-only checks)."""
    from vfs_index_ray.pipelines.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
