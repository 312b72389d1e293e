"""Scaffolding shared by the query modules: the registry, table reads,
the memoized index engine, result collection and the fixed-point rule.

Each ``q_*`` function takes ``sf_dir`` and returns a pyarrow Table whose
column names/types match its oracle SQL (DuckDB over the same parquet).
A module registers a query once, with ``@query(sql)`` directly above
its function; the query's name is the function name without ``q_``.
Float-derived outputs are fixed-point (``*_x1e4`` / ``*_x100``) so
order-insensitive value hashing is stable across engines.

The documents table maps onto the pages input_hint shape
(doc_id↔url-derived id, text, lang); indexes are built once per sf_dir
(memoized, resumable) under /tmp.
"""

from __future__ import annotations

import os
from collections.abc import Callable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..build import IndexBuilder
from ..functions import collect_arrow
from ..search import SearchEngine
from ..segment import is_committed

# one shared DuckDB token-list expression — the tokenizer contract
TOKS = "list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '')"

_ENGINES: dict[str, SearchEngine] = {}


class Registry:
    """Query name -> function and oracle SQL, each name registered once."""

    def __init__(self) -> None:
        self.fns: dict[str, Callable] = {}
        self.sql: dict[str, str] = {}

    def query(self, sql: str):
        """Decorator: register ``q_<name>`` as query ``<name>`` checked
        against ``sql``; a second registration of a name raises."""
        def register(fn):
            if not fn.__name__.startswith("q_"):
                raise ValueError(f"query function {fn.__name__!r} must be "
                                 "named q_<name>")
            name = fn.__name__[2:]
            if name in self.fns:
                raise ValueError(f"query {name!r} is registered twice")
            self.fns[name] = fn
            self.sql[name] = sql
            return fn
        return register


REGISTRY = Registry()
query = REGISTRY.query


def _doc_file(sf_dir: str) -> str:
    return os.path.join(sf_dir, "documents.parquet")


def push_based_shuffle() -> None:
    """Push-based sort shuffle for the groupby queries (the default
    pull-based sort measured 2-10x slower at >8 workers; see build.py).
    Sets the current DataContext, so call it before creating a Dataset;
    ``read_ds`` does."""
    try:
        from ray.data.context import DataContext, ShuffleStrategy
        ctx = DataContext.get_current()
        if ctx.shuffle_strategy == ShuffleStrategy.SORT_SHUFFLE_PULL_BASED:
            ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    except Exception:  # noqa: BLE001  (older Ray: keep defaults)
        pass


def _corpus_key(sf_dir: str, src: str) -> str:
    """Cache key tied to the corpus identity: abs path + source file
    size/mtime, so two corpora sharing a basename (or a regenerated one)
    never reuse each other's cached index."""
    import hashlib
    st = os.stat(src)
    raw = f"{os.path.abspath(sf_dir)}|{st.st_size}|{int(st.st_mtime)}"
    return hashlib.sha1(raw.encode()).hexdigest()[:12]


def build_once(idx: str, files: list[str], **builder_kw) -> str:
    """Build the index at ``idx`` from ``files`` unless its
    ``stats.json`` exists (a build resumes, so an interrupted one
    completes); returns ``idx``."""
    if not is_committed(idx):
        IndexBuilder(idx, **builder_kw).build(files)
    return idx


def cache_dir(sf_dir: str, tag: str, src: str | None = None) -> str:
    """The cache directory ``/tmp/vfsray_cache/{name}-{key}-v{version}-
    {tag}`` of an index over ``src`` (default: the documents table):
    keyed on the corpus (``_corpus_key``) and on the package version, so
    a segment-format change never reads a stale cached index."""
    from .. import __version__
    src = src or _doc_file(sf_dir)
    name = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    return os.path.join("/tmp", "vfsray_cache",
                        f"{name}-{_corpus_key(sf_dir, src)}"
                        f"-v{__version__}-{tag}")


def get_engine(sf_dir: str) -> SearchEngine:
    """Build (or resume) the word-mode index for sf_dir; memoized.
    Positional (additive — serves all queries)."""
    if sf_dir not in _ENGINES:
        idx = build_once(cache_dir(sf_dir, "pos"), [_doc_file(sf_dir)],
                         mode="word", num_parts=8, id_col="doc_id",
                         positions=True)
        _ENGINES[sf_dir] = SearchEngine(
            idx, corpus_files=[_doc_file(sf_dir)], id_col="doc_id")
    return _ENGINES[sf_dir]


def read_ds(sf_dir: str, table: str, columns=None):
    """Ray Data read of one testdata table (``<sf_dir>/<table>.parquet``),
    with the push-based shuffle set first for the query's groupbys.

    The read gets the file's schema without its metadata: the testdata
    files carry ``pandas`` metadata, ``pyarrow.Schema.__hash__`` raises
    on a schema with metadata, and Ray Data's schema unification logs a
    warning for every block it cannot hash."""
    import ray.data
    push_based_shuffle()
    path = os.path.join(sf_dir, f"{table}.parquet")
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=schema)


def read_table(sf_dir: str, table: str, columns=None, **kw) -> pa.Table:
    """Driver-side Arrow read of one testdata table (``filters=``,
    ``use_threads=`` pass through to ``pq.read_table``)."""
    return pq.read_table(os.path.join(sf_dir, f"{table}.parquet"),
                         columns=columns, **kw)


def _docs_ds(sf_dir: str, columns=None):
    return read_ds(sf_dir, "documents", columns)


def _collect(out) -> pa.Table:
    """Materialize a Dataset result as ONE Arrow table via object-store
    block refs — never per-row Python dicts (the round-4 lesson: a
    take_all() of a corpus-sized result pins the driver for minutes).
    An empty result is an empty table with the result's schema."""
    t = collect_arrow(out)
    if t is not None:
        return t
    schema = out.schema()  # cached by the collect: no second execution
    if schema is None:
        return pa.table({})
    return schema.base_schema.empty_table()


def fixed_point(x, scale: float = 10000.0):
    """The fixed-point rule the oracle SQL writes as
    ``CAST(floor(x * scale + 0.5) AS BIGINT)``: ``floor(x * scale + 0.5)``
    in fp64, as int64.  ``x`` is a number, a numpy array or an Arrow
    array (converted with ``to_numpy``)."""
    if isinstance(x, (pa.Array, pa.ChunkedArray)):
        x = x.to_numpy(zero_copy_only=False)
    return np.floor(x * scale + 0.5).astype(np.int64)


def _conc(concurrency=None):
    """Actor-pool sizing for the per-doc wrapper stages: elastic
    (1, cluster CPUs) by default — one actor covers sf-scale startup
    cost, the pool grows with backlog so the same wrapper is not a
    starvation cap if reused at scale. Pass an int/tuple to pin."""
    if concurrency is not None:
        return concurrency
    import ray
    return (1, max(2, int(ray.cluster_resources().get("CPU", 8))))


def _sdiv(a: int, b: int) -> int:
    """Sign-safe scaled division shared with the oracle SQL: floor
    division of |a| by b (b > 0), sign re-applied — identical to the
    CASE WHEN a < 0 THEN -((-a) // b) ELSE a // b END HUGEINT
    expression, so negative slopes/intercepts stay bit-stable."""
    return -((-a) // b) if a < 0 else a // b
