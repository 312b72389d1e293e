"""Driver-contract consistency checks on __ray_entry__."""

import importlib.util
from pathlib import Path

# the checkout these tests live in
REPO = Path(__file__).resolve().parents[1]


def _load():
    spec = importlib.util.spec_from_file_location(
        "_entry_mod", REPO / "__ray_entry__.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_oracle_key_has_query():
    mod = _load()
    qs, sqls = mod.queries(), mod.oracle_sql()
    assert set(sqls) <= set(qs), set(sqls) - set(qs)
    # every registered query is SQL-checked
    assert set(qs) <= set(sqls), set(qs) - set(sqls)


def test_callables_are_callable():
    mod = _load()
    for name, fn in mod.queries().items():
        assert callable(fn), name


def test_registering_a_name_twice_raises():
    import pytest

    from vfs_index_ray.pipelines.common import Registry

    reg = Registry()

    def q_twice(sf_dir):
        return None

    reg.query("SELECT 1")(q_twice)
    with pytest.raises(ValueError, match="'twice'"):
        reg.query("SELECT 2")(q_twice)
    assert reg.sql == {"twice": "SELECT 1"}


def test_registered_name_is_taken():
    """A second module defining an existing query name fails at import."""
    import pytest

    from vfs_index_ray.pipelines import queries
    from vfs_index_ray.pipelines.common import REGISTRY

    def q_bm25_topk(sf_dir):
        return None

    with pytest.raises(ValueError, match="'bm25_topk'"):
        REGISTRY.query("SELECT 1")(q_bm25_topk)
    assert queries.QUERIES["bm25_topk"] is not q_bm25_topk
