"""Session-scoped Ray + shared fixtures (one ray.init per pytest session)."""

from __future__ import annotations

import os
import shutil

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def pages_file(tmp_path_factory):
    """Deterministic 500-row pages table on disk (FIXTURES F1)."""
    from vfs_index_ray import corpus

    d = tmp_path_factory.mktemp("pages")
    path = str(d / "pages.parquet")
    pq.write_table(corpus.generate_pages(500), path)
    return path


@pytest.fixture(scope="session")
def built_index(ray_session, pages_file, tmp_path_factory):
    """Word-mode index over the pages fixture, built once per session."""
    from vfs_index_ray.build import IndexBuilder

    idx = str(tmp_path_factory.mktemp("idx") / "word")
    b = IndexBuilder(idx, mode="word", num_parts=8, id_col=None)
    stats = b.build([pages_file])
    return idx, stats


@pytest.fixture(scope="session")
def oracle_index(pages_file):
    from vfs_index_ray.hashing import doc_id_from_url
    from vfs_index_ray.oracle import OracleIndex

    pages = pq.read_table(pages_file)
    doc_ids = [doc_id_from_url(u) for u in pages["url"].to_pylist()]
    return OracleIndex.build(pages["text"].to_pylist(), doc_ids)


@pytest.fixture
def disk_calls(monkeypatch):
    """Spy on ``spillfs.partition_apply``: the list holds the spill
    prefix of every disk-substrate call, so a test can show which
    substrate a keyed op ran on (an empty list means Ray Data's
    groupby)."""
    from vfs_index_ray import spillfs

    calls: list[str] = []
    real = spillfs.partition_apply

    def spy(ds, part_col, per_part, **kw):
        calls.append(kw.get("prefix", "part_"))
        return real(ds, part_col, per_part, **kw)

    monkeypatch.setattr(spillfs, "partition_apply", spy)
    return calls


@pytest.fixture
def ray_tasks(monkeypatch):
    """Spy on ``remote.remote_1cpu``: the list holds every function the
    package fanned out as Ray tasks (an empty list means the in-process
    branch ran)."""
    from vfs_index_ray import merge, remote

    tasks: list = []
    real = remote.remote_1cpu

    def spy(fn):
        tasks.append(fn)
        return real(fn)

    monkeypatch.setattr(remote, "remote_1cpu", spy)
    monkeypatch.setattr(merge, "_remote", spy)
    return tasks


@pytest.fixture
def ray_down(monkeypatch):
    """A context manager under which ``ray.is_initialized()`` reads
    False, so the fan-out rules (``SegmentReader.map_parts``,
    ``FederatedEngine``) pick their in-process branch."""
    import contextlib

    import ray

    @contextlib.contextmanager
    def down():
        with monkeypatch.context() as m:
            m.setattr(ray, "is_initialized", lambda: False)
            yield

    return down
