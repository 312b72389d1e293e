"""Pluggable spill filesystem (vfs_index_ray/spillfs.py): spec
resolution, run-scoped isolation (the stale-mix regression), and the
whole disk-shuffle substrate running over a NON-native pyarrow
filesystem (fsspec wrapped in PyFileSystem) — the generic path a
cluster S3/NFS deployment uses."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.fs as pafs
import pytest


def _fsspec_fs():
    """A genuinely non-LocalFileSystem pyarrow fs (PyFileSystem over
    fsspec's local protocol): exercises the generic-fs code path and
    the pickle-into-Ray-task requirement, without needing network."""
    import fsspec
    from pyarrow.fs import FSSpecHandler, PyFileSystem
    return PyFileSystem(FSSpecHandler(fsspec.filesystem("file")))


def test_open_spill_specs(tmp_path):
    from vfs_index_ray.spillfs import Spill, open_spill

    # None -> private tmpdir
    s = open_spill(None, prefix="t_")
    assert s.local and os.path.isdir(s.path)
    s.cleanup()
    assert not os.path.exists(s.path)

    # local path -> unique subdir INSIDE it; root untouched by cleanup
    root = str(tmp_path / "root")
    os.makedirs(root)
    a, b = open_spill(root), open_spill(root)
    assert a.path != b.path and a.path.startswith(root)
    a.cleanup()
    assert os.path.isdir(root) and os.path.isdir(b.path)
    b.cleanup()

    # URI
    u = open_spill(f"file://{tmp_path}/uri_root")
    assert isinstance(u.fs, pafs.LocalFileSystem)
    assert u.path.startswith(str(tmp_path))
    u.cleanup()

    # (fs, path) tuple with a non-native fs
    t = open_spill((_fsspec_fs(), str(tmp_path / "tup")))
    assert not t.local
    t.fs.create_dir(t.join("x"))
    assert t.exists_dir(t.join("x"))
    t.cleanup()

    # idempotent: an existing Spill passes through
    s2 = open_spill(None)
    assert open_spill(s2) is s2
    s2.cleanup()


def test_spill_list_and_read(tmp_path, ray_session):
    import ray.data

    from vfs_index_ray.spillfs import open_spill

    sp = open_spill(str(tmp_path))
    t = pa.table({"k": pa.array([0, 0, 1, 1, 2], pa.int64()),
                  "v": pa.array([1, 2, 3, 4, 5], pa.int64())})
    sp.write_parts(ray.data.from_arrow(t), "k", "d")
    parts = sp.list_parts("k", "d")
    assert sorted(parts) == ["0", "1", "2"]
    got = sp.read_table(parts["1"], columns=["v"])
    assert sorted(got["v"].to_pylist()) == [3, 4]
    assert sp.schema_of(parts) is not None
    assert sp.dir_bytes(parts["0"]) > 0
    sp.cleanup()


@pytest.mark.parametrize("fsspec", [False, True])
def test_write_parts_sink(tmp_path, fsspec):
    """One write task of ``Spill.write_parts``: its blocks unify to one
    schema (a ``pa.null()`` column next to an int64 one reads int64),
    each part's rows keep their order across blocks, the part column is
    gone, and each task writes one file per non-empty part, without
    dictionaries or statistics."""
    import types

    import pyarrow.parquet as pq

    from vfs_index_ray.spillfs import _PartSink, open_spill

    root = str(tmp_path / "spill")
    os.makedirs(root)
    sp = open_spill((_fsspec_fs(), root) if fsspec else root)
    k = np.r_[2, 0, 2, np.random.default_rng(3).choice([0, 2], 2000)]
    a = pa.table({"k": pa.array(k[:3], pa.int32()), "v": pa.nulls(3),
                  "i": pa.array(np.arange(3))})
    b = pa.table({"k": pa.array(k[3:], pa.int32()),
                  "v": pa.array(np.arange(2000)),
                  "i": pa.array(np.arange(3, len(k)))})
    sink = _PartSink(sp.fs, sp.join("d"), "k")
    for task in (0, 7):
        sink.write([a, a.slice(0, 0), b], types.SimpleNamespace(task_idx=task))
    sink.write([a.slice(0, 0)], types.SimpleNamespace(task_idx=9))
    parts = sp.list_parts("k", "d")
    assert sorted(parts) == ["0", "2"]
    for key in ("0", "2"):
        rows = np.flatnonzero(k == int(key)).tolist()
        files = sp.list_files(parts[key])
        assert [f.rsplit("/", 1)[1] for f in files] == [
            "000000.parquet", "000007.parquet"]
        for f in files:
            t = pq.read_table(f, filesystem=sp.fs)
            assert t.column_names == ["v", "i"]
            assert t.schema.field("v").type == pa.int64()
            assert t["i"].to_pylist() == rows
            with sp.fs.open_input_file(f) as fh:
                meta = pq.ParquetFile(fh).metadata
            for j in range(meta.num_columns):
                col = meta.row_group(0).column(j)
                assert not col.has_dictionary_page
                assert col.statistics is None
    sp.cleanup()


@pytest.mark.parametrize("fsspec", [False, True])
def test_write_parts_dataset(ray_session, tmp_path, fsspec):
    """``Spill.write_parts`` over a Dataset: one file per (write task,
    non-empty part), each holding that task's rows of the part in
    input order; an all-empty Dataset writes no file."""
    import ray.data

    from vfs_index_ray.spillfs import open_spill

    root = str(tmp_path / "spill")
    os.makedirs(root)
    sp = open_spill((_fsspec_fs(), root) if fsspec else root)
    blocks = [pa.table({"k": pa.array(k, pa.int64()),
                        "i": pa.array(range(lo, lo + len(k)), pa.int64())})
              for k, lo in (([1, 0, 1], 0), ([1, 1], 3), ([0, 1, 0], 5))]
    sp.write_parts(ray.data.from_arrow(blocks), "k", "d")
    parts = sp.list_parts("k", "d")
    assert sorted(parts) == ["0", "1"]
    runs = {key: [sp.read_table(f)["i"].to_pylist()
                  for f in sp.list_files(d)] for key, d in parts.items()}
    assert sorted(runs["0"]) == [[1], [5, 7]]
    assert sorted(runs["1"]) == [[0, 2], [3, 4], [6]]
    assert sp.read_table(parts["1"]).column_names == ["i"]

    sp.write_parts(ray.data.from_arrow(blocks[0].slice(0, 0)), "k", "e")
    assert sp.list_parts("k", "e") == {}
    assert sp.dir_bytes(sp.join("e")) == 0
    sp.cleanup()


def test_reused_spill_root_never_mixes_runs(ray_session, tmp_path):
    """Regression (ADVICE r4): two hash_join runs through the SAME
    caller-supplied spill root must not mix partition files — the
    second run's result must equal a fresh-spill run exactly."""
    import ray
    import ray.data

    from vfs_index_ray.functions.joins import hash_join

    root = str(tmp_path / "shared_spill")
    os.makedirs(root)
    g = np.random.Generator(np.random.Philox(key=[5, 0]))
    lt = pa.table({"k": pa.array(g.integers(0, 100, 1000), pa.int64()),
                   "v": pa.array(np.arange(1000), pa.int64())})
    rt = pa.table({"k2": pa.array(np.arange(80), pa.int64()),
                   "w": pa.array(np.arange(80) * 2, pa.int64())})

    def run(spill):
        out = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                        left_on="k", right_on="k2", how="inner",
                        num_parts=4, spill_dir=spill)
        t = pa.concat_tables(ray.get(out.to_arrow_refs())).combine_chunks()
        t = t.select(sorted(t.column_names))
        return t.take(pc.sort_indices(t, sort_keys=[
            (c, "ascending") for c in t.column_names]))

    fresh = run(None)
    first = run(root)
    second = run(root)  # would double rows before the unique-subdir fix
    assert first.equals(fresh) and second.equals(fresh)


def test_substrate_over_fsspec_filesystem(ray_session, tmp_path,
                                          disk_calls):
    """hash_join + exact_dedup running their spills through a
    PyFileSystem(FSSpecHandler) — results identical to the default
    local-tmp spill (join) and to Ray Data's groupby (dedup)."""
    import ray
    import ray.data

    from vfs_index_ray.functions.dedup import exact_dedup
    from vfs_index_ray.functions.joins import hash_join

    pyfs = _fsspec_fs()
    spec = (pyfs, str(tmp_path / "remote_spill"))
    os.makedirs(str(tmp_path / "remote_spill"))

    g = np.random.Generator(np.random.Philox(key=[9, 0]))
    lt = pa.table({"k": pa.array(g.integers(0, 60, 800), pa.int64()),
                   "v": pa.array(np.arange(800), pa.int64())})
    rt = pa.table({"k2": pa.array(np.arange(50), pa.int64()),
                   "w": pa.array(np.arange(50) * 7, pa.int64())})

    def norm(t):
        t = t.select(sorted(t.column_names))
        return t.take(pc.sort_indices(t, sort_keys=[
            (c, "ascending") for c in t.column_names]))

    j_remote = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                         left_on="k", right_on="k2", how="inner",
                         num_parts=4, spill_dir=spec)
    j_local = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                        left_on="k", right_on="k2", how="inner",
                        num_parts=4)
    a = norm(pa.concat_tables(ray.get(j_remote.to_arrow_refs())))
    b = norm(pa.concat_tables(ray.get(j_local.to_arrow_refs())))
    assert a.equals(b)

    docs = pa.table({
        "doc_id": pa.array(np.arange(200), pa.int64()),
        "text": pa.array([f"doc {i % 40}" for i in range(200)]),
    })
    disk_calls.clear()
    d_remote = exact_dedup(ray.data.from_arrow(docs), spill_dir=spec)
    assert disk_calls == ["winpart_"]  # spill_dir forces the disk spill
    d_local = exact_dedup(ray.data.from_arrow(docs))
    assert disk_calls == ["winpart_"]  # the default ran the groupby
    ar = norm(pa.concat_tables(ray.get(d_remote.to_arrow_refs())))
    br = norm(pa.concat_tables(ray.get(d_local.to_arrow_refs())))
    assert ar.equals(br.cast(ar.schema))


def test_partition_apply(ray_session, tmp_path):
    """spillfs.partition_apply under a caller spill root: empty input
    gives [], results equal an in-process group-by, a raising
    ``per_part`` surfaces from ``ray.get``, and no spill directory is
    left behind in any case."""
    import ray
    import ray.data

    from vfs_index_ray.spillfs import partition_apply

    root = str(tmp_path / "spill")
    os.makedirs(root)
    g = np.random.Generator(np.random.Philox(key=[11, 0]))
    t = pa.table({"k": pa.array(g.integers(0, 50, 1000), pa.int64()),
                  "v": pa.array(g.integers(0, 9, 1000), pa.int64())})

    def add_part(b: pa.Table) -> pa.Table:
        k = b["k"].to_numpy(zero_copy_only=False)
        return b.append_column("part", pa.array(k % 4, pa.int32()))

    def sums(p: pa.Table) -> pa.Table:
        assert p.column_names == ["k", "v"]  # part column consumed
        return p.group_by("k").aggregate([("v", "sum")])

    def spilled(tbl):
        return ray.data.from_arrow(tbl).repartition(3).map_batches(
            add_part, batch_format="pyarrow")

    assert partition_apply(spilled(t.slice(0, 0)), "part", sums,
                           spill_dir=root) == []
    assert os.listdir(root) == []

    refs = partition_apply(spilled(t), "part", sums, columns=["k", "v"],
                           spill_dir=root, prefix="t_")
    assert len(refs) == 4 and os.listdir(root) == []
    got = pa.concat_tables(ray.get(refs)).sort_by("k")
    assert got.equals(t.group_by("k").aggregate([("v", "sum")])
                      .sort_by("k"))

    def boom(p: pa.Table) -> pa.Table:
        raise ValueError("per-part failure")

    refs = partition_apply(spilled(t), "part", boom, spill_dir=root)
    assert refs and os.listdir(root) == []
    with pytest.raises(Exception, match="per-part failure"):
        ray.get(refs)


def test_resolve_location():
    from vfs_index_ray.spillfs import resolve_location

    fs, p = resolve_location(None, default_path="/tmp/x")
    assert isinstance(fs, pafs.LocalFileSystem) and p == "/tmp/x"
    fs, p = resolve_location("/tmp/y")
    assert isinstance(fs, pafs.LocalFileSystem) and p == "/tmp/y"
    fs, p = resolve_location("file:///tmp/z")
    assert isinstance(fs, pafs.LocalFileSystem) and p == "/tmp/z"
    my = _fsspec_fs()
    fs, p = resolve_location((my, "/tmp/w"))
    assert fs is my and p == "/tmp/w"
    with pytest.raises(ValueError):
        resolve_location(None)


def test_build_on_nonlocal_scratch_matches_local(ray_session, tmp_path):
    """Index build with the postings scratch on the fsspec-wrapped fs
    (exercises the sidecar-commit branch — no atomic rename) produces
    byte-identical query results to the default local scratch, and a
    re-build resumes (reuses committed waves)."""
    import pyarrow.parquet as pq

    from vfs_index_ray import corpus
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.search import SearchEngine

    pages = corpus.generate_pages(120)
    ids = pa.array(np.arange(120, dtype=np.int64), pa.int64())
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pages.append_column("doc_id", ids), src)

    scratch = (_fsspec_fs(), str(tmp_path / "scratch"))
    os.makedirs(str(tmp_path / "scratch"))
    idx_r = str(tmp_path / "idx_remote")
    b = IndexBuilder(idx_r, mode="word", num_parts=4, id_col="doc_id",
                     scratch_dir=scratch)
    assert not b.scratch_local
    s1 = b.build([src])

    idx_l = str(tmp_path / "idx_local")
    s2 = IndexBuilder(idx_l, mode="word", num_parts=4,
                      id_col="doc_id").build([src])
    assert s1["n_docs"] == s2["n_docs"]
    assert s1["total_tokens"] == s2["total_tokens"]

    er, el = SearchEngine(idx_r), SearchEngine(idx_l)
    for q in ("bababa", "zq xv", "the quick"):
        dr, sr = er.bm25(q, 10)
        dl, sl = el.bm25(q, 10)
        assert dr.tolist() == dl.tolist()
        assert sr.tolist() == sl.tolist()

    # resume: second build() is a no-op returning identical stats
    s3 = IndexBuilder(idx_r, mode="word", num_parts=4, id_col="doc_id",
                      scratch_dir=scratch).build([src])
    assert s3["n_docs"] == s1["n_docs"]
    assert s3["total_tokens"] == s1["total_tokens"]
