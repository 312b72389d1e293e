"""Segment reads on the one-record-batch format: every read shape
answers exactly what a brute-force filter of the part's full table
gives, term reads are zero-copy views of the memory-mapped file, and a
file of another layout is refused."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from vfs_index_ray import corpus
from vfs_index_ray.codec import Chunks, decode_postings
from vfs_index_ray.segment import SegmentReader, part_path

PARTS = 4
QUERIES = [corpus.RARE_TERM, corpus.PHRASE, "bababa babade",
           "the of and", "nosuchtoken42"]


@pytest.fixture(scope="module")
def url_index(ray_session, pages_file, tmp_path_factory):
    """An index of url-hash doc ids (an 8-byte doc stream)."""
    from vfs_index_ray.build import IndexBuilder

    idx = str(tmp_path_factory.mktemp("segment") / "idx")
    IndexBuilder(idx, mode="word", num_parts=PARTS,
                 id_col=None).build([pages_file])
    return idx


def _full(reader, part) -> pa.Table:
    """The part's whole table, read without ``SegmentReader``."""
    with open(part_path(reader.segments_dir, part), "rb") as f:
        return pa.ipc.open_file(pa.py_buffer(f.read())).read_all()


def _head_term(full: pa.Table) -> int:
    """The part's term of the most postings."""
    return int(full["term_id"][int(np.argmax(full["n"].to_numpy()))].as_py())


def _rows(chunks):
    return [{k: np.asarray(v).tobytes() for k, v in row.items()}
            for row in chunks]


def test_read_shapes_match_brute_force(url_index):
    reader = SegmentReader(url_index)
    for p in range(PARTS):
        full = _full(reader, p)
        tids, dfs = full["term_id"].to_numpy(), full["n"].to_numpy()
        assert (tids[1:] > tids[:-1]).all()  # one row per term
        first, last = int(tids[0]), int(tids[-1])
        head = _head_term(full)
        keys = [first - 1, first, head, last, last + 1]

        def where(lo, hi):
            keep = np.ones(len(tids), bool)
            if lo is not None:
                keep &= tids >= lo
            if hi is not None:
                keep &= tids <= hi
            return full.filter(keep)

        got = reader.load_terms(p, keys)
        assert len(got[head]) == 1
        # the head term's docs stream holds more than 128 postings
        assert len(got[head].column("docs")) > \
            128 * int(got[head].column("docs_w")[0])
        for key in keys:
            assert _rows(got[key]) == _rows(Chunks(where(key, key))), \
                (p, key)
        for lo in [None] + keys:
            for hi in [None] + keys:
                if lo is not None and hi is not None and hi < lo:
                    continue
                want = where(lo, hi)
                assert reader.read_range(p, lo, hi).equals(want), \
                    (p, lo, hi)
                cols = ["n", "term_id"]
                assert reader.read_range(p, lo, hi, cols).equals(
                    want.select(cols)), (p, lo, hi)
                rows = Chunks(want)
                expect = (np.repeat(rows.column("term_id"),
                                    rows.column("n").astype(np.int64)),
                          *decode_postings(rows))
                for a, b in zip(reader.decode_part(p, lo, hi), expect):
                    assert np.array_equal(a, b), (p, lo, hi)
        for key in keys + [0, (1 << 64) - 1]:
            le, ge = tids <= np.uint64(key), tids >= np.uint64(key)
            below = (int(tids[le][-1]), int(dfs[le][-1])) if le.any() \
                else None
            above = (int(tids[ge][0]), int(dfs[ge][0])) if ge.any() \
                else None
            assert reader.nearest(p, key, True) == below, (p, key)
            assert reader.nearest(p, key, False) == above, (p, key)


def test_bm25_matches_oracle(url_index, oracle_index):
    from vfs_index_ray.search import SearchEngine

    eng = SearchEngine(url_index)
    for q in QUERIES:
        want = oracle_index.bm25(q, 20)
        for method in ("exact", "maxscore"):
            docs, scores = eng.bm25(q, 20, method=method)
            assert list(zip(docs.tolist(), scores.tolist())) == want, \
                (q, method)


def test_load_terms_is_zero_copy(url_index):
    """A term read allocates no Arrow memory: its row and the column
    views over it are the memory-mapped file's pages."""
    reader = SegmentReader(url_index)
    p = 0
    term = _head_term(_full(reader, p))
    before = pa.total_allocated_bytes()
    rows = reader.load_terms(p, [term])[term]
    views = [rows.column(c) for c in ("docs", "tfs", "dls", "imp_doc")]
    assert len(rows) == 1 and all(len(v) for v in views)
    assert pa.total_allocated_bytes() <= before


def test_one_term_read_ships_only_its_rows(url_index):
    """Ray serializes a one-term read (a Ray task returning
    ``read_range``) as its own row, not the whole memory-mapped part."""
    import ray

    reader = SegmentReader(url_index)
    p = 0
    full = _full(reader, p)
    term = _head_term(full)
    tbl = reader.read_range(p, term, term)
    assert tbl.num_rows == 1
    ctx = ray._private.worker.global_worker.get_serialization_context()
    # 6%, not 5%: the part has no per-block lists since 0.9.0, but the
    # read still carries about 2.4 KB of schema framing (8.3 KB in all
    # for this head row), a whole-part read ships about 160 KB
    assert ctx.serialize(tbl).total_bytes < 0.06 * full.nbytes


def _per_block(tbl: pa.Table, typ) -> pa.ListArray:
    """A list column of zeros with one entry per 128-posting block of
    each row, as 0.8.0 and older wrote per-block metadata."""
    n = tbl["n"].to_numpy().astype(np.int64)
    offs = np.r_[0, np.cumsum(-(-n // 128))]
    return pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                    pa.array(np.zeros(offs[-1]), typ))


def _v080_columns(tbl: pa.Table) -> pa.Table:
    """``tbl`` with the columns 0.8.0 wrote: per-block ``skip_doc_last``,
    ``block_tf_max`` and ``block_dl_min`` lists after the ``dls``
    stream."""
    at = tbl.schema.get_field_index("dls") + 1
    for name, typ in (("block_dl_min", pa.uint32()),
                      ("block_tf_max", pa.uint32()),
                      ("skip_doc_last", pa.uint64())):
        tbl = tbl.add_column(at, name, _per_block(tbl, typ))
    return tbl


def _v050_columns(tbl: pa.Table) -> pa.Table:
    """``tbl`` with the columns 0.5.0 wrote: 0.8.0's block lists, a
    ``denc`` doc-encoding flag where the stream widths are now, and a
    ``skip_off_*`` byte offset list per stream after ``skip_doc_last``."""
    offsets = _per_block(tbl, pa.uint32())
    tbl = _v080_columns(tbl)
    cols = {"term_id": tbl["term_id"],
            "denc": pa.array(np.zeros(tbl.num_rows, np.uint8))}
    for name in tbl.schema.names[4:]:
        cols[name] = tbl[name]
        if name == "skip_doc_last":
            cols.update({f"skip_off_{s}": offsets for s in ("doc", "tf",
                                                          "dl")})
    return pa.table(cols)


def _v070_columns(tbl: pa.Table) -> pa.Table:
    """``tbl`` with the columns 0.7.0 wrote: a ``bucket`` (doc range)
    and a ``df`` column before ``n``, a row per (term, bucket)."""
    at = tbl.schema.get_field_index("n")
    tbl = tbl.add_column(at, "df", tbl["n"])
    return tbl.add_column(at, "bucket", pa.array(
        np.zeros(tbl.num_rows, np.uint64)))


_OLD_COLUMNS = {"v050": _v050_columns, "v070": _v070_columns,
                "v080": _v080_columns}


def _rewrite(path: str, layout: str) -> None:
    """Rewrite one segment file as two uncompressed record batches cut
    at a term boundary, as 0.4.0 wrote a small part (one lz4 batch with
    the first-term directory in the schema metadata), with 0.5.0's
    delta-varint columns in one uncompressed batch, with 0.7.0's
    ``bucket`` and ``df`` columns, or with 0.8.0's per-block lists."""
    with open(path, "rb") as f:
        tbl = pa.ipc.open_file(pa.py_buffer(f.read())).read_all()
    tids = tbl["term_id"].to_numpy()
    if layout == "two_batches":
        cut = int(np.searchsorted(tids, tids[len(tids) // 2]))
        batches, options = [tbl.slice(0, cut), tbl.slice(cut)], None
    elif layout in _OLD_COLUMNS:
        tbl = _OLD_COLUMNS[layout](tbl)
        batches, options = [tbl], None
    else:
        tbl = tbl.replace_schema_metadata({
            b"batch_first_term_ids": tids[:1].astype("<u8").tobytes().hex()})
        batches = [tbl]
        options = pa.ipc.IpcWriteOptions(compression="lz4")
    with pa.OSFile(path, "wb") as sink, \
            pa.ipc.new_file(sink, tbl.schema, options=options) as writer:
        for b in batches:
            writer.write_table(b.combine_chunks())


@pytest.mark.parametrize("layout", ["two_batches", "v040_directory",
                                    "v050", "v070", "v080"])
@pytest.mark.parametrize("shape", ["load_terms", "read_range", "nearest",
                                   "decode_part"])
def test_other_layouts_raise_rebuild(url_index, tmp_path, layout, shape):
    idx = str(tmp_path / "old")
    shutil.copytree(url_index, idx)
    reader = SegmentReader(idx)
    p = 0
    term = _head_term(_full(reader, p))
    path = part_path(reader.segments_dir, p)
    _rewrite(path, layout)
    assert os.path.getsize(path) > 0
    call = {"load_terms": lambda: reader.load_terms(p, [term]),
            "read_range": lambda: reader.read_range(p),
            "nearest": lambda: reader.nearest(p, term, less=True),
            "decode_part": lambda: reader.decode_part(p)}[shape]
    with pytest.raises(RuntimeError, match="must be rebuilt"):
        call()


def _rewrite_with_sidecar(reader: SegmentReader, p: int,
                          layout: str) -> None:
    """``_rewrite`` part ``p`` and record its new byte size in its
    sidecar, so only the format is wrong."""
    import json

    path = part_path(reader.segments_dir, p)
    _rewrite(path, layout)
    sidecar = part_path(reader.segments_dir, p, "json")
    with open(sidecar) as f:
        row = json.load(f)
    row["output_bytes"] = os.path.getsize(path)
    with open(sidecar, "w") as f:
        json.dump(row, f)


def test_verify_index_flags_old_format(url_index, tmp_path):
    """``verify_index`` opens every segment's footer: a part left in
    0.5.0's layout (its sidecar's byte size updated, so only the format
    is wrong) is reported as "must be rebuilt", and a part whose bytes
    are not an Arrow file at all as unreadable."""
    from vfs_index_ray.build import verify_index

    assert verify_index(url_index)["ok"]
    idx = str(tmp_path / "old")
    shutil.copytree(url_index, idx)
    reader = SegmentReader(idx)
    p = 1
    _rewrite_with_sidecar(reader, p, "v050")
    rep = verify_index(idx)
    assert not rep["ok"]
    assert len(rep["errors"]) == 1
    assert rep["errors"][0].startswith(f"part={p}: ")
    assert "must be rebuilt" in rep["errors"][0]
    garbage = part_path(reader.segments_dir, p + 1)
    size = os.path.getsize(garbage)
    with open(garbage, "wb") as f:
        f.write(b"\0" * size)
    rep = verify_index(idx)
    assert len(rep["errors"]) == 2
    assert rep["errors"][1].startswith(f"part={p + 1}: ")


def _flag_every_part(url_index, tmp_path, layout: str) -> None:
    """Every part rewritten in ``layout`` is reported as "must be
    rebuilt" by ``verify_index``, and a query that reads it raises the
    same."""
    from vfs_index_ray.build import verify_index
    from vfs_index_ray.search import SearchEngine

    idx = str(tmp_path / "old")
    shutil.copytree(url_index, idx)
    reader = SegmentReader(idx)
    for p in range(PARTS):
        _rewrite_with_sidecar(reader, p, layout)
    rep = verify_index(idx)
    assert len(rep["errors"]) == PARTS
    assert all("must be rebuilt" in e for e in rep["errors"])
    with pytest.raises(RuntimeError, match="must be rebuilt"):
        SearchEngine(idx).bm25("bababa babade", 10)


def test_verify_index_flags_v070_segment(url_index, tmp_path):
    """A part left in 0.7.0's layout (``bucket`` and ``df`` columns) is
    flagged, and queries that read it raise."""
    _flag_every_part(url_index, tmp_path, "v070")


def test_verify_index_flags_v080_segment(url_index, tmp_path):
    """A part left in 0.8.0's layout (the ``skip_doc_last``,
    ``block_tf_max`` and ``block_dl_min`` lists) is flagged, and queries
    that read it raise."""
    _flag_every_part(url_index, tmp_path, "v080")


def test_publish_clears_stale_tmp_and_commits(tmp_path):
    """``publish`` clears the ``.tmp.`` file or directory a killed
    writer left, hands ``write`` a fresh tmp, and leaves no ``.tmp.``
    name once it has renamed it over the target."""
    from vfs_index_ray.segment import publish

    stale_dir = tmp_path / ".tmp.wave=0000" / "part=0"
    stale_dir.mkdir(parents=True)
    (stale_dir / "torn.parquet").write_bytes(b"PAR1")
    (tmp_path / ".tmp.part=00000.json").write_text('{"part": ')

    def write_file(tmp):
        assert not os.path.exists(tmp)
        with open(tmp, "w") as f:
            f.write("{}")

    def write_dir(tmp):
        assert not os.path.exists(tmp)
        os.makedirs(os.path.join(tmp, "part=1"))

    publish(str(tmp_path / "part=00000.json"), write_file)
    publish(str(tmp_path / "wave=0000"), write_dir)
    assert sorted(os.listdir(tmp_path)) == ["part=00000.json", "wave=0000"]
    assert (tmp_path / "part=00000.json").read_text() == "{}"
    assert os.listdir(tmp_path / "wave=0000") == ["part=1"]


def test_publish_failed_write_leaves_target(tmp_path):
    """A ``write`` that raises leaves the published file as it was."""
    from vfs_index_ray.segment import publish

    path = tmp_path / "stats.json"
    path.write_text("old")

    def write(tmp):
        with open(tmp, "w") as f:
            f.write("new, torn")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        publish(str(path), write)
    assert path.read_text() == "old"


def test_read_waves_skips_uncommitted_in_order(tmp_path):
    """``read_waves`` returns the committed wave sidecars in wave order
    and ignores a ``.tmp.`` one."""
    from vfs_index_ray.segment import publish_json, read_waves, wave_path

    idx = str(tmp_path)
    assert read_waves(idx) == []
    for w in (2, 0, 1):
        publish_json(wave_path(idx, w), {"wave": w, "files": [],
                                         "n_docs": w})
    waves = os.path.dirname(wave_path(idx, 0))
    with open(os.path.join(waves, ".tmp.wave=0003.json"), "w") as f:
        f.write('{"wave": 3, "files": [], "n_docs": 3}')
    assert [w["wave"] for w in read_waves(idx)] == [0, 1, 2]


def test_finalize_publishes_stats_last(url_index, tmp_path, monkeypatch):
    """``finalize`` publishes ``manifest.parquet`` before ``stats.json``,
    so stats.json is the index's commit, and rewrites the same stats."""
    from vfs_index_ray import build, segment

    idx = str(tmp_path / "idx")
    shutil.copytree(url_index, idx)
    order = []

    def recording(path, write, publish=segment.publish):
        order.append(os.path.basename(path))
        publish(path, write)

    monkeypatch.setattr(segment, "publish", recording)
    monkeypatch.setattr(build, "publish", recording)
    before = segment.read_stats(idx)
    build.IndexBuilder(idx, mode="word", num_parts=PARTS,
                       id_col=None).finalize()
    assert order == ["manifest.parquet", "stats.json"]
    assert segment.read_stats(idx) == before


def _edge_postings(positions: bool) -> pa.Table:
    """Postings whose term and doc ids sit at the byte boundaries of a
    uint64 (0, 255, 256, 2**32, 2**63 + 5, 2**64 - 1) and at random
    values, each (term, doc) once, sorted by (term, doc); tf >= 2 is
    the posting's ordinal count."""
    from vfs_index_ray.segment import postings_schema

    rng = np.random.default_rng(17)
    edge = np.array([0, 255, 256, 1 << 32, (1 << 63) + 5, (1 << 64) - 1],
                    np.uint64)
    rand = rng.integers(0, 1 << 64, 150, np.uint64, endpoint=False)
    terms = np.concatenate([np.repeat(edge, len(edge)),
                            rng.choice(edge, 150), rand])
    docs = np.concatenate([np.tile(edge, len(edge)), rand[::-1],
                           rng.choice(edge, 150)])
    pairs = sorted(set(zip(terms.tolist(), docs.tolist())))
    tfs = rng.integers(2, 6, len(pairs))
    cols = [[t for t, _ in pairs], [d for _, d in pairs], tfs,
            rng.integers(1, 1000, len(pairs))]
    if positions:
        cols.append([sorted(rng.choice(50, tf, replace=False).tolist())
                     for tf in tfs])
    schema = postings_schema(positions)
    return pa.table([pa.array(c, f.type) for c, f in zip(cols, schema)],
                    schema=schema)


def _with_ordinals(t: pa.Table, keep) -> pa.Table:
    """``t`` with each row's ordinals cut to ``keep(ords)`` (its tf
    follows; every row keeps its tf column when ``t`` has no ``pos``)."""
    if "pos" not in t.column_names:
        tf = [len(keep(list(range(n)))) for n in t["tf"].to_pylist()]
        return t.set_column(2, "tf", pa.array(tf, pa.uint32()))
    pos = [keep(p) for p in t["pos"].to_pylist()]
    t = t.set_column(2, "tf", pa.array([len(p) for p in pos], pa.uint32()))
    return t.set_column(4, "pos", pa.array(pos, t["pos"].type))


@pytest.mark.parametrize("positions", [False, True])
def test_encode_part_input_order_independent(tmp_path, positions):
    """``encode_part`` writes the same segment bytes for the same
    postings given sorted, as k (term, doc)-sorted runs, or shuffled,
    with 20 (term, doc) rows split over two runs (dedup sums their tf,
    maxes their dl and joins their ordinals), and ids at the byte
    boundaries of a uint64: a key of any other byte order than unsigned
    big-endian (term, doc) fails here. The decoded segment is the
    postings in (term, doc) order."""
    from vfs_index_ray.codec import decode_positions
    from vfs_index_ray.segment import SegmentWriter

    full = _edge_postings(positions)
    rng = np.random.default_rng(3)
    dup = rng.choice(full.num_rows, 20, replace=False)
    single = np.setdiff1d(np.arange(full.num_rows), dup)
    run_of = rng.integers(0, 3, len(single))
    head = _with_ordinals(full.take(dup), lambda p: p[:len(p) // 2])
    tail = _with_ordinals(full.take(dup), lambda p: p[len(p) // 2:])
    runs = [full.take(single[run_of == r]) for r in range(3)]
    runs[0] = pa.concat_tables([runs[0], head])
    runs[2] = pa.concat_tables([runs[2], tail])
    runs = [t.take(np.lexsort((t["doc_id"].to_numpy(),
                               t["term_id"].to_numpy()))) for t in runs]
    as_runs = pa.concat_tables(runs)
    shapes = {
        "sorted": as_runs.take(np.lexsort((as_runs["doc_id"].to_numpy(),
                                           as_runs["term_id"].to_numpy()))),
        "runs": as_runs,
        "shuffled": as_runs.take(rng.permutation(as_runs.num_rows))}
    files = {}
    for name, postings in shapes.items():
        seg = str(tmp_path / name)
        os.makedirs(seg)
        SegmentWriter(seg, positions=positions).encode_part(0, postings)
        with open(part_path(seg, 0), "rb") as f:
            files[name] = f.read()
    assert files["runs"] == files["sorted"]
    assert files["shuffled"] == files["sorted"]
    rows = Chunks(pa.ipc.open_file(pa.py_buffer(files["sorted"])).read_all())
    docs, tfs, _ = decode_postings(rows)
    terms = np.repeat(rows.column("term_id"), rows.column("n").astype(int))
    assert terms.tolist() == full["term_id"].to_pylist()
    assert docs.tolist() == full["doc_id"].to_pylist()
    assert tfs.tolist() == full["tf"].to_pylist()
    if positions:
        ends, ords = decode_positions(rows)
        assert [o.tolist() for o in np.split(ords, ends[:-1])] \
            == full["pos"].to_pylist()
