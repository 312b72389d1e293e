"""Checkpoint/resume tests (FIXTURES.md items 8 + reference idempotence
record.go:46-82: interrupted builds continue, results identical)."""

import os
import shutil
from pathlib import Path

import pyarrow.parquet as pq
import pytest

from vfs_index_ray import corpus

# the checkout these tests live in
REPO = str(Path(__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def two_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("resume_corpora")
    pages = corpus.generate_pages(400)
    a = str(d / "a.parquet")
    b = str(d / "b.parquet")
    pq.write_table(pages.slice(0, 200), a)
    pq.write_table(pages.slice(200, 200), b)
    return [a, b]


def _bm25_fingerprint(idx, queries=(corpus.RARE_TERM, corpus.PHRASE,
                                    "bababa babade")):
    from vfs_index_ray.search import SearchEngine
    eng = SearchEngine(idx)
    out = []
    for q in queries:
        d, s = eng.bm25(q, 20)
        out.append((d.tolist(), s.tolist()))
    return out


def test_resume_after_wave_interrupt(ray_session, two_files, tmp_path):
    """Kill after wave 0 of 2 → a fresh builder completes only the missing
    wave and all segments; results identical to an uninterrupted build."""
    from vfs_index_ray.build import IndexBuilder

    clean = str(tmp_path / "clean")
    IndexBuilder(clean, mode="word", num_parts=8, id_col=None
                 ).build(two_files, waves=2)

    inter = str(tmp_path / "interrupted")
    b1 = IndexBuilder(inter, mode="word", num_parts=8, id_col=None)
    b1.build_postings_wave(0, [two_files[0]])  # "crash" here
    b2 = IndexBuilder(inter, mode="word", num_parts=8, id_col=None)
    b2.build(two_files, waves=2)
    assert _bm25_fingerprint(clean) == _bm25_fingerprint(inter)


def test_resume_after_partial_segments(ray_session, two_files, tmp_path):
    """Kill mid-phase-2 (3 of 8 partitions committed) → resume completes
    the other 5; no duplicate postings, identical results."""
    from vfs_index_ray.build import IndexBuilder, SegmentWriter

    clean = str(tmp_path / "clean2")
    IndexBuilder(clean, mode="word", num_parts=8, id_col=None
                 ).build(two_files)

    inter = str(tmp_path / "inter2")
    b1 = IndexBuilder(inter, mode="word", num_parts=8, id_col=None)
    b1.build_postings_wave(0, two_files)
    w = SegmentWriter(b1.segments_dir)
    for p in range(3):
        pdir = os.path.join(b1.postings_dir, "wave=0000", f"part={p}")
        t = pq.read_table(pdir, columns=["term_id", "doc_id", "tf", "dl"])
        w.encode_part(p, t)
    assert sorted(b1._done_parts()) == [0, 1, 2]
    b2 = IndexBuilder(inter, mode="word", num_parts=8, id_col=None)
    b2.build(two_files)
    assert _bm25_fingerprint(clean) == _bm25_fingerprint(inter)
    # committed partitions were not rebuilt with different content
    from vfs_index_ray.segment import SegmentReader
    r1, r2 = SegmentReader(clean), SegmentReader(inter)
    for p in range(8):
        assert r1.read_range(p).equals(r2.read_range(p)), p


def test_encode_parts_failure_waits_then_resumes(ray_session, two_files,
                                                tmp_path):
    """One part's task raising makes ``_encode_parts`` raise only after
    every other part task has ended: each of them committed and none
    left a ``.tmp.`` file. A rerun encodes the failed part and the
    index equals a clean build, byte for byte."""
    import time

    from vfs_index_ray.build import IndexBuilder

    clean = str(tmp_path / "clean3")
    IndexBuilder(clean, mode="word", num_parts=8, id_col=None
                 ).build(two_files)

    inter = str(tmp_path / "inter3")
    b1 = IndexBuilder(inter, mode="word", num_parts=8, id_col=None)
    b1.build_postings_wave(0, two_files)
    wave = os.path.join(b1.postings_dir, "wave=0000")
    bad = 5

    def postings_of(p):
        if p == bad:
            raise RuntimeError("part task failed")
        time.sleep(0.5)  # still running when the bad part fails
        return pq.read_table(os.path.join(wave, f"part={p}"),
                             columns=["term_id", "doc_id", "tf", "dl"])

    # the bad part is the largest, so it is submitted (and fails) first
    with pytest.raises(Exception, match="part task failed"):
        b1._encode_parts(postings_of, lambda p: 1 << 40 if p == bad else p)
    left = sorted(os.listdir(b1.segments_dir))
    assert sorted(b1._done_parts()) == [p for p in range(8) if p != bad]
    assert not [n for n in left if n.startswith(".tmp.")]
    time.sleep(1.0)
    assert sorted(os.listdir(b1.segments_dir)) == left

    IndexBuilder(inter, mode="word", num_parts=8, id_col=None
                 ).build(two_files)
    assert (open(os.path.join(clean, "stats.json"), "rb").read()
            == open(os.path.join(inter, "stats.json"), "rb").read())
    seg = os.path.join(clean, "segments")
    names = [n for n in sorted(os.listdir(seg)) if n.endswith(".arrow")]
    assert names == [n for n in sorted(os.listdir(b1.segments_dir))
                     if n.endswith(".arrow")]
    for n in names:
        assert (open(os.path.join(seg, n), "rb").read()
                == open(os.path.join(b1.segments_dir, n), "rb").read()), n


def test_resume_after_spill_commit_without_sidecar(ray_session, two_files,
                                                   tmp_path):
    """Killed between the spill wave's rename and its sidecar: the
    rerun clears the uncommitted ``wave=0000`` postings, tokenizes again
    and builds segments byte-identical to a clean build."""
    from vfs_index_ray.build import IndexBuilder, verify_index
    from vfs_index_ray.segment import part_path, segments_dir

    clean = str(tmp_path / "clean4")
    IndexBuilder(clean, mode="word", num_parts=8, id_col=None
                 ).build(two_files)

    inter = str(tmp_path / "inter4")
    IndexBuilder(inter, mode="word", num_parts=8, id_col=None
                 ).build_postings_wave(0, two_files)
    # "crash" between the postings rename and the sidecar
    os.remove(os.path.join(inter, "waves", "wave=0000.json"))
    IndexBuilder(inter, mode="word", num_parts=8, id_col=None
                 ).build(two_files)
    assert verify_index(inter)["ok"]
    for p in range(8):
        with open(part_path(segments_dir(clean), p), "rb") as a, \
                open(part_path(segments_dir(inter), p), "rb") as b:
            assert a.read() == b.read(), p


def test_wave_sidecar_requires_postings(ray_session, two_files, tmp_path):
    """Scratch loss before segments are built → wave recomputed, not
    trusted from the orphaned sidecar."""
    from vfs_index_ray.build import IndexBuilder

    idx = str(tmp_path / "scratchloss")
    scratch = str(tmp_path / "scratch")
    b1 = IndexBuilder(idx, mode="word", num_parts=8, id_col=None,
                      scratch_dir=scratch)
    b1.build_postings_wave(0, two_files)
    shutil.rmtree(scratch)  # lose the spill before phase 2
    b2 = IndexBuilder(idx, mode="word", num_parts=8, id_col=None,
                      scratch_dir=scratch)
    assert not b2._wave_done(0)  # sidecar alone must not count
    b2.build(two_files)
    clean = str(tmp_path / "clean3")
    IndexBuilder(clean, mode="word", num_parts=8, id_col=None
                 ).build(two_files)
    assert _bm25_fingerprint(clean) == _bm25_fingerprint(idx)


def test_absorb_incremental_equals_full(ray_session, two_files, tmp_path):
    """build(a) + absorb(b) == build([a, b]) — tokenized waves reused,
    segments re-encoded (the reference's incremental Regist + merge)."""
    from vfs_index_ray.build import IndexBuilder
    from vfs_index_ray.segment import SegmentReader

    full = str(tmp_path / "full")
    IndexBuilder(full, mode="word", num_parts=8, id_col=None
                 ).build(two_files, waves=2)
    inc = str(tmp_path / "inc")
    b = IndexBuilder(inc, mode="word", num_parts=8, id_col=None)
    b.build([two_files[0]])
    stats = b.absorb([two_files[1]])
    assert stats["n_docs"] == 400
    assert _bm25_fingerprint(full) == _bm25_fingerprint(inc)
    r1, r2 = SegmentReader(full), SegmentReader(inc)
    for p in range(8):
        assert r1.read_range(p).equals(r2.read_range(p)), p


def test_watch_absorb_once(ray_session, tmp_path):
    """watch_absorb --once ingests only files not yet in any wave; a
    second scan with no new files is a no-op; restartable by design."""
    import subprocess
    import sys

    import numpy as np
    import pyarrow as pa

    from vfs_index_ray import corpus
    from vfs_index_ray.search import SearchEngine

    pages = corpus.generate_pages(90)
    ids = pa.array(np.arange(90, dtype=np.int64), pa.int64())
    tbl = pages.append_column("doc_id", ids)
    inc = tmp_path / "incoming"
    inc.mkdir()
    pq.write_table(tbl.slice(0, 60), str(inc / "a.parquet"))
    idx = str(tmp_path / "idx")

    def run_once():
        return subprocess.run(
            [sys.executable, "scripts/watch_absorb.py", "--index", idx,
             "--input", str(inc / "*.parquet"), "--num-parts", "4",
             "--once"],
            capture_output=True, text=True, cwd=REPO, check=True)

    out = run_once()
    assert '"absorbed": 1' in out.stdout
    assert SearchEngine(idx).ndocs == 60
    # new file arrives → only it is absorbed
    pq.write_table(tbl.slice(60), str(inc / "b.parquet"))
    out = run_once()
    assert '"absorbed": 1' in out.stdout
    eng = SearchEngine(idx)
    assert eng.ndocs == 90
    docs = eng.match("bababa")
    assert (docs < 60).any() and (docs >= 60).any()
    # nothing new → no absorb line
    out = run_once()
    assert "absorbed" not in out.stdout


def test_build_index_toml_config(ray_session, tmp_path):
    """K6 parity: TOML job config sets build options; a key that names
    no option (a typo, a retired option) exits 2 naming the key, before
    any build."""
    import subprocess
    import sys

    import numpy as np
    import pyarrow as pa

    from vfs_index_ray import corpus
    from vfs_index_ray.build import read_stats

    pages = corpus.generate_pages(40)
    ids = pa.array(np.arange(40, dtype=np.int64), pa.int64())
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pages.append_column("doc_id", ids), src)
    cfg = tmp_path / "job.toml"
    cfg.write_text('num_parts = 2\nmode = "word"\n')
    idx = str(tmp_path / "idx")
    subprocess.run(
        [sys.executable, "scripts/build_index.py", "--input", src,
         "--index", idx, "--config", str(cfg)],
        capture_output=True, text=True, cwd=REPO, check=True)
    st = read_stats(idx)
    assert st["num_parts"] == 2 and st["mode"] == "word"
    for key in ("num-part = 4096", "bucket_shift = 61"):
        cfg.write_text(f'{key}\nmode = "word"\n')
        bad = str(tmp_path / "idx_bad")
        out = subprocess.run(
            [sys.executable, "scripts/build_index.py", "--input", src,
             "--index", bad, "--config", str(cfg)],
            capture_output=True, text=True, cwd=REPO)
        assert out.returncode == 2, (key, out.stderr[-500:])
        assert repr(key.split(" = ")[0]) in out.stderr
        assert not os.path.exists(os.path.join(bad, "stats.json"))
