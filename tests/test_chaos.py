"""Chaos / fault-injection: SIGKILL a build, a merge, and an absorb
MID-FLIGHT (while worker tasks are writing), then resume in a fresh
process and require results identical — and segment bytes identical —
to an uninterrupted run.  Complements tests/test_resume.py, which
interrupts BETWEEN phases; here the kill lands inside the tmp+rename /
sidecar commit window the protocol is designed around."""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pyarrow.parquet as pq
import pytest

from vfs_index_ray import corpus

# the checkout these tests live in
REPO = str(Path(__file__).resolve().parents[1])
PAGES = 1500  # big enough that a wave/merge is killable mid-write


@pytest.fixture(scope="module")
def chaos_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("chaos_corpora")
    pages = corpus.generate_pages(PAGES)
    out = []
    for i in range(3):
        f = str(d / f"c{i}.parquet")
        pq.write_table(pages.slice(i * PAGES // 3, PAGES // 3), f)
        out.append(f)
    return out


def _fingerprint(idx):
    from vfs_index_ray.search import SearchEngine
    eng = SearchEngine(idx)
    out = []
    for q in (corpus.RARE_TERM, corpus.PHRASE, "bababa babade"):
        d, s = eng.bm25(q, 20)
        out.append((d.tolist(), s.tolist()))
    return out


def _segment_hashes(idx):
    from vfs_index_ray.build import read_stats
    from vfs_index_ray.segment import part_path, segments_dir
    out = {}
    for p in range(read_stats(idx)["num_parts"]):
        with open(part_path(segments_dir(idx), p), "rb") as fh:
            out[p] = hashlib.sha256(fh.read()).hexdigest()
    return out


# The child runs in its own session (so a test can SIGKILL its whole
# group mid-write), where nothing else ends it if the test run stops
# first: it watches its parent and SIGKILLs its own group, Ray's daemons
# included, once the parent (this process) is gone.
_WATCH_PARENT = (
    "import os, signal, threading, time\n"
    "def _die_with_parent():\n"
    "    while os.getppid() == {ppid}:\n"
    "        time.sleep(0.2)\n"
    "    os.killpg(0, signal.SIGKILL)\n"
    "threading.Thread(target=_die_with_parent, daemon=True).start()\n")


def _spawn(body: str, tmp_path, name: str) -> subprocess.Popen:
    script = tmp_path / f"{name}.py"
    script.write_text(
        _WATCH_PARENT.format(ppid=os.getpid())
        + "import ray\n"
        "ray.init(address='local', num_cpus=4, include_dashboard=False,"
        " logging_level='ERROR')\n"
        "from ray.data import DataContext\n"
        "DataContext.get_current().enable_progress_bars = False\n"
        + body)
    env = dict(os.environ, PYTHONPATH=REPO)
    return subprocess.Popen([sys.executable, str(script)],
                            cwd=REPO, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            start_new_session=True)


def _kill_when(proc: subprocess.Popen, cond, timeout=120.0) -> bool:
    """SIGKILL the whole process group as soon as cond() is true.
    Returns True if the kill happened (False: proc finished first)."""
    t0 = time.time()
    while time.time() - t0 < timeout:
        if proc.poll() is not None:
            return False
        if cond():
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            return True
        time.sleep(0.02)
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    return True


def test_chaos_kill_mid_wave(ray_session, chaos_files, tmp_path):
    """SIGKILL while wave 1's postings write is in flight; a fresh
    builder must complete the build with results AND segment bytes
    identical to an uninterrupted build."""
    from vfs_index_ray.build import IndexBuilder, verify_index

    clean = str(tmp_path / "clean")
    IndexBuilder(clean, mode="word", num_parts=8, id_col=None
                 ).build(chaos_files[:2], waves=2)

    inter = str(tmp_path / "inter")
    body = (
        "from vfs_index_ray.build import IndexBuilder\n"
        f"IndexBuilder({inter!r}, mode='word', num_parts=8,"
        f" id_col=None).build({chaos_files[:2]!r}, waves=2)\n")
    proc = _spawn(body, tmp_path, "mid_wave")
    post = os.path.join(inter, "postings")

    def mid_wave1():
        # wave 0 committed AND wave 1's tmp write has started
        return (os.path.exists(os.path.join(inter, "waves",
                                            "wave=0000.json"))
                and os.path.isdir(os.path.join(post,
                                               ".tmp.wave=0001")))

    _kill_when(proc, mid_wave1)
    # resume in THIS process (fresh builder object)
    IndexBuilder(inter, mode="word", num_parts=8, id_col=None
                 ).build(chaos_files[:2], waves=2)
    assert verify_index(inter)["ok"]
    assert _fingerprint(inter) == _fingerprint(clean)
    assert _segment_hashes(inter) == _segment_hashes(clean)


def test_chaos_kill_mid_absorb(ray_session, chaos_files, tmp_path):
    """SIGKILL during absorb() of a third file (mid segment re-encode);
    re-running absorb must converge to the same index as a clean build
    over all three files."""
    from vfs_index_ray.build import IndexBuilder, verify_index

    clean = str(tmp_path / "clean_a")
    IndexBuilder(clean, mode="word", num_parts=8, id_col=None
                 ).build(chaos_files, waves=3)

    inter = str(tmp_path / "inter_a")
    IndexBuilder(inter, mode="word", num_parts=8, id_col=None
                 ).build(chaos_files[:2], waves=2)
    seg = os.path.join(inter, "segments")
    n_seg0 = len([f for f in os.listdir(seg) if f.endswith(".json")])
    assert n_seg0 == 8

    body = (
        "from vfs_index_ray.build import IndexBuilder\n"
        f"IndexBuilder({inter!r}, mode='word', num_parts=8,"
        f" id_col=None).absorb({chaos_files[2]!r})\n")
    proc = _spawn(body, tmp_path, "mid_absorb")

    def mid_reencode():
        # absorb invalidated the old sidecars and some (not all) new
        # partitions have committed — kill inside phase 2
        names = [f for f in os.listdir(seg) if f.endswith(".json")]
        return 0 < len(names) < 8 and os.path.exists(
            os.path.join(inter, "waves", "wave=0002.json"))

    _kill_when(proc, mid_reencode)
    IndexBuilder(inter, mode="word", num_parts=8, id_col=None
                 ).absorb(chaos_files[2])
    assert verify_index(inter)["ok"]
    assert _fingerprint(inter) == _fingerprint(clean)
    # absorb wave layout: [f0, f1] as waves 0-1 + f2 as wave 2 == the
    # clean build's waves=3 split, so segment bytes must match too
    assert _segment_hashes(inter) == _segment_hashes(clean)


def test_chaos_kill_mid_merge(ray_session, chaos_files, tmp_path):
    """SIGKILL merge_indexes mid-round (some parts committed); a
    re-run must finish with bytes identical to an uninterrupted
    merge of the same sources."""
    from vfs_index_ray.build import IndexBuilder, verify_index
    from vfs_index_ray.merge import merge_indexes

    srcs = []
    for i, f in enumerate(chaos_files[:2]):
        idx = str(tmp_path / f"src{i}")
        IndexBuilder(idx, mode="word", num_parts=8, id_col=None
                     ).build([f])
        srcs.append(idx)

    clean = str(tmp_path / "merged_clean")
    merge_indexes(srcs, clean)

    inter = str(tmp_path / "merged_inter")
    body = (
        "from vfs_index_ray.merge import merge_indexes\n"
        f"merge_indexes({srcs!r}, {inter!r})\n")
    proc = _spawn(body, tmp_path, "mid_merge")
    seg = os.path.join(inter, "segments")

    def mid_merge():
        if not os.path.isdir(seg):
            return False
        names = [f for f in os.listdir(seg) if f.endswith(".json")]
        return 0 < len(names) < 8

    _kill_when(proc, mid_merge)
    merge_indexes(srcs, inter)
    assert verify_index(inter)["ok"]
    assert _fingerprint(inter) == _fingerprint(clean)
    assert _segment_hashes(inter) == _segment_hashes(clean)
