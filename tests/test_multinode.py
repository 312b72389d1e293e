"""Multi-node packaging smoke test: a SIMULATED two-node Ray cluster
(ray.cluster_utils) in a subprocess — the session fixture owns this
process's Ray, so the cluster gets its own interpreter. Verifies the
full job shape the north_rule asks for: index build over the cluster,
QueryService replicas SPREAD onto distinct nodes, answers identical to
a local engine."""

import os
import subprocess
import sys
from pathlib import Path

# the checkout these tests live in
REPO = str(Path(__file__).resolve().parents[1])

SCRIPT = r"""
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.cluster_utils import Cluster

cluster = Cluster(initialize_head=True, head_node_args={"num_cpus": 2})
cluster.add_node(num_cpus=2)
ray.init(address=cluster.address, include_dashboard=False,
         logging_level="ERROR",
         runtime_env={"env_vars": {"PYTHONPATH": "%REPO%"}})

from vfs_index_ray import corpus
from vfs_index_ray.build import IndexBuilder
from vfs_index_ray.search import SearchEngine
from vfs_index_ray.service import QueryService

TMP = "%TMP%"
pages = corpus.generate_pages(200)
ids = pa.array(np.arange(200, dtype=np.int64), pa.int64())
src = TMP + "/docs.parquet"
pq.write_table(pages.append_column("doc_id", ids), src)
idx = TMP + "/idx"
IndexBuilder(idx, mode="word", num_parts=4, id_col="doc_id").build([src])

import time
# both nodes must have registered their resources before placement —
# otherwise SPREAD (a soft constraint) legitimately packs one node
for _ in range(100):
    alive = [n for n in ray.nodes() if n["Alive"]]
    if len(alive) >= 2 and all(n["Resources"].get("CPU", 0) > 0
                               for n in alive):
        break
    time.sleep(0.2)

# SPREAD is best-effort; under transient resource pressure a replica
# pair can co-place. Retry a couple of times before calling it a fail.
nodes = []
for attempt in range(3):
    svc = QueryService(idx, replicas=2)
    nodes = svc.worker_nodes()
    if len(set(nodes)) == 2:
        break
    svc.shutdown()
    time.sleep(1.0)
print("DISTINCT_NODES", len(set(nodes)))
d, s = svc.bm25("bababa", 5)
eng = SearchEngine(idx)
de, se = eng.bm25("bababa", 5)
assert d.tolist() == de.tolist() and s.tolist() == se.tolist()
print("RESULTS_MATCH 1")
svc.shutdown()
ray.shutdown()
cluster.shutdown()
"""


def test_query_service_spreads_across_two_nodes(tmp_path):
    script = SCRIPT.replace("%TMP%", str(tmp_path)).replace(
        "%REPO%", REPO)
    f = tmp_path / "two_node.py"
    f.write_text(script)
    env = dict(os.environ, PYTHONPATH=REPO)
    res = subprocess.run([sys.executable, str(f)], cwd=REPO,
                         env=env, capture_output=True, text=True,
                         timeout=420)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    assert "DISTINCT_NODES 2" in res.stdout, res.stdout
    assert "RESULTS_MATCH 1" in res.stdout


SHIP_SCRIPT = r"""
# Code-shipping proof: this driver runs from /tmp with NO PYTHONPATH.
# The driver itself imports the package via an explicit sys.path entry
# (which does NOT propagate to Ray workers); workers on the simulated
# 3-node cluster can import vfs_index_ray ONLY through the runtime_env
# py_modules upload that cluster.connect-style packaging provides.
import sys
sys.path.insert(0, "%REPO%")

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.cluster_utils import Cluster

from vfs_index_ray.cluster import job_runtime_env

cluster = Cluster(initialize_head=True, head_node_args={"num_cpus": 2})
cluster.add_node(num_cpus=2)
cluster.add_node(num_cpus=2)
ray.init(address=cluster.address, include_dashboard=False,
         logging_level="ERROR", runtime_env=job_runtime_env())

from vfs_index_ray import corpus
from vfs_index_ray.build import IndexBuilder
from vfs_index_ray.search import SearchEngine
from vfs_index_ray.service import QueryService


@ray.remote(num_cpus=0.1)
def probe():
    import vfs_index_ray
    return vfs_index_ray.__file__


# the worker resolved the package from the runtime_env working dir,
# not from a shared checkout
loc = ray.get(probe.remote())
assert "%REPO%" not in loc, loc
print("SHIPPED_FROM", loc)

TMP = "%TMP%"
pages = corpus.generate_pages(200)
ids = pa.array(np.arange(200, dtype=np.int64), pa.int64())
src = TMP + "/docs.parquet"
pq.write_table(pages.append_column("doc_id", ids), src)
idx = TMP + "/idx"
IndexBuilder(idx, mode="word", num_parts=4, id_col="doc_id").build([src])
print("BUILD_OK 1")

import time
for _ in range(100):
    alive = [n for n in ray.nodes() if n["Alive"]]
    if len(alive) >= 3 and all(n["Resources"].get("CPU", 0) > 0
                               for n in alive):
        break
    time.sleep(0.2)

nodes = []
for attempt in range(3):
    svc = QueryService(idx, replicas=3)
    nodes = svc.worker_nodes()
    if len(set(nodes)) == 3:
        break
    svc.shutdown()
    time.sleep(1.0)
print("DISTINCT_NODES", len(set(nodes)))
d, s = svc.bm25("bababa", 5)
eng = SearchEngine(idx)
de, se = eng.bm25("bababa", 5)
assert d.tolist() == de.tolist() and s.tolist() == se.tolist()
print("RESULTS_MATCH 1")
svc.shutdown()
ray.shutdown()
cluster.shutdown()
"""


def test_three_node_build_query_code_shipping(tmp_path):
    """Full job on a simulated 3-node cluster with the package shipped
    via runtime_env py_modules — no PYTHONPATH, driver cwd outside the
    repo, so workers cannot see the checkout at all."""
    script = SHIP_SCRIPT.replace("%TMP%", str(tmp_path)).replace(
        "%REPO%", REPO)
    f = tmp_path / "three_node.py"
    f.write_text(script)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, str(f)], cwd=str(tmp_path),
                         env=env, capture_output=True, text=True,
                         timeout=420)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    assert "SHIPPED_FROM" in res.stdout, res.stdout
    assert "BUILD_OK 1" in res.stdout
    # SPREAD is soft; require at least 2 distinct nodes, expect 3
    n = [l for l in res.stdout.splitlines()
         if l.startswith("DISTINCT_NODES")][0]
    assert int(n.split()[1]) >= 2, res.stdout
    assert "RESULTS_MATCH 1" in res.stdout


JOIN_SCRIPT = r"""
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.cluster_utils import Cluster

cluster = Cluster(initialize_head=True, head_node_args={"num_cpus": 2})
cluster.add_node(num_cpus=2)
ray.init(address=cluster.address, include_dashboard=False,
         logging_level="ERROR",
         runtime_env={"env_vars": {"PYTHONPATH": "%REPO%"}})
import ray.data

from vfs_index_ray.functions.joins import hash_join

g = np.random.Generator(np.random.Philox(key=[3, 0]))
lt = pa.table({"k": pa.array(g.integers(0, 500, 5000), pa.int64()),
               "v": pa.array(g.integers(0, 100, 5000), pa.int64())})
rt = pa.table({"k2": pa.array(np.arange(400), pa.int64()),
               "w": pa.array(np.arange(400) * 3, pa.int64())})
# the spill dir (/tmp) is one filesystem here — the documented
# shared-storage assumption of the disk-shuffle substrate
out = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                left_on="k", right_on="k2", how="inner", num_parts=6)
t = pa.concat_tables(ray.get(out.to_arrow_refs())).combine_chunks()
import duckdb
con = duckdb.connect()
con.register("l", lt)
con.register("r", rt)
want = con.execute(
    "SELECT l.k, l.v, r.w FROM l JOIN r ON l.k = r.k2").arrow()
def norm(x):
    x = x.select(sorted(x.column_names))
    return x.take(pc.sort_indices(x, sort_keys=[(c, "ascending")
                                                for c in sorted(x.column_names)]))
assert norm(t).equals(norm(want).cast(norm(t).schema))
print("JOIN_MATCH 1")
ray.shutdown()
cluster.shutdown()
"""


def test_hash_join_on_two_node_cluster(tmp_path):
    f = tmp_path / "two_node_join.py"
    f.write_text(JOIN_SCRIPT.replace("%REPO%", REPO))
    env = dict(os.environ, PYTHONPATH=REPO)
    res = subprocess.run([sys.executable, str(f)], cwd=REPO,
                         env=env, capture_output=True, text=True,
                         timeout=420)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    assert "JOIN_MATCH 1" in res.stdout

FSSPILL_SCRIPT = r"""
# End-to-end on a simulated two-node cluster with EVERY shuffle spill
# routed through a non-native pyarrow filesystem (fsspec wrapped in
# PyFileSystem): index build (postings scratch, sidecar-commit branch)
# -> BM25 -> exact_dedup -> hash_join. Results must match single-node /
# local-spill answers exactly. The fs object pickles into worker tasks
# on both nodes; the backing storage is the one filesystem this sandbox
# has, standing in for the cluster's shared store (S3/NFS).
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
from ray.cluster_utils import Cluster

cluster = Cluster(initialize_head=True, head_node_args={"num_cpus": 2})
cluster.add_node(num_cpus=2)
ray.init(address=cluster.address, include_dashboard=False,
         logging_level="ERROR",
         runtime_env={"env_vars": {"PYTHONPATH": "%REPO%"}})
import ray.data

import fsspec
from pyarrow.fs import FSSpecHandler, PyFileSystem

from vfs_index_ray import corpus
from vfs_index_ray.build import IndexBuilder
from vfs_index_ray.search import SearchEngine
from vfs_index_ray.functions.dedup import exact_dedup
from vfs_index_ray.functions.joins import hash_join

TMP = "%TMP%"
pyfs = PyFileSystem(FSSpecHandler(fsspec.filesystem("file")))
spill = (pyfs, TMP + "/shared_spill")
import os
os.makedirs(TMP + "/shared_spill", exist_ok=True)
os.makedirs(TMP + "/scratch", exist_ok=True)

pages = corpus.generate_pages(300)
ids = pa.array(np.arange(300, dtype=np.int64), pa.int64())
src = TMP + "/docs.parquet"
pq.write_table(pages.append_column("doc_id", ids), src)

# build with non-local scratch across both nodes
b = IndexBuilder(TMP + "/idx", mode="word", num_parts=4,
                 id_col="doc_id", scratch_dir=(pyfs, TMP + "/scratch"))
assert not b.scratch_local
b.build([src])
# reference: plain local build
IndexBuilder(TMP + "/idx_local", mode="word", num_parts=4,
             id_col="doc_id").build([src])
e1, e2 = SearchEngine(TMP + "/idx"), SearchEngine(TMP + "/idx_local")
for q in ("bababa", "zq kv", "the quick"):
    d1, s1 = e1.bm25(q, 10)
    d2, s2 = e2.bm25(q, 10)
    assert d1.tolist() == d2.tolist() and s1.tolist() == s2.tolist()
print("BUILD_BM25_MATCH 1")

def norm(t):
    t = t.select(sorted(t.column_names))
    return t.take(pc.sort_indices(t, sort_keys=[(c, "ascending")
                                                for c in t.column_names]))

docs = pa.table({
    "doc_id": pa.array(np.arange(400), pa.int64()),
    "text": pa.array([f"page body {i % 77}" for i in range(400)]),
})
# spy on the disk substrate: spill_dir must force it, the default on
# this small input must not take it
from vfs_index_ray import spillfs
real_apply, disk_calls = spillfs.partition_apply, []
def spy(*a, **kw):
    disk_calls.append(kw.get("prefix"))
    return real_apply(*a, **kw)
spillfs.partition_apply = spy
dd = exact_dedup(ray.data.from_arrow(docs), spill_dir=spill)
assert disk_calls == ["winpart_"], disk_calls
ds_ = exact_dedup(ray.data.from_arrow(docs))
assert disk_calls == ["winpart_"], disk_calls
spillfs.partition_apply = real_apply
a = norm(pa.concat_tables(ray.get(dd.to_arrow_refs())))
b2 = norm(pa.concat_tables(ray.get(ds_.to_arrow_refs())))
assert a.equals(b2.cast(a.schema))
print("DEDUP_MATCH 1")

g = np.random.Generator(np.random.Philox(key=[13, 0]))
lt = pa.table({"k": pa.array(g.integers(0, 200, 3000), pa.int64()),
               "v": pa.array(np.arange(3000), pa.int64())})
rt = pa.table({"k2": pa.array(np.arange(150), pa.int64()),
               "w": pa.array(np.arange(150) * 3, pa.int64())})
jr = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
               left_on="k", right_on="k2", how="inner", num_parts=6,
               spill_dir=spill)
import duckdb
con = duckdb.connect()
con.register("l", lt); con.register("r", rt)
want = con.execute("SELECT l.k, l.v, r.w FROM l JOIN r ON l.k = r.k2").arrow()
t = norm(pa.concat_tables(ray.get(jr.to_arrow_refs())))
assert t.equals(norm(want).cast(t.schema))
print("JOIN_MATCH 1")

from vfs_index_ray.functions.sort import order_by
st = pa.table({"k": pa.array(g.permutation(20000), pa.int64()),
               "s": pa.array([f"row {i % 9}" for i in range(20000)])})
so = order_by(ray.data.from_arrow(st).repartition(6),
              [("s", "asc"), ("k", "desc")], row_number_col="rn",
              num_parts=5, spill_dir=spill)
got = pa.concat_tables(ray.get(so.to_arrow_refs())).sort_by("rn")
idx = pc.sort_indices(st, sort_keys=[("s", "ascending"),
                                     ("k", "descending")])
exp = st.take(idx)
assert got["s"].to_pylist() == exp["s"].to_pylist()
assert got["k"].to_pylist() == exp["k"].to_pylist()
assert got["rn"].to_pylist() == list(range(1, 20001))
print("SORT_MATCH 1")
ray.shutdown()
cluster.shutdown()
"""


def test_two_node_nonlocal_spill_end_to_end(tmp_path):
    """North-rule item: build -> bm25 -> exact_dedup -> hash_join on a
    simulated two-node cluster with every spill on a non-native
    pyarrow filesystem; all results identical to local/single-node."""
    script = FSSPILL_SCRIPT.replace("%TMP%", str(tmp_path)).replace(
        "%REPO%", REPO)
    f = tmp_path / "two_node_fsspill.py"
    f.write_text(script)
    env = dict(os.environ, PYTHONPATH=REPO)
    res = subprocess.run([sys.executable, str(f)], cwd=REPO,
                         env=env, capture_output=True, text=True,
                         timeout=420)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    assert "BUILD_BM25_MATCH 1" in res.stdout
    assert "DEDUP_MATCH 1" in res.stdout
    assert "JOIN_MATCH 1" in res.stdout
    assert "SORT_MATCH 1" in res.stdout
