"""The four workloads and the traced run's per-layer report.

Each workload sets up, then runs its operation in a closed loop (one
client, one request in flight) and keeps the calmest ``--seconds`` of
it (see CALM_STEAL below). Every operation's output is checked; an
operation that raises or answers differently from the oracle counts as
failed.

  build       bulk IndexBuilder.build of the generated pages
  absorb      absorb a 10% wave into a copy of the built index, then
              answer a query pool on a newly opened engine
  query-cold  one SearchEngine opened per BM25 query
  serve-hot   QueryService batches over a pool every replica has cached

With ``--trace 1`` the loop runs twice, first untraced and then with
spans on; the gap between the two is the tracing overhead. The traced
run then reports every per-layer metric, taking each from the
workload's own traced loop where it has one and otherwise from a probe
on the workload's index and queries.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field

import host
import layers as L
from corpus import QUERY_BLOCK
from layers import now

SETUP_REPS = 5
REPLICAS = 3


# The host is a VM whose CPUs the hypervisor shares with other guests;
# while it takes them away ("steal"), every operation slows by up to 2x,
# for minutes at a time. The loop therefore measures in slices of at
# least SLICE_S (one operation when operations are longer; whole blocks
# of the query pool for queries, so every slice has the same mix) and
# keeps the calmest: it stops once slices in which at most CALM_STEAL of
# the busy CPU time was stolen add up to --seconds, and otherwise runs
# for MAX_WALL times --seconds and keeps the least-stolen slices that add
# up to --seconds. Each kept time is then scaled by the share of busy CPU
# time that was not stolen in its slice (or set-up run): the time the
# operation ran, not the time the hypervisor held its CPUs. The facts
# line reports the stolen shares of all slices and of the kept ones, and
# the report lines give the wall-clock median as well.
CALM_STEAL = 0.05
SLICE_S = 1.0
MAX_WALL = 2.0


@dataclass
class Slice:
    seconds: float
    lat: list[float]          # seconds per operation
    units: float              # docs or queries done
    steal: int                # jiffies stolen
    busy: int                 # busy jiffies, steal included
    ops: int = 0              # operations started, failed ones included

    @property
    def stolen(self) -> float:
        return self.steal / self.busy if self.busy > 0 else 0.0


@dataclass
class Loop:
    """One measured loop: its slices and the calmest of them, kept."""
    start: float = 0.0
    end: float = 0.0
    spans_from: int = 0
    slices: list[Slice] = field(default_factory=list)
    kept: list[Slice] = field(default_factory=list)

    def keep_calmest(self, seconds: float, min_ops: int) -> None:
        self.kept, got, ops = [], 0.0, 0
        for s in sorted(self.slices, key=lambda s: s.stolen):
            if got >= seconds and ops >= min_ops:
                break
            self.kept.append(s)
            got += s.seconds
            ops += len(s.lat)

    @property
    def lat(self) -> list[float]:
        """Kept operation times without the stolen share of their slice."""
        return [x * (1.0 - s.stolen) for s in self.kept for x in s.lat]

    @property
    def wall_lat(self) -> list[float]:
        return [x for s in self.kept for x in s.lat]

    @property
    def units(self) -> float:
        return sum(s.units for s in self.kept)

    @property
    def busy(self) -> float:
        return sum(self.lat)

    @property
    def n_ops(self) -> int:
        return sum(len(s.lat) for s in self.slices)

    @staticmethod
    def stolen_share(slices: list[Slice]) -> float:
        busy = sum(s.busy for s in slices)
        return sum(s.steal for s in slices) / busy if busy else 0.0


class Ctx:
    """Inputs, scratch space and tallies of one benchmark run."""

    def __init__(self, *, seed, seconds, traced, work, tracer, base, extra,
                 files, absorb_files, pool, expected, totals_base,
                 totals_all):
        self.seed, self.seconds, self.traced = seed, seconds, traced
        self.work, self.tracer = work, tracer
        self.base, self.extra = base, extra
        self.files, self.absorb_files = files, absorb_files
        self.pool, self.expected = pool, expected
        self.totals_base, self.totals_all = totals_base, totals_all
        self.ncpu = os.cpu_count() or 1
        self.attempted = self.failed = 0
        self.layers: dict[str, float] = {}
        self.info: dict = {}
        self._reported = 0

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def count(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self._reported < 5:
                self._reported += 1
                print(f"perfbench: wrong answer: {what}", file=sys.stderr)

    def check_query(self, q: str, docs, scores) -> None:
        import truth
        self.count(truth.matches(self.expected[q], docs, scores),
                   f"bm25 {q!r}")

    def guarded(self, op):
        """Run ``op``; an exception counts as one failed operation."""
        try:
            return op()
        except Exception:  # the loop goes on; the failure is reported
            self.count(False, "exception")
            traceback.print_exc(file=sys.stderr)
            return None

    def loop(self, op, min_ops: int, traced: bool, per_slice: int = 1
             ) -> Loop:
        """Run ``op`` in slices of whole multiples of ``per_slice``
        operations, as set out above CALM_STEAL."""
        self.tracer.enabled = traced
        out = Loop(start=now(), spans_from=len(self.tracer.spans))
        calm_s, calm_ops = 0.0, 0
        cur = Slice(0.0, [], 0.0, 0, 0)
        t0, cpu0 = out.start, host.cpu_times()
        while True:
            with self.tracer.request():
                r = self.guarded(op)
            cur.ops += 1
            if r is not None:
                cur.lat.append(r[0])
                cur.units += r[1]
            t = now()
            if t - t0 < SLICE_S or cur.ops % per_slice:
                continue
            cpu1 = host.cpu_times()
            cur.seconds = t - t0
            cur.steal, cur.busy = cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]
            out.slices.append(cur)
            if cur.stolen <= CALM_STEAL:
                calm_s += cur.seconds
                calm_ops += len(cur.lat)
            cur, t0, cpu0 = Slice(0.0, [], 0.0, 0, 0), t, cpu1
            if ((calm_s >= self.seconds and calm_ops >= min_ops)
                    or (t - out.start >= MAX_WALL * self.seconds
                        and out.n_ops >= min_ops)
                    or self.failed >= 20):
                break
        out.end = now()
        out.keep_calmest(self.seconds, min_ops)
        self.tracer.enabled = self.traced
        return out


# ----- shared set-up steps -------------------------------------------------
def calm_median(step, reps: int) -> float:
    """Median seconds of the ``reps`` least-stolen of up to twice as many
    runs of ``step``, each without its stolen share; stops once ``reps``
    runs were calm."""
    runs: list[tuple[float, float]] = []      # (stolen share, seconds)
    while (len(runs) < 2 * reps
           and sum(st <= CALM_STEAL for st, _ in runs) < reps):
        cpu0 = host.cpu_times()
        seconds = step()
        runs.append((host.stolen_share(cpu0, host.cpu_times()), seconds))
    return statistics.median(sec * (1.0 - st) for st, sec in
                             sorted(runs)[:reps])


def one_file_builds(ctx: Ctx) -> float:
    """Set-up time of a fresh build over the first page file: the fixed
    cost of standing up an index."""
    def step() -> float:
        d = ctx.path("setup")
        r = L.build_index(d, d + "_spill", ctx.files[:1], ctx.tracer, False)
        L.rmtree(d, d + "_spill")
        return r["wall_s"]

    return calm_median(step, SETUP_REPS)


def base_build(ctx: Ctx) -> dict:
    """The index over the base pages, with its spill kept for absorb."""
    r = L.build_index(ctx.path("base"), ctx.path("base_spill"), ctx.files,
                      ctx.tracer, phased=ctx.traced)
    ctx.count(L.check_index(ctx.path("base"), r["stats"], ctx.totals_base),
              "base build")
    ctx.info["base_build_s"] = r["wall_s"]
    return r


def copy_index(ctx: Ctx, src: str, src_spill: str, name: str):
    dst, dst_spill = ctx.path(name), ctx.path(name + "_spill")
    L.rmtree(dst, dst_spill)
    shutil.copytree(src, dst)
    shutil.copytree(src_spill, dst_spill)
    return dst, dst_spill


# ----- per-layer report ------------------------------------------------------
def build_layers(ctx: Ctx, runs: list[dict], index_dir: str) -> None:
    last = runs[-1]
    phase2 = statistics.median(r["phase2_s"] for r in runs)
    ctx.layers.update({
        "build.phase1_s": statistics.median(r["phase1_s"] for r in runs),
        "build.phase2_s": phase2,
        "build.finalize_s": statistics.median(r["finalize_s"] for r in runs),
        "build.spill_bytes": float(last["spill_bytes"]),
        "build.spill_files": float(last["spill_files"]),
    })
    ctx.layers.update(L.manifest_layers(index_dir, phase2, ctx.ncpu))
    ctx.layers["codec.encode_s_max_part"] = L.encode_largest_part(
        index_dir, last["postings_dir"], ctx.tracer)


def probe_layers(ctx: Ctx, index_dir: str, spill_dir: str) -> None:
    """Fill in every per-layer metric the workload's loop did not give,
    by probing the workload's own index and query pool."""
    have = ctx.layers
    if "tokenizer.docs_per_s_1core" not in have:
        have["tokenizer.docs_per_s_1core"] = L.tokenizer_docs_per_s(
            ctx.files, ctx.tracer)
    if "absorb.reencode_ratio" not in have:
        idx, spill = copy_index(ctx, index_dir, spill_dir, "probe_absorb")
        have["absorb.reencode_ratio"] = L.absorb(
            idx, spill, ctx.absorb_files, ctx.tracer)["reencode_ratio"]
        L.rmtree(idx, spill)
    if "search.load_ms" not in have:
        recs = []
        for q in ctx.pool:
            with ctx.tracer.request():
                rec = L.cold_query(index_dir, q, ctx.tracer, detail=True)
            ctx.check_query(q, rec["docs"], rec["scores"])
            recs.append(rec)
        have.update(L.search_layers(recs))
    if "service.rpc_overhead_ms" not in have:
        svc = L.start_service(index_dir, REPLICAS, ctx.pool, ctx.tracer)
        have.update(L.service_layers(svc, index_dir, ctx.pool,
                                     L.Batches(ctx.pool, ctx.seed),
                                     ctx.tracer))
        L.stop_service(svc)


def trace_report(ctx: Ctx, plain: Loop, traced: Loop, unit_name: str
                 ) -> None:
    """Coverage, overhead and self time of the traced loop."""
    tr = ctx.tracer
    ctx.layers["trace.coverage"] = tr.coverage(traced.start, traced.end,
                                               traced.spans_from)
    ctx.layers["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced.lat) / statistics.median(plain.lat) - 1.0)
    ctx.info["loop_self_s"] = tr.self_seconds(traced.spans_from)
    ctx.info["loop_wall_s"] = traced.end - traced.start
    ctx.info["trace_overhead_of"] = unit_name


def finish_trace(ctx: Ctx) -> None:
    for layer, s in ctx.tracer.self_seconds().items():
        ctx.layers[f"trace.self_s.{layer}"] = s


def loops(ctx: Ctx, op, min_ops: int, name: str, per_slice: int = 1
          ) -> Loop:
    """The measured loop; traced runs add a traced repeat."""
    plain = ctx.loop(op, min_ops, traced=False, per_slice=per_slice)
    if not ctx.traced:
        return plain
    traced = ctx.loop(op, min_ops, traced=True, per_slice=per_slice)
    trace_report(ctx, plain, traced, name)
    return plain


# ----- workloads -------------------------------------------------------------
def run_build(ctx: Ctx) -> tuple[Loop, float]:
    ctx.info["warm_build_s"] = L.build_index(
        ctx.path("warm"), ctx.path("warm_spill"), ctx.files[:1], ctx.tracer,
        False)["wall_s"]
    L.rmtree(ctx.path("warm"), ctx.path("warm_spill"))
    setup_s = one_file_builds(ctx)
    idx, spill = ctx.path("idx"), ctx.path("idx_spill")
    runs: list[dict] = []

    def op():
        r = L.build_index(idx, spill, ctx.files, ctx.tracer,
                          phased=ctx.tracer.enabled)
        ctx.count(L.check_index(idx, r["stats"], ctx.totals_base), "build")
        if ctx.tracer.enabled:
            runs.append(r)
        return r["wall_s"], ctx.base.n_docs

    loop = loops(ctx, op, 3, "build")
    ctx.info["rss_mb"] = host.driver_and_workers_rss_mb()
    if ctx.traced:
        build_layers(ctx, runs, idx)
        probe_layers(ctx, idx, spill)
    return loop, setup_s


def run_absorb(ctx: Ctx) -> tuple[Loop, float]:
    base = base_build(ctx)
    setup_s = one_file_builds(ctx)
    recs: list[dict] = []
    ratios: list[float] = []

    def op():
        idx, spill = copy_index(ctx, ctx.path("base"),
                                ctx.path("base_spill"), "idx")
        r = L.absorb(idx, spill, ctx.absorb_files, ctx.tracer)
        ctx.count(L.check_index(idx, r["stats"], ctx.totals_all), "absorb")
        for q in ctx.pool:
            rec = L.cold_query(idx, q, ctx.tracer, ctx.tracer.enabled)
            ctx.check_query(q, rec["docs"], rec["scores"])
            if ctx.tracer.enabled:
                recs.append(rec)
        if ctx.tracer.enabled:
            ratios.append(r["reencode_ratio"])
        return r["wall_s"], ctx.extra.n_docs

    loop = loops(ctx, op, 3, "absorb")
    ctx.info["rss_mb"] = host.driver_and_workers_rss_mb()
    if ctx.traced:
        build_layers(ctx, [base], ctx.path("base"))
        ctx.layers["absorb.reencode_ratio"] = statistics.median(ratios)
        ctx.layers.update(L.search_layers(recs))
        probe_layers(ctx, ctx.path("idx"), ctx.path("idx_spill"))
    return loop, setup_s


def run_query_cold(ctx: Ctx) -> tuple[Loop, float]:
    base = base_build(ctx)
    setup_s = one_file_builds(ctx)
    recs: list[dict] = []
    nxt = iter(range(10 ** 9))

    def op():
        q = ctx.pool[next(nxt) % len(ctx.pool)]
        rec = L.cold_query(ctx.path("base"), q, ctx.tracer,
                           ctx.tracer.enabled)
        ctx.check_query(q, rec["docs"], rec["scores"])
        if ctx.tracer.enabled:
            recs.append(rec)
        return rec["latency_s"], 1

    loop = loops(ctx, op, 1, "cold query",
                 per_slice=min(len(ctx.pool), QUERY_BLOCK))
    ctx.info["rss_mb"] = host.driver_and_workers_rss_mb()
    if ctx.traced:
        build_layers(ctx, [base], ctx.path("base"))
        ctx.layers.update(L.search_layers(recs))
        probe_layers(ctx, ctx.path("base"), ctx.path("base_spill"))
    return loop, setup_s


def run_serve_hot(ctx: Ctx) -> tuple[Loop, float]:
    base = base_build(ctx)
    svc = None

    def step() -> float:
        nonlocal svc
        if svc is not None:
            L.stop_service(svc)
        t0 = now()
        svc = L.start_service(ctx.path("base"), REPLICAS, ctx.pool,
                              ctx.tracer)
        return now() - t0

    setup_s = calm_median(step, SETUP_REPS)
    batches = L.Batches(ctx.pool, ctx.seed)
    answered: list[tuple[list[str], list]] = []

    def op():
        batch = batches.next()
        t0 = now()
        with ctx.tracer.span("service.bm25_batch"):
            out = svc.bm25_batch(batch, L.K, "auto")
        lat = now() - t0
        answered.append((batch, out))
        return lat, len(batch)

    loop = loops(ctx, op, 1, "batch")
    ctx.info["rss_mb"] = host.driver_and_workers_rss_mb()
    for batch, out in answered:
        for q, (docs, scores) in zip(batch, out):
            ctx.check_query(q, docs, scores)
    if ctx.traced:
        ctx.layers.update(L.service_layers(svc, ctx.path("base"), ctx.pool,
                                           batches, ctx.tracer))
    L.stop_service(svc)
    if ctx.traced:
        build_layers(ctx, [base], ctx.path("base"))
        probe_layers(ctx, ctx.path("base"), ctx.path("base_spill"))
    return loop, setup_s


WORKLOADS = {
    "build": run_build,
    "absorb": run_absorb,
    "query-cold": run_query_cold,
    "serve-hot": run_serve_hot,
}
