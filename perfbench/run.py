#!/usr/bin/env python3
"""Index benchmark: bulk build, absorb, cold query and hot serving.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

Workloads are ``build``, ``absorb``, ``query-cold`` and ``serve-hot``
(see ``workloads.py``). The inputs are generated from ``--seed`` by
``corpus.py``; every answer is checked against the oracle. Progress and
a human-readable report go to standard error and standard output; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones named in
``BENCHMARK.json``, with ``--trace 1`` the per-layer ones.

Scratch files live under ``.bench_work/`` in the repository root; the
spans of a traced run are written there as well.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import sys
import time

T_IMPORT = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
K = 10
PAGE_FILES = 16
OBJECT_STORE_BYTES = 768 << 20
ORACLE_PROCS = 3
ABSORB_SEED_OFFSET = 7_919
# queries in each workload's pool (build uses its pool only in traced runs)
POOL = {"build": 64, "absorb": 16, "query-cold": 512, "serve-hot": 128}
RAY_SOCKET_MAX = 107          # AF_UNIX path limit Ray checks its sockets by
RAY_SOCKET_SUFFIX = 70        # "/session_<date>_<pid>/sockets/plasma_store"
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(POOL))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--pages", type=int, default=40_000,
                   help="pages in the base corpus (the self-test shrinks it)")
    return p.parse_args(argv)


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile in ``TAIL_LADDER``
    that has at least ten samples beyond it."""
    n = len(samples)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10:
            ordered = sorted(samples)
            return p, ordered[min(n - 1, math.ceil(p / 100.0 * n) - 1)]
    return None


def start_ray(work_root: str):
    import ray
    kwargs = dict(address="local", num_cpus=os.cpu_count(),
                  include_dashboard=False, logging_level="ERROR",
                  log_to_driver=False,
                  object_store_memory=OBJECT_STORE_BYTES)
    temp = os.path.join(work_root, "ray")
    if len(temp) + RAY_SOCKET_SUFFIX <= RAY_SOCKET_MAX:
        kwargs["_temp_dir"] = temp   # else Ray's default temp dir
    # ray.init installs a native fatal-signal handler for SIGTERM that
    # aborts without running the clean-up; hold the signal while it
    # starts, then take the handler back
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        info = ray.init(**kwargs)
    finally:
        signal.signal(signal.SIGTERM, on_sigterm)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    return info.address_info.get("session_dir")


def warm_workers():
    """Start one task per CPU that imports the engine, so Ray's workers
    load their modules while the driver writes the inputs."""
    import ray

    @ray.remote(num_cpus=1)
    def load():
        import ray.data  # noqa: F401
        import vfs_index_ray.build  # noqa: F401
        import vfs_index_ray.search  # noqa: F401
        return os.getpid()

    return [load.remote() for _ in range(os.cpu_count() or 1)]


def stop_everything(answers) -> None:
    """Shut Ray down and stop the oracle's processes, then wait for every
    process the run started to end, killing any that outlive a grace
    period: ``ray.shutdown`` stops Ray's own daemons but leaves its
    workers to exit on their own."""
    import host
    started = host.descendants(os.getpid())
    try:
        ray = sys.modules.get("ray")
        if ray is not None and ray.is_initialized():
            ray.shutdown()
        if answers is not None:
            answers.close()
    finally:
        started.update(host.descendants(os.getpid()))
        started.update(host.started_here(ROOT, "ray"))
        killed = host.stop_all(started)
        if killed:
            print(f"perfbench: killed {len(killed)} processes left after "
                  f"shutdown", file=sys.stderr)


def on_sigterm(signum, frame):
    # unwinds through main's finally, which stops every started process
    raise SystemExit(128 + signum)


def end_to_end(loop, setup_s: float, rss: float) -> dict:
    """The contract's metrics, the same names on every workload."""
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "latency_p50_ms": {"value": statistics.median(loop.lat) * 1e3,
                           "unit": "ms"},
        "throughput_per_s": {"value": loop.units / loop.busy,
                             "unit": "1/s"},
        "rss_mb": {"value": rss, "unit": "MB"},
    }


def report_lines(wl: str, loop, setup_s: float, ctx) -> list[str]:
    """The workload's metrics under the names users know them by."""
    med = statistics.median(loop.lat)
    out = [("setup_s", setup_s, "s")]
    if wl == "build":
        out.append(("build_docs_per_s", ctx.base.n_docs / med, "docs/s"))
    elif wl == "absorb":
        out.append(("absorb_s", med, "s"))
    elif wl == "query-cold":
        out.append(("query_p50_ms", med * 1e3, "ms"))
    else:
        out += [("qps", loop.units / loop.busy, "queries/s"),
                ("batch_p50_ms", med * 1e3, "ms")]
    t = tail(loop.lat)
    if wl in ("query-cold", "serve-hot") and t is not None:
        name = "query_tail_ms" if wl == "query-cold" else "batch_tail_ms"
        out.append((f"{name}[p{t[0]:g}]", t[1] * 1e3, "ms"))
    out.append(("wall_p50_ms", statistics.median(loop.wall_lat) * 1e3,
                "ms"))
    out += [("rss_mb", ctx.info["rss_mb"], "MB"),
            ("fail_rate", ctx.failed / max(ctx.attempted, 1), "ratio")]
    lines = [f"metric {n} {v:.6g} {u}" for n, v, u in out]
    kept_s = sum(s.seconds for s in loop.kept)
    lines.append(f"samples {len(loop.lat)} operations kept of "
                 f"{loop.n_ops}: the calmest {kept_s:.2f} s of "
                 f"{loop.end - loop.start:.2f} s measured")
    return lines


def main(argv) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, on_sigterm)
    # Ray workers start in the driver's working directory and import the
    # engine from there
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    try:
        import vfs_index_ray  # the program under test
    except ImportError as e:
        print(f"perfbench: cannot import the engine: {e}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(vfs_index_ray.__file__)) != ROOT:
        print("perfbench: the engine is not the one beside perfbench/",
              file=sys.stderr)
        return 2
    import shutil

    import corpus
    import truth
    import workloads
    from host import loadavg
    from spans import Tracer

    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, f"run-{os.getpid()}")
    cache = os.path.join(work_root, "oracle")
    os.makedirs(work, exist_ok=True)
    load_start = loadavg()
    # the absorb wave shares the base's vocabulary but not its seed, and
    # its doc ids follow the base's
    base = corpus.generate(args.seed, args.pages, 0, args.seed)
    extra = corpus.generate(args.seed + ABSORB_SEED_OFFSET,
                            max(args.pages // 10, 1), args.pages, args.seed)
    pool = corpus.query_pool(base, args.seed, POOL[args.workload])
    searched = [base, extra] if args.workload == "absorb" else [base]
    answers = session_dir = None
    try:
        # oracle answers in child processes while Ray starts (never timed)
        if args.workload != "build" or args.trace:
            answers = truth.Answers(searched, pool, K, cache, ORACLE_PROCS)
        t0 = time.perf_counter()
        session_dir = start_ray(work_root)
        ray_init_s = time.perf_counter() - t0
        warming = warm_workers()
        files, base_sha = corpus.write_pages(
            base, os.path.join(work, "pages"), PAGE_FILES)
        absorb_files, extra_sha = corpus.write_pages(
            extra, os.path.join(work, "absorb"), 1, prefix="absorb")
        t_join = time.perf_counter()
        import ray
        ray.get(warming)
        expected = answers.result() if answers is not None else {}
        warm_wait_s = time.perf_counter() - t_join
        t_wl = time.perf_counter()
        tracer = Tracer(enabled=bool(args.trace))
        ctx = workloads.Ctx(
            seed=args.seed, seconds=args.seconds, traced=bool(args.trace),
            work=work, tracer=tracer, base=base, extra=extra, files=files,
            absorb_files=absorb_files, pool=pool, expected=expected,
            totals_base=truth.corpus_totals([base]),
            totals_all=truth.corpus_totals([base, extra]))
        loop, setup_s = workloads.WORKLOADS[args.workload](ctx)
        workload_s = time.perf_counter() - t_wl
        if args.trace:
            workloads.finish_trace(ctx)
            tracer.write(os.path.join(
                work_root, f"spans-{args.workload}-seed{args.seed}.json"))
    finally:
        stop_everything(answers)
        shutil.rmtree(work, ignore_errors=True)
        if session_dir:
            shutil.rmtree(session_dir, ignore_errors=True)
    phases = {"ray_init_s": ray_init_s,
              "warm_wait_s": warm_wait_s, "workload_s": workload_s,
              "total_s": time.perf_counter() - T_IMPORT}

    facts = {
        "workload": args.workload, "seed": args.seed,
        "cpu_count": os.cpu_count(), "ray_num_cpus": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_start": load_start, "loadavg_end": loadavg(),
        # share of busy CPU time the hypervisor gave to other guests in
        # the measured loop, over all slices and over the kept ones
        "stolen_share": round(loop.stolen_share(loop.slices), 4),
        "stolen_share_kept": round(loop.stolen_share(loop.kept), 4),
        "pages": base.n_docs, "absorb_pages": extra.n_docs,
        "pages_sha256": base_sha, "absorb_sha256": extra_sha,
        "queries": len(pool),
        "base_build_s": ctx.info.get("base_build_s"),
        "warm_build_s": ctx.info.get("warm_build_s"),
        "phases_s": {k: round(v, 3) for k, v in phases.items()},
        "attempted": ctx.attempted, "failed": ctx.failed,
    }
    for line in report_lines(args.workload, loop, setup_s, ctx):
        print(line)
    if args.trace:
        print("trace self seconds in the traced loop: " + json.dumps(
            {k: round(v, 4) for k, v in ctx.info["loop_self_s"].items()}))
        print(f"trace coverage {ctx.layers['trace.coverage']:.4f} of "
              f"{ctx.info['loop_wall_s']:.2f} s, overhead "
              f"{ctx.layers['trace.overhead_pct']:.2f}% per "
              f"{ctx.info['trace_overhead_of']}")
    print("facts " + json.dumps(facts))
    if args.trace:
        metrics = {name: {"value": float(v), "unit": unit}
                   for name, (v, unit) in layer_metrics(ctx).items()}
    else:
        metrics = end_to_end(loop, setup_s,
                             ctx.info["rss_mb"])
    result = {"correct": ctx.failed == 0 and ctx.attempted > 0,
              "attempted": ctx.attempted, "failed": ctx.failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def layer_metrics(ctx) -> dict[str, tuple[float, str]]:
    """Per-layer values with the units BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    return {name: (ctx.layers[name], unit) for name, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
