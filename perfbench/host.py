"""Host facts read from /proc: load average, CPU steal, resident memory,
processes.

Memory is read from ``/proc/<pid>/status`` at the moment it is asked
for; there is no sampler thread, so the load generator stays a single
thread. The process table is read from ``/proc`` as well, to stop every
process a run started before it exits.
"""

from __future__ import annotations

import os
import signal
import time


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def cpu_times() -> tuple[int, int]:
    """(steal, busy) jiffies summed over all CPUs since boot, from
    /proc/stat. Busy counts every state but idle and iowait, steal
    included."""
    with open("/proc/stat") as f:
        user, nice, system, _idle, _iowait, irq, softirq, steal = (
            int(x) for x in f.readline().split()[1:9])
    return steal, user + nice + system + irq + softirq + steal


def stolen_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the busy CPU time between two ``cpu_times`` readings that
    the hypervisor gave to other guests instead."""
    busy = after[1] - before[1]
    return (after[0] - before[0]) / busy if busy > 0 else 0.0


def rss_mb(pid: int) -> float:
    """VmRSS of one process in MiB (0.0 if it has exited)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _stat(pid: int) -> tuple[str, int, int] | None:
    """(state, parent pid, start time in ticks) of a process, or None if
    it has gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return fields[0], int(fields[1]), int(fields[19])
    except (OSError, IndexError, ValueError):
        return None


def _table() -> dict[int, tuple[str, int, int]]:
    out = {}
    for p in os.listdir("/proc"):
        if p.isdigit() and (st := _stat(int(p))) is not None:
            out[int(p)] = st
    return out


def descendants(root: int) -> dict[int, int]:
    """``{pid: start time}`` of every live process below ``root``."""
    table = _table()
    out = {}
    for pid, (_, up, start) in table.items():
        seen = 0
        while up and up != root and seen < 64:
            up, seen = table[up][1] if up in table else 0, seen + 1
        if up == root and pid != root:
            out[pid] = start
    return out


def started_here(root_dir: str, marker: str) -> dict[int, int]:
    """``{pid: start time}`` of processes started after this one, running
    in ``root_dir`` with ``marker`` in their command line. Ray workers
    that a dying raylet leaves to init no longer descend from the
    driver; this finds them."""
    me = _stat(os.getpid())
    out = {}
    for pid, (_, _, start) in _table().items():
        if pid == os.getpid() or me is None or start < me[2]:
            continue
        try:
            cwd = os.readlink(f"/proc/{pid}/cwd")
        except OSError:
            continue
        if ((cwd == root_dir or cwd.startswith(root_dir + os.sep))
                and marker in _cmdline(pid)):
            out[pid] = start
    return out


def _alive(pid: int, start: int) -> bool:
    """True while the process that started at ``start`` runs; reaps it
    if it is a finished child of this one."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass
    st = _stat(pid)
    return st is not None and st[2] == start and st[0] not in "ZX"


def stop_all(procs: dict[int, int], grace_s: float = 5.0) -> list[int]:
    """Wait up to ``grace_s`` for ``procs`` (``{pid: start time}``) to
    end, then kill the rest and wait for them too. Returns the pids that
    had to be killed."""
    deadline = time.monotonic() + grace_s
    left = dict(procs)
    killed: list[int] = []
    while left:
        left = {p: s for p, s in left.items() if _alive(p, s)}
        if not left:
            break
        if time.monotonic() >= deadline and not killed:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                    killed.append(p)
                except OSError:
                    pass
            deadline = time.monotonic() + 30.0
        elif time.monotonic() >= deadline:
            raise RuntimeError(f"processes {sorted(left)} did not end")
        time.sleep(0.02)
    return killed


def ray_worker_pids(root: int) -> list[int]:
    """Ray worker processes (their command line starts with ``ray::``)
    that descend from process ``root``, the benchmark's own driver."""
    return sorted(p for p in descendants(root)
                  if _cmdline(p).startswith("ray::"))


def driver_and_workers_rss_mb() -> float:
    me = os.getpid()
    return rss_mb(me) + sum(rss_mb(p) for p in ray_worker_pids(me))
