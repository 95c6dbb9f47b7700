"""Determinism plumbing for the end-to-end benchmark, in one place.

Everything that makes two runs of identical code agree lives here: the
child-process environment (pinned ``PYTHONHASHSEED``), GC handling, the
scratch directory for snapshots / journals / sockets, the process-tree
CPU and RSS readers, the process-group sweep that guarantees no shard
worker or daemon outlives a round, and the calibration kernel that
turns host time into time at a reference host speed.
"""

from __future__ import annotations

import gc
import heapq
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: everything the benchmark writes goes here (git-ignored): the driver
#: contract allows no write outside the checkout, so this replaces the
#: /dev/shm placement ISSUE 14 asked for; ``on_tmpfs`` reports what the
#: directory really is
OUT = HERE / "out"

_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: the CPUs this process may use, before anything pins it to one
CPUS = sorted(os.sched_getaffinity(0))


def require_program() -> None:
    """Exit non-zero when the checkout holds the benchmark but not the
    program it measures."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC}/repro not found; the benchmark measures "
              "the repro package of this checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment of every round child and of the serve daemon."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    # byte-code is cached whatever the caller's environment says:
    # set-up is measured with the warm imports a user has, not with a
    # compile of every module in every process
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def on_tmpfs(path: Path) -> bool:
    """Whether ``path`` sits on a memory filesystem (longest mount
    prefix in /proc/mounts)."""
    best, fstype = "", ""
    target = str(path.resolve())
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            _dev, mount, kind = line.split()[:3]
            prefix = mount.rstrip("/") + "/"
            if (target + "/").startswith(prefix) and len(mount) > len(best):
                best, fstype = mount, kind
    return fstype in ("tmpfs", "ramfs")


def settle_gc() -> None:
    """Collect once, then move survivors out of the collector's reach
    so set-up garbage cannot trigger a full collection mid-loop.  The
    collector itself stays enabled."""
    gc.collect()
    gc.freeze()


# -- /proc readers ------------------------------------------------------

def _stat_fields(pid: int) -> list[str]:
    """Fields of /proc/<pid>/stat after the command name (which may
    itself contain spaces and parentheses)."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
        return fh.read().rpartition(")")[2].split()


def proc_tree(root: int) -> list[int]:
    """``root`` and every live descendant."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid = int(_stat_fields(int(entry))[1])
        except (OSError, IndexError, ValueError):
            continue        # exited while we were looking
        children.setdefault(ppid, []).append(int(entry))
    tree, stack = [], [root]
    while stack:
        pid = stack.pop()
        tree.append(pid)
        stack.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: list[int]) -> float:
    """user+sys CPU of ``pids`` plus that of the children each has
    already reaped (so short-lived workers are not lost)."""
    ticks = 0
    for pid in pids:
        try:
            f = _stat_fields(pid)
        except OSError:
            continue
        # after the name: state ppid ... utime(11) stime cutime cstime
        ticks += sum(int(x) for x in f[11:15])
    return ticks / _CLK_TCK


def tree_cpu_seconds(descendants: list[int]) -> float:
    """CPU of this process (nanosecond clock), of the children it has
    reaped and of its live ``descendants`` (clock ticks)."""
    own = os.times()
    return (time.process_time() + own.children_user + own.children_system
            + cpu_seconds(descendants))


def peak_rss_mib(pids: list[int]) -> float:
    """Sum of the high-water resident set sizes of ``pids``."""
    kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return kib / 1024.0


def sweep_group(pgid: int, patience: float, grace: float = 5.0) -> int:
    """Give process group ``pgid`` ``patience`` seconds to empty by
    itself (multiprocessing's resource tracker leaves a moment after
    the process it served), then SIGKILL whatever still runs in it and
    wait until it is gone; returns how many processes that were
    (expected 0: every workload tears its own workers down)."""

    def members() -> list[int]:
        found = []
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    f = _stat_fields(int(entry))
                except OSError:
                    continue
                if int(f[2]) == pgid and f[0] != "Z":
                    found.append(int(entry))
        return found

    deadline = time.monotonic() + patience
    while members() and time.monotonic() < deadline:
        time.sleep(0.01)
    leaked = members()
    if leaked:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + grace
        while members() and time.monotonic() < deadline:
            time.sleep(0.02)
    return len(leaked)


# -- statistics and host speed ------------------------------------------

def quantile(samples: list[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    if not samples:
        raise ValueError("quantile of no samples")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: milliseconds one slice of the calibration kernel takes on this
#: sandbox's vCPU while the sibling hardware thread is idle.  A time
#: "at reference speed" is a measured time divided by how much slower
#: than this the slices around it ran.
CALIB_REF_MS = 6.0


class _Cell:
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def fire(self, k: int) -> int:
        self.n += k
        return self.n


def kernel_ms() -> float:
    """Milliseconds of one slice of a fixed pure-Python heap / dict /
    method-call kernel, the instruction mix of the event machine."""
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    cells = {i: _Cell() for i in range(64)}
    for t in range(10_000):
        heapq.heappush(heap, ((t * 7919) % 1009, t))
        if t & 1:
            _when, who = heapq.heappop(heap)
            cells[who & 63].fire(1)
    return (time.perf_counter() - start) * 1000.0


def calibrate() -> dict[int, list[float]]:
    """Two kernel slices on every CPU this process may use (about
    25 ms on two), taken between the timed parts of an op; the process
    may run on all of them afterwards.  The vCPUs of this sandbox
    change speed by 1.65x, each on its own and many times a second, so
    host speed is sampled right beside every time it corrects, on the
    CPUs that time was spent on."""
    slices = {}
    try:
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            slices[cpu] = [kernel_ms(), kernel_ms()]
    finally:
        os.sched_setaffinity(0, CPUS)
    return slices


def slowdown(*samples: list[float], q: float = 0.5) -> float:
    """How many times slower than the reference the host ran while the
    slices of ``samples`` (one list per CPU) were taken: the ``q``
    quantile of each CPU, averaged over the CPUs."""
    return statistics.fmean(
        quantile(s, q) for s in samples) / CALIB_REF_MS
