"""One round of one workload, in a fresh process (started by run.py
with ``PYTHONHASHSEED=0``): set-up, one unmeasured warm-up op, then a
closed loop of a fixed number of ops from a single client.  Writes one
JSON object to ``--result``.

Modes: ``measure`` (untraced, the end-to-end numbers), ``traced``
(``--ops`` ops untraced, then as many with spans, so the overhead of
tracing is measured inside one process), ``probe`` (the per-layer
probes of probes.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
import traceback
from pathlib import Path
from typing import Any

import _env
from _trace import Tracer, install


def compare_modeled(observed: dict, expected: dict) -> list[str]:
    """Mismatches between an op's modeled statistics and the committed
    ones; only keys present in ``expected`` are pinned (seed-dependent
    ones are left out of the file)."""
    problems = []
    for part, want in expected.items():
        got = observed.get(part, {})
        for key, value in want.items():
            if got.get(key) != value:
                problems.append(
                    f"{part}.{key}: modeled {got.get(key)!r}, "
                    f"expected {value!r}"
                )
    return problems


class Loop:
    """Runs ops of one workload and keeps the per-op samples.

    An op's parts are timed one by one, with host speed sampled on
    every CPU before, between and after them, so that run.py can say
    what each part costs at reference host speed whatever the vCPUs
    did meanwhile.  A workload that runs in this process alone spends
    each part on the CPU that read faster just before it; one with
    processes of its own runs on all of them.
    """

    def __init__(self, workload: Any, tracer: Tracer,
                 expected: dict) -> None:
        self.w = workload
        self.tracer = tracer
        self.expected = expected
        self.ops = 0
        self.failed = 0
        self.problems: list[str] = []
        self.modeled: dict = {}
        #: live descendants whose CPU counts (known after the warm-up)
        self.descendants: list[int] = []
        #: the latest sampling of host speed; then the slowdown at
        #: every sampling so far, every slice taken, and the wall time
        #: sampling took
        self.latest: dict[int, list[float]] = {}
        self.slowdowns: list[float] = []
        self.slices: list[float] = []
        self.calib_s = 0.0

    def sample_host(self) -> dict[int, list[float]]:
        start = time.perf_counter()
        got = _env.calibrate()
        self.slowdowns.append(_env.slowdown(*got.values()))
        self.slices += [ms for per_cpu in got.values() for ms in per_cpu]
        self.calib_s += time.perf_counter() - start
        self.latest = got
        return got

    def one(self) -> dict[str, Any]:
        """One op: per part its wall and CPU milliseconds as the clocks
        read and the slices taken around it on the CPUs it ran on (one
        list per CPU); ``verify_ms``; the ``elements`` verified.  A
        raised exception or any mismatch makes it a failed op."""
        self.tracer.op = self.ops
        self.ops += 1
        sample: dict[str, Any] = {"parts": [], "verify_ms": 0.0,
                                  "elements": 0}
        obs, outcome = {}, None
        try:
            # the sampling that ended the last op begins this one (only
            # its verification lies between them)
            before = self.latest or self.sample_host()
            for part in self.w.parts:
                ran_on = _env.CPUS if self.w.own_processes else [
                    min(before, key=lambda cpu: sum(before[cpu]))]
                os.sched_setaffinity(0, ran_on)
                cpu = _env.tree_cpu_seconds(self.descendants)
                start = time.perf_counter()
                with self.tracer.span("harness.op"):
                    obs[part] = self.w.run_part(part)
                wall = time.perf_counter() - start
                cpu = _env.tree_cpu_seconds(self.descendants) - cpu
                after = self.sample_host()
                sample["parts"].append({
                    "ms": wall * 1e3, "cpu_ms": cpu * 1e3,
                    "around": [before[c] + after[c] for c in ran_on],
                })
                before = after
            start = time.perf_counter()
            with self.tracer.span("harness.verify"):
                outcome = self.w.check(obs)
                bad = outcome.problems + compare_modeled(
                    outcome.modeled, self.expected
                )
            sample["verify_ms"] = (time.perf_counter() - start) * 1e3
        except Exception:
            bad = [traceback.format_exc(limit=6)]
            os.sched_setaffinity(0, _env.CPUS)
        if bad:
            self.failed += 1
            self.problems += bad[:3]
            return sample
        self.modeled = outcome.modeled
        sample["elements"] = outcome.elements
        return sample

    def run(self, ops: int) -> list[dict[str, Any]]:
        """Closed loop of ``ops`` ops: the next one starts when the
        last one has been verified."""
        return [self.one() for _ in range(ops)]


def run_round(args: argparse.Namespace) -> dict[str, Any]:
    from workloads import WORKLOADS

    loading = time.perf_counter()
    data = json.loads(Path(args.data).read_text(encoding="utf-8"))
    data = data[args.workload]
    expected = json.loads(
        (_env.HERE / "expected.json").read_text(encoding="utf-8")
    )[args.workload]
    loading = time.perf_counter() - loading

    tracer = Tracer()
    workload = WORKLOADS[args.workload](data, tracer)
    loop = Loop(workload, tracer, expected)
    out: dict[str, Any] = {"mode": args.mode}
    try:
        loop.sample_host()          # before the program is imported
        workload.setup()
        loop.sample_host()
        loop.one()                  # warm-up, verified
        # child start -> import -> artefacts -> pool/daemon -> verified
        # warm-up op; loading the oracle and sampling host speed are
        # the harness's own cost
        out["setup_raw_s"] = (time.time() - args.spawned - loading
                              - loop.calib_s)
        out["setup_s"] = (out["setup_raw_s"]
                          / statistics.fmean(loop.slowdowns))
        loop.descendants = _env.proc_tree(os.getpid())[1:]
        _env.settle_gc()
        if args.mode == "traced":
            out["untraced"] = loop.run(args.ops)
            install(tracer)
            tracer.enabled = True
            out["measured"] = loop.run(args.ops)
            tracer.dump(
                _env.OUT / f"trace_{args.workload}.json",
                workload=args.workload, seed=args.seed,
            )
            out["self_ms"] = tracer.self_ms()
        else:
            out["measured"] = loop.run(args.ops)
        out["rss_mib"] = _env.peak_rss_mib(_env.proc_tree(os.getpid()))
    finally:
        workload.teardown()
    out.update(attempted=loop.ops, failed=loop.failed,
               problems=loop.problems[:6], modeled=loop.modeled,
               slices=loop.slices, slowdown=statistics.median(loop.slowdowns))
    return out


def run_probes(args: argparse.Namespace) -> dict[str, Any]:
    import probes

    data = json.loads(Path(args.data).read_text(encoding="utf-8"))
    expected = json.loads(
        (_env.HERE / "expected.json").read_text(encoding="utf-8")
    )
    return probes.run_all(data, expected, args.seed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True,
                        choices=["measure", "traced", "probe"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--data", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args()

    _env.require_program()
    # everything the round writes (snapshots, journal, socket) lands in
    # its scratch directory, addressed by short relative paths
    os.chdir(_env.fresh_dir(Path(args.scratch)))
    result = run_probes(args) if args.mode == "probe" else run_round(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
