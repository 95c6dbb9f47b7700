"""End-to-end benchmark of the repro package: four closed-loop
workloads, five end-to-end metrics each, per-layer metrics from a
separate traced run.  See README.md next to this file.

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --workload figs_event --seed 3
    python3 benchmarks/e2e/run.py --workload figs_event --trace 1
    python3 benchmarks/e2e/run.py --aa 3               # A/A self-check

A run of one workload is R = 5 rounds, each a fresh child process
(child.py) with ``PYTHONHASHSEED=0`` that runs a fixed number of ops.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  Metric names, units, directions and bounds
are read from the BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import _env
from _env import quantile

ROUNDS = 5
#: measured ops of one round at the ``run_seconds`` of BENCHMARK.json,
#: about that many seconds over the five rounds at reference host
#: speed.  Fixed, so the sample count never depends on how fast the
#: host happens to be; ``--seconds`` scales it.  A run's pooled sample
#: count must be exactly ROUNDS times this or the run fails.
OPS_PER_ROUND = {
    "figs_event": 2, "figs_compiled": 5, "chains_ckpt": 4, "serve_burst": 30,
}
#: a run must end within 180 s even when a child hangs; its children
#: share this much wall time
RUN_TIMEOUT = 165.0
#: untraced runs per workload in one set of the A/A self-check
AA_RUNS = 4

SPEC = json.loads((_env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def ops_per_round(workload: str, seconds: float) -> int:
    return max(1, round(OPS_PER_ROUND[workload] * seconds
                        / SPEC["run_seconds"]))


def build() -> None:
    """Byte-compile the program and the harness (a no-op when up to
    date) before anything is measured: a round that compiles what it
    imports sets up slower and peaks higher in memory than every later
    one."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(_env.SRC),
         str(_env.HERE)],
        env=_env.child_env(), stdout=subprocess.DEVNULL, check=False)


def generate(names: list[str], seed: int) -> Path:
    """Inputs and oracle outputs of ``names`` for ``seed``, as one JSON
    file the round children read."""
    from workloads import WORKLOADS

    data = {name: WORKLOADS[name].generate(seed) for name in names}
    path = _env.OUT / "data" / f"{'-'.join(names)}_{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def spawn(mode: str, workload: str, seed: int, ops: int,
          data: Path, deadline: float) -> dict[str, Any]:
    """One child process; its JSON result, or a failed round when it
    crashed, wrote nothing or was still running at ``deadline`` (on
    the monotonic clock)."""
    scratch = _env.OUT / "scratch" / f"{workload}-{mode}"
    answer = scratch.with_suffix(".json")
    log = scratch.with_suffix(".log")
    scratch.parent.mkdir(parents=True, exist_ok=True)
    answer.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(_env.HERE / "child.py"), "--mode", mode,
        "--workload", workload, "--seed", str(seed), "--ops", str(ops),
        "--data", str(data), "--scratch", str(scratch),
        "--result", str(answer), "--spawned", repr(time.time()),
    ]
    # Own process group: whatever the child leaves behind (shard
    # workers, the daemon and its pool) is found and killed by group.
    # The result comes back in a file and stderr goes to one, so no
    # pipe a leaked worker has inherited can keep this process waiting.
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            cmd, env=_env.child_env(), stdout=subprocess.DEVNULL,
            stderr=err, start_new_session=True,
        )
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        why = f"exit {proc.returncode}"
        leaked = _env.sweep_group(proc.pid, patience=3.0)
    except subprocess.TimeoutExpired:
        why = "no result before the run's deadline"
        leaked = _env.sweep_group(proc.pid, patience=0.0)   # the child too
    proc.wait()
    if proc.returncode == 0:
        try:
            result = json.loads(answer.read_text(encoding="utf-8"))
            result["leaked"] = leaked
            # a failed round keeps its scratch (daemon.log, snapshots)
            shutil.rmtree(scratch, ignore_errors=True)
            answer.unlink()
            log.unlink()
            return result
        except (OSError, ValueError) as exc:
            why = f"unreadable result: {exc}"
    tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
    return {"attempted": 1, "failed": 1, "problems": [f"{why}: {tail}"],
            "leaked": leaked}


def pick(rounds: list[dict], key: str) -> list[Any]:
    return [r[key] for r in rounds if key in r]


def at_reference(op: dict[str, Any], clock: str, q: float = 0.5) -> float:
    """Milliseconds of one op on ``clock`` (``ms`` wall, ``cpu_ms``) at
    reference host speed: each part divided by how much slower than
    the reference the CPUs it ran on were around it (the ``q`` quantile
    of the slices taken there)."""
    return sum(part[clock] / _env.slowdown(*part["around"], q=q)
               for part in op["parts"])


def low_quantile(ops: list[dict[str, Any]]) -> float:
    """10th percentile of op wall time at reference speed.  The ops at
    the low end are those that met the host at its fastest, so each is
    set against the lower quartile of the slices around it: against
    their median the low end would be the ops whose slices happened to
    read slower than the op ran, and spreads twice as much."""
    return quantile([at_reference(op, "ms", q=0.25) for op in ops], 0.10)


def measure(workload: str, seed: int, seconds: float,
            deadline: float) -> dict[str, Any]:
    """The untraced run: ROUNDS rounds, pooled samples."""
    ops = ops_per_round(workload, seconds)
    data = generate([workload], seed)
    rounds = [spawn("measure", workload, seed, ops, data, deadline)
              for _ in range(ROUNDS)]
    data.unlink()
    pool = [op for r in rounds for op in r.get("measured", [])]
    result = summary(rounds)
    floor = ROUNDS * ops
    if len(pool) != floor:
        result["correct"] = False
        result["problems"].append(
            f"{len(pool)} samples, the floor is {floor}")
        return result
    ref_ms = [at_reference(op, "ms") for op in pool]
    raw_ms = [sum(part["ms"] for part in op["parts"]) for op in pool]
    slices = [s for r in rounds for s in r["slices"]]
    result["metrics"] = {
        "setup_s": statistics.median(pick(rounds, "setup_s")),
        "op_ms_p10": low_quantile(pool),
        "elements_per_s": statistics.fmean(op["elements"] for op in pool)
        / (statistics.median(ref_ms) / 1e3),
        "cpu_ms_per_op": statistics.median(
            at_reference(op, "cpu_ms") for op in pool),
        "peak_rss_mb": max(pick(rounds, "rss_mib")),
    }
    result["detail"] = {
        "samples": len(pool),
        "samples_floor": floor,
        "op_ms_p50": statistics.median(ref_ms),
        "op_ms_p90": quantile(ref_ms, 0.90),
        "raw.setup_s": statistics.median(pick(rounds, "setup_raw_s")),
        "raw.op_ms_p10": quantile(raw_ms, 0.10),
        "raw.op_ms_p50": statistics.median(raw_ms),
        "host.slowdown": statistics.median(pick(rounds, "slowdown")),
        "host.calib_ms": quantile(slices, 0.10),
    }
    result["modeled"] = rounds[-1]["modeled"]
    return result


def trace(workload: str, seed: int, seconds: float,
          deadline: float) -> dict[str, Any]:
    """The traced run: one round of the workload, its ops first
    untraced and then traced, and the per-layer probes.  The contract
    wants every per-layer metric from every traced run, so the probes
    are those of all four workloads whichever one is named."""
    data = generate(WORKLOAD_NAMES, seed)
    traced = spawn("traced", workload, seed, ops_per_round(workload, seconds),
                   data, deadline)
    probed = spawn("probe", workload, seed, 0, data, deadline)
    data.unlink()
    rounds = [traced, probed]
    result = summary(rounds)
    if "measured" not in traced or "metrics" not in probed:
        result["correct"] = False
        return result
    plain = low_quantile(traced["untraced"])
    spanned = low_quantile(traced["measured"])
    result["metrics"] = dict(probed["metrics"])
    result["metrics"].update({
        "host.calib_ms": quantile(
            traced["slices"] + probed["slices"], 0.10),
        "harness.verify_ms": statistics.median(
            op["verify_ms"] for op in traced["measured"]),
        "harness.trace_overhead_pct": (spanned / plain - 1.0) * 100.0,
    })
    result["self_ms"] = traced["self_ms"]
    return result


def summary(rounds: list[dict]) -> dict[str, Any]:
    failed = sum(r.get("failed", 0) for r in rounds)
    leaked = sum(r.get("leaked", 0) for r in rounds)
    problems = [p for r in rounds for p in r.get("problems", [])]
    if leaked:
        problems.append(f"{leaked} worker process(es) outlived a round")
    return {
        "correct": failed == 0 and leaked == 0,
        "attempted": sum(r.get("attempted", 0) for r in rounds),
        "failed": failed,
        "problems": problems,
        "metrics": {},
    }


def specs(trace_run: bool) -> list[dict[str, Any]]:
    return SPEC["per_layer" if trace_run else "end_to_end"]


def report(workload: str, result: dict[str, Any], trace_run: bool) -> None:
    """Human-readable table, then the contract's JSON line."""
    print(f"\n== {workload} ({'traced' if trace_run else 'end to end'}) "
          f"ops attempted {result['attempted']}, failed {result['failed']}")
    for spec in specs(trace_run):
        value = result["metrics"].get(spec["name"])
        shown = "missing" if value is None else f"{value:.6g}"
        bound = f"  bound {spec['bound']:.0%}" if "bound" in spec else ""
        print(f"  {spec['name']:<32} {shown:>12} {spec['unit']:<6} "
              f"{spec['better']} is better{bound}")
    for key, value in result.get("detail", {}).items():
        print(f"  ({key} = {value:.6g})")
    if "self_ms" in result:
        print("  self time of the traced ops, ms by span: "
              + ", ".join(f"{k} {v:.1f}" for k, v in sorted(
                  result["self_ms"].items(), key=lambda kv: -kv[1])))
    for problem in result["problems"][:6]:
        print(f"  problem: {problem}")
    complete = all(s["name"] in result["metrics"] for s in specs(trace_run))
    units = {s["name"]: s["unit"] for s in specs(trace_run)}
    print(json.dumps({
        "correct": result["correct"] and complete,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items() if name in units
        },
    }), flush=True)


def run_one(workload: str, seed: int, seconds: float,
            trace_run: bool) -> dict[str, Any]:
    result = (trace if trace_run else measure)(
        workload, seed, seconds, time.monotonic() + RUN_TIMEOUT)
    report(workload, result, trace_run)
    return result


# ----------------------------------------------------------------------
# A/A self-check
# ----------------------------------------------------------------------

#: per-layer metrics that count modeled events, bytes or calls: two
#: runs of one seed must agree on them exactly
EXACT = {
    "compiler.cells", "compiler.buffer_stages", "machine.firings",
    "machine.cycles", "machine.py_calls_per_firing", "machine.ii.fig2",
    "machine.ii.fig4", "machine.ii.fig5", "machine.ii.fig6",
    "machine.ii.fig7", "sim.steps", "compiled.fallbacks",
    "sharded.windows", "sharded.worker_spawns", "sharded.worker_reuses",
    "sharded.cut_packets_per_window", "checkpoint.snapshots",
    "checkpoint.bytes_full", "checkpoint.bytes_delta",
}


def iqr_share(values: list[float]) -> float:
    """The driver's spread statistic: interquartile range of the runs
    as a share of their median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def self_check(sets: int, seed: int, seconds: float) -> bool:
    """Run ``sets`` full sets back to back and compare them the way the
    driver does.  A set is, per workload, AA_RUNS untraced runs on the
    seeds seed..seed+AA_RUNS-1, and one traced run (the probes are the
    same whichever workload a traced run names, so the sets take turns
    naming them)."""
    values: dict[tuple[str, str], list[list[float]]] = {}
    exact: dict[str, list[float]] = {}
    ok = True
    for k in range(sets):
        for workload in WORKLOAD_NAMES:
            per_metric: dict[str, list[float]] = {}
            for run in range(AA_RUNS):
                result = run_one(workload, seed + run, seconds, False)
                ok &= result["correct"]
                for name, value in result["metrics"].items():
                    per_metric.setdefault(name, []).append(value)
            for name, got in per_metric.items():
                values.setdefault((workload, name), []).append(got)
        result = run_one(WORKLOAD_NAMES[k % len(WORKLOAD_NAMES)], seed,
                         seconds, True)
        ok &= result["correct"]
        for name in EXACT & set(result["metrics"]):
            exact.setdefault(name, []).append(result["metrics"][name])

    bounds = {s["name"]: s["bound"] for s in SPEC["end_to_end"]}
    print(f"\n== A/A: {sets} sets of {AA_RUNS} runs per workload")
    print(f"{'workload':<14} {'metric':<15} {'set medians':<36} "
          f"{'max diff':>9} {'bound':>6} {'max spread':>10}")
    for (workload, name), per_set in values.items():
        medians = [statistics.median(v) for v in per_set]
        diff = (max(medians) - min(medians)) / statistics.median(medians)
        spread = max(iqr_share(v) for v in per_set)
        bound = bounds[name]
        # the driver does not gate the spread of set-up time
        gated = name != "setup_s" and spread > bound
        flag = "  EXCEEDS" if diff > bound or gated else ""
        ok &= not flag
        print(f"{workload:<14} {name:<15} "
              f"{' '.join(f'{m:.5g}' for m in medians):<36} "
              f"{diff:>8.2%} {bound:>6.0%} {spread:>10.2%}{flag}")
    moved = {k: v for k, v in exact.items() if len(set(v)) > 1}
    for name, got in moved.items():
        print(f"exact count moved: {name} {got}")
    print(f"exact counts identical across sets: {not moved} "
          f"({len(exact)} checked)")
    return ok and not moved


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="default: all four, one after the other")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="measuring time of one run at reference "
                        "host speed; sets the ops per round")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1],
                        help="1: print the per-layer metrics of a "
                        "traced run instead of the end-to-end ones")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="A/A self-check over N full sets")
    args = parser.parse_args()

    _env.require_program()
    build()
    if args.aa:
        return 0 if self_check(args.aa, args.seed, args.seconds) else 1
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    results = [run_one(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
