"""Per-layer probes: a few traced ops of every workload plus the
scenarios no workload covers (sync simulator, event vs compiled at
m=2000, K=1 vs K=2 without checkpoints, a cut-heavy partition, a
single-machine checkpointed run).  Runs in one child process; every
number comes from spans around public ``repro`` calls or from the
statistics those calls return.  Layer = ``repro`` module name.

Times are the fastest of the few repetitions made (interference only
adds time); counts marked exact in README.md repeat bit for bit.
"""

from __future__ import annotations

import cProfile
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import _env
from _trace import Tracer, install
from child import Loop
from workloads import ChainsCkpt, FigsCompiled, FigsEvent, ServeBurst


class Probe:
    """Shared state of one probe run: the tracer, the metrics found so
    far and the ops attempted / failed on the way."""

    def __init__(self, data: dict, expected: dict, seed: int) -> None:
        self.data = data
        self.expected = expected
        self.seed = seed
        self.tracer = Tracer(enabled=True)
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.next_op = 0

    def ops(self, workload: Any, count: int) -> tuple[list[dict], dict]:
        """Run ``count`` traced, verified ops; per-op span totals and
        the last op's modeled statistics."""
        loop = Loop(workload, self.tracer, self.expected[workload.name])
        first = loop.ops = self.next_op         # op ids unique per probe run
        for _ in range(count):
            loop.one()
        self.next_op = loop.ops
        self.attempted += count
        self.failed += loop.failed
        self.problems += loop.problems
        return ([self.tracer.totals_ms(op)
                 for op in range(first, first + count)], loop.modeled)

    def timed(self, name: str, fn: Callable[[], Any]) -> tuple[float, Any]:
        """Milliseconds and result of one spanned call."""
        start = time.perf_counter()
        with self.tracer.span(name):
            result = fn()
        return (time.perf_counter() - start) * 1e3, result

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def fastest(per_op: list[dict], name: str) -> float:
    return min(t.get(name, 0.0) for t in per_op)


def same_run(a: Any, b: Any) -> bool:
    """Bit-identity of two results: values, sink times, cycles, and
    per-cell firings."""
    return (a.outputs == b.outputs and a.sink_times == b.sink_times
            and a.cycles == b.cycles
            and a.stats.fire_counts == b.stats.fire_counts)


# ----------------------------------------------------------------------

def probe_machine(p: Probe) -> None:
    """machine.* and sim.* on the figs_event graphs."""
    import repro

    w = FigsEvent(p.data["figs_event"], p.tracer)
    w.setup()
    per_op, modeled = p.ops(w, 2)
    firings = sum(s["firings"] for s in modeled.values())
    run_ms = fastest(per_op, "machine.run")
    p.metrics.update({
        "machine.build_ms": fastest(per_op, "machine.Machine"),
        "machine.run_ms": run_ms,
        "machine.us_per_firing": run_ms * 1e3 / firings,
        "machine.firings_per_s": firings / (run_ms / 1e3),
        "machine.firings": firings,
        "machine.cycles": sum(s["cycles"] for s in modeled.values()),
    })
    for fig, stats in modeled.items():
        p.metrics[f"machine.ii.{fig}"] = stats["ii"]

    # Python-level calls of one sweep: a count, so it repeats exactly
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        w.run_op()
    finally:
        profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats())
    p.metrics["machine.py_calls_per_firing"] = calls / firings

    steps = sim_firings = 0
    sim_ms = 0.0
    for fig, cp in w.programs.items():
        ms, result = p.timed("sim.run", lambda: repro.run(
            cp, w.data[fig]["inputs"], backend="sync"))
        p.expect(result.outputs == w.data[fig]["expected"],
                 f"sync {fig}: outputs differ from the oracle")
        sim_ms += ms
        steps += result.cycles
        sim_firings += result.stats.total_firings
    p.metrics["sim.us_per_firing"] = sim_ms * 1e3 / sim_firings
    p.metrics["sim.steps"] = steps


def probe_frontend_and_compiled(p: Probe) -> None:
    """val.*, compiler.* from traced figs_compiled ops; compiled.* from
    event vs compiled on the same graphs at m=2000."""
    import repro
    from repro.workloads import figure_workload

    w = FigsCompiled(p.data["figs_compiled"], p.tracer)
    w.setup()
    per_op, modeled = p.ops(w, 3)
    stages = {
        "val.parse_ms": "val.parse_program",
        "val.check_ms": "val.check_program",
        "compiler.link_ms": "compiler.link_program",
        "compiler.balance_ms": "compiler.balance_graph",
    }
    for metric, span in stages.items():
        p.metrics[metric] = fastest(per_op, span)
    p.metrics["compiler.frontend_share"] = (
        fastest(per_op, "compiler.compile_program")
        / fastest(per_op, "harness.op")
    )
    p.metrics["compiler.cells"] = sum(
        s["cells"] for s in modeled.values())
    p.metrics["compiler.buffer_stages"] = sum(
        s["buffer_stages"] for s in modeled.values())

    event_ms = compiled_ms = 0.0
    fallbacks = 0
    for fig in w.parts + ("fig5",):
        wl = figure_workload(fig)
        cp = wl.compile(m=2000)
        inputs = wl.make_inputs(cp, seed=p.seed)
        ms_c, fast = p.timed("api.run", lambda: repro.run(
            cp, inputs, backend="compiled"))
        if fig == "fig5":       # the 1.0x fallback, timed on its own
            p.metrics["compiled.fig5_ms"] = ms_c
            continue
        ms_e, slow = p.timed("api.run", lambda: repro.run(
            cp, inputs, backend="event"))
        p.expect(same_run(fast, slow),
                 f"{fig} m=2000: compiled differs from event")
        event_ms += ms_e
        compiled_ms += ms_c
        fallbacks += not fast.engine.schedule.jumps
    p.metrics["compiled.run_ms"] = compiled_ms
    p.metrics["compiled.speedup_vs_event"] = event_ms / compiled_ms
    p.metrics["compiled.fallbacks"] = fallbacks


def probe_sharded_and_checkpoint(p: Probe) -> None:
    import repro
    from repro.checkpoint import fsck_directory
    from repro.machine import MachineConfig, ShardConfig
    from repro.workloads import figure_workload

    w = ChainsCkpt(p.data["chains_ckpt"], p.tracer)
    try:
        w.setup()
        k1_ms, k1 = p.timed("api.run", lambda: w.run_plain(
            ShardConfig(shards=1, processes=False)))
        # plain and checkpointed runs alternate, so that a noisy phase
        # hits both sides of checkpoint.overhead_ms
        runs, per_op = [], []
        for _ in range(3):
            runs.append(p.timed("api.run", w.run_plain))
            ops, modeled = p.ops(w, 1)
            per_op += ops
        k2_ms = min(ms for ms, _ in runs)
        k2 = runs[-1][1]
        p.expect(same_run(k1, k2), "chains: K=2 differs from K=1")
        p.metrics.update({
            "sharded.k1_ms": k1_ms,
            "sharded.k2_ms": k2_ms,
            "sharded.windows": k2.engine.windows_run,
            "sharded.worker_spawns": k2.engine.worker_spawns,
            "sharded.worker_reuses": k2.engine.worker_reuses,
        })

        ck = modeled["checkpoint"]
        fsck_ms, report = p.timed(
            "checkpoint.fsck_directory",
            lambda: fsck_directory(w.last_dir))
        p.expect(report["ok"], f"fsck: {report['problems']}")
        p.metrics.update({
            "checkpoint.overhead_ms": fastest(per_op, "api.run") - k2_ms,
            "checkpoint.resume_ms": fastest(per_op, "api.resume"),
            "checkpoint.fsck_ms": fsck_ms,
            "checkpoint.snapshots": ck["snapshots"],
            "checkpoint.bytes_full": ck["bytes_full"],
            "checkpoint.bytes_delta": ck["bytes_delta"],
            "checkpoint.on_tmpfs": int(_env.on_tmpfs(Path.cwd())),
        })

        # per-snapshot write latency is only recorded by the
        # single-machine checkpoint manager
        _ms, single = p.timed("api.run", lambda: repro.run(
            w.graph, backend="event", config=w.config,
            checkpoint=w.checkpoint_config("ckevent")))
        p.expect(single.outputs == w.data["expected"],
                 "chains on one checkpointed machine: outputs differ")
        p.metrics["checkpoint.write_ms_p50"] = statistics.median(
            single.stats.checkpoints.latencies) * 1e3

        # cut-heavy: fig6 split across the two workers, a barrier
        # every few cycles
        wl = figure_workload("fig6")
        cp = wl.compile(m=300)
        inputs = wl.make_inputs(cp, seed=p.seed)
        unit = MachineConfig.unit_time()
        whole = repro.run(cp, inputs, backend="event", config=unit)
        cut = [p.timed("api.run", lambda: repro.run(
            cp, inputs, backend="sharded", config=unit,
            shard_config=w.shards)) for _ in range(2)]
        cut_ms = min(ms for ms, _ in cut)
        split = cut[-1][1]
        p.expect(same_run(whole, split), "fig6 K=2 differs from K=1")
        arcs = cp.graph.arcs
        # one result packet forward and one acknowledge back per token
        packets = 2 * sum(
            split.stats.fire_counts[arcs[a].src]
            for a in split.engine.partition.cut_arcs
        )
        windows = split.engine.windows_run
        p.metrics["sharded.cut_packets_per_window"] = packets / windows
        p.metrics["sharded.cut_ms_per_window"] = cut_ms / windows
    finally:
        w.teardown()


def probe_serve(p: Probe) -> None:
    w = ServeBurst(p.data["serve_burst"], p.tracer)
    try:
        w.setup()
        p.ops(w, 1)                                     # warm-up wave
        before = len(p.tracer.spans)
        per_op, _ = p.ops(w, 25)
        spans = p.tracer.spans[before:]
        stats = w.stats()
    finally:
        w.teardown()
    submits = [(e - s) * 1e3 for n, s, e, _p, _o in spans
               if n == "client.submit"]
    p.metrics.update({
        "serve.submit_rtt_ms": statistics.median(submits),
        "serve.wait_ms": statistics.median(
            t["client.wait"] for t in per_op),
        "serve.job_ms_p50": stats["latency_p50"] * 1e3,
        "serve.job_ms_p99": stats["latency_p99"] * 1e3,
        "serve.batches": stats["batches"],
        "serve.batched_share": stats["batched"] / stats["completed"],
        "serve.shed": stats["shed"],
        "serve.retries": stats["retries"],
        "serve.worker_respawns": stats["worker_respawns"],
    })


def run_all(data: dict, expected: dict, seed: int) -> dict[str, Any]:
    p = Probe(data, expected, seed)
    install(p.tracer)
    for probe in (probe_machine, probe_frontend_and_compiled,
                  probe_sharded_and_checkpoint, probe_serve):
        probe(p)
    p.tracer.dump(_env.OUT / "trace_probes.json", seed=seed)
    return {
        "mode": "probe", "metrics": p.metrics, "attempted": p.attempted,
        "failed": p.failed, "problems": p.problems[:6],
        "slices": [ms for per_cpu in _env.calibrate().values()
                   for ms in per_cpu],
    }
