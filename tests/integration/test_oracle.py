"""One differential oracle for the bit-identity contract and the
paper's theorems.

Theorems 1-4 say that every primitive forall, every simple for-iter and
every pipe-structured program compiles to a fully pipelined graph, so
the contract is checked on a fixed list of such programs: the five
paper figures, eight generated pipe programs, four ``branch`` programs
whose controls break their period mid-stream, and 48 programs drawn
from the workload generators (:data:`~tests.util.DRAWN`).  The list is
fixed: no hypothesis, and no knob that scales it.

Every program meets the witnesses that are not another backend: the
Val interpreter's values (the root every executor answers to), a
validated and balanced graph, the unit-delay simulator's constant
offset, a dfasm round trip, and Theorem 4's initiation interval.
Then each backend x feature variant's :func:`fingerprint` is compared
with the event machine's on the same program, config and packet-level
fault plan.  Any plan arms the reliability layer, so a run with shard
faults compares against the same plan without them.  The in-process
variants take three drawn programs besides the figures and pipes
(:data:`DEEP`); the real-process variants keep :data:`PROGRAMS`.
"""

import dataclasses
import functools
import random
import re

import pytest

import repro
from repro.analysis import PartitionError
from repro.checkpoint import CheckpointConfig, read_metadata
from repro.compiler import verify_balanced
from repro.faults import FaultPlan, ShardFault
from repro.graph import validate
from repro.graph.asm import from_asm, to_asm
from repro.machine import (
    Machine,
    MachineConfig,
    RecoveryPolicy,
    ShardConfig,
    ShardedRunner,
)
from repro.timing import steady_interval
from repro.val.values import ValArray
from repro.workers import BackoffPolicy, shutdown_worker_pool
from tests.util import (
    BRANCHES,
    CHAOS_PLAN,
    DRAWN,
    EXACT_CONFIGS,
    FIGS,
    GENERATED,
    ClassicLockstep,
    assert_outputs_match,
    in_process_run,
    program,
    program_graph,
    program_source,
    reference_outputs,
)

#: the programs of every variant, real worker processes included
PROGRAMS = [*FIGS, *GENERATED]
#: the programs of the in-process variants: ``forall3`` is the only
#: run-time merge besides fig5's, and one recurrence per for-iter scheme
DEEP = [*PROGRAMS, "forall3", "todd0", "companion0"]
#: every named program; the witnesses run over all of them
EVERY = [*PROGRAMS, *BRANCHES, *DRAWN]
#: single-machine variants run under the first two; sharded runs are
#: exact under all but ``default`` (see DRIFTS); ``skewed`` spreads
#: the units and delays unevenly for the interpreter witness
CONFIGS = {"default": MachineConfig(), "unit_time": MachineConfig.unit_time(),
           **EXACT_CONFIGS,
           "skewed": MachineConfig(n_pes=5, n_fus=3, rn_delay=4,
                                   pe_issue_interval=2)}
SHARDED_CONFIGS = ["unit_time", *EXACT_CONFIGS]
#: ``empty`` injects nothing but arms the reliability layer as ``chaos``
#: does, so a run with shard faults compares against it
PLANS = {"clean": None, "chaos": CHAOS_PLAN, "empty": FaultPlan()}
#: large enough that every statically replayable program jumps
M_JUMP = 200
#: shard counts and partitions of the in-process sharded variants
SHARDINGS = [(1, "auto")] + [
    (k, scheme) for k in (2, 4) for scheme in ("auto", "round_robin")
]
#: the known drift: under the default config each shard models its own
#: units, and these end early (fig7 at m = 60: cycle 968, not 969)
DRIFTS = {"fig5", "fig6", "fig7"}


@pytest.fixture(autouse=True, scope="module")
def _no_parked_workers():
    yield
    shutdown_worker_pool()


def fingerprint(engine, stats):
    """Values, sink times, cycles, firings, packet counters and unit
    loads, plus the reliability and fault counters when armed."""
    outputs = engine.outputs()
    loads = [stats.pe_ops, stats.fu_ops, stats.am_ops,
             stats.pe_busy, stats.fu_busy, stats.am_busy]
    fp = {
        "outputs": outputs,
        "sink_times": {s: engine.sink_arrival_times(s) for s in outputs},
        "cycles": stats.cycles,
        "fire_counts": stats.fire_counts,
        "packets": dataclasses.asdict(stats.packets),
        "unit_totals": [sum(load) for load in loads],
    }
    if isinstance(engine, Machine):
        fp["unit_loads"] = loads
    for key in ("reliability", "faults"):
        if getattr(stats, key) is not None:
            fp[key] = dataclasses.asdict(getattr(stats, key))
    return fp


def recipe(name, m=12):
    """How to rebuild a generated program by hand: its Val source and
    compile options (empty for the figures, which are named)."""
    if name in FIGS or name == "chains10k":
        return ""
    source, params, opts = program_source(name, m)
    return (f"\n  compile_program(source, params={params}, **{opts}), "
            f"source:\n{source}")


def check(ref, engine, stats, name, variant, config="unit_time", m=12):
    """Fail naming the program, the variant, the config and the first
    fingerprint key that differs, beside a generated program's
    :func:`recipe`.  K shards model K sets of units, so a sharded run
    is held to the unit totals, not to each unit's load."""
    got = fingerprint(engine, stats)
    for key in {**ref, **got}:
        if key == "unit_loads" and key not in got:
            continue
        if ref.get(key) != got.get(key):
            pytest.fail(
                f"{name} {variant} [{config}]: {key} differs\n"
                f"  event:   {ref.get(key)!r:.300}\n"
                f"  variant: {got.get(key)!r:.300}{recipe(name, m)}"
            )


def runtime_control(name):
    """Whether the program branches on a comparison of an array
    element, so a control is computed at run time."""
    return re.search(r"\bif\s+\(?\w+\[[^]]*\]\s*[<>=]",
                     program_source(name)[0]) is not None


@functools.lru_cache(maxsize=None)
def event(name, config="unit_time", plan="clean", m=12):
    """Fingerprint of the event-machine reference run."""
    graph, streams = program_graph(name, m)
    machine = Machine(graph, CONFIGS[config], inputs=streams,
                      fault_plan=PLANS[plan])
    return fingerprint(machine, machine.run())


@pytest.mark.parametrize("config", ["default", "unit_time"])
@pytest.mark.parametrize("name", [*DEEP, *BRANCHES])
def test_compiled(name, config):
    """Fast-forward jumps over the steady state and changes nothing,
    also where a control breaks its period mid-stream.  The figures
    but fig5, the pipes and the branches must jump; fig5's merges and
    a program with a run-time control must refuse and say why; any
    other program must jump or state its reason (too few periods
    left, say)."""
    graph, streams = program_graph(name, M_JUMP)
    res = repro.run(graph, streams, backend="compiled",
                    config=CONFIGS[config])
    check(event(name, config, m=M_JUMP), res.engine, res.stats,
          name, "compiled", config, M_JUMP)
    schedule = res.engine.schedule
    where = f"{name} [{config}]{recipe(name, M_JUMP)}"
    if name == "fig5":
        # its merges follow a data stream, so no period recurs
        assert not schedule.jumps and schedule.fallback_reason, where
    elif runtime_control(name):
        assert "computed at run time" in schedule.fallback_reason, where
    elif name in DRAWN:
        assert schedule.jumps or schedule.fallback_reason, where
    else:
        assert schedule.cycles_skipped > 0, where


@pytest.mark.parametrize(("config", "plan"), [
    ("default", "clean"), ("unit_time", "clean"), ("default", "chaos"),
])
@pytest.mark.parametrize("name", DEEP)
def test_checkpoint_resume(name, config, plan, tmp_path):
    """``Machine.resume`` from a full snapshot, a chain base and every
    delta depth, clean and under the chaos plan, whose per-arc fate
    cursors ride inside the snapshot."""
    graph, streams = program_graph(name)
    ref = event(name, config, plan)
    for delta_every in (0, 3):
        where = f"{config} {plan} delta_every={delta_every}"
        directory = tmp_path / where.replace(" ", "-")
        machine = Machine(
            graph, CONFIGS[config], inputs=streams,
            fault_plan=PLANS[plan],
            checkpoint=CheckpointConfig(
                directory, interval=max(1, ref["cycles"] // 5),
                retain=0, delta_every=delta_every,
            ),
        )
        check(ref, machine, machine.run(), name, "checkpointed", where)
        snaps = sorted(directory.glob("ckpt-*.snap"))
        if delta_every:
            # the first chain: its base and both delta depths
            chosen = snaps[:3]
            wanted = [("base", 0), ("delta", 1), ("delta", 2)]
        else:
            chosen = [random.Random(f"{name} {where}").choice(snaps)]
            wanted = [("full", 0)]
        metas = [read_metadata(path) for path in chosen]
        assert [(meta.get("kind", "full"), meta.get("chain_depth", 0))
                for meta in metas] == wanted, f"{name} {where}"
        # newest first: a resumed machine keeps checkpointing into
        # the directory, over the files of later cycles
        for path in reversed(chosen):
            resumed = Machine.resume(path)
            check(ref, resumed, resumed.run(), name,
                  f"resume {path.name}", where)


@pytest.mark.parametrize("name", [*DEEP, "chains10k"])
def test_sharded_in_process(name):
    """K in {2, 4} x every partition under every exact config (K = 1
    under unit time alone), clean and under the chaos plan, and values
    only under the default config; then the classic fixed-window
    lockstep, which must take at least as many windows as the adaptive
    rule.  More shards than cells is refused."""
    cases = [(config, plan, k, scheme, ShardedRunner)
             for config in SHARDED_CONFIGS for plan in ("clean", "chaos")
             for k, scheme in SHARDINGS if k > 1 or config == "unit_time"]
    cases += [("default", "clean", k, scheme, ShardedRunner)
              for k, scheme in SHARDINGS if k > 1]
    cases += [("unit_time", "clean", 2, "auto", ClassicLockstep),
              ("unit_time", "chaos", 4, "auto", ClassicLockstep)]
    if name == "chains10k":
        cases = [("unit_time", "clean", k, "auto", ShardedRunner)
                 for k in (1, 2, 4)]
    graph, streams = program_graph(name)
    windows = {}
    for config, plan, k, scheme, cls in cases:
        if k > len(graph.cells):
            with pytest.raises(PartitionError):
                in_process_run(graph, streams, k, PLANS[plan],
                               CONFIGS[config], cls, scheme)
            continue
        runner = in_process_run(graph, streams, k, PLANS[plan],
                                CONFIGS[config], cls, scheme)
        ref = event(name, config, plan)
        variant = f"{cls.__name__} K={k} {scheme} {plan}"
        if config == "default":
            assert runner.outputs() == ref["outputs"], f"{name} {variant}"
        else:
            check(ref, runner, runner.stats(), name, variant, config)
        windows[config, plan, k, scheme, cls] = runner.windows_run
        if cls is ClassicLockstep:
            assert windows[config, plan, k, scheme, ShardedRunner] <= (
                runner.windows_run), f"{name} {variant}"


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=pytest.fail.Exception,
        reason="each shard models its own units"))
    if name in DRIFTS else name
    for name in FIGS
])
def test_sharded_times_under_default_config(name):
    """Values hold in every case; only the DRIFTS programs' times may
    fail, and they must."""
    graph, streams = program_graph(name, 60)
    ref = event(name, "default", m=60)
    for k in (2, 4):
        runner = in_process_run(graph, streams, k, config=MachineConfig())
        assert runner.outputs() == ref["outputs"], f"{name} K={k}"
        check(ref, runner, runner.stats(), name, f"sharded K={k}",
              "default")


@pytest.mark.parametrize("name", PROGRAMS)
def test_sharded_delta_sets_then_resume(name, tmp_path):
    """K = 2 worker processes write coordinated delta sets, clean and
    under the chaos plan; ``repro.resume`` finishes each run from its
    newest set."""
    graph, streams = program_graph(name)
    for plan in ("clean", "chaos"):
        ref = event(name, plan=plan)
        res = repro.run(
            graph, streams, backend="sharded", config=CONFIGS["unit_time"],
            faults=PLANS[plan],
            checkpoint=CheckpointConfig(
                tmp_path / plan, interval=max(1, ref["cycles"] // 5),
                retain=0, delta_every=3,
            ),
            shard_config=ShardConfig(shards=2, processes=True),
        )
        check(ref, res.engine, res.stats, name, f"sharded K=2 {plan} sets")
        res = repro.resume(tmp_path / plan)
        check(ref, res.engine, res.stats, name, f"resume of {plan} sets")


def _healed_run(name, tmp_path, k, fault, **heal):
    graph, streams = program_graph(name)
    runner = ShardedRunner(
        graph, streams, config=CONFIGS["unit_time"],
        fault_plan=FaultPlan(shard_faults=(fault,)),
        checkpoint=CheckpointConfig(tmp_path, interval=10, retain=3,
                                    delta_every=3),
        shard_config=ShardConfig(shards=k, processes=True,
                                 recovery=RecoveryPolicy(
                                     enabled=True, **heal,
                                     backoff=BackoffPolicy(base=0.0))),
    )
    runner.run()
    return runner, runner.stats().recovery


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("name", PROGRAMS)
def test_worker_kill_heals(name, k, tmp_path):
    """Real worker processes writing delta sets; one is killed at a
    seeded cycle, and the run rolls back and heals in process."""
    ref = event(name, plan="empty")
    cycle = random.Random(f"{name}-{k}").randrange(15, ref["cycles"] * 3 // 4)
    fault = ShardFault(shard=k - 1, cycle=cycle, kind="kill")
    runner, rec = _healed_run(name, tmp_path, k, fault)
    where = f"{fault}, K={k}"
    check(ref, runner, runner.stats(), name, where)
    assert rec.detections == rec.crashes == rec.rollbacks == 1, (
        f"{name} {where}: {rec.summary()}")
    assert rec.respawns and rec.cycles_replayed, rec.summary()


def test_worker_hang_heals(tmp_path):
    """A hang differs from a kill only in its detection, which costs a
    reply deadline: fig7 alone."""
    fault = ShardFault(shard=3, cycle=30, kind="hang")
    runner, rec = _healed_run("fig7", tmp_path, 4, fault, deadline=0.5)
    check(event("fig7", plan="empty"), runner, runner.stats(), "fig7",
          f"{fault}, K=4")
    assert rec.detections == rec.hangs == 1 and rec.respawns, rec.summary()


@pytest.mark.parametrize("name", EVERY)
def test_interpreter_is_the_root(name):
    """The event machine's values equal the Val interpreter's, under
    the default config and a skewed one; the companion scheme
    reassociates, so its recurrences match to 1e-7.  Timing never
    moves a bit: both configs compute the unit-time run's values."""
    cp, inputs = program(name)
    source, params, opts = program_source(name)
    ref = reference_outputs(source, cp, inputs, params)
    tol = 1e-7 if opts.get("foriter_scheme") == "companion" else 1e-9
    for config in ("default", "skewed"):
        outputs = event(name, config)["outputs"]
        assert outputs == event(name)["outputs"], (
            f"{name} [{config}]{recipe(name)}")
        try:
            assert_outputs_match(
                {s: ValArray(lo, tuple(outputs[s]))
                 for s, (lo, _hi) in cp.output_specs.items()},
                ref, tol=tol,
            )
        except AssertionError as exc:
            pytest.fail(f"{name} interpreter [{config}]: {exc}"
                        f"{recipe(name)}")


@pytest.mark.parametrize("name", EVERY)
def test_graph_validates_and_balances(name):
    """The compiled graph is well formed and every path is balanced."""
    graph, _ = program_graph(name)
    validate(graph)
    assert verify_balanced(graph), f"{name}{recipe(name)}"


@pytest.mark.parametrize("name", EVERY)
def test_asm_round_trip(name):
    """A graph revived from its dfasm text runs exactly as the
    original."""
    graph, streams = program_graph(name)
    machine = Machine(from_asm(to_asm(graph)), CONFIGS["unit_time"],
                      inputs=streams)
    check(event(name), machine, machine.run(), name, "from_asm(to_asm)")


#: ROADMAP item 9: a gated window's FIFO is sized by the discarded
#: prefix, not per element, so these programs miss II = 2
ITEM9 = {
    "fig6": "ROADMAP item 9: reads 2.333 at m = 12 and 2.067 at m = 60",
    "forall10": "ROADMAP item 9: `if i < m / 2 then 1. else B[i-1]` "
                "reads 6.0 and 30.0 at m = 12 and 60; its bal5 FIFO is "
                "57 deep at m = 60 and 117 deep at m = 120",
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=ITEM9[name]))
    if name in ITEM9 else name
    for name in EVERY
])
def test_theorem_interval(name):
    """Theorems 1-4: the unit-time machine issues every output stream
    at II = 2, and a Todd loop at II = 3 (its cycle holds three
    cells)."""
    want = 3.0 if name == "fig7" or name.startswith("todd") else 2.0
    got = {s: steady_interval(times)
           for s, times in event(name)["sink_times"].items()}
    assert set(got.values()) == {want}, f"{name}: {got}{recipe(name)}"


@pytest.mark.parametrize("name", EVERY)
def test_sync_is_the_unit_time_machine_shifted(name):
    """The unit-delay simulator computes the same values, and every
    sink time is the unit-time machine's minus one constant."""
    graph, streams = program_graph(name)
    ref = event(name)
    res = repro.run(graph, streams, backend="sync")
    assert res.outputs == ref["outputs"], f"{name}{recipe(name)}"
    offsets = {
        t_machine - t_sync
        for s, times in ref["sink_times"].items()
        for t_machine, t_sync in zip(times, res.sink_times[s], strict=True)
    }
    assert len(offsets) == 1, (
        f"{name}: sync offsets {sorted(offsets)}{recipe(name)}")
