"""The compiled backend's stream evaluator on its own.

``StreamEvaluator`` supplies the values of every element a compiled run
fast-forwards over, so its contract is bit-identity with the event
machine: same sink values, same number of firings, whatever the graph's
shape -- one batch visit per acyclic cell, one fused scalar loop per
cyclic component -- and a typed ``ScheduleError`` whenever it cannot
deliver that.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.scc import strongly_connected
from repro.backends.compiled import _values_equal  # NaN = NaN
from repro.compiler import (
    ArraySpec,
    balance_graph,
    compile_foriter_interleaved,
    compile_program,
)
from repro.compiler.schedule import ScheduleError, StreamEvaluator
from repro.graph import DataflowGraph, Op
from repro.graph.opcodes import (
    MERGE_CONTROL_PORT,
    MERGE_FALSE_PORT,
    MERGE_TRUE_PORT,
)
from repro.machine.machine import Machine
from repro.val import parse_program
from repro.workloads import SOURCES, figure_workload
from tests.integration.test_property_based import (
    forall_programs,
    recurrence_programs,
)
from tests.util import random_inputs


def _assert_matches_event(graph, streams):
    """The evaluator against a full event-machine run of the same
    lowered graph: every sink stream and the firing count."""
    machine = Machine(graph, inputs=streams)
    stats = machine.run()
    evaluator = StreamEvaluator(machine.graph, machine.inputs)
    values = evaluator.run()
    assert set(values) == set(machine.sink_values)
    for cid, want in machine.sink_values.items():
        assert _values_equal(values[cid], want), f"sink cell {cid}"
    assert evaluator.firings == sum(stats.fire_counts.values())
    return evaluator


def _interleaved(batch, m=12, seed=3):
    node = parse_program(SOURCES["example2"]).blocks[0].expr
    art = compile_foriter_interleaved(
        "X", node,
        {"A": ArraySpec("A", 1, m), "B": ArraySpec("B", 1, m)},
        {"m": m}, batch=batch,
    )
    balance_graph(art.graph)
    rng = random.Random(seed)
    streams = {
        name: [rng.uniform(-1.0, 1.0) for _ in range(m * batch)]
        for name in ("A", "B")
    }
    return art.graph, streams


def _compiled(name, scheme, m=24, seed=0):
    cp = compile_program(
        SOURCES[name], params={"m": m}, foriter_scheme=scheme
    )
    inputs = random_inputs(
        cp, random.Random(seed), bool_arrays=frozenset({"C"}), span=1.0
    )
    return cp.graph, cp.prepare_inputs(inputs)


class TestDifferentialAgainstEvent:
    @pytest.mark.parametrize("scheme", ["todd", "companion"])
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_every_canonical_source(self, name, scheme):
        _assert_matches_event(*_compiled(name, scheme))

    @pytest.mark.parametrize("batch", [2, 8])
    def test_interleaved_loop(self, batch):
        _assert_matches_event(*_interleaved(batch))

    def test_fig7_at_benchmark_size(self):
        wl = figure_workload("fig7")
        cp = wl.compile(m=10_000)
        streams = cp.prepare_inputs(wl.make_inputs(cp, seed=2))
        evaluator = _assert_matches_event(cp.graph, streams)
        assert evaluator.firings == 80_004

    @given(forall_programs(), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_forall(self, prog, seed):
        src, m = prog
        cp = compile_program(src, params={"m": m})
        inputs = random_inputs(cp, random.Random(seed), span=1.0)
        _assert_matches_event(cp.graph, cp.prepare_inputs(inputs))

    @given(recurrence_programs(), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_recurrences(self, prog, seed):
        src, m = prog
        for scheme in ("todd", "companion"):
            cp = compile_program(
                src, params={"m": m}, foriter_scheme=scheme
            )
            inputs = random_inputs(cp, random.Random(seed), span=1.0)
            _assert_matches_event(cp.graph, cp.prepare_inputs(inputs))


class TestMemberOrderIsFree:
    """Kahn determinism inside a component: the order in which the
    fused loop tries its members changes how many passes it takes,
    never a value."""

    @pytest.mark.parametrize("make", [
        lambda: _compiled("example2", "todd"),
        lambda: _interleaved(8),
    ], ids=["todd", "interleaved8"])
    def test_every_rotation_and_reversed(self, make, monkeypatch):
        graph, streams = make()
        lowered = Machine(graph, inputs=streams).graph
        reference = StreamEvaluator(lowered, streams)
        want = reference.run()

        succ = {
            cid: [a.dst for a in lowered.out_arcs[cid]]
            for cid in lowered.cells
        }
        (loop,) = [
            c for c in strongly_connected(lowered.cells, succ)
            if len(c) > 1
        ]
        orders = [loop[k:] + loop[:k] for k in range(len(loop))]
        orders.append(loop[::-1])
        run_loop = StreamEvaluator._run_loop
        for order in orders:
            def reordered(self, members, order=order):
                assert sorted(members) == sorted(order)
                run_loop(self, order)

            monkeypatch.setattr(StreamEvaluator, "_run_loop", reordered)
            evaluator = StreamEvaluator(lowered, streams)
            got = evaluator.run()
            assert all(_values_equal(got[cid], want[cid]) for cid in want)
            assert evaluator.firings == reference.firings


def _loop_graph(op, const=None):
    """``src -> MERGE(true arm) -> op -> MERGE(false arm)`` with the
    MERGE also feeding a sink: a two-cell cycle around ``op``."""
    g = DataflowGraph("loop")
    src = g.add_source("src", stream="x")
    ctl = g.add_source("ctl", stream="c")
    merge = g.add_merge(name="merge")
    body = g.add_cell(op, name="body")
    sink = g.add_sink("out", stream="y")
    g.connect(ctl, merge, MERGE_CONTROL_PORT)
    g.connect(src, merge, MERGE_TRUE_PORT)
    g.connect(body, merge, MERGE_FALSE_PORT)
    g.connect(merge, body, 0)
    if const is not None:
        g.set_const(body, 1, const)
    g.connect(merge, sink, 0)
    return g, body


class TestFailurePathsInsideAComponent:
    def test_endless_recirculation_exhausts_the_budget(self):
        # two IDs in a ring, seeded through an initial token
        g = DataflowGraph("spin")
        a = g.add_cell(Op.ID, name="a")
        b = g.add_cell(Op.ID, name="b")
        sink = g.add_sink("out", stream="y")
        g.connect(a, b, 0)
        g.connect(b, a, 0, initial=1.0)
        g.connect(b, sink, 0)
        with pytest.raises(ScheduleError, match="firing budget"):
            StreamEvaluator(g, {}).run()

    def test_zero_divisor_is_a_schedule_error(self):
        g, _body = _loop_graph(Op.DIV, const=0.0)
        streams = {"x": [1.0, 2.0], "c": [True, False, True]}
        with pytest.raises(ScheduleError, match="division by zero"):
            StreamEvaluator(g, streams).run()

    def test_member_with_only_constant_operands(self):
        # constant True control selecting a constant arm: the MERGE is
        # on the cycle through its other arm, yet nothing streamed
        # bounds how often it fires
        g = DataflowGraph("consts")
        merge = g.add_merge(name="merge")
        body = g.add_cell(Op.ID, name="body")
        sink = g.add_sink("out", stream="y")
        g.set_const(merge, MERGE_CONTROL_PORT, True)
        g.set_const(merge, MERGE_TRUE_PORT, 1.0)
        g.connect(body, merge, MERGE_FALSE_PORT)
        g.connect(merge, body, 0)
        g.connect(merge, sink, 0)
        with pytest.raises(ScheduleError, match="only constant operands"):
            StreamEvaluator(g, {}).run()

    def test_member_with_an_unconnected_port_never_fires(self):
        # body is an ADD whose second port is left open: the first
        # token through the MERGE parks on its arc for good
        g, body = _loop_graph(Op.ADD)
        streams = {"x": [1.0, 2.0], "c": [True, True]}
        evaluator = StreamEvaluator(g, streams)
        values = evaluator.run()
        (out,) = values.values()
        assert out == [1.0, 2.0]
        # the two tokens the loop left unconsumed stay on their arc
        aid = g.in_arc[(body, 0)].aid
        assert evaluator._buf[aid][evaluator._head[aid]:] == [1.0, 2.0]


class TestAcyclicCellsAreVisitedOnce:
    def test_fig6_one_batch_visit_per_cell(self, monkeypatch):
        wl = figure_workload("fig6")
        cp = wl.compile(m=200)
        streams = cp.prepare_inputs(wl.make_inputs(cp, seed=1))
        lowered = Machine(cp.graph, inputs=streams).graph
        visits: list[int] = []
        fire_batch = StreamEvaluator._fire_batch

        def counting(self, cell):
            visits.append(cell.cid)
            return fire_batch(self, cell)

        monkeypatch.setattr(StreamEvaluator, "_fire_batch", counting)
        StreamEvaluator(lowered, streams).run()
        assert sorted(visits) == sorted(lowered.cells)
