"""A golden step schedule for the synchronous stepper, pinned by digest.

The rest of tier-1 compares the stepper with the event machine or with
itself inside one commit, and ``benchmarks/e2e/expected.json`` does
not pin ``sim.steps``, so a change that re-times every run
*consistently* would pass it.  These rows were recorded once, at the
commit before the stepper linked its firing plans at construction, and
must hold on every later one: step count, firing count, the SHA-256 of
the per-step trace (fired cell ids, one list per step), of the sink
arrival times and of the final state (per-cell firing counts and arc
values), and how the run ends: ``"ok"`` or the type of its error.

Inputs: the five paper figures at m = 40 with their compile options,
the interleaved Example-2 pipeline ``repro serve`` runs a batch on
(m = 64, batch 2 and 8), and one hand-built graph per failure path.
"""

import hashlib
import json
import random

import pytest

from repro.compiler.foriter import interleave
from repro.errors import ReproError
from repro.graph import DataflowGraph, Op
from repro.serve.jobs import compile_batch, compile_serial
from repro.sim import SyncSimulator
from repro.workloads import EXAMPLE2_SOURCE, FIGURES


def _figure(name: str):
    cp = FIGURES[name].compile(m=40)
    inputs = FIGURES[name].make_inputs(cp, seed=5)
    return cp.graph, cp.prepare_inputs(inputs), 1_000_000


def _batch(size: int):
    params = {"m": 64}
    art, _ = compile_batch(EXAMPLE2_SOURCE, params, batch=size)
    specs = compile_serial(EXAMPLE2_SOURCE, params).input_specs
    rng = random.Random(size)
    jobs = [
        {name: [rng.uniform(-1.0, 1.0) for _ in range(spec.length)]
         for name, spec in specs.items()}
        for _ in range(size)
    ]
    inputs = {name: interleave([job[name] for job in jobs]) for name in specs}
    return art.graph, inputs, 1_000_000


def _div_zero():
    """A zero divisor in mid-stream: the fourth firing of the DIV."""
    g = DataflowGraph("div_zero")
    a = g.add_source("a", stream="a")
    div = g.add_cell(Op.DIV, name="div", consts={0: 1.0})
    sink = g.add_sink("out", stream="y")
    g.connect(a, div, 1)
    g.connect(div, sink, 0)
    return g, {"a": [1.0, 2.0, 4.0, 0.0, 8.0]}, 1_000_000


def _jam():
    """A join starved on one side, through a FIFO: two tokens short."""
    g = DataflowGraph("jam")
    a = g.add_source("a", stream="a")
    b = g.add_source("b", stream="b")
    fifo = g.add_fifo(3)
    add = g.add_cell(Op.ADD, name="add")
    sink = g.add_sink("out", stream="y", limit=5)
    g.connect(a, fifo, 0)
    g.connect(fifo, add, 0)
    g.connect(b, add, 1)
    g.connect(add, sink, 0)
    return g, {"a": [1, 2, 3], "b": [1, 2, 3, 4, 5]}, 1_000_000


def _budget():
    """A loop that never quiesces: a token circling a FIFO and a gate."""
    g = DataflowGraph("budget")
    a = g.add_cell(Op.ID, name="a")
    fifo = g.add_fifo(4)
    g.connect(a, fifo, 0, initial=0)
    g.connect(fifo, a, 0)
    return g, {}, 100


BUILDERS = {
    "fig2": lambda: _figure("fig2"),
    "fig4": lambda: _figure("fig4"),
    "fig5": lambda: _figure("fig5"),
    "fig6": lambda: _figure("fig6"),
    "fig7": lambda: _figure("fig7"),
    "example2-batch2": lambda: _batch(2),
    "example2-batch8": lambda: _batch(8),
    "div-zero": _div_zero,
    "jam": _jam,
    "budget": _budget,
}


def _sha(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def observe(name: str) -> tuple:
    """``(steps, total_firings, trace sha, sink-times sha, state sha,
    end)`` of one run; ``end`` is ``"ok"`` or the error's type name."""
    graph, inputs, budget = BUILDERS[name]()
    sim = SyncSimulator(graph, inputs, record_trace=True)
    try:
        sim.run(max_steps=budget)
        end = "ok"
    except ReproError as exc:
        end = type(exc).__name__
    times = {rec.stream: rec.times for rec in sim.sink_records.values()}
    state = [sorted(sim.stats.fire_counts.items()),
             [[aid, repr(v)] for aid, v in sorted(sim.arc_value.items())]]
    return (
        sim.stats.steps, sim.stats.total_firings,
        _sha(sim.trace), _sha(times), _sha(state), end,
    )


# (name, steps, firings, trace sha-256, sink-times sha-256, state sha-256,
#  end)
GOLDEN = [
    ('fig2', 84, 280,
     '67ca91db3709398ddf28bfdc6c6dfde6ca78286201b6e4ad2385518cef794371',
     '073f02e4714e2e800a979db8cfa419dccd85145dda0fb6cf08668cd4dbc3299a',
     '1539a8e61ebff79af70adeaeba5d5e2f76a6ac54458c81d632e85aee959d0362',
     'ok'),
    ('fig4', 88, 575,
     'ad8700c75fc456c0225c9db3ab3246e52815bca33519cbe7a6896285eee4054a',
     '40098c9cb1177e15ca74bf88394fc35a542d9c50fb8cd9bc3a7f2c1a93b076c7',
     'caee0499b449c17a1956ffd567fbbd8963cbae71f7b3dc0c7ceb270b3962def7',
     'ok'),
    ('fig5', 86, 482,
     'b34c6c21fa77b492cee06a83ab2833736d4954d9c7096c99bd43bdc3952961f6',
     '3881f7e7878ba927498236192e17f4a1112ecd0a7148a96d51d51424e15c09aa',
     '330c68a8897c40ced1a0409524b2f1ce035c13330a99970a80f6551c876f27d5',
     'ok'),
    ('fig6', 97, 884,
     '373361ff798230776e7eb49faced702825db1a40b2d45c8b330f4502ba90a5fa',
     'a0296727c729f4ad402218311fe79b3a322a251a5b0ab1c9fe2e846f2b20d890',
     'd821c164c4bca8f75f83f720289350bc3503c2e9aa5bb6ccfc70572de84b107c',
     'ok'),
    ('fig7', 124, 324,
     '090e8e00592dd1d21a9d6f92130554abbab7f29713e201aa08e47a3b5d88e5c9',
     'e949c8db8e1083a511097d6d438ee6d440ec21bb1085a72ab776ecff7ba7e681',
     '7343008a6d7242505bd26210fbc2b43b32ac5fdc90a3a37a1b46a70e66366567',
     'ok'),
    ('example2-batch2', 262, 1162,
     '692c331347e5fd2887fc918da50a643ebbdeaa6d3fb7c2e127d37c9140771714',
     '53976cb45d6e13b028df9975d6aa8d42bf2dee66a26357313e3eb632f89cf672',
     '1904b183627389c68b9b96b082d1ae5e14569c15940f0817856b388060654eac',
     'ok'),
    ('example2-batch8', 1054, 5698,
     '29f4f928a41405037bcbb96d1b628e76e2c506672a4d7c6abcaafb46a201f8e8',
     '1380cb8e19e5b6dc923a7ee7be13ece13584df65b06a1be4d9cb9524b9e7f798',
     'dc24129cf389bf9c2d648102bc183a912427aacb5cd9bc59acff0a628a5d71ee',
     'ok'),
    ('div-zero', 7, 10,
     'ba075fb8d62d1f9932728dbe7ca4748fe02664b4106433dc2502ae359b5f5b37',
     '036d175a0f1c58bb9b4d6a0cabb1c8472bfa55d593fbb7160381fa8a6f9df937',
     'c6a603c33b72763a2ade21b5de37e8d7115ff542fd7d96d848c9dbac5f8fb91d',
     'SimulationError'),
    ('jam', 11, 20,
     'cb41cd2572ade97e42c94454b29743c9a2e5488d8348fdba919daf724eb959f9',
     '8d5d55f505b42ca36d0a45a92bd84eab6a880520b67f448ae9ebbb1efa186377',
     '8fc7e70fd4cb23c02985e73a2ea8095d97c3464565f37ce61f87e7fcba6a327d',
     'DeadlockError'),
    ('budget', 100, 100,
     '34fcc7268711f9c7c7649e99dfe5b8233020834aa867f0982bfb776f37dcbc99',
     '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a',
     '038bf34ee965ebf5436587b0c1cd74938898996b6b4e30c9a325a3ed05d7a020',
     'SimulationTimeout'),
]


@pytest.mark.parametrize("row", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_step_schedule_is_pinned(row):
    assert (row[0], *observe(row[0])) == row


def test_division_by_zero_names_the_cell_and_step():
    graph, inputs, _ = _div_zero()
    with pytest.raises(ReproError) as exc:
        SyncSimulator(graph, inputs).run()
    assert str(exc.value) == "division by zero in cell div at step 7"


def test_the_rows_cover_every_input_and_failure_path():
    assert [row[0] for row in GOLDEN] == list(BUILDERS)
    ends = [row[-1] for row in GOLDEN]
    assert ends.count("ok") == 7
    assert {"SimulationError", "DeadlockError", "SimulationTimeout"} <= set(ends)


if __name__ == "__main__":  # prints the rows for GOLDEN
    for name in BUILDERS:
        steps, firings, *shas, end = observe(name)
        print(f"    ({name!r}, {steps}, {firings},")
        for sha in shas:
            print(f"     {sha!r},")
        print(f"     {end!r}),")
