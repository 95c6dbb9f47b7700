"""Random workload generators for benchmarks and fuzz tests.

Generation is deterministic given the ``random.Random`` instance, so
benchmarks are reproducible.
"""

from __future__ import annotations

import random
from typing import Optional

from ..graph.graph import DataflowGraph
from ..graph.opcodes import Op

_BIN_CHOICES = ["+", "-", "*"]
_LIT_CHOICES = ["1.", "2.", "0.5", "0.25", "3."]


def random_pe_source(
    rng: random.Random,
    depth: int = 3,
    arrays: tuple[str, ...] = ("A", "B"),
    offsets: tuple[int, ...] = (-1, 0, 1),
    allow_conditionals: bool = True,
) -> str:
    """A random primitive expression on ``i`` as Val source text."""

    def leaf() -> str:
        r = rng.random()
        if r < 0.4:
            name = rng.choice(arrays)
            off = rng.choice(offsets)
            if off == 0:
                return f"{name}[i]"
            return f"{name}[i{'+' if off > 0 else '-'}{abs(off)}]"
        if r < 0.7:
            return rng.choice(_LIT_CHOICES)
        return "(i * 0.5)"

    def expr(d: int) -> str:
        if d == 0:
            return leaf()
        r = rng.random()
        if allow_conditionals and r < 0.15:
            return (
                f"(if i < m / 2 then {expr(d - 1)} else {expr(d - 1)} endif)"
            )
        if allow_conditionals and r < 0.25:
            return (
                f"(if {rng.choice(arrays)}[i] > 0. then {expr(d - 1)} "
                f"else {expr(d - 1)} endif)"
            )
        if r < 0.35:
            return f"(let v : real := {expr(d - 1)} in (v + {leaf()}) endlet)"
        op = rng.choice(_BIN_CHOICES)
        return f"({expr(d - 1)} {op} {expr(d - 1)})"

    return expr(depth)


def random_forall_program(
    rng: random.Random,
    depth: int = 3,
    name: str = "Y",
    lo: str = "1",
    hi: str = "m",
) -> str:
    body = random_pe_source(rng, depth=depth)
    while "[" not in body:
        # no array access folds to a compile-time pattern: a source
        # and a sink, with no arithmetic cell to exercise
        body = random_pe_source(rng, depth=depth)
    return (
        f"{name} : array[real] := forall i in [{lo}, {hi}] "
        f"construct {body} endall"
    )


def random_pipe_program(
    rng: random.Random,
    n_blocks: int = 4,
    depth: int = 2,
    include_recurrence: bool = True,
) -> str:
    """A random pipe-structured program: a chain/diamond of forall
    blocks over one external input, optionally ending in a simple
    for-iter block (Theorem 4 shape)."""
    blocks = []
    produced = ["U0"]
    for k in range(n_blocks - (1 if include_recurrence else 0)):
        name = f"Bk{k}"
        feeds = rng.sample(produced, k=min(len(produced), 2))
        arrays = tuple(feeds)
        body = random_pe_source(
            rng,
            depth=depth,
            arrays=arrays,
            offsets=(0,),
            allow_conditionals=False,
        )
        blocks.append(
            f"{name} : array[real] := forall i in [1, m] construct "
            f"{body} endall"
        )
        produced.append(name)
    if include_recurrence:
        src = produced[-1]
        blocks.append(
            f"""XR : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.] do
    if i < m then
      iter T := T[i: 0.5 * T[i-1] + {src}[i]]; i := i + 1 enditer
    else T[i: 0.5 * T[i-1] + {src}[i]]
    endif
  endfor"""
        )
    return ";\n".join(blocks)


def random_layered_graph(
    rng: random.Random,
    n_layers: int = 5,
    width: int = 4,
    skip_prob: float = 0.3,
) -> DataflowGraph:
    """A random layered instruction DAG (for balancing benchmarks):
    unit-weight cells with occasional layer-skipping arcs that create
    path imbalance."""
    g = DataflowGraph("random_dag")
    src = g.add_source("src", stream="x")
    fan = g.add_cell(Op.ID, name="fan")
    g.connect(src, fan, 0)
    prev_layer = [fan]
    all_layers = [prev_layer]
    for li in range(n_layers):
        layer = []
        for k in range(width):
            upstream = rng.choice(prev_layer)
            skip: Optional[int] = None
            if li >= 2 and rng.random() < skip_prob:
                skip_layer = all_layers[rng.randrange(0, li)]
                skip = rng.choice(skip_layer)
            if skip is not None and skip != upstream:
                cell = g.add_cell(Op.ADD, name=f"n{li}_{k}")
                g.connect(upstream, cell, 0)
                g.connect(skip, cell, 1)
            else:
                cell = g.add_cell(Op.ID, name=f"n{li}_{k}")
                g.connect(upstream, cell, 0)
            layer.append(cell)
        prev_layer = layer
        all_layers.append(layer)
    # join the last layer (and any dangling cells) into one sink stream
    dangling = [
        cid for cid in g.cells
        if not g.out_arcs[cid] and g.cells[cid].op is not Op.SINK
    ]
    acc = dangling[0]
    for cid in dangling[1:]:
        j = g.add_cell(Op.ADD, name=f"join{cid}")
        g.connect(acc, j, 0)
        g.connect(cid, j, 1)
        acc = j
    sink = g.add_sink("out", stream="y")
    g.connect(acc, sink, 0)
    return g


def random_recurrence_program(
    rng: random.Random,
    coeff_depth: int = 1,
) -> str:
    """A random *simple* for-iter (affine recurrence with PE
    coefficients)."""
    coeff = random_pe_source(
        rng, depth=coeff_depth, arrays=("A",), offsets=(0,),
        allow_conditionals=False,
    )
    offset = random_pe_source(
        rng, depth=coeff_depth, arrays=("B",), offsets=(0,),
        allow_conditionals=False,
    )
    element = f"(0.25 * ({coeff})) * T[i-1] + ({offset})"
    return f"""X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.] do
    if i < m then
      iter T := T[i: {element}]; i := i + 1 enditer
    else T[i: {element}]
    endif
  endfor"""


def parallel_chain_graph(
    n_chains: int = 250,
    depth: int = 40,
    m: int = 4,
) -> DataflowGraph:
    """Many independent source -> ID-chain -> sink pipelines.

    The scaling workload for the sharded backend: with ``n_chains``
    disjoint components the partitioner cuts zero arcs, every shard
    runs its chains with no cross-shard traffic, and adaptive lockstep
    windows collapse the whole run into a handful of barriers -- so
    measured speedup reflects the event loops, not coordination.  The
    defaults build ``n_chains * (depth + 2)`` = 10500 cells, past the
    10^4-cell mark the ROADMAP's scaling exit criterion names.

    Deterministic by construction (pattern sources carry their own
    values), so repeated runs are bit-identical.
    """
    g = DataflowGraph("parallel_chains")
    for c in range(n_chains):
        values = [float((c * 31 + i * 7) % 97) * 0.5 for i in range(m)]
        prev = g.add_pattern_source(f"src{c}", values)
        for d in range(depth):
            cell = g.add_cell(Op.ID, name=f"c{c}_{d}")
            g.connect(prev, cell, 0)
            prev = cell
        sink = g.add_sink(f"out{c}", stream=f"y{c}", limit=m)
        g.connect(prev, sink, 0)
    return g
