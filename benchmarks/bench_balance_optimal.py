"""Experiment balance -- Section 8's balancing conclusions (1)-(3).

On random layered instruction DAGs:

1. the naive longest-path balancing (polynomial) restores full rate but
   inserts the most buffering;
2. the slack-reduction heuristic removes much of it;
3. the optimal method (the LP dual of min-cost flow) inserts the least
   -- and all three yield a fully pipelined graph.
"""

import random

import pytest

import repro
from repro.analysis import is_fully_pipelined
from repro.compiler import balance_graph
from repro.workloads import random_layered_graph

from _common import bench_once, extra, record_rows


def _measure(method: str, seeds=(0, 1, 2, 3, 4), n_layers=6, width=5):
    total = 0
    for seed in seeds:
        g = random_layered_graph(
            random.Random(seed), n_layers=n_layers, width=width
        )
        res = balance_graph(g, method=method)
        total += res.inserted_stages
        assert is_fully_pipelined(g), f"{method} failed to balance seed {seed}"
    return total


@pytest.mark.benchmark(group="balance")
@pytest.mark.parametrize("method", ["naive", "reduce", "optimal"])
def test_balance_method_cost(benchmark, method):
    total = bench_once(benchmark, _measure, method)
    extra(benchmark, buffer_stages=total)


@pytest.mark.benchmark(group="balance")
def test_balance_cost_ordering_and_rate(benchmark):
    def all_methods():
        return {m: _measure(m) for m in ("naive", "reduce", "optimal")}

    costs = bench_once(benchmark, all_methods, rounds=1)
    assert costs["optimal"] <= costs["reduce"] <= costs["naive"]
    assert costs["optimal"] < costs["naive"]

    # all methods reach II == 2 on a sample graph
    iis = {}
    for method in costs:
        g = random_layered_graph(random.Random(7), n_layers=6, width=5)
        balance_graph(g, method=method)
        res = repro.run(g, {"x": [1.0] * 120}, backend="sync")
        iis[method] = res.initiation_interval()
        assert iis[method] == pytest.approx(2.0, abs=0.05)

    record_rows(
        "balance",
        "method  total buffer stages (5 random DAGs)  II",
        [
            (m, costs[m], round(iis[m], 3))
            for m in ("naive", "reduce", "optimal")
        ],
        note="Sec. 8: optimal balancing = LP dual of min-cost flow; "
        "polynomial time, minimum buffers",
    )


@pytest.mark.benchmark(group="balance")
def test_balance_scales_polynomially(benchmark):
    """The optimal LP handles graphs of a few hundred cells quickly."""

    def big():
        g = random_layered_graph(random.Random(42), n_layers=20, width=12)
        return balance_graph(g, method="optimal"), g

    res, g = bench_once(benchmark, big)
    extra(benchmark, cells=len(g), buffer_stages=res.inserted_stages)
    assert is_fully_pipelined(g)
