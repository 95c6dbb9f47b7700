"""Experiment balance -- Section 8's balancing conclusions (1)-(3).

On random layered instruction DAGs:

1. the naive longest-path balancing (polynomial) restores full rate but
   inserts the most buffering;
2. the slack-reduction heuristic removes much of it;
3. the optimal method (the LP dual of min-cost flow) inserts the least
   -- and all three yield a fully pipelined graph.

The optimal LP also handles a graph of a few hundred cells.
"""

import random

import pytest

import repro
from repro.analysis import is_fully_pipelined
from repro.compiler import balance_graph
from repro.workloads import random_layered_graph

from _common import record_claim

METHODS = ["naive", "reduce", "optimal"]


def _balanced(seed: int, method: str, n_layers=6, width=5):
    g = random_layered_graph(random.Random(seed), n_layers=n_layers,
                             width=width)
    return g, balance_graph(g, method=method).inserted_stages


def test_balance():
    stages, iis, pipelined = [], [], True
    for method in METHODS:
        total = 0
        for seed in range(5):
            g, inserted = _balanced(seed, method)
            total += inserted
            pipelined = pipelined and is_fully_pipelined(g)
        stages.append(total)
        g, _ = _balanced(7, method)
        res = repro.run(g, {"x": [1.0] * 120}, backend="sync")
        iis.append(res.initiation_interval())
    big, big_stages = _balanced(42, "optimal", n_layers=20, width=12)
    naive, reduce, optimal = stages
    record_claim(
        "balance",
        "§8 conclusions 1–3: polynomial balancing exists; buffering "
        "reducible; optimum = LP dual of min-cost flow (5 random DAGs, "
        "plus one 20×12 DAG for the optimal LP)",
        "optimal ≤ reduced ≤ naive",
        {"naive/reduce/optimal buffer stages": stages,
         "their II": iis, "20×12 DAG cells": len(big),
         "its optimal buffer stages": big_stages},
        optimal <= reduce <= naive and optimal < naive
        and pipelined and is_fully_pipelined(big)
        and all(ii == pytest.approx(2.0, abs=0.05) for ii in iis),
    )
