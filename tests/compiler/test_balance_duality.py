"""Section 8 conclusion (3), made literal: optimal balancing solved as
the dual of a min-cost flow gives the true minimum buffering, and its
tie rule -- the pointwise-earliest optimal levels -- holds.

The witness is an exhaustive search over integer levels on small
random DAGs, independent of any solver."""

import functools
import random

import pytest

from repro.analysis.paths import default_arc_weight
from repro.compiler import compile_program
from repro.compiler.balance import balance_graph, compute_levels
from repro.workloads import SOURCES, random_layered_graph


def every_optimum(g, budget):
    """All integer level vectors of ``g`` with every arc feasible
    (``level[dst] - level[src] >= w``), the lowest level 0 and total
    slack at most ``budget``, by depth-first search in topological
    order: a cell's in-arcs are all decided when its level is chosen, so
    the slack spent so far only grows and bounds the search.

    ``random_layered_graph`` has one cell without in-arcs (its source)
    and every other cell descends from it, so the source holds the
    lowest level, 0, in every such vector; every other cell lies in
    ``[lb, lb + budget]`` with ``lb`` its tightest feasible level."""
    w = default_arc_weight(g)
    order = g.topo_order()
    roots = [cid for cid in order if not g.in_arcs_of(cid)]
    assert len(roots) == 1
    found, levels = [], {}

    def search(k, spent):
        if k == len(order):
            found.append((spent, dict(levels)))
            return
        cid = order[k]
        ins = g.in_arcs_of(cid)
        lb = max((levels[a.src] + w(a) for a in ins), default=0)
        top = lb + budget - spent if ins else 0
        for level in range(lb, top + 1):
            cost = sum(level - levels[a.src] - w(a) for a in ins)
            if spent + cost <= budget:
                levels[cid] = level
                search(k + 1, spent + cost)
        levels.pop(cid, None)

    search(0, 0)
    return found


def total_slack(g, levels):
    w = default_arc_weight(g)
    return sum(levels[a.dst] - levels[a.src] - w(a) for a in g.arcs.values())


@functools.cache
def witness(seed):
    """(graph, solver levels, their total slack, every optimum)."""
    g = random_layered_graph(random.Random(seed), n_layers=4, width=3)
    levels = compute_levels(g, "optimal")
    best = total_slack(g, levels)
    # everything at or below the solver's total: a cheaper vector
    # would be found here, and so is every optimum
    found = every_optimum(g, best)
    assert min(spent for spent, _ in found) == best
    return g, levels, best, [lv for spent, lv in found if spent == best]


class TestExhaustiveWitness:
    @pytest.mark.parametrize("seed", range(12))
    def test_solver_is_the_earliest_true_optimum(self, seed):
        g, levels, _best, optima = witness(seed)
        assert levels in optima
        assert all(
            all(lv[cid] >= levels[cid] for cid in g.cells) for lv in optima
        )

    def test_the_witness_sees_ties(self):
        """The seeds above are not all trivial: some have slack and
        more than one optimum, so the earliest rule is exercised."""
        ties = sum(
            best > 0 and len(optima) > 1
            for _g, _lv, best, optima in map(witness, range(12))
        )
        assert ties >= 3


class TestCanonicalTotals:
    @pytest.mark.parametrize("name,stages", [
        ("example1", 9), ("fig3", 12), ("fig4", 3), ("fig5", 5), ("fig2", 0),
    ])
    def test_canonical_graphs(self, name, stages):
        cp = compile_program(SOURCES[name], params={"m": 9}, balance="none")
        assert balance_graph(cp.graph, method="optimal").inserted_stages == (
            stages
        )

    def test_feedback_arcs_excluded(self):
        cp = compile_program(
            SOURCES["example2"], params={"m": 8},
            foriter_scheme="todd", balance="none",
        )
        # must not raise despite the loop (loop arcs are skipped)
        assert balance_graph(cp.graph, method="optimal").inserted_stages == 0

    def test_graph_without_arcs(self):
        from repro.graph import DataflowGraph

        g = DataflowGraph()
        g.add_source("s", stream="x")
        assert balance_graph(g, method="optimal").inserted_stages == 0
