"""Partition a machine-level instruction graph into K shards.

The sharded runner (:mod:`repro.machine.sharded`) executes each shard's
event loop in its own worker and routes every cross-shard arc as
packets, so the partitioner's job is to keep the cut *traffic* -- the
steady-state packet rate over arcs whose endpoints land on different
shards -- small while keeping the shards roughly the same size.

Arcs are weighted by a static packet-rate estimate from the compiled
graph: an arc fed by a ``CONST`` cell or a one-shot source carries one
setup packet for the whole run, while an arc on a streaming path
carries a packet per wavefront.  The balance/cut dynamic program then
minimizes the *weighted* cut, so a boundary through setup arcs beats
an equally-balanced boundary through the steady-state stream.

Schemes (``auto`` tries them in this order):

``components``
    When the graph has at least K weakly-connected components, pack
    whole components onto shards (largest-first greedy).  The cut is
    empty -- shards never exchange a packet -- which is the case wide
    embarrassingly-parallel workloads hit.

``levels``
    For acyclic graphs.  Cells are laid out in pipeline order by their
    :func:`~repro.analysis.paths.longest_path_levels` level (ties by
    cell id), and a small dynamic program picks the K-1 split points
    of that linear order that minimize the weighted cut, subject to a
    balance constraint (every shard holds between half and twice the
    ideal ``n/K`` cells).  Cutting between pipeline stages is exactly
    the min-cut a pipelined graph wants.

``scc``
    For cyclic graphs (e.g. the Todd for-iter scheme of fig7, whose
    feedback arcs defeat a topological layout): strongly-connected
    components are condensed, topologically ordered, and the same
    weighted split-point DP runs over that linear order -- so every
    feedback cycle stays inside one shard and only feed-forward
    traffic crosses the cut.

``round_robin``
    Degenerate safety net when the DP's balance constraint is
    unsatisfiable: cell ``i`` of the sorted cell-id order goes to
    shard ``i % K``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import ReproError
from ..graph.graph import DataflowGraph, GraphError
from ..graph.opcodes import Op
from .paths import longest_path_levels
from .scc import strongly_connected

_INF = float("inf")

#: estimated packets per run on a steady-state streaming arc, relative
#: to a one-shot setup arc.  The exact magnitude matters little; it
#: only has to dominate the setup weight so the DP prefers cutting
#: setup arcs.
_STREAM_WEIGHT = 8


class PartitionError(ReproError):
    """Raised on unsatisfiable partition requests."""


@dataclass(frozen=True)
class Partition:
    """Assignment of every cell to one of ``k`` shards."""

    k: int
    scheme: str
    owner: dict[int, int]           # cid -> shard index
    cut_arcs: tuple[int, ...]       # aids crossing shard boundaries
    #: estimated steady-state packet rate over the cut (sum of the
    #: crossing arcs' traffic weights)
    cut_weight: float = 0.0

    @property
    def sizes(self) -> list[int]:
        counts = [0] * self.k
        for shard in self.owner.values():
            counts[shard] += 1
        return counts

    def describe(self) -> str:
        return (
            f"Partition(k={self.k}, scheme={self.scheme}, "
            f"sizes={self.sizes}, cut={len(self.cut_arcs)} arcs, "
            f"weight={self.cut_weight:g})"
        )


def arc_weights(graph: DataflowGraph) -> dict[int, int]:
    """Static per-arc packet-rate estimate.

    Arcs out of ``CONST`` cells and one-shot pattern sources carry a
    single setup packet; everything else is assumed to run at the
    steady-state wavefront rate.
    """
    weights: dict[int, int] = {}
    for aid, arc in graph.arcs.items():
        src = graph.cells[arc.src]
        if src.op is Op.CONST:
            weights[aid] = 1
        elif src.op is Op.SOURCE:
            values = src.params.get("values")
            weights[aid] = (
                1 if values is not None and len(values) <= 1
                else _STREAM_WEIGHT
            )
        else:
            weights[aid] = _STREAM_WEIGHT
    return weights


def cut_distances(
    graph: DataflowGraph, owner: dict[int, int]
) -> dict[int, int]:
    """Per-cell hop distance to the nearest shard-boundary cell.

    A boundary cell is an endpoint of any arc whose endpoints live on
    different shards (distance 0); distance counts arc traversals in
    the *undirected* arc graph.  Cells with no path to a boundary are
    omitted (treat as unreachable/infinite): no event there can ever
    influence the cut.  Used by the adaptive lockstep horizon.
    """
    adj: dict[int, list[int]] = {cid: [] for cid in graph.cells}
    boundary: list[int] = []
    for arc in graph.arcs.values():
        adj[arc.src].append(arc.dst)
        adj[arc.dst].append(arc.src)
        if owner[arc.src] != owner[arc.dst]:
            boundary.extend((arc.src, arc.dst))
    dist: dict[int, int] = {}
    queue: deque[int] = deque()
    for cid in boundary:
        if cid not in dist:
            dist[cid] = 0
            queue.append(cid)
    while queue:
        cid = queue.popleft()
        d = dist[cid] + 1
        for nxt in adj[cid]:
            if nxt not in dist:
                dist[nxt] = d
                queue.append(nxt)
    return dist


def partition_graph(
    graph: DataflowGraph, k: int, scheme: str = "auto"
) -> Partition:
    """Assign every cell of ``graph`` to one of ``k`` shards."""
    if k < 1:
        raise PartitionError(f"shard count must be >= 1, got {k}")
    cids = sorted(graph.cells)
    if not cids:
        raise PartitionError("cannot partition an empty graph")
    if k > len(cids):
        raise PartitionError(
            f"cannot split {len(cids)} cells into {k} shards; every "
            f"shard needs at least one cell"
        )
    if scheme not in ("auto", "levels", "round_robin"):
        raise PartitionError(
            f"unknown partition scheme {scheme!r}; expected "
            f"'auto', 'levels' or 'round_robin'"
        )
    if k == 1:
        return _finish(graph, k, "single", {cid: 0 for cid in cids})

    weights = arc_weights(graph)

    if scheme == "auto":
        owner = _components_pack(graph, k, cids)
        if owner is not None:
            return _finish(graph, k, "components", owner, weights)

    if scheme in ("auto", "levels"):
        try:
            levels = longest_path_levels(graph)
        except GraphError:
            if scheme == "levels":
                raise PartitionError(
                    "scheme 'levels' needs an acyclic graph; use "
                    "'round_robin' (or 'auto') for graphs with "
                    "feedback arcs"
                )
            levels = None
        if levels is not None:
            order = sorted(cids, key=lambda cid: (levels[cid], cid))
            owner = _order_cut(graph, k, order, weights)
            if owner is not None:
                return _finish(graph, k, "levels", owner, weights)
        elif scheme == "auto":
            # cyclic: condense SCCs so feedback cycles stay intact,
            # then run the same weighted DP over the condensed order
            order = _scc_order(graph, cids)
            owner = _order_cut(graph, k, order, weights)
            if owner is not None:
                return _finish(graph, k, "scc", owner, weights)
    return _finish(
        graph, k, "round_robin",
        {cid: i % k for i, cid in enumerate(cids)},
        weights,
    )


def _finish(
    graph: DataflowGraph,
    k: int,
    scheme: str,
    owner: dict[int, int],
    weights: dict[int, int] | None = None,
) -> Partition:
    cut = tuple(
        aid
        for aid, arc in sorted(graph.arcs.items())
        if owner[arc.src] != owner[arc.dst]
    )
    weight = (
        float(sum(weights[aid] for aid in cut)) if weights else float(len(cut))
    ) if cut else 0.0
    return Partition(
        k=k, scheme=scheme, owner=owner, cut_arcs=cut, cut_weight=weight
    )


def _balance_bounds(n: int, k: int) -> tuple[int, int]:
    ideal = n / k
    lo = max(1, int(ideal / 2))
    hi = max(lo, int(ideal * 2) + 1)
    return lo, hi


def _components_pack(
    graph: DataflowGraph, k: int, cids: list[int]
) -> dict[int, int] | None:
    """Zero-cut packing of whole weakly-connected components, or None
    when there are fewer than K components or the greedy packing
    violates the balance bounds."""
    parent = {cid: cid for cid in cids}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for arc in graph.arcs.values():
        ra, rb = find(arc.src), find(arc.dst)
        if ra != rb:
            parent[ra] = rb
    comps: dict[int, list[int]] = {}
    for cid in cids:
        comps.setdefault(find(cid), []).append(cid)
    if len(comps) < k:
        return None
    # largest-first greedy onto the least-loaded shard; deterministic
    # order via (size desc, smallest member cid)
    ordered = sorted(comps.values(), key=lambda c: (-len(c), c[0]))
    loads = [0] * k
    owner: dict[int, int] = {}
    for comp in ordered:
        shard = min(range(k), key=lambda s: (loads[s], s))
        loads[shard] += len(comp)
        for cid in comp:
            owner[cid] = shard
    lo, hi = _balance_bounds(len(cids), k)
    if min(loads) < lo or max(loads) > hi:
        return None
    return owner


def _scc_order(graph: DataflowGraph, cids: list[int]) -> list[int]:
    """Linear order that keeps each strongly-connected component
    contiguous, SCCs in topological order of the condensation (ties
    by smallest member cid), cells inside an SCC by cid."""
    succ: dict[int, list[int]] = {cid: [] for cid in cids}
    for arc in graph.arcs.values():
        succ[arc.src].append(arc.dst)
    for cid in succ:
        succ[cid].sort()
    # Tarjan emits SCCs in reverse topological order of the
    # condensation; reverse for a forward pipeline order
    comps = reversed(strongly_connected(cids, succ))
    return [cid for comp in comps for cid in sorted(comp)]


def _order_cut(
    graph: DataflowGraph,
    k: int,
    order: list[int],
    weights: dict[int, int],
) -> dict[int, int] | None:
    """Weighted min-cut over a linear cell order, or None when the
    balance constraint is unsatisfiable (caller falls back)."""
    n = len(order)
    if n < k:
        return None
    index = {cid: i for i, cid in enumerate(order)}

    # cross[p] = total weight of arcs spanning the boundary between
    # positions p-1 and p of the linear order (difference array)
    diff = [0] * (n + 2)
    for aid, arc in graph.arcs.items():
        a, b = sorted((index[arc.src], index[arc.dst]))
        if a != b:
            w = weights.get(aid, _STREAM_WEIGHT)
            diff[a + 1] += w
            diff[b + 1] -= w
    cross = [0] * (n + 1)
    run = 0
    for p in range(1, n + 1):
        run += diff[p]
        cross[p] = run

    lo, hi = _balance_bounds(n, k)

    # dp[j][i]: cheapest total boundary cost putting the first i cells
    # into j shards; a boundary placed before position i costs cross[i]
    dp = [[_INF] * (n + 1) for _ in range(k + 1)]
    back: list[list[int]] = [[-1] * (n + 1) for _ in range(k + 1)]
    for i in range(lo, min(hi, n) + 1):
        dp[1][i] = 0
    for j in range(2, k + 1):
        for i in range(j, n + 1):
            best, best_prev = _INF, -1
            for size in range(lo, hi + 1):
                prev = i - size
                if prev < j - 1:
                    break
                c = dp[j - 1][prev]
                if c is not _INF and c + cross[prev] < best:
                    best = c + cross[prev]
                    best_prev = prev
            dp[j][i] = best
            back[j][i] = best_prev
    if dp[k][n] == _INF:
        return None

    bounds = [n]
    i = n
    for j in range(k, 1, -1):
        i = back[j][i]
        if i < 0:
            return None
        bounds.append(i)
    bounds.append(0)
    bounds.reverse()

    owner: dict[int, int] = {}
    for shard in range(k):
        for pos in range(bounds[shard], bounds[shard + 1]):
            owner[order[pos]] = shard
    return owner
