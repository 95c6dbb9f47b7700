"""Strongly connected components (iterative Tarjan)."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, TypeVar

N = TypeVar("N")


def strongly_connected(
    nodes: Iterable[N], successors: Mapping[N, Sequence[N]]
) -> list[list[N]]:
    """Components of the directed graph in Tarjan's emission order,
    which is reverse topological order of the condensation: a component
    comes after every component it can reach.  ``nodes`` fixes the root
    order and ``successors`` the child order, so the result is
    deterministic; a component lists its members last-discovered first.

    Iterative -- the graphs here can be deep pipelines, so no recursion.
    """
    index: dict[N, int] = {}
    low: dict[N, int] = {}
    stack: list[N] = []
    on_stack: set[N] = set()
    sccs: list[list[N]] = []
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(successors.get(root, ())))]
        while work:
            v, children = work[-1]
            if v not in index:
                index[v] = low[v] = len(index)
                stack.append(v)
                on_stack.add(v)
            for w in children:
                if w not in index:
                    work.append((w, iter(successors.get(w, ()))))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                    on_stack.difference_update(comp)
                    sccs.append(comp)
    return sccs
