"""Seeded graph generators for reproducible corpora."""
from __future__ import annotations

import random
from bisect import bisect_left
from typing import List, Tuple

from .graphs import Graph
from .history_lab import family_tree


def star(delta: int) -> Graph:
    """K(1, delta): center 0, leaves 1..delta."""
    if delta < 1:
        raise ValueError("a star needs delta >= 1")
    return Graph.from_edges(delta + 1, [(0, v) for v in range(1, delta + 1)])


def path(n: int) -> Graph:
    if n < 2:
        raise ValueError("a path needs n >= 2")
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def random_tree(n: int, delta_cap: int, seed: int) -> Graph:
    """Uniform attachment tree: node k joins a uniformly random node of
    degree < delta_cap among 0..k-1."""
    if n < 2:
        raise ValueError("random trees need n >= 2")
    if delta_cap < min(2, n - 1):
        raise ValueError(f"delta cap {delta_cap} cannot host a tree on {n} nodes")
    rng = random.Random(seed)
    degree = [0] * n
    hosts = [0]  # ascending: the nodes among 0..k-1 of degree < delta_cap; never empty
    edges: List[Tuple[int, int]] = []
    for k in range(1, n):
        host = rng.choice(hosts)
        edges.append((host, k))
        degree[host] += 1
        degree[k] += 1
        if degree[host] == delta_cap:
            del hosts[bisect_left(hosts, host)]
        if degree[k] < delta_cap:
            hosts.append(k)
    return Graph.from_edges(n, edges)


def random_connected_graph(
    n: int, delta_cap: int, seed: int, extra_edges: int | None = None
) -> Graph:
    """Random spanning tree plus extra random edges under the degree cap.

    Draws stop once extra_edges are added, after 20 * extra_edges draws, or
    when every pair of open nodes (degree below the cap) is an edge: a
    later draw would fail, so stopping there changes no edge."""
    if extra_edges is None:
        extra_edges = n // 3
    elif extra_edges < 0:
        raise ValueError(f"extra edges must be >= 0, got {extra_edges}")
    rng = random.Random(seed)
    base = random_tree(n, delta_cap, rng.randrange(2**32))
    nbrs = [set(base.adj[v]) for v in range(n)]
    open_nodes = {v for v in range(n) if len(nbrs[v]) < delta_cap}
    open_edges = sum(1 for u, v in base.edges if u in open_nodes and v in open_nodes)
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 20 * max(1, extra_edges):
        if open_edges == len(open_nodes) * (len(open_nodes) - 1) // 2:
            break  # no pair fits
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or v in nbrs[u] or u not in open_nodes or v not in open_nodes:
            continue
        nbrs[u].add(v)
        nbrs[v].add(u)
        open_edges += 1
        added += 1
        for w in (u, v):
            if len(nbrs[w]) == delta_cap:  # w closes: its edges to open nodes no longer count
                open_nodes.discard(w)
                open_edges -= len(nbrs[w] & open_nodes)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in sorted(nbrs[u]) if u < v])


def family_member(delta: int, index: int) -> Graph:
    """The double star with `index` extra hub leaves, as a plain graph."""
    return family_tree(delta, index).graph
