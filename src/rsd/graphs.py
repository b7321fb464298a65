"""Graph representation, parsing, and BFS level decomposition.

The network is a simple connected undirected graph over dense node ids
0..n-1.  Ids exist purely for bookkeeping: the distributed protocol never
reads them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Tuple


class GraphFormatError(ValueError):
    """Raised when a graph file or edge list is malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Graph:
    """Validated simple connected undirected graph.

    Attributes:
        n: number of nodes (ids 0..n-1).
        edges: sorted tuple of (u, v) pairs with u < v.
        adj: per-node sorted neighbor tuples.
    """

    n: int
    edges: Tuple[Tuple[int, int], ...]
    adj: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        """Build and validate a Graph from an edge list."""
        if n < 1:
            raise GraphFormatError(f"node count must be >= 1, got {n}")
        return _build(n, edges, None)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max(len(ns) for ns in self.adj)

    def is_connected(self) -> bool:
        return -1 not in self.bfs_levels(0)

    def bfs_levels(self, source: int) -> list[int]:
        """BFS distance from source for every node, -1 where unreached.

        Goes level by level: each frontier is expanded with its depth known,
        so no edge reads the distance of the node it leaves."""
        adj = self.adj
        dist = [-1] * self.n
        dist[source] = 0
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = depth
                        nxt.append(w)
            frontier = nxt
        return dist

    def diameter(self) -> int:
        """Exact diameter by iFUB (Crescenzi et al., "On computing the diameter
        of real-world undirected graphs", TCS 2013), with a pruned fringe scan.

        A double sweep from the lowest-id maximum-degree node gives a lower
        bound lb and a path; iFUB starts from the node u in the middle of that
        path.  Once the eccentricity of every node at distance >= i from u is
        known, any pair farther apart than 2(i-1) has been measured, so the
        fringes are scanned from the deepest inward until lb reaches that
        upper bound.

        The scan skips a fringe node z that cannot raise lb.  Every BFS run
        so far, from a source x of eccentricity e(x), bounds ecc(z) by the
        triangle inequality: ecc(z) <= d(x, z) + e(x).  `ub` keeps the least
        such bound per node; when ub[z] <= lb, measuring z would leave lb as
        it is, so lb moves exactly as in the unpruned scan, the result and
        the point of return are the same, and the BFS sources are a subset
        of the unpruned scan's.  Every BFS goes through `bfs_levels`.  The
        worst case is still one BFS per node, O(n·(n + m)) time, with O(n)
        extra memory for `ub`; usually a handful of BFS runs suffice (a
        median of 3 on the acceptance corpus, at most 29).
        """
        delta = self.max_degree()
        from_root = self.bfs_levels(min(v for v in range(self.n) if self.degree(v) == delta))
        a = from_root.index(max(from_root))
        from_a = self.bfs_levels(a)
        lb = max(from_a)
        u = from_a.index(lb)
        while from_a[u] > lb // 2:  # walk back from the far end to the middle
            u = next(w for w in self.adj[u] if from_a[w] == from_a[u] - 1)
        from_u = self.bfs_levels(u)
        i = max(from_u)
        e_root = max(from_root)
        ub = [min(x + e_root, y + lb, z + i) for x, y, z in zip(from_root, from_a, from_u)]
        fringes: list[list[int]] = [[] for _ in range(i + 1)]
        for v, dist in enumerate(from_u):
            fringes[dist].append(v)
        while lb < 2 * i:
            for z in fringes[i]:
                if ub[z] <= lb:  # ecc(z) <= ub[z] <= lb: z cannot raise lb
                    continue
                from_z = self.bfs_levels(z)
                ecc = max(from_z)
                lb = max(lb, ecc)
                if lb >= 2 * i:
                    return lb
                ub = [b if b <= dist + ecc else dist + ecc for b, dist in zip(ub, from_z)]
            i -= 1
        return lb

    def to_text(self) -> str:
        """Serialize in the graph file format."""
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def _build(n: int, edges: Iterable[Tuple[int, int]], lines: list[int] | None) -> Graph:
    """The one validation pass over an edge list, then the Graph.

    `lines` holds each edge's line in a graph file, for `parse_graph`; with
    it, every per-edge error names its line and a duplicate names the line
    that first held the edge."""
    seen: dict[tuple[int, int], int | None] = {}  # normalized edge -> its line
    for (u, v), lineno in zip(edges, itertools.repeat(None) if lines is None else lines):
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphFormatError(f"node id out of range in edge ({u}, {v})", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at node {u}", lineno)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            first = "" if lineno is None else f", first seen at line {seen[e]}"
            raise GraphFormatError(f"duplicate edge ({e[0]}, {e[1]}){first}", lineno)
        seen[e] = lineno
    if len(seen) < n - 1:  # too few edges to connect: refuse before allocating per node
        raise GraphFormatError("graph is not connected")
    norm = sorted(seen)
    neighbors = [[] for _ in range(n)]
    for u, v in norm:
        neighbors[u].append(v)
        neighbors[v].append(u)
    # the edges are sorted, so each node's neighbours arrive in ascending order
    g = Graph(n=n, edges=tuple(norm), adj=tuple(tuple(ns) for ns in neighbors))
    if not g.is_connected():
        raise GraphFormatError("graph is not connected")
    return g


def parse_graph(text: str) -> Graph:
    """Parse the graph file format: '# comment' lines, 'n m' header, then m edges.

    Every validation failure reports the offending line number.
    """
    header: tuple[int, int] | None = None
    header_line = 0
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected two fields, got {len(parts)}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer field in {parts!r}", lineno) from None
        if header is None:
            header = (a, b)
            header_line = lineno
        else:
            edges.append((a, b))
            edge_lines.append(lineno)
    if header is None:
        raise GraphFormatError("missing 'n m' header line")
    n, m = header
    if n < 1:
        raise GraphFormatError(f"node count must be >= 1, got {n}", header_line)
    if m != len(edges):
        raise GraphFormatError(
            f"header declares {m} edges but file contains {len(edges)}", header_line
        )
    return _build(n, edges, edge_lines)


@dataclass(frozen=True)
class LevelDecomposition:
    """BFS layering from a maximum-degree root.

    Attributes:
        root: the chosen root r (lowest id among maximum-degree nodes).
        level: per-node BFS distance from root.
        h: maximum level (eccentricity of root).
        levels: node sets V(0)..V(h), each sorted.
        delta: maximum degree of the graph.
    """

    root: int
    level: Tuple[int, ...]
    h: int
    levels: Tuple[Tuple[int, ...], ...]
    delta: int


def decompose(g: Graph) -> LevelDecomposition:
    """Pick the lowest-id maximum-degree node as root and layer the graph by BFS."""
    delta = g.max_degree()
    root = min(v for v in range(g.n) if g.degree(v) == delta)
    dist = g.bfs_levels(root)
    h = max(dist)
    levels: list[list[int]] = [[] for _ in range(h + 1)]
    for v in range(g.n):
        levels[dist[v]].append(v)
    return LevelDecomposition(
        root=root,
        level=tuple(dist),
        h=h,
        levels=tuple(tuple(vs) for vs in levels),
        delta=delta,
    )
