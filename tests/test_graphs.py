import itertools
import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, strategies as st
from test_acceptance import build_corpus

from rsd.graphs import Graph, GraphFormatError, decompose, parse_graph
from rsd.generators import path, random_connected_graph, random_tree, star


def test_parse_k2():
    g = parse_graph("2 1\n0 1\n")
    assert g.n == 2
    assert g.edges == ((0, 1),)


def test_parse_cycle4():
    g = parse_graph("4 4\n0 1\n0 2\n1 3\n2 3\n")
    assert g.n == 4
    assert len(g.edges) == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_parse_comments_and_whitespace():
    g = parse_graph("# a comment\n\n3 2\n0 1\n# mid comment\n1 2\n")
    assert g.n == 3


def test_parse_self_loop_reports_line():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("3 3\n0 1\n1 1\n0 2\n")
    assert "self-loop" in str(err.value)
    assert "line 3" in str(err.value)


def test_parse_duplicate_edge_reports_line():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("3 3\n0 1\n1 2\n1 0\n")
    assert "duplicate" in str(err.value)
    assert "line 4" in str(err.value)


def test_parse_out_of_range_id():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("3 2\n0 1\n1 3\n")
    assert "out of range" in str(err.value)


def test_parse_disconnected():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("4 2\n0 1\n2 3\n")
    assert "not connected" in str(err.value)


def test_sparse_graph_refused_before_any_per_node_allocation():
    # fewer than n - 1 edges cannot connect n nodes: a 10-byte file declaring
    # 3,000,000 nodes is refused without building its adjacency lists
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError, match="^graph is not connected$"):
            parse_graph("3000000 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # per-edge errors still come first
    with pytest.raises(GraphFormatError, match="self-loop"):
        Graph.from_edges(5, [(2, 2)])
    with pytest.raises(GraphFormatError, match="line 2: node id out of range"):
        parse_graph("5 1\n0 9\n")


@pytest.mark.parametrize(
    "edges, message",
    [
        ("0 1\n1 5\n", "node id out of range in edge (1, 5)"),
        ("0 1\n2 2\n", "self-loop at node 2"),
        ("0 1\n2 1\n1 0\n", "duplicate edge (0, 1)"),
    ],
    ids=["range", "self-loop", "duplicate"],
)
def test_edge_errors_read_the_same_from_a_file_and_an_edge_list(edges, message):
    # a graph file's error adds the line, and a duplicate the line that first held the edge
    pairs = [tuple(map(int, line.split())) for line in edges.splitlines()]
    with pytest.raises(GraphFormatError) as err:
        Graph.from_edges(3, pairs)
    assert str(err.value) == message and err.value.line is None
    bad = len(pairs) + 1  # the header is line 1
    text = f"3 {len(pairs)}\n{edges}"
    first = ", first seen at line 2" if message.startswith("duplicate") else ""
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert str(err.value) == f"line {bad}: {message}{first}" and err.value.line == bad


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1 2\n", "line 1: expected two fields, got 3"),
        ("2 1\n0 x\n", "line 2: non-integer field in ['0', 'x']"),
        ("# no header\n\n", "missing 'n m' header line"),
        ("0 0\n", "line 1: node count must be >= 1, got 0"),
    ],
    ids=["fields", "non-integer", "no-header", "no-nodes"],
)
def test_parse_refuses_malformed_lines_and_headers(text, message):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert str(err.value) == message


def test_an_edge_list_of_no_nodes_is_refused():
    with pytest.raises(GraphFormatError, match="^node count must be >= 1, got 0$"):
        Graph.from_edges(0, [])


def test_parse_edge_count_mismatch():
    with pytest.raises(GraphFormatError):
        parse_graph("3 2\n0 1\n")


def test_parse_single_node():
    assert parse_graph("1 0\n").n == 1


def test_roundtrip_to_text():
    g = random_connected_graph(20, 5, 11)
    assert parse_graph(g.to_text()).edges == g.edges


def test_decompose_star():
    d = decompose(star(4))
    assert d.root == 0
    assert d.h == 1
    assert d.delta == 4
    assert d.levels[1] == (1, 2, 3, 4)


def test_decompose_path3():
    g = parse_graph("3 2\n0 1\n1 2\n")
    d = decompose(g)
    assert d.root == 1  # the unique degree-2 node
    assert d.h == 1
    assert d.delta == 2
    assert set(d.levels[1]) == {0, 2}


def test_decompose_diamond():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    d = decompose(g)
    assert d.root == 0
    assert d.h == 2
    assert d.levels[1] == (1, 2)
    assert d.levels[2] == (3,)


def test_decompose_root_tie_break_smallest_id():
    # both endpoints of an edge in K4 have degree 3; node 0 wins
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert decompose(g).root == 0


@pytest.mark.parametrize("seed", range(12))
def test_decomposition_invariants(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 60)
    g = random_connected_graph(n, 8, seed)
    d = decompose(g)
    # edge endpoints differ by at most one level
    for u, v in g.edges:
        assert abs(d.level[u] - d.level[v]) <= 1
    # every node below the root has an upward neighbor
    for l in range(d.h):
        for v in d.levels[l + 1]:
            assert any(d.level[w] == l for w in g.adj[v])
    # levels partition the nodes
    assert sum(len(vs) for vs in d.levels) == g.n
    assert d.levels[0] == (d.root,)
    assert all(d.levels[l] for l in range(d.h + 1))
    assert g.degree(d.root) == d.delta
    # determinism
    again = decompose(g)
    assert again == d


def test_tree_generator_is_tree_and_respects_cap():
    for seed in range(10):
        g = random_tree(40, 5, seed)
        assert len(g.edges) == 39
        assert g.max_degree() <= 5


def test_tree_generator_refuses_a_cap_no_tree_fits():
    assert random_tree(2, 1, 0).edges == ((0, 1),)
    for n, cap in ((2, 0), (2, -1), (3, 1), (40, 1)):
        with pytest.raises(ValueError, match="cannot host a tree"):
            random_tree(n, cap, 0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: star(0), "a star needs delta >= 1"),
        (lambda: path(1), "a path needs n >= 2"),
        (lambda: random_tree(1, 4, 0), "random trees need n >= 2"),
    ],
    ids=["star", "path", "random-tree"],
)
def test_generators_refuse_a_size_with_no_graph(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_graph_generator_respects_cap():
    for seed in range(10):
        g = random_connected_graph(40, 6, seed)
        assert g.max_degree() <= 6
        assert len(g.edges) >= 39


def test_graph_generator_refuses_negative_extra_edges():
    assert len(random_connected_graph(10, 4, 0, extra_edges=0).edges) == 9  # the spanning tree
    assert len(random_connected_graph(10, 4, 0).edges) > 9
    with pytest.raises(ValueError, match="extra edges must be >= 0, got -3"):
        random_connected_graph(10, 4, 0, extra_edges=-3)


def extra_edges_by_drawing(n, cap, seed, extra):
    """The edges of random_connected_graph without its stop at saturation:
    it draws up to 20 * extra pairs, whether or not any pair still fits."""
    rng = random.Random(seed)
    base = random_tree(n, cap, rng.randrange(2**32))
    degree = [base.degree(v) for v in range(n)]
    edges = set(base.edges)
    added = attempts = 0
    while added < extra and attempts < 20 * max(1, extra):
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        e = (min(u, v), max(u, v))
        if u == v or e in edges or degree[u] >= cap or degree[v] >= cap:
            continue
        edges.add(e)
        degree[u] += 1
        degree[v] += 1
        added += 1
    return sorted(edges)


def test_graph_generator_stops_drawing_only_when_no_pair_fits():
    for n, cap, seed, extra in itertools.product((2, 3, 5, 10, 24), (2, 3, 4, 8), range(4), (0, 1, 7, 40, 300)):
        if cap >= min(2, n - 1):
            got = random_connected_graph(n, cap, seed, extra_edges=extra).edges
            assert list(got) == extra_edges_by_drawing(n, cap, seed, extra), (n, cap, seed, extra)


def test_saturated_graph_generator_makes_few_draws(monkeypatch):
    draws = []

    class Counting(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    monkeypatch.setattr(random, "Random", Counting)
    g = random_connected_graph(10, 4, 1, extra_edges=200_000)
    assert g.max_degree() <= 4 and len(g.edges) < 9 + 200_000
    # saturated: no pair of distinct nodes below the cap is a non-edge
    open_nodes = [v for v in range(10) if g.degree(v) < 4]
    assert all(w in g.adj[v] for v, w in itertools.combinations(open_nodes, 2))
    assert len(draws) < 2_000  # the attempt cap alone allows 4,000,000 pair draws


def test_diameter_path():
    g = parse_graph("5 4\n0 1\n1 2\n2 3\n3 4\n")
    assert g.diameter() == 4


def all_pairs_diameter(g):
    return max(max(queue_bfs(g, v)) for v in range(g.n))


def queue_bfs(g, source):
    """Textbook BFS with a queue, independent of `Graph.bfs_levels`."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def unpruned_ifub(g):
    """iFUB scanning every fringe node: the diameter and its BFS sources in order."""
    sources = []

    def bfs(x):
        sources.append(x)
        return queue_bfs(g, x)

    delta = g.max_degree()
    from_root = bfs(min(v for v in range(g.n) if g.degree(v) == delta))
    from_a = bfs(from_root.index(max(from_root)))
    lb = max(from_a)
    u = from_a.index(lb)
    while from_a[u] > lb // 2:
        u = next(w for w in g.adj[u] if from_a[w] == from_a[u] - 1)
    from_u = bfs(u)
    i = max(from_u)
    while lb < 2 * i:
        for z in [v for v in range(g.n) if from_u[v] == i]:
            lb = max(lb, max(bfs(z)))
            if lb >= 2 * i:
                return lb, sources
        i -= 1
    return lb, sources


def count_bfs(monkeypatch):
    """The sources of every BFS run from now on."""
    runs = []
    bfs_levels = Graph.bfs_levels

    def counted(g, source):
        runs.append(source)
        return bfs_levels(g, source)

    monkeypatch.setattr(Graph, "bfs_levels", counted)
    return runs


def connected_graphs(n):
    """Every connected labelled graph on n nodes."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        try:
            yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
        except GraphFormatError:
            pass


def cycle(n):
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def hypercube(dim):
    return Graph.from_edges(
        1 << dim, [(v, v | 1 << i) for v in range(1 << dim) for i in range(dim) if not v >> i & 1]
    )


def test_diameter_of_every_connected_graph_up_to_five_nodes():
    count = 0
    for n in range(1, 6):
        for g in connected_graphs(n):
            assert g.diameter() == all_pairs_diameter(g), g.edges
            count += 1
    assert count == 1 + 1 + 4 + 38 + 728


STRUCTURED = (
    [(f"path-{n}", path(n), n - 1) for n in (2, 3, 10, 41)]
    + [(f"cycle-{n}", cycle(n), n // 2) for n in (3, 4, 9, 10, 31, 32)]
    + [(f"grid-{r}x{c}", grid(r, c), r + c - 2) for r, c in ((1, 5), (2, 2), (3, 7), (12, 12))]
    + [(f"K{n}", Graph.from_edges(n, list(itertools.combinations(range(n), 2))), 1)
       for n in (2, 3, 7)]
    + [(f"K{a},{b}", complete_bipartite(a, b), 2) for a, b in ((1, 4), (2, 2), (3, 5), (6, 6))]
    + [(f"Q{dim}", hypercube(dim), dim) for dim in range(1, 7)]
    + [(f"star-{delta}", star(delta), min(delta, 2)) for delta in (1, 2, 3, 50)]
)


@pytest.mark.parametrize("g,want", [s[1:] for s in STRUCTURED], ids=[s[0] for s in STRUCTURED])
def test_diameter_of_structured_graphs(g, want):
    assert all_pairs_diameter(g) == want
    assert g.diameter() == want


def test_diameter_scans_a_fringe_when_the_double_sweep_falls_short(monkeypatch):
    # K4 minus the edge 2-3: the sweep from the hub 0 ends at hub 1, and both
    # hubs have eccentricity 1, so only the fringe scan finds 2 and 3
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert max(g.bfs_levels(0)) == max(g.bfs_levels(1)) == 1
    runs = count_bfs(monkeypatch)
    assert g.diameter() == 2 == all_pairs_diameter(g)
    assert len(runs) > 3


@pytest.mark.parametrize("seed", range(40))
def test_diameter_of_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 70)
    p = rng.choice((0.03, 0.06, 0.1, 0.2, 0.5))
    edges = {e for e in itertools.combinations(range(n), 2) if rng.random() < p}
    edges.update((rng.randrange(k), k) for k in range(1, n))  # keep it connected
    g = Graph.from_edges(n, edges)
    assert g.diameter() == all_pairs_diameter(g)


def test_diameter_of_the_corpus():
    for name, g in build_corpus():
        assert g.diameter() == all_pairs_diameter(g), name


@pytest.mark.parametrize("g", [star(2048), random_tree(3000, 16, 1)], ids=["star", "tree"])
def test_diameter_takes_a_handful_of_bfs_runs(monkeypatch, g):
    runs = count_bfs(monkeypatch)
    g.diameter()
    assert len(runs) <= 8


@st.composite
def relabelled_connected_graphs(draw):
    n = draw(st.integers(2, 40))
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}  # a spanning tree
    edges |= set(draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                               max_size=n // 2)))  # sparse: deep enough for a fringe scan
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@given(relabelled_connected_graphs())
def test_diameter_equals_all_pairs_bfs(g):
    assert g.diameter() == all_pairs_diameter(g)


@pytest.mark.parametrize("g", [s[1] for s in STRUCTURED] + [random_connected_graph(300, 6, 2)],
                         ids=[s[0] for s in STRUCTURED] + ["graph-300"])
def test_bfs_levels_equals_a_queue_bfs(g):
    for source in sorted({0, g.n // 2, g.n - 1}):
        assert g.bfs_levels(source) == queue_bfs(g, source)


def test_the_pruned_scan_measures_a_subsequence_of_the_unpruned_scans_sources(monkeypatch):
    runs = count_bfs(monkeypatch)
    pruned = unpruned = 0
    for name, g in build_corpus():
        want, sources = unpruned_ifub(g)
        runs.clear()
        assert g.diameter() == want, name
        rest = iter(sources)
        assert all(x in rest for x in runs), name
        pruned, unpruned = pruned + len(runs), unpruned + len(sources)
    assert (pruned, unpruned) == (2291, 3928)


def test_diameter_bfs_runs_on_the_corpus_worst_case(monkeypatch):
    g = random_connected_graph(146, 3, 20_123)  # the corpus's graph-123
    assert len(unpruned_ifub(g)[1]) == 61
    runs = count_bfs(monkeypatch)
    assert g.diameter() == 12
    assert len(runs) == 29


@pytest.mark.parametrize("order", ["shuffled", "reversed", "flipped"])
def test_adjacency_is_ascending_whatever_the_edge_order(order):
    g = random_connected_graph(60, 8, 3)
    edges = list(g.edges)
    if order == "shuffled":
        random.Random(5).shuffle(edges)
    elif order == "reversed":
        edges.reverse()
    else:
        edges = [(v, u) for u, v in reversed(edges)]
    rebuilt = Graph.from_edges(g.n, edges)
    assert all(list(ns) == sorted(ns) for ns in rebuilt.adj)
    assert rebuilt == g
