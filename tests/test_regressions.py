"""Named regressions for configurations that broke intermediate designs.

Each case earned its place by defeating an earlier, more naive reading of
the construction; the suite keeps them pinned.
"""
import itertools

import pytest

from rsd.generators import random_connected_graph, random_tree, star
from rsd.graphs import Graph
from rsd.protocol import run_protocol


def ok(g):
    res = run_protocol(g)
    assert res.ok, res.failure
    assert set(res.outputs.values()) == {g.n}
    return res


def test_star_echo_vs_depth_relay():
    # every leaf decodes the degree flood simultaneously; if all echoed it,
    # the lone depth report to the center would be drowned in collisions
    ok(star(4))
    ok(star(9))


def test_co_stopping_members_before_phase_end_wave():
    # two members with disjoint children stop in the same round; the root,
    # a bystander relay, hears that stop collision one round before the
    # phase-end wave and must not lock onto it
    g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 5), (2, 4)])
    ok(g)


def test_echo_suffix_forgery():
    # a relay echo of the degree flood contains a suffix that decodes as a
    # plausible depth flood at exactly consistent rounds; the quiet-window
    # validation must reject it
    ok(random_tree(24, 9, 24000))


def test_phase_end_member_not_last_admitted():
    # sibling pollution chains make the last-admitted member finish first;
    # the phase-end marker must sit on a member that finishes last
    g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 5), (2, 6), (3, 7)])
    ok(g)


def test_invisible_zero_bit_report_robbery():
    # a weight report with bit 0 heard by a foreign member whose class is
    # otherwise empty is arithmetically invisible; without carrier
    # placement the foreigner stops early and silences the owner's carrier
    ok(random_connected_graph(80, 32, 2 + 13 * 80))


DENSE_REPAIRS = [
    (62, 10, 5000 + 3 + 31 * 62 + 186, 186), (68, 10, 5000 + 2 + 31 * 68 + 204, 204),
    (72, 6, 5000 + 3 + 31 * 72 + 144, 144),
]


@pytest.mark.parametrize("n,cap,seed,extra", DENSE_REPAIRS)
def test_dense_robbery_requires_replay_repairs(n, cap, seed, extra):
    # dense graphs whose weight classes run out of owner-private carriers;
    # the offline replay must promote robbed carriers to 1-digit positions
    ok(random_connected_graph(n, cap, seed, extra_edges=extra))


def test_complete_graphs_and_cycles():
    for n in range(3, 8):
        ok(Graph.from_edges(n, list(itertools.combinations(range(n), 2))))
        ok(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))


def test_grid():
    side = 5
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    ok(Graph.from_edges(side * side, edges))


def test_broom_and_lollipop():
    # path with a star at the end
    edges = [(i, i + 1) for i in range(5)] + [(5, v) for v in range(6, 12)]
    ok(Graph.from_edges(12, edges))
    # clique with a tail
    clique = list(itertools.combinations(range(5), 2))
    tail = [(4, 5), (5, 6), (6, 7)]
    ok(Graph.from_edges(8, clique + tail))


def test_double_star_bridge():
    for d1, d2 in ((3, 9), (9, 3), (5, 5)):
        edges = [(0, v) for v in range(1, d1 + 1)]
        base = d1 + 1
        edges += [(1, base + v) for v in range(d2)]
        ok(Graph.from_edges(base + d2, edges))
