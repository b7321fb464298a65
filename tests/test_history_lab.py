import pytest

from rsd.generators import family_member
from rsd.history_lab import (
    HistoryTable,
    build_family,
    check_lemmas,
    compute_histories,
    crossover,
    label_universe,
    matched_labelings,
    pattern_bound,
    pattern_bound_second_path,
    pattern_of,
    seeded_automaton,
)


def test_family_delta4():
    family = build_family(4)
    assert [t.i for t in family] == [2, 3]
    assert [t.n for t in family] == [7, 8]


def test_family_delta2_is_path():
    (tree,) = build_family(2)
    assert tree.i == 1
    assert tree.n == 4
    assert tree.graph.max_degree() == 2


def test_family_max_degree_exact():
    for delta in (2, 3, 5, 8):
        for tree in build_family(delta):
            assert tree.graph.max_degree() == delta
            assert tree.graph.degree(tree.r) == delta
            assert tree.graph.degree(tree.a) == tree.i + 1


def test_family_rejects_small_delta():
    with pytest.raises(ValueError):
        build_family(1)


def test_family_member_is_the_family_tree():
    for delta in range(2, 13):
        family = build_family(delta)
        assert [t.i for t in family] == list(range(delta // 2, delta))
        for tree in family:
            assert family_member(delta, tree.i).edges == tree.graph.edges


def test_family_member_builds_one_member_only():
    g = family_member(4096, 4095)
    assert g.n == 8192 and g.max_degree() == 4096


def test_family_member_rejects_bad_arguments():
    with pytest.raises(ValueError, match="index 9 outside the family range 2..3 for delta 4"):
        family_member(4, 9)
    with pytest.raises(ValueError, match="the family needs delta >= 2, got 1"):
        family_member(1, 0)


def test_all_listen_histories_are_label_then_silences():
    tree = build_family(4)[0]
    labeling = {v: "x" for v in range(tree.n)}
    hist = compute_histories(tree, labeling, lambda digest: False, 5)
    table = HistoryTable()
    assert len({h for h in hist[0].values()}) == 1
    # every node's history evolves identically: one shared handle per round
    for t in range(6):
        assert len(set(hist[t].values())) == 1


def test_round_zero_is_the_label():
    tree = build_family(4)[0]
    labeling = {v: format(v % 3, "b") for v in range(tree.n)}
    hist = compute_histories(tree, labeling, seeded_automaton(1), 0)
    assert len(hist) == 1
    groups = {}
    for v, h in hist[0].items():
        groups.setdefault(labeling[v], set()).add(h)
    for hs in groups.values():
        assert len(hs) == 1


def test_center_transmit_reaches_leaves():
    # K(1,2): center always transmits; each leaf's first event embeds its history
    from rsd.graphs import Graph
    from rsd.history_lab import FamilyTree

    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    tree = FamilyTree(delta=2, i=0, graph=g, r=0, a=1, leaves_r=(2,), leaves_a=())
    labeling = {0: "c", 1: "l", 2: "l"}
    table = HistoryTable()
    center_label = table.leaf("c")

    def center_only(digest):
        return digest == table.digest(center_label) or digest not in (
            table.digest(table.leaf("l")),
        )

    hist = compute_histories(tree, labeling, center_only, 1, table)
    expected = table.extend(table.leaf("l"), "sub", center_label)
    assert hist[1][1] == expected and hist[1][2] == expected


def test_label_universe():
    assert label_universe(0) == ("",)
    assert label_universe(1) == ("", "0", "1")
    assert len(label_universe(3)) == 2**4 - 1


def test_pattern_saturation():
    tree = build_family(6)[0]
    labeling = {v: "1" for v in range(tree.n)}
    pat = pattern_of(tree, labeling, beta=1)
    idx = label_universe(1).index("1")
    assert pat.r_occupancy[idx] == 2
    assert pat.a_occupancy[idx] == 2
    assert sum(pat.r_occupancy) == 2 and sum(pat.a_occupancy) == 2


def test_pattern_single_occurrence():
    tree = build_family(4)[0]
    labeling = {v: "0" for v in range(tree.n)}
    labeling[tree.leaves_r[0]] = "1"
    pat = pattern_of(tree, labeling, beta=1)
    universe = label_universe(1)
    assert pat.r_occupancy[universe.index("1")] == 1
    assert pat.r_occupancy[universe.index("0")] == 2


def test_matched_labelings_share_pattern():
    import random

    family = build_family(8)
    rng = random.Random(5)
    for _ in range(10):
        matched = matched_labelings(family, beta=1, rng=rng)
        assert len(matched) == len(family)
        pats = {pattern_of(tree, lab, 1) for tree, lab in matched}
        assert len(pats) == 1


def test_pattern_bound_values():
    assert pattern_bound(0) == 324
    assert pattern_bound(1) == 104976


def test_pattern_bound_second_path_agrees():
    for beta in range(0, 9):
        assert pattern_bound(beta) == pattern_bound_second_path(beta)


def test_pattern_bound_monotone():
    values = [pattern_bound(b) for b in range(6)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_crossover_example():
    report = crossover(0, 1000)
    assert report["bound"] == 324
    assert report["holds"] is True
    assert crossover(0, 600)["holds"] is False  # 324 < 300 fails


def test_equal_labels_iff_equal_histories_small():
    report = check_lemmas(4, trials=6, rounds=40, seed=3)
    assert report["violations"] == []
    assert report["delta"] == 4


def test_distinct_labels_distinct_histories_at_zero():
    tree = build_family(4)[0]
    labeling = {v: "0" for v in range(tree.n)}
    labeling[tree.leaves_r[0]] = "1"
    hist = compute_histories(tree, labeling, seeded_automaton(9), 0)
    assert hist[0][tree.leaves_r[0]] != hist[0][tree.leaves_r[1]]


def test_histories_reproducible():
    tree = build_family(6)[1]
    labeling = {v: format(v % 2, "b") for v in range(tree.n)}
    a = compute_histories(tree, labeling, seeded_automaton(42), 30)
    b = compute_histories(tree, labeling, seeded_automaton(42), 30)
    assert a == b
