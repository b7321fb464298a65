import pytest
from hypothesis import given, strategies as st
from test_acceptance import build_corpus
from test_regressions import DENSE_REPAIRS

from rsd.generators import random_connected_graph, random_tree, star
from rsd.graphs import Graph, decompose
from rsd.upper_sets import (
    _audibility_assignment,
    bitlen,
    bits_value,
    collision_tag_map,
    compute_upper_sets,
    compute_weights,
    digits,
    finalize_weight_tags,
)


def oracle(g):
    d = decompose(g)
    plan = compute_upper_sets(g, d)
    weights = compute_weights(plan, d)
    return d, plan, weights


def test_bitlen():
    assert [bitlen(x) for x in (1, 2, 3, 4, 7, 8)] == [1, 2, 2, 3, 3, 4]
    with pytest.raises(ValueError):
        bitlen(0)


@given(st.integers(min_value=1, max_value=2**70), st.data())
def test_digits_inverts_bits_value(count, data):
    positions = data.draw(
        st.lists(
            st.integers(min_value=-5, max_value=200),
            min_size=bitlen(count),
            max_size=bitlen(count),
            unique=True,
        )
    )
    spelled = digits(count, positions)
    assert sorted(spelled) == sorted(positions)
    assert bits_value(spelled) == count


def test_digits_needs_one_position_per_digit():
    assert digits(6, [9, 2, 4]) == {2: 1, 4: 1, 9: 0}
    with pytest.raises(ValueError):
        digits(6, [1, 2])


def test_star_single_member():
    g = star(6)
    d, plan, weights = oracle(g)
    assert plan.us[0] == (0,)
    assert plan.nprime[0] == (1, 2, 3, 4, 5, 6)


def test_diamond_plan():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    d, plan, weights = oracle(g)
    assert plan.us[1] == (1,)
    assert plan.nprime[1] == (3,)
    assert 2 not in plan.us[1] and 2 not in plan.nprime[1]
    assert plan.child_id[3] == 1
    assert weights == {3: 1, 1: 2, 2: 1, 0: 4}


def test_two_member_level_with_shared_child():
    # level-1 nodes 1, 2 with N(1) = {3, 4}, N(2) = {4, 5}: second member
    # admitted through the shared child, covering only the leftover node
    g = Graph.from_edges(
        8, [(0, 1), (0, 2), (0, 6), (0, 7), (1, 3), (1, 4), (2, 4), (2, 5)]
    )
    d, plan, weights = oracle(g)
    assert d.root == 0
    assert plan.us[1] == (1, 2)
    assert plan.nprime[1] == (3, 4)
    assert plan.nprime[2] == (5,)
    # inheritance: member 2 was admitted via the shared child 4, so its
    # first tagged child carries the same id as node 4
    assert plan.child_id[plan.tag_order[2][0]] == plan.child_id[4]


def test_path3_weights():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    d, plan, weights = oracle(g)
    assert d.root == 1
    assert weights[0] == weights[2] == 1
    assert weights[1] == 3


def test_deepest_level_weight_one():
    g = random_tree(30, 4, 3)
    d, plan, weights = oracle(g)
    assert all(weights[v] == 1 for v in d.levels[d.h])


@pytest.mark.parametrize("seed", range(15))
def test_plan_invariants(seed):
    n = 4 + (seed * 13) % 50
    g = random_connected_graph(n, 8, seed) if seed % 2 else random_tree(n, 6, seed)
    d, plan, weights = oracle(g)
    m = bitlen(d.delta)
    for l in range(d.h):
        members = plan.us[l]
        nxt = set(d.levels[l + 1])
        # coverage
        covered = set()
        for v in members:
            covered.update(w for w in g.adj[v] if d.level[w] == l + 1)
        assert covered == nxt
        # partition
        seen = set()
        for v in members:
            private = set(plan.nprime[v])
            assert private
            assert not private & seen
            seen |= private
            # private children really are unclaimed by earlier members
            idx = members.index(v)
            for w in members[:idx]:
                assert private.isdisjoint(g.adj[w])
        assert seen == nxt
        for v in members:
            k = bitlen(len(plan.nprime[v]))
            assert len(plan.tag_order[v]) == k
            ids = [plan.child_id[u] for u in plan.tag_order[v]]
            assert len(set(ids)) == k
            assert all(1 <= i <= m for i in ids)


@pytest.mark.parametrize("seed", range(15))
def test_weight_conservation(seed):
    n = 4 + (seed * 17) % 60
    g = random_connected_graph(n, 10, seed * 7 + 1)
    d, plan, weights = oracle(g)
    for l in range(d.h + 1):
        at_or_below = sum(len(vs) for vs in d.levels[l:])
        assert sum(weights[v] for v in d.levels[l]) == at_or_below
    assert weights[d.root] == g.n


def test_collision_tag_bits_encode_private_count():
    g = random_connected_graph(30, 6, 5)
    d, plan, weights = oracle(g)
    tags = collision_tag_map(plan)
    for l in range(d.h):
        for v in plan.us[l]:
            ids = plan.id_set(v)
            bits = "".join(
                str(tags[u][1])
                for u in sorted(plan.tag_order[v], key=lambda u: plan.child_id[u])
            )
            assert int(bits, 2) == len(plan.nprime[v])
            assert [plan.child_id[u] for u in sorted(plan.tag_order[v], key=lambda u: plan.child_id[u])] == list(ids)


def test_weight_tag_bits_encode_group_sizes():
    g = random_connected_graph(40, 8, 9)
    d, plan, weights = oracle(g)
    l3, _blocks = finalize_weight_tags(g, d, plan, weights)
    for v in plan.nprime:
        groups = {}
        for u in plan.nprime[v]:
            groups.setdefault(weights[u], []).append(u)
        for x, full in groups.items():
            tagged = sorted((l3[u][0], l3[u][1]) for u in full if u in l3)
            assert len(tagged) == bitlen(len(full))
            assert [pos for pos, _b in tagged] == list(range(1, len(tagged) + 1))
            bits = "".join(str(b) for _pos, b in tagged)
            assert int(bits, 2) == len(full)


def test_completion_schedule_marks_last_finisher():
    g = random_connected_graph(50, 8, 21)
    d, plan, weights = oracle(g)
    _l3, blocks = finalize_weight_tags(g, d, plan, weights)
    for l in range(d.h):
        assert set(blocks[l]) == set(plan.us[l])
        assert min(blocks[l].values()) >= 1


def whole_level_upper_sets(g, d):
    """The plain admission loop, kept as the reference: it rebuilds the
    candidate set from the whole level and scans every tagged child for an
    anchor on each admission.  Returns the plan's fields and
    how many members were admitted through an anchor."""
    m_ids = bitlen(d.delta)
    us, nprime, owner, child_id, tag_order, foreign_all = {}, {}, {}, {}, {}, set()
    anchored = 0
    for l in range(d.h):
        uncovered = set(d.levels[l + 1])
        inherited_of = {}
        anchors = set()
        while uncovered:
            cands = {v for v in d.levels[l] if not uncovered.isdisjoint(g.adj[v])}
            anchor = next(
                (u for a in reversed(inherited_of) for u in tag_order[a]
                 if not cands.isdisjoint(g.adj[u])),
                None,
            )
            if anchor is None:
                v, inherited = min(cands), 1
            else:
                anchored += 1
                anchors.add(anchor)
                v, inherited = min(cands.intersection(g.adj[anchor])), child_id[anchor]
            private = sorted(w for w in g.adj[v] if w in uncovered)
            uncovered.difference_update(private)
            inherited_of[v] = inherited
            nprime[v] = tuple(private)
            owner.update((u, v) for u in private)
            k = bitlen(len(private))
            ids = [inherited] + [i for i in range(1, m_ids + 1) if i != inherited][: k - 1]
            child_id.update(zip(private, ids))
            tag_order[v] = tuple(private[:k])
        us[l] = tuple(inherited_of)
        foreign = {u for u in d.levels[l + 1] if sum(1 for w in g.adj[u] if w in inherited_of) >= 2}
        foreign_all.update(foreign)
        for v, inherited in inherited_of.items():
            bit_of = digits(len(nprime[v]), [child_id[u] for u in tag_order[v]])
            for u in tag_order[v]:
                if u in anchors:
                    del bit_of[child_id[u]]
                else:
                    del child_id[u]
            pool = [u for u in nprime[v] if u not in anchors]
            child_id.update(_audibility_assignment(bit_of, pool, foreign))
            tagged = [u for u in nprime[v] if u in child_id]
            first = next(u for u in tagged if child_id[u] == inherited)
            tag_order[v] = (first,) + tuple(u for u in tagged if u != first)
    return (us, nprime, owner, child_id, tag_order, frozenset(foreign_all)), anchored


def test_admission_matches_the_whole_level_reference():
    graphs = [g for i, (_name, g) in enumerate(build_corpus()[:450]) if i % 8 == 0]
    graphs += [random_connected_graph(n, cap, seed, extra_edges=extra)
               for n, cap, seed, extra in DENSE_REPAIRS]
    graphs.append(random_connected_graph(300, 16, 1, extra_edges=300))
    anchored = 0
    for g in graphs:
        d = decompose(g)
        plan = compute_upper_sets(g, d)
        fields = (plan.us, plan.nprime, plan.owner, plan.child_id, plan.tag_order, plan.foreign)
        want, used = whole_level_upper_sets(g, d)
        # dicts compare in insertion order too: the admission order is the output
        assert [list(f.items()) if isinstance(f, dict) else f for f in fields] == [
            list(f.items()) if isinstance(f, dict) else f for f in want
        ], g.edges
        anchored += used
    assert anchored > 0
