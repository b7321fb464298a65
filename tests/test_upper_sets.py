import pytest
from hypothesis import given, strategies as st
from test_acceptance import build_corpus
from test_regressions import DENSE_REPAIRS

from rsd import upper_sets
from rsd.generators import random_connected_graph, random_tree, star
from rsd.graphs import Graph, decompose
from rsd.upper_sets import (
    OraclePlanError,
    _deal,
    _promote_to_one_bit,
    _replay_level,
    account_block,
    bitlen,
    bits_value,
    collision_tag_map,
    compute_upper_sets,
    compute_weights,
    digits,
    finalize_weight_tags,
    report_slot,
    weight_tag_map,
)


def oracle(g):
    d = decompose(g)
    plan = compute_upper_sets(g, d)
    weights = compute_weights(plan, d)
    return d, plan, weights


def id_set(plan, member):
    """Sorted ids used by a member's tagged children."""
    return tuple(sorted(plan.child_id[u] for u in plan.tag_order[member]))


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


def test_report_slots_follow_the_collision_tag_slots():
    # slots 1..m carry collision tags; weight w's m report slots follow w - 1's
    assert [report_slot(3, 1, j) for j in (1, 2, 3)] == [4, 5, 6]
    assert [report_slot(3, 2, j) for j in (1, 2, 3)] == [7, 8, 9]


def test_account_block_needs_a_clean_window_a_tag_and_matching_counts():
    tags = {1: 1, 2: 1}  # three children
    reports = {1: {1: 1}, 3: {1: 1, 2: 0}}  # one of weight 1, two of weight 3
    assert account_block(True, tags, reports) == 1 + 1 * 1 + 3 * 2
    assert account_block(False, tags, reports) is None  # a collision spoils the block
    assert account_block(True, {}, {}) is None  # no collision tag heard
    assert account_block(True, tags, {1: {1: 1}}) is None  # one child reported of three


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
            ids = id_set(plan, v)
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


def three_members():
    """Level 1 of this graph has members 1, 2 and 3 owning (7,), (4, 5) and
    (6,); member 3 also hears 4 and 5."""
    g = Graph.from_edges(10, [(0, 1), (0, 2), (0, 3), (0, 8), (0, 9), (1, 7),
                              (2, 4), (2, 5), (3, 4), (3, 5), (3, 6)])
    d = decompose(g)
    plan = compute_upper_sets(g, d)
    assert plan.us[1] == (1, 2, 3) and plan.nprime[2] == (4, 5) and plan.nprime[3] == (6,)
    return g, d, plan


def test_robbed_member_names_its_silenced_carriers_smallest_first():
    # the 0-digit reports of 4 and 5 (hand-set weight 2) leave member 3's
    # count intact: it completes in block 1 and silences both, so member 2,
    # which heard no collision tag, can never complete
    g, d, plan = three_members()
    weights = {1: 2, 2: 5, 3: 2, 4: 2, 5: 2, 6: 1, 7: 1}
    l2 = {6: (1, 1), 7: (1, 1)}
    l3 = {6: (1, 1), 7: (1, 1), 4: (2, 0), 5: (3, 0)}
    assert _replay_level(g, d, plan, weights, 1, l2, l3) == (None, [4, 5])
    del l3[4], l3[5]  # nothing left to rob: member 2 fails with no suspect
    assert _replay_level(g, d, plan, weights, 1, l2, l3) == (None, [])


def test_a_miscounting_member_names_its_foreign_carriers():
    # 4 and 5 spell a consistent count at member 3: 3 children by the tags,
    # one of weight 1 and two of weight 2, so it would adopt weight 6, not 2
    g, d, plan = three_members()
    weights = {1: 2, 2: 5, 3: 2, 4: 2, 5: 2, 6: 1, 7: 1}
    l2 = {6: (1, 1), 7: (1, 1), 4: (2, 1)}
    l3 = {6: (1, 1), 7: (1, 1), 4: (2, 1), 5: (3, 0)}
    assert _replay_level(g, d, plan, weights, 1, l2, l3) == (None, [4, 5])


def test_the_smallest_robbed_member_is_named():
    # member 3 completes in block 1 and silences child 8 of member 1 and
    # child 10 of member 2; both are robbed, and member 1 is named
    g = Graph.from_edges(12, [(0, 1), (0, 2), (0, 3), (0, 11), (1, 4), (1, 7), (1, 8),
                              (2, 5), (2, 9), (2, 10), (3, 6), (3, 8), (3, 10)])
    d = decompose(g)
    plan = compute_upper_sets(g, d)
    assert plan.us[1] == (1, 2, 3) and plan.nprime[1] == (4, 7, 8) and plan.nprime[2] == (5, 9, 10)
    weights = {1: 9, 2: 9, 3: 2, 6: 1, 8: 2, 10: 2}
    l2 = {6: (1, 1)}
    l3 = {6: (1, 1), 8: (2, 0), 10: (3, 0)}
    assert _replay_level(g, d, plan, weights, 1, l2, l3) == (None, [8])


def star_tags(delta):
    """The oracle of star(delta) and its weight tags: one class of delta
    children, position j held by child j."""
    g = star(delta)
    d, plan, weights = oracle(g)
    l3 = weight_tag_map(plan, weights)
    assert l3 == {j: (j, 1) for j in range(1, bitlen(delta) + 1)}  # delta = 2^k - 1
    return g, d, plan, weights, l3


def test_a_child_on_its_own_one_digit_is_not_promoted():
    _g, _d, plan, weights, before = star_tags(3)  # 3 is binary 11: both positions are 1 digits
    l3, pinned = dict(before), set()
    assert _promote_to_one_bit(1, plan, weights, l3, pinned) is False  # 1 holds position 1
    assert l3 == before and pinned == set()
    pinned = {1}
    assert _promote_to_one_bit(2, plan, weights, l3, pinned) is False  # 2 holds position 2
    assert l3 == before and pinned == {1}
    assert _promote_to_one_bit(3, plan, weights, l3, pinned)  # untagged 3 takes position 2
    assert l3 == {1: (1, 1), 3: (2, 1)} and pinned == {1, 3}
    l3, pinned = dict(before), set()
    assert _promote_to_one_bit(2, plan, weights, l3, pinned)  # 2 takes position 1 from 1
    assert l3 == {2: (1, 1), 1: (2, 1)} and pinned == {2}


def replay_script(monkeypatch, script):
    """Replace the phase replay by script(call number, replay arguments);
    more than a few hundred calls fail the test instead of hanging it."""
    calls = []

    def replay(*args):
        calls.append(args[4])  # the level
        if len(calls) > 300:
            raise RuntimeError("the repair loop did not end")
        return script(len(calls), args)

    monkeypatch.setattr(upper_sets, "_replay_level", replay)
    return calls


def test_a_suspect_that_cannot_move_raises(monkeypatch):
    g, d, plan, weights, _l3 = star_tags(3)
    calls = replay_script(monkeypatch, lambda n, args: (None, [1]))  # 1 holds position 1
    with pytest.raises(OraclePlanError, match=r"level 0: no suspect among \[1\]"):
        finalize_weight_tags(g, d, plan, weights)
    assert calls == [0]


def test_a_repeated_suspect_raises_instead_of_looping(monkeypatch):
    # the first failed replay of a graph that needs a repair, forced to
    # repeat: its suspect is promoted and pinned once, then the loop raises
    g = random_connected_graph(65, 6, 7289, extra_edges=130)
    d, plan, weights = oracle(g)
    real = upper_sets._replay_level
    failed = []

    def script(n, args):
        if not failed:
            blocks, suspects = real(*args)
            if blocks is not None:
                return blocks, suspects
            failed.append(suspects)
        return None, failed[0]

    calls = replay_script(monkeypatch, script)
    with pytest.raises(OraclePlanError):
        finalize_weight_tags(g, d, plan, weights)
    l = calls[-1]
    assert failed == [[56]] and l == 2
    assert calls.count(l) == 2 <= len(d.levels[l + 1]) + 1


def test_pinned_suspects_are_skipped_and_the_first_movable_one_is_promoted(monkeypatch):
    g, d, plan, weights, _l3 = star_tags(7)
    script = {1: (None, [4]), 2: (None, [4, 2, 5]), 3: ({0: 1}, [])}
    calls = replay_script(monkeypatch, lambda n, args: script[n])
    promoted = []
    real = upper_sets._promote_to_one_bit

    def promote(u, plan, weights, l3, pinned):
        promoted.append((u, u in pinned))
        return real(u, plan, weights, l3, pinned)

    monkeypatch.setattr(upper_sets, "_promote_to_one_bit", promote)
    l3, blocks = finalize_weight_tags(g, d, plan, weights)
    # 4 takes position 1 and is pinned; then 4 is skipped, 2 holds the
    # first unpinned 1 digit itself, and 5 takes it from 2
    assert promoted == [(4, False), (2, False), (5, False)]
    assert l3 == {4: (1, 1), 5: (2, 1), 3: (3, 1)}
    assert blocks == {0: {0: 1}} and calls == [0, 0, 0]


def test_the_repair_loop_stays_within_its_bound(monkeypatch):
    # every child is a suspect on every replay: each pass pins one more
    # child until no 1 digit is left to take, within |V(1)| + 1 replays
    g, d, plan, weights, _l3 = star_tags(7)
    calls = replay_script(monkeypatch, lambda n, args: (None, list(d.levels[1])))
    with pytest.raises(OraclePlanError, match="level 0"):
        finalize_weight_tags(g, d, plan, weights)
    assert len(calls) == 4 <= len(d.levels[1]) + 1


def _audibility_assignment(bit_of, children, foreign):
    """The reference dealer: deal the slots of `bit_of` (slot -> digit) to
    children: quiet ones (not in `foreign`) first; unavoidable loud ones take
    1-digit slots before 0-digit slots.  Returns child -> slot."""
    quiet = [u for u in children if u not in foreign]
    loud = [u for u in children if u in foreign]
    ones_first = sorted(bit_of, key=lambda i: (-bit_of[i], i))
    out = dict(zip(loud[: max(0, len(bit_of) - len(quiet))], ones_first))
    taken = set(out.values())
    out.update(zip(quiet, sorted(i for i in bit_of if i not in taken)))
    return out


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


def reference_graphs():
    """A 1-in-8 slice of the acceptance corpus, the dense graphs whose replay
    needs repairs, and a dense 300-node graph with many anchors."""
    graphs = [g for i, (_name, g) in enumerate(build_corpus()[:450]) if i % 8 == 0]
    graphs += [random_connected_graph(n, cap, seed, extra_edges=extra)
               for n, cap, seed, extra in DENSE_REPAIRS]
    graphs.append(random_connected_graph(300, 16, 1, extra_edges=300))
    return graphs


def test_admission_matches_the_whole_level_reference():
    anchored = 0
    for g in reference_graphs():
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


def test_upper_sets_refuse_a_graph_of_one_node():
    g = Graph.from_edges(1, [])
    with pytest.raises(ValueError, match="upper sets require a graph with at least two nodes"):
        compute_upper_sets(g, decompose(g))


def spelled_collision_tags(plan):
    """The collision tags spelled again from the plan's ids, member by member."""
    tags = {}
    for v, order in plan.tag_order.items():
        bit_of = digits(len(plan.nprime[v]), id_set(plan, v))
        for u in order:
            tags[u] = (plan.child_id[u], bit_of[plan.child_id[u]])
    return tags


def reference_weight_tags(plan, weights):
    """The weight tags dealt by the reference dealer from a digits map per group."""
    tags = {}
    for private in plan.nprime.values():
        groups = {}
        for u in private:
            groups.setdefault(weights[u], []).append(u)
        for group in groups.values():
            bit_of = digits(len(group), range(1, bitlen(len(group)) + 1))
            for u, j in _audibility_assignment(bit_of, group, plan.foreign).items():
                tags[u] = (j, bit_of[j])
    return tags


def reference_repairs(g, d, plan, weights, replay):
    """finalize_weight_tags' repair loop, from the reference tags: returns
    the weight tags, the blocks and every replay's (level, blocks, suspects)."""
    l2, l3 = spelled_collision_tags(plan), reference_weight_tags(plan, weights)
    replays, blocks_per_level, pinned = [], {}, set()
    for l in range(d.h):
        while True:
            blocks, suspects = replay(g, d, plan, weights, l, l2, l3)
            replays.append((l, blocks, suspects))
            if blocks is not None:
                blocks_per_level[l] = blocks
                break
            assert any(u not in pinned and _promote_to_one_bit(u, plan, weights, l3, pinned)
                       for u in suspects)
    return l3, blocks_per_level, replays


def test_dealt_tags_match_the_tags_spelled_again(monkeypatch):
    graphs = reference_graphs() + [
        random_tree(3000, 16, 1), random_connected_graph(1500, 16, 1), star(2048)]
    real = upper_sets._replay_level
    replays = []

    def replay(*args):
        blocks, suspects = real(*args)
        replays.append((args[4], blocks, suspects))
        return blocks, suspects

    monkeypatch.setattr(upper_sets, "_replay_level", replay)
    repaired = 0
    for g in graphs:
        d, plan, weights = oracle(g)
        assert collision_tag_map(plan) == spelled_collision_tags(plan), g.edges
        assert weight_tag_map(plan, weights) == reference_weight_tags(plan, weights), g.edges
        replays.clear()
        l3, blocks = finalize_weight_tags(g, d, plan, weights)
        assert (l3, blocks, replays) == reference_repairs(g, d, plan, weights, real), g.edges
        repaired += any(suspects for _l, _blocks, suspects in replays)
    assert repaired >= len(DENSE_REPAIRS)


def test_collision_tags_share_one_tuple_per_distinct_tag():
    g = random_tree(3000, 16, 1)
    _d, plan, _weights = oracle(g)
    tags = plan.collision_tags
    assert len({id(t) for t in tags.values()}) == len(set(tags.values())) < len(tags)


@given(st.integers(min_value=1, max_value=40), st.data())
def test_the_dealer_matches_the_reference_dealer(count, data):
    spelled = format(count, "b")
    ids = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=12),
                                   min_size=len(spelled), max_size=len(spelled))))
    children = data.draw(st.lists(st.integers(min_value=0, max_value=60), min_size=len(spelled),
                                  max_size=len(spelled) + 6, unique=True))
    foreign = data.draw(st.sets(st.sampled_from(children)))
    tags = [(i, int(c)) for i, c in zip(ids, spelled)]
    want = _audibility_assignment(dict(tags), children, foreign)
    assert [(u, i) for u, (i, _bit) in _deal(tags, children, foreign)] == list(want.items())


def test_the_dealer_gives_loud_children_one_digits_first():
    five = [(1, 1), (2, 0), (3, 1)]  # binary 101
    # one quiet child is too few: the two loud ones take both 1 digits
    assert _deal(five, [7, 8, 9], {7, 9}) == [(7, (1, 1)), (9, (3, 1)), (8, (2, 0))]
    # binary 100: loud children take 0 digits only when no quiet child can
    four = [(1, 1), (2, 0), (3, 0)]
    assert _deal(four, [4, 5, 6], {4, 5, 6}) == [(4, (1, 1)), (5, (2, 0)), (6, (3, 0))]
    assert _deal(four, [4, 5, 6, 7], {4}) == [(5, (1, 1)), (6, (2, 0)), (7, (3, 0))]


def test_an_anchor_keeps_its_id_and_its_digit():
    # member 1 owns 3, 4, 5 and 6 (binary 100); its child 3, also heard by
    # node 2, admits member 2 and keeps id 1 and digit 1, while 4 and 5 are
    # dealt the two 0 digits again
    g = Graph.from_edges(12, [(0, 1), (0, 2), (0, 8), (0, 9), (0, 10), (0, 11),
                              (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 7)])
    _d, plan, _weights = oracle(g)
    assert plan.us[1] == (1, 2) and plan.nprime[1] == (3, 4, 5, 6) and plan.foreign == {3}
    assert plan.tag_order[1] == (3, 4, 5) and plan.tag_order[2] == (7,)
    tags = collision_tag_map(plan)
    assert {u: tags[u] for u in (3, 4, 5, 7)} == {3: (1, 1), 4: (2, 0), 5: (3, 0), 7: (1, 1)}
    assert tags == spelled_collision_tags(plan)
