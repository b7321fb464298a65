import hashlib
import random

import pytest
from test_acceptance import pattern_bound_second_path
from test_radio import Opaque

from rsd import history_lab
from rsd.generators import family_member
from rsd.history_lab import (
    LAMBDA,
    STAR,
    SUB,
    HistoryTable,
    build_family,
    check_lemmas,
    compute_histories,
    crossover,
    family_tree,
    label_universe,
    matched_labelings,
    pattern_bound,
    pattern_of,
    seeded_automaton,
)
from rsd.protocol import run_protocol
from rsd.radio import COLLISION, SILENCE, resolve_round


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
    assert len({h for h in hist[0]}) == 1
    # every node's history evolves identically: one shared handle per round
    for t in range(6):
        assert len(set(hist[t])) == 1


def test_round_zero_is_the_label():
    tree = build_family(4)[0]
    labeling = {v: format(v % 3, "b") for v in range(tree.n)}
    hist = compute_histories(tree, labeling, seeded_automaton(1), 0)
    assert len(hist) == 1
    groups = {}
    for v, h in enumerate(hist[0]):
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
    material = f"sub|{table.digest(table.leaf('l'))}|{table.digest(center_label)}"
    expected = hashlib.blake2b(material.encode(), digest_size=16).hexdigest()
    assert table.digest(hist[1][1]) == expected and table.digest(hist[1][2]) == expected


def test_label_universe():
    assert label_universe(0) == ("",)
    assert label_universe(1) == ("", "0", "1")
    assert len(label_universe(3)) == 2**4 - 1
    with pytest.raises(ValueError, match="^beta must be >= 0$"):
        label_universe(-1)


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


def test_a_family_without_two_hub_leaves_has_no_matched_labelings():
    (tree,) = build_family(2)
    assert tree.i == 1
    rng = random.Random(3)
    state = rng.getstate()
    assert matched_labelings([tree], beta=1, rng=rng) == []
    assert rng.getstate() == state  # the empty answer draws nothing


def test_pattern_bound_values():
    assert pattern_bound(0) == 324
    assert pattern_bound(1) == 104976
    with pytest.raises(ValueError, match="^beta must be >= 0$"):
        pattern_bound(-1)


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


def test_crossover_rejects_a_degree_without_a_family():
    with pytest.raises(ValueError, match="the family needs delta >= 2, got -5"):
        crossover(0, -5)
    assert crossover(0, 2)["family_size_lower_bound"] == 1


# --- the history loop against a plain reference ---------------------------------


class _ReferenceTable:
    """The history store without an action cache: digests joined part by part."""

    def __init__(self):
        self._intern = {}
        self._digests = []

    def leaf(self, label):
        return self._get(("leaf", label))

    def extend(self, prev, event, sub=None):
        return self._get((event, prev) if sub is None else (event, prev, sub))

    def _get(self, key):
        hid = self._intern.get(key)
        if hid is None:
            hid = len(self._digests)
            self._intern[key] = hid
            material = "|".join(
                self._digests[part] if isinstance(part, int) else str(part) for part in key
            )
            self._digests.append(hashlib.blake2b(material.encode(), digest_size=16).hexdigest())
        return hid

    def digest(self, hid):
        return self._digests[hid]


def _reference_histories(tree, labeling, automaton, rounds, table):
    """One automaton call per node and round, one table call per new entry."""
    g = tree.graph
    current = [table.leaf(labeling[v]) for v in range(g.n)]
    out = [current]
    for _t in range(rounds):
        actions = {
            v: Opaque(current[v]) if automaton(table.digest(current[v])) else None
            for v in range(g.n)
        }
        obs = resolve_round(g, actions)
        nxt = []
        for v in range(g.n):
            o = obs[v]
            if isinstance(o, Opaque):
                nxt.append(table.extend(current[v], SUB, o.payload))
            elif o is COLLISION:
                nxt.append(table.extend(current[v], STAR))
            else:
                nxt.append(table.extend(current[v], LAMBDA))
        current = nxt
        out.append(current)
    return out


def _assert_same_histories(hist, table, ref, ref_table):
    assert len(hist) == len(ref)
    for t, (now, then) in enumerate(zip(hist, ref)):
        assert now == then, t
        assert [table.digest(h) for h in now] == [ref_table.digest(h) for h in then], t


def _automata(rng):
    """A seeded hash, a silent one, and one transmitting on a fixed digest set."""
    chosen = set()
    probe = _ReferenceTable()
    for tree in build_family(6):
        labeling = {v: rng.choice(label_universe(1)) for v in range(tree.n)}
        for now in _reference_histories(tree, labeling, seeded_automaton(7), 12, probe):
            chosen.update(probe.digest(h) for h in now if rng.random() < 0.5)
    return [seeded_automaton(rng.getrandbits(32)), lambda digest: False, chosen.__contains__]


@pytest.mark.parametrize("delta", range(2, 13))
def test_histories_match_the_reference_loop(delta):
    rng = random.Random(delta)
    for automaton in _automata(rng):
        # one table shared by the members, as check_lemmas shares it per trial
        table, ref_table = HistoryTable(), _ReferenceTable()
        for tree in build_family(delta):
            universe = label_universe(rng.randrange(3))
            labeling = {v: rng.choice(universe) for v in range(tree.n)}
            hist = compute_histories(tree, labeling, automaton, 40, table)
            ref = _reference_histories(tree, labeling, automaton, 40, ref_table)
            _assert_same_histories(hist, table, ref, ref_table)


def test_a_reused_table_forgets_the_previous_automaton():
    rng = random.Random(11)
    tree = family_tree(8, 5)
    labeling = {v: rng.choice(label_universe(2)) for v in range(tree.n)}
    table, ref_table = HistoryTable(), _ReferenceTable()
    runs = _automata(rng) + [seeded_automaton(1), seeded_automaton(2)]
    for automaton in runs + runs[::-1]:
        hist = compute_histories(tree, labeling, automaton, 30, table)
        ref = _reference_histories(tree, labeling, automaton, 30, ref_table)
        _assert_same_histories(hist, table, ref, ref_table)


# sha256 over table.digest(hist[t][v]) for every trial, member, t and v, with
# seeded_automaton(rng.getrandbits(32)), a fresh table per trial and a random
# beta-1 labeling per member drawn from rng = Random(delta)
PINNED_HISTORY_HASHES = {
    4: "ac92156a911534464251193575b4f93ac59dc1155b89def9528b8aa99fdee270",
    6: "11e72ea8f01cec0cfba4c87dd56161edb0568d059ffd993d68fb7e8bf4410c9c",
    8: "48f0cfa1931a31baab2bf58e223ddef348a7facf0d03b855c6a78642e1f72521",
    12: "654112ad8bab41f79058b38333643bceda471a0db5d81db8980ba5d7f2220634",
}


@pytest.mark.parametrize("delta", sorted(PINNED_HISTORY_HASHES))
def test_history_digests_are_pinned(delta):
    rng = random.Random(delta)
    universe = label_universe(1)
    h = hashlib.sha256()
    for _trial in range(3):
        automaton = seeded_automaton(rng.getrandbits(32))
        table = HistoryTable()
        for tree in build_family(delta):
            labeling = {v: rng.choice(universe) for v in range(tree.n)}
            hist = compute_histories(tree, labeling, automaton, 150, table)
            for t in range(151):
                for v in range(tree.n):
                    h.update(table.digest(hist[t][v]).encode())
    assert h.hexdigest() == PINNED_HISTORY_HASHES[delta]


def test_scheme_leaves_with_equal_labels_are_indistinguishable():
    # lemma 1 for the paper's own scheme: its labels are the only thing that
    # tells two leaves of one center apart
    pairs = 0
    for delta in (4, 6, 8, 12, 16):
        for tree in build_family(delta):
            res = run_protocol(tree.graph, record_trace=True, record_events=True)
            assert res.ok
            labels = res.scheme.encoded
            for group in (tree.leaves_r, tree.leaves_a):
                for k, va in enumerate(group):
                    for vb in group[k + 1:]:
                        if labels[va] != labels[vb]:
                            continue
                        pairs += 1
                        assert res.nodes[va].events == res.nodes[vb].events
                        for r, (actions, obs) in res.trace.rounds.items():
                            assert actions.get(va) == actions.get(vb), (delta, tree.i, r)
                            assert obs.get(va, SILENCE) == obs.get(vb, SILENCE), (delta, tree.i, r)
    assert pairs > 0


def test_histories_refuse_negative_rounds():
    tree = family_tree(4, 2)
    labeling = {v: "" for v in range(tree.n)}
    with pytest.raises(ValueError, match="rounds >= 0, got -3"):
        compute_histories(tree, labeling, seeded_automaton(1), -3)
    assert len(compute_histories(tree, labeling, seeded_automaton(1), 0)) == 1


def _first_t_per_pair(calls, rounds):
    """Lemma 1's records by the plain loop: each leaf pair's first t at which
    history equality and label equality disagree."""
    records = []
    for trial, tree, labeling, hist in calls:
        for group in (tree.leaves_r, tree.leaves_a):
            for k, va in enumerate(group):
                for vb in group[k + 1:]:
                    same_label = labeling[va] == labeling[vb]
                    for t in range(rounds + 1):
                        if (hist[t][va] == hist[t][vb]) != same_label:
                            records.append({"lemma": "leaf-indistinguishability", "trial": trial,
                                            "tree_i": tree.i, "nodes": [va, vb], "t": t})
                            break
    return records


def test_violation_records_name_each_pairs_first_diverging_t(monkeypatch):
    # forged histories: in every lemma-1 run the first same-label pair of R
    # splits at t = 7, and the first different-label pair of R meets at t = 11
    delta, trials, rounds = 12, 2, 20
    real = history_lab.compute_histories
    calls, forged = [], []
    per_trial = len(build_family(delta)) + sum(t.i >= 2 for t in build_family(delta))

    def forge(tree, labeling, automaton, rounds, table=None):
        hist = real(tree, labeling, automaton, rounds, table)
        trial, step = divmod(len(calls), per_trial)
        if step < len(build_family(delta)):  # a lemma-1 run; the rest are lemma 2's
            leaves = tree.leaves_r
            pairs = [(a, b) for k, a in enumerate(leaves) for b in leaves[k + 1:]]
            same = next((a, b) for a, b in pairs if labeling[a] == labeling[b])
            other = next((a, b) for a, b in pairs if labeling[a] != labeling[b])
            for t in range(7, rounds + 1):
                hist[t][same[1]] = -1 - t  # no real handle
            for t in range(11, rounds + 1):
                hist[t][other[1]] = hist[t][other[0]]
            forged.append({"trial": trial, "tree_i": tree.i, "nodes": list(same), "t": 7})
            forged.append({"trial": trial, "tree_i": tree.i, "nodes": list(other), "t": 11})
            calls.append((trial, tree, labeling, hist))
        else:
            calls.append(None)
        return hist

    monkeypatch.setattr(history_lab, "compute_histories", forge)
    report = check_lemmas(delta, trials=trials, rounds=rounds, seed=5)
    leaf = [v for v in report["violations"] if v["lemma"] == "leaf-indistinguishability"]
    assert leaf == _first_t_per_pair([c for c in calls if c is not None], rounds)
    for record in forged:
        assert dict(record, lemma="leaf-indistinguishability") in leaf
    assert len(forged) == 2 * trials * len(build_family(delta))
    assert [v for v in report["violations"] if v not in leaf] == []


def test_lemma_2_records_name_each_members_first_diverging_t(monkeypatch):
    # forged center histories: in trial 0 the second matched member's splits
    # from the first member's at t = 0 and the fourth's at t = 7; in trial 1
    # the sixth's at the last t.  Each is one record, and nothing else is
    delta, trials, rounds = 12, 2, 20
    family = build_family(delta)
    matched = sum(t.i >= 2 for t in family)
    forged = {(0, 1): 0, (0, 3): 7, (1, 5): rounds}
    real = history_lab.compute_histories
    calls = []

    def forge(tree, labeling, automaton, rounds, table=None):
        hist = real(tree, labeling, automaton, rounds, table)
        trial, step = divmod(len(calls), len(family) + matched)
        calls.append(tree)
        member = step - len(family)  # negative in a lemma-1 run
        for t in range(forged.get((trial, member), rounds + 1), rounds + 1):
            hist[t][tree.r] = -1 - t  # no real handle
        return hist

    monkeypatch.setattr(history_lab, "compute_histories", forge)
    report = check_lemmas(delta, trials=trials, rounds=rounds, seed=5)
    assert len(calls) == trials * (len(family) + matched) and matched == len(family)
    assert report["violations"] == [
        {"lemma": "pattern-determines-center", "trial": trial, "t": t}
        for (trial, _member), t in sorted(forged.items())
    ]
