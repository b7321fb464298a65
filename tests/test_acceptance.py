"""Acceptance suite: every shipped guarantee, checked at its stated tolerance.

Each test prints one PASS line (run with -s or -rA to see them); a failure
of any assertion is the corresponding FAIL.
"""
import random

import pytest

from rsd.generators import path, random_connected_graph, random_tree, star
from rsd.graphs import Graph, decompose
from rsd.history_lab import build_family, check_lemmas, pattern_bound
from rsd.labels import assign_labels, length_bound
from rsd.protocol import MAX_WAVE_BITS, run_protocol, t1_formula, wave_span
from rsd.upper_sets import bitlen, compute_upper_sets, compute_weights


def build_corpus():
    """>= 500 deterministic instances: seeded trees and connected graphs with
    2 <= n <= 150 and max degree <= 32, plus the structured specials."""
    corpus = []
    caps = (3, 4, 6, 8, 12, 32)
    for i in range(300):
        n = 2 + (i * 97) % 149
        cap = caps[i % len(caps)]
        corpus.append((f"tree-{i}", random_tree(n, cap, 10_000 + i)))
    for i in range(150):
        n = 3 + (i * 89) % 148
        cap = caps[(i + 3) % len(caps)]
        corpus.append((f"graph-{i}", random_connected_graph(n, cap, 20_000 + i)))
    corpus.append(("K2", star(1)))
    for n in range(3, 11):
        corpus.append((f"path-{n}", path(n)))
    for delta in range(1, 13):
        corpus.append((f"star-{delta}", star(delta)))
    corpus.append(("diamond", Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])))
    for delta in range(2, 13):
        for tree in build_family(delta):
            corpus.append((f"family-{delta}-{tree.i}", tree.graph))
    return corpus


@pytest.fixture(scope="module")
def corpus_runs():
    runs = []
    for name, g in build_corpus():
        runs.append((name, g, run_protocol(g, record_events=True)))
    return runs


def test_c1_end_to_end_correctness(corpus_runs):
    assert len(corpus_runs) >= 500
    failures = [
        (name, res.failure)
        for name, g, res in corpus_runs
        if not res.ok or any(out != g.n for out in res.outputs.values())
    ]
    assert failures == []
    print(f"\nACCEPTANCE 1 PASS: all {len(corpus_runs)} runs output n exactly")


def _labeled(g):
    d = decompose(g)
    plan = compute_upper_sets(g, d)
    weights = compute_weights(plan, d)
    return d, assign_labels(g, d, plan, weights)


def _graph_with_hub_degree(delta, seed):
    """A seeded non-star graph whose maximum degree is exactly delta."""
    rng = random.Random(seed)
    tail = rng.randrange(3, 7)
    n = delta + 1 + tail
    edges = [(0, v) for v in range(1, delta + 1)]
    prev = 1
    for v in range(delta + 1, n):
        edges.append((prev, v))
        prev = v
    return Graph.from_edges(n, edges)


def test_c2_label_length():
    deltas = (2, 4, 16, 256, 4096, 65536)
    max_bits = {}
    for delta in deltas:
        observed = 0
        for g in (star(delta), _graph_with_hub_degree(delta, delta)):
            d, scheme = _labeled(g)
            assert d.delta == delta
            bits = scheme.max_bits()
            assert bits <= length_bound(delta), (delta, bits)
            observed = max(observed, bits)
        max_bits[delta] = observed
    for small, big in ((2, 4), (4, 16), (16, 256), (256, 65536)):
        assert max_bits[big] <= max_bits[small] + 6
    print(f"\nACCEPTANCE 2 PASS: max label bits {max_bits} within 16+6*bitlen(bitlen(delta))")


def test_c3_round_bound(corpus_runs):
    for name, g, res in corpus_runs:
        assert res.rounds_used <= res.round_cap, name
    worst = max(res.rounds_used / res.round_cap for _n, _g, res in corpus_runs)
    print(f"\nACCEPTANCE 3 PASS: rounds_used <= 64*D*n^2*(floor(log delta)+1); worst ratio {worst:.3f}")


def test_c4_parameter_learning(corpus_runs):
    for name, g, res in corpus_runs:
        d = res.decomposition
        t1 = t1_formula(d.delta, d.h)
        for v in range(g.n):
            got = {}
            for e in res.nodes[v].events:
                if e[0] in ("delta", "level", "h") and e[0] not in got:
                    got[e[0]] = e
            assert got["delta"][1:] == (got["delta"][1], d.delta) and got["delta"][1] <= t1, name
            assert got["level"][2] == d.level[v] and got["level"][1] <= t1, name
            assert got["h"][2] == d.h and got["h"][1] <= t1, name
    print("\nACCEPTANCE 4 PASS: every node knows (delta, level, h) correctly by round t1")


def test_c5_phase_weights(corpus_runs):
    for name, g, res in corpus_runs:
        d = res.decomposition
        ends = {}
        for v in range(g.n):
            for e in res.nodes[v].events:
                if e[0] == "t2":
                    ends.setdefault(e[1], set()).add(e[3])
        for i, vals in ends.items():
            assert len(vals) == 1, (name, i)
        for i in range(1, d.h + 1):
            end = next(iter(ends[i + 1]))
            for v in d.levels[d.h - i]:
                weight_events = [e for e in res.nodes[v].events if e[0] == "weight"]
                assert weight_events, (name, v)
                r, w = weight_events[0][1], weight_events[0][2]
                assert w == res.oracle_weights[v], (name, v)
                assert r <= end, (name, v)
        for l in range(d.h + 1):
            at_or_below = sum(len(vs) for vs in d.levels[l:])
            assert sum(res.oracle_weights[v] for v in d.levels[l]) == at_or_below
    print("\nACCEPTANCE 5 PASS: phase-end weights equal the oracle and levels conserve counts")


def wave_encode(x: int) -> str:
    """Bit-serial schedule for x: each 1 becomes 10, each 0 becomes 00, then 11."""
    if x < 1:
        raise ValueError(f"wave value must be >= 1, got {x}")
    if wave_span(x) > MAX_WAVE_BITS:
        raise ValueError(f"wave value {x} needs more than MAX_WAVE_BITS = {MAX_WAVE_BITS} rounds")
    return "".join("10" if c == "1" else "00" for c in format(x, "b")) + "11"


class MalformedWaveError(ValueError):
    """A pulse pattern that is not a valid encoded value."""


def wave_decode(pattern: str) -> int:
    """Inverse of wave_encode over a non-silence pattern: the string
    reference that the automaton's arithmetic `WaveListener` agrees with.

    The first pair whose second bit is one must be the terminating 11 and
    must end the pattern; a 01 pair anywhere earlier is malformed.  Leading
    zero pairs decode to leading zero bits, which vanish under integer
    normalization.
    """
    i = 2 * pattern[1::2].find("1")
    if i < 0:
        raise MalformedWaveError("pattern ended before the 11 terminator")
    if pattern[i] != "1":
        raise MalformedWaveError(f"second bit of pair at offset {i} is 1")
    if i + 2 != len(pattern):
        raise MalformedWaveError("bits after the terminator")
    if i == 0:
        raise MalformedWaveError("empty payload before terminator")
    value = int(pattern[0:i:2], 2)
    if value < 1:
        raise MalformedWaveError("payload decodes to zero")
    return value


def test_c6_wave_oracle(corpus_runs):
    for x in range(1, 4097):
        assert wave_decode(wave_encode(x)) == x
    for name, g, res in corpus_runs:
        d = res.decomposition
        m = bitlen(d.delta)
        start_h = m + d.h * (2 * m + 2) + d.h
        kh, kn = bitlen(d.h), bitlen(g.n)
        for v in range(g.n):
            if v == d.root:
                continue
            waves = {e[1]: e for e in res.nodes[v].events if e[0] == "wave"}
            lvl = d.level[v]
            assert waves["delta"][2] == m + lvl * (2 * m + 2), (name, v)
            assert waves["h"][2] == start_h + lvl * (2 * kh + 2), (name, v)
            t2_final = [e for e in res.nodes[v].events if e[0] == "t2"][-1][3]
            assert waves["n"][2] == t2_final + lvl * (2 * kn + 2), (name, v)
    print("\nACCEPTANCE 6 PASS: wave round-trip exact on 1..4096 and in-run arrivals at start + j*(2k+2)")


def test_c7_upper_set_construction(corpus_runs):
    for name, g, res in corpus_runs:
        d, plan = res.decomposition, res.plan
        m = bitlen(d.delta)
        for l in range(d.h):
            members = plan.us[l]
            nxt = set(d.levels[l + 1])
            covered = set()
            claimed = set()
            for idx, v in enumerate(members):
                private = set(plan.nprime[v])
                assert private and not private & claimed, (name, l, v)
                for w in members[:idx]:
                    assert private.isdisjoint(g.adj[w]), (name, l, v)
                claimed |= private
                covered.update(w for w in g.adj[v] if d.level[w] == l + 1)
                ids = [plan.child_id[u] for u in plan.tag_order[v]]
                assert len(ids) == bitlen(len(private)), (name, l, v)
                assert len(set(ids)) == len(ids), (name, l, v)
                assert all(1 <= i <= m for i in ids), (name, l, v)
            assert covered == nxt and claimed == nxt, (name, l)
    print("\nACCEPTANCE 7 PASS: private sets partition each level, coverage and id rules hold")


def test_c8_lower_bound_lemmas():
    for delta in (4, 6, 8, 12):
        report = check_lemmas(delta, trials=50, rounds=200, seed=delta)
        assert report["violations"] == [], delta
        assert report["trials"] == 50 and report["rounds"] == 200
    print("\nACCEPTANCE 8 PASS: leaf and pattern indistinguishability hold over 50 seeded automata x 4 degrees")


def pattern_bound_second_path(beta):
    """The same quantity as `pattern_bound`, by an independent grouping: (z * 3^z)^2."""
    z = 2 ** (beta + 1)
    return (z * 3**z) ** 2


def test_c9_counting_arithmetic():
    assert pattern_bound(0) == 324
    assert pattern_bound(1) == 104976
    for beta in range(0, 9):
        assert pattern_bound(beta) == pattern_bound_second_path(beta)
    print("\nACCEPTANCE 9 PASS: z^2*3^(2z) exact at beta=0,1 and matches the second evaluation path to beta=8")
