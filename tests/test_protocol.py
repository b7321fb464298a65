import dataclasses
import gc
import sys
import tracemalloc
from bisect import bisect_left

import pytest
from hypothesis import example, given, strategies as st
from test_acceptance import MalformedWaveError, wave_decode, wave_encode
from test_graphs import connected_graphs

from rsd import protocol, radio
from rsd.generators import path, random_connected_graph, random_tree, star
from rsd.graphs import Graph, decompose
from rsd.labels import Label, Tag, decode_label, make_markers
from rsd.protocol import (
    MAX_WAVE_BITS,
    ProtocolDesyncError,
    SizeDiscoveryNode,
    WaveListener,
    depth_report_round,
    run_protocol,
    t1_formula,
    tau_formula,
    wave_hop,
    wave_pulses,
    wave_span,
)
from rsd.upper_sets import bitlen, finalize_weight_tags, report_slot


# --- the flooding subroutine -------------------------------------------------


def test_wave_encode_known_values():
    assert wave_encode(13) == "1010001011"
    assert wave_encode(1) == "1011"
    assert wave_encode(5) == "10001011"


def test_wave_encode_limited_to_max_wave_bits():
    assert len(wave_encode(2**64 - 1)) == MAX_WAVE_BITS
    with pytest.raises(ValueError, match="MAX_WAVE_BITS"):
        wave_encode(2**64)


def test_wave_encode_rejects_zero():
    with pytest.raises(ValueError):
        wave_encode(0)


def test_wave_encode_terminator_unique():
    for x in range(1, 300):
        p = wave_encode(x)
        assert len(p) == 2 * bitlen(x) + 2
        assert p.find("11") == len(p) - 2


def test_wave_decode_known_values():
    assert wave_decode("1010001011") == 13
    assert wave_decode("1011") == 1
    assert wave_decode("001011") == 1  # leading zero pair normalizes away


def test_wave_decode_malformed():
    with pytest.raises(MalformedWaveError):
        wave_decode("0111")  # second bit of first pair set
    with pytest.raises(MalformedWaveError):
        wave_decode("1000")  # no terminator
    with pytest.raises(MalformedWaveError):
        wave_decode("11")  # empty payload
    with pytest.raises(MalformedWaveError):
        wave_decode("101100")  # bits after the terminator


@given(st.integers(1, 10**9))
def test_wave_roundtrip_property(x):
    assert wave_decode(wave_encode(x)) == x


def test_wave_pulses_are_the_ones_of_the_string_schedule():
    for x in [*range(1, 2**12 + 1), 2**64 - 1]:
        assert wave_pulses(x) == [i for i, c in enumerate(wave_encode(x)) if c == "1"], x


def test_wave_pulses_refuses_what_the_string_schedule_refuses():
    with pytest.raises(ValueError, match="must be >= 1"):
        wave_pulses(0)
    with pytest.raises(ValueError, match="MAX_WAVE_BITS"):
        wave_pulses(2**64)


# --- timeline arithmetic ------------------------------------------------------


def test_t1_examples():
    assert t1_formula(4, 1) == 16
    assert t1_formula(1, 1) == 10


def test_tau_examples():
    assert tau_formula(4, 2) == 10
    assert tau_formula(2, 1) == 5


# --- end-to-end runs ----------------------------------------------------------


def test_k2_run():
    res = run_protocol(star(1), record_events=True)
    assert res.ok
    assert res.outputs == {0: 2, 1: 2}
    # the root learns the degree from the single tagged neighbor in round 1
    assert ("delta", 1, 1) in res.nodes[0].events


def test_star4_run_and_phase_weights():
    res = run_protocol(star(4))
    assert res.ok
    assert set(res.outputs.values()) == {5}
    for v in range(1, 5):
        assert res.nodes[v].weight == 1
    assert res.nodes[0].weight == 5


def test_diamond_run():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    res = run_protocol(g)
    assert res.ok and set(res.outputs.values()) == {4}


def test_path3_run():
    res = run_protocol(path(3))
    assert res.ok and set(res.outputs.values()) == {3}


def test_random_tree_50():
    res = run_protocol(random_tree(50, 8, 7))
    assert res.ok and set(res.outputs.values()) == {50}


def test_single_node_rejected():
    g = Graph.from_edges(1, [])
    with pytest.raises(ValueError, match="n >= 2"):
        run_protocol(g)


def test_nodes_boot_from_their_encoded_bits(monkeypatch):
    # the oracle's Label objects are wiped; only the encoded bits are intact
    real, decoded = protocol.assign_labels, []

    def wiped(*args):
        scheme = real(*args)
        return dataclasses.replace(scheme, labels={v: Label(make_markers()) for v in scheme.labels})

    monkeypatch.setattr(protocol, "assign_labels", wiped)
    monkeypatch.setattr(protocol, "decode_label", lambda bits: decoded.append(bits) or decode_label(bits))
    g = random_tree(40, 4, 3)
    res = run_protocol(g)
    assert res.ok and set(res.outputs.values()) == {g.n}
    assert sorted(decoded) == sorted(set(res.scheme.encoded.values()))  # each distinct label once
    for v in range(g.n):
        assert res.nodes[v].label == decode_label(res.scheme.encoded[v]) != res.scheme.labels[v]


def test_a_label_that_does_not_decode_fails_the_run_at_round_0(monkeypatch):
    # nodes 3 and 2 hold the same bad string: the lowest of them is named
    real = protocol.assign_labels

    def broken(*args):
        scheme = real(*args)
        scheme.encoded[3] = scheme.encoded[2] = "0101"
        return scheme

    monkeypatch.setattr(protocol, "assign_labels", broken)
    res = run_protocol(path(5), record_trace=True)
    assert not res.ok and res.rounds_used == 0 and res.nodes == {}
    assert res.outputs == {v: None for v in range(5)}
    assert res.failure == "round 0, node 2: label does not decode: truncated label: missing marker bits"
    assert res.trace.last == 0 and res.trace.format_text() == ""


def _reference_run(g, res):
    """The reference engine on a protocol run's labels and round cap:
    (nodes, trace, rounds_used)."""
    nodes = {v: SizeDiscoveryNode(res.scheme.labels[v], v, record_events=True) for v in range(g.n)}
    trace, rounds_used = radio.run(g, nodes, res.round_cap)
    return nodes, trace, rounds_used


def test_engines_agree():
    for g in (star(3), path(5), random_connected_graph(14, 5, 2)):
        fast = run_protocol(g, record_events=True)
        ref_nodes, _trace, ref_rounds = _reference_run(g, fast)
        assert fast.outputs == {v: ref_nodes[v].output for v in range(g.n)}
        assert fast.rounds_used == ref_rounds
        for v in range(g.n):
            assert fast.nodes[v].events == ref_nodes[v].events


def test_events_are_kept_only_when_asked_for():
    g = random_connected_graph(14, 5, 2)
    plain = run_protocol(g, record_trace=True)
    logged = run_protocol(g, record_trace=True, record_events=True)
    assert all(plain.nodes[v].events is None for v in range(g.n))
    assert all(logged.nodes[v].events for v in range(g.n))
    assert plain.ok and plain.outputs == logged.outputs
    assert plain.rounds_used == logged.rounds_used
    assert plain.trace.format_text() == logged.trace.format_text()


def test_a_run_without_the_event_log_holds_constant_state_per_node():
    # path(200) runs h = 198 phases.  Without the log a node keeps its
    # slots, a label shared with equal labels, its pending sends, the scratch of
    # the stage it is in (the degree tags or one block's account) and the
    # pulse rounds heard while it awaits one wave: well under 1.5 KiB
    # whatever h is, plus its share of the graph, labels and oracle tables.
    # 8 KiB per node bounds all of it.  The log adds four tuples of at
    # least 64 bytes per node and phase, over 50 KiB per node here.
    g = path(200)
    budget = 8 * 1024 * g.n
    tracemalloc.start()
    try:
        res = run_protocol(g)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.ok
    assert 4 * res.decomposition.h * g.n * sys.getsizeof((0, 0, 0)) > 2 * budget
    assert peak < budget


def test_a_finished_run_retains_under_1200_bytes_per_node():
    # what a result keeps per node: its automaton's slots and what it
    # learned, the shared labels and strings, and its share of the graph
    # and oracle tables (about 860 bytes here; 1,980 with an instance dict,
    # stage scratch, a drained table of sends and one label per node)
    g = random_tree(300, 8, 1)
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        res = run_protocol(g)
        gc.collect()  # a full collection also empties the free lists the run filled
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.ok
    assert after - before < 1200 * g.n


def test_a_node_has_no_instance_dict():
    node = SizeDiscoveryNode(Label(make_markers()))
    assert not hasattr(node, "__dict__")
    with pytest.raises(AttributeError):
        node.scratch = {}


def test_stage_scratch_lives_only_while_its_stage_runs():
    root = SizeDiscoveryNode(Label(make_markers(0), l1=Tag(2, 0)))
    leaf = SizeDiscoveryNode(Label(make_markers()))
    assert root._delta_bits == {} and leaf._delta_bits is None
    assert root._tags_heard is leaf._tags_heard is None
    # random_tree(300, 8, 1): depth 13, and 157 upper-set members that each
    # account their block and stop
    res = run_protocol(random_tree(300, 8, 1))
    assert res.ok and res.decomposition.h == 13
    assert sum(res.scheme.labels[v].has(4) for v in range(300)) == 157
    for v, node in res.nodes.items():
        assert node._delta_bits is None, v
        assert node._window_clean is node._tags_heard is node._reports_heard is None, v
        assert node._sends is None, v


def test_root_refuses_a_degree_of_zero():
    # tags spelling 0 are no degree: the root stops in its own stage
    root = SizeDiscoveryNode(Label(make_markers(0), l1=Tag(2, 0)), node_id=1)
    root.observe(1, radio.DeltaLearn(Tag(1, 0)))
    with pytest.raises(ProtocolDesyncError) as err:
        root.observe(2, radio.DeltaLearn(Tag(2, 0)))
    assert err.value.stage == "root_collect"
    assert (err.value.round_no, err.value.node) == (2, 1)
    assert "degree 0 does not fit its own bit count" in str(err.value)


def test_round_cap_respected_and_reported():
    g = random_tree(20, 4, 5)
    res = run_protocol(g)
    assert res.rounds_used <= res.round_cap
    d = decompose(g)
    assert res.round_cap == 64 * g.diameter() * g.n * g.n * bitlen(d.delta)


def test_parameter_learning_lemma():
    g = random_connected_graph(25, 6, 11)
    res = run_protocol(g, record_events=True)
    assert res.ok
    d = res.decomposition
    t1 = t1_formula(d.delta, d.h)
    for v in range(g.n):
        events = {e[0]: e for e in res.nodes[v].events if e[0] in ("delta", "level", "h")}
        assert events["delta"][1] <= t1 and events["delta"][2] == d.delta
        assert events["level"][1] <= t1 and events["level"][2] == d.level[v]
        assert events["h"][1] <= t1 and events["h"][2] == d.h


def test_phase_weights_lemma():
    g = random_connected_graph(30, 6, 13)
    res = run_protocol(g, record_events=True)
    assert res.ok
    d = res.decomposition
    # collect the agreed phase-end rounds
    t2 = {}
    for v in range(g.n):
        for e in res.nodes[v].events:
            if e[0] == "t2":
                t2.setdefault(e[1], set()).add(e[3])
    assert all(len(vals) == 1 for vals in t2.values())
    for i in range(1, d.h + 1):
        end = t2[i + 1].pop() if i + 1 in t2 else None
        assert end is not None
        for v in d.levels[d.h - i]:
            weight_events = [e for e in res.nodes[v].events if e[0] == "weight"]
            assert weight_events, f"node {v} never learned a weight"
            r, w = weight_events[0][1], weight_events[0][2]
            assert w == res.oracle_weights[v]
            assert r <= end


def test_wave_arrival_rounds():
    g = random_tree(24, 5, 9)
    res = run_protocol(g, record_events=True)
    assert res.ok
    d = res.decomposition
    m = bitlen(d.delta)
    start_h = m + d.h * (2 * m + 2) + d.h
    for v in range(g.n):
        if v == d.root:
            continue
        waves = {e[1]: e for e in res.nodes[v].events if e[0] == "wave"}
        lvl = d.level[v]
        assert waves["delta"][2] == m + lvl * (2 * m + 2)
        kh = bitlen(d.h)
        assert waves["h"][2] == start_h + lvl * (2 * kh + 2)
        kn = bitlen(g.n)
        t2_final = [e for e in res.nodes[v].events if e[0] == "t2"][-1][3]
        assert waves["n"][2] == t2_final + lvl * (2 * kn + 2)
        assert waves["n"][3] == g.n


def test_outputs_present_on_every_node():
    g = random_connected_graph(18, 5, 4)
    res = run_protocol(g)
    assert all(res.outputs[v] == g.n for v in range(g.n))
    assert all(res.nodes[v].done for v in range(g.n))


def test_report_fields():
    g = star(3)
    res = run_protocol(g)
    report = res.report(g)
    assert report["n"] == 4
    assert report["delta"] == 3
    assert report["h"] == 1
    assert report["outputs_ok"] is True
    assert report["rounds_used"] <= report["bound_Dn2logDelta"]
    assert report["max_label_bits"] >= 13


def test_timeline_arithmetic_matches_run_events():
    g = random_connected_graph(22, 6, 17)
    res = run_protocol(g, record_events=True)
    assert res.ok
    d = res.decomposition
    m = bitlen(d.delta)
    node = res.nodes[0]
    t2 = {1: t1_formula(d.delta, d.h)}
    t2.update({e[1]: e[3] for e in node.events if e[0] == "t2"})
    for i in range(1, d.h + 1):
        x_event = [e for e in node.events if e[0] == "x" and e[1] == i][0]
        _tag, _i, x, t2p, tau = x_event
        assert t2p == t2[i] + 2 * d.h * (2 * bitlen(x) + 2)
        assert tau == m + x * m + 1
        # the phase-end round is reconstructible from the stop round
        stop_rounds = {
            e[3] for v in range(g.n) for e in res.nodes[v].events
            if e[0] == "T" and e[1] == i
        }
        assert len(stop_rounds) == 1
        big_t = stop_rounds.pop()
        assert t2[i + 1] == big_t + 2 * d.h * (2 * bitlen(big_t) + 2)
        assert (big_t - t2p) % tau == 0


def test_phase_wave_distance_matches_bfs():
    g = random_tree(18, 4, 21)
    res = run_protocol(g, record_events=True)
    assert res.ok
    d = res.decomposition
    for i in range(1, d.h + 1):
        lvl = d.h - i + 1
        initiators = [
            v for v in d.levels[lvl] if res.scheme.labels[v].has(6)
        ]
        assert len(initiators) == 1
        dist = g.bfs_levels(initiators[0])
        for v in range(g.n):
            if v == initiators[0]:
                continue
            events = [
                e
                for e in res.nodes[v].events
                if e[0] == "wave" and e[1] == "x" and e[5] == i
            ]
            assert len(events) == 1, (v, i)
            assert events[0][4] == dist[v], (v, i)


@pytest.mark.parametrize(
    "leaves, cap",
    # 1 * D * n^2 * m rounds is too few to finish: 1 * 4 * 1 = 4 and 2 * 9 * 2 = 36
    [(1, 1 * 1 * 4 * 1), (2, 36)],
    ids=["star1", "star2"],
)
def test_cap_multiplier_override(monkeypatch, leaves, cap):
    monkeypatch.setattr(protocol, "round_cap_multiplier", lambda: 1)
    res = run_protocol(star(leaves))
    assert res.round_cap == cap
    assert not res.ok
    assert "cap" in (res.failure or "")


def test_cap_exhausted_trace_matches_reference(monkeypatch):
    # the fast engine's trace of a capped run ends at the cap, silent rounds
    # filled in, exactly as the reference engine's does
    monkeypatch.setattr(protocol, "round_cap_multiplier", lambda: 1)
    g = star(2)
    res = run_protocol(g, record_trace=True)
    assert "cap" in (res.failure or "")
    assert res.trace.last == res.round_cap == 36
    _nodes, ref_trace, _rounds = _reference_run(g, res)
    text = res.trace.format_text()
    assert text == ref_trace.format_text()
    assert len(text.splitlines()) == 36 * g.n


def test_failed_run_reports_the_failing_round(monkeypatch):
    real = SizeDiscoveryNode.decide

    def decide(self, r):
        if r == 5:
            raise RuntimeError("injected fault")
        return real(self, r)

    monkeypatch.setattr(SizeDiscoveryNode, "decide", decide)
    res = run_protocol(star(1), record_trace=True)
    assert not res.ok and "round 5" in res.failure
    assert res.rounds_used == 5 < res.round_cap
    assert res.trace.last == 4


def test_fault_in_next_transmit_round_is_a_run_failure(monkeypatch):
    # alarms fire when the engine asks a node for its next transmission, so a
    # fault there ends the run as a fault in decide or observe does
    def on_phase_start(self, r):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(SizeDiscoveryNode, "_on_phase_start", on_phase_start)
    res = run_protocol(star(3))
    t1 = t1_formula(res.decomposition.delta, res.decomposition.h)
    assert not res.ok
    assert res.failure.startswith(f"round {t1 + 1}, node ")
    assert "automaton failed in next_transmit_round: injected fault" in res.failure
    assert res.rounds_used == t1 + 1


@given(st.text(alphabet="01", min_size=0, max_size=40))
def test_wave_decode_never_accepts_garbage_silently(pattern):
    try:
        value = wave_decode(pattern)
    except MalformedWaveError:
        return
    # any accepted pattern is zero pairs followed by the exact encoding
    stripped = pattern
    while stripped.startswith("00"):
        stripped = stripped[2:]
    assert stripped == wave_encode(value)


def _cycle(n):
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def _grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def _complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def _hypercube(dim):
    edges = [(v, v | 1 << i) for v in range(1 << dim) for i in range(dim) if not v >> i & 1]
    return Graph.from_edges(1 << dim, edges)


# shapes outside the acceptance corpus, which holds only trees and sparse graphs
_EXTRA_SHAPES = {
    "cycle9": lambda: _cycle(9),
    "cycle10": lambda: _cycle(10),
    "grid3x4": lambda: _grid(3, 4),
    "K5": lambda: _complete(5),
    "K6": lambda: _complete(6),
    "K3,3": lambda: _complete_bipartite(3, 3),
    "K2,4": lambda: _complete_bipartite(2, 4),
    "Q3": lambda: _hypercube(3),
    "Q4": lambda: _hypercube(4),
    # deep or wide shapes, where most transmissions are multi-pulse trains
    "path24": lambda: path(24),
    "cycle25": lambda: _cycle(25),
    "grid5x5": lambda: _grid(5, 5),
    "star12": lambda: star(12),
}


@pytest.mark.parametrize("shape", [*range(8), *_EXTRA_SHAPES])
def test_engine_parity_across_shapes(shape):
    if shape in _EXTRA_SHAPES:
        g = _EXTRA_SHAPES[shape]()
    else:
        seed = shape
        g = [
            star(2 + seed),
            path(3 + seed),
            random_tree(6 + 2 * seed, 4, seed),
            random_connected_graph(8 + 2 * seed, 5, seed, extra_edges=seed),
        ][seed % 4]
    fast = run_protocol(g, record_trace=True, record_events=True)
    ref_nodes, ref_trace, ref_rounds = _reference_run(g, fast)
    assert fast.ok and all(ref_nodes[v].done for v in range(g.n))
    assert fast.outputs == {v: ref_nodes[v].output for v in range(g.n)}
    assert fast.rounds_used == ref_rounds
    assert fast.trace.format_text() == ref_trace.format_text()
    for v in range(g.n):
        assert fast.nodes[v].events == ref_nodes[v].events


def test_pulse_windows_resolve_many_rounds_at_once(monkeypatch):
    # the fast engine resolves a quiet pulse train with one resolve_round
    # call, so a deep run makes fewer calls than it has rounds with a sender
    calls = []
    real = radio.resolve_round
    monkeypatch.setattr(radio, "resolve_round", lambda *a: calls.append(a) or real(*a))
    res = run_protocol(path(24), record_trace=True)
    assert res.ok
    busy = sum(any(acts.values()) for acts, _obs in res.trace.rounds.values())
    assert len(calls) < busy / 2


@pytest.mark.parametrize("s", range(7))
@pytest.mark.parametrize("kind", ["tree", "graph"])
def test_member_stops_match_oracle_completion_blocks(kind, s):
    # the oracle's replay and the automaton share one accounting rule, so
    # every member stops exactly at the end of its predicted block
    if kind == "tree":
        g = random_tree(30 + 9 * s, 3 + s, 40 + s)
    else:
        g = random_connected_graph(20 + 8 * s, 4 + s, 60 + s, extra_edges=3 * s)
    res = run_protocol(g, record_events=True)
    assert res.ok
    d, plan = res.decomposition, res.plan
    _l3, blocks = finalize_weight_tags(g, d, plan, res.oracle_weights)
    for l in range(d.h):
        phase = d.h - l
        for v in plan.us[l]:
            events = res.nodes[v].events
            (_tag, _i, _x, t2p, tau), = [e for e in events if e[0] == "x" and e[1] == phase]
            stops = [e[2] for e in events if e[0] == "member_stop" and e[1] == phase]
            assert stops == [t2p + blocks[l][v] * tau], (v, l)


def test_exhaustive_small_world():
    # every connected labelled graph on 2 <= n <= 5: every node outputs n and
    # every member stops at the end of the block the oracle's replay predicts,
    # so each timer path runs on every small shape
    graphs = stops = 0
    for n in range(2, 6):
        for g in connected_graphs(n):
            res = run_protocol(g, record_events=True)
            assert res.ok and set(res.outputs.values()) == {n}, g.edges
            d, plan = res.decomposition, res.plan
            _l3, blocks = finalize_weight_tags(g, d, plan, res.oracle_weights)
            for l in range(d.h):
                phase = d.h - l
                for v in plan.us[l]:
                    events = res.nodes[v].events
                    (_tag, _i, _x, t2p, tau), = [e for e in events if e[0] == "x" and e[1] == phase]
                    got = [e[2] for e in events if e[0] == "member_stop" and e[1] == phase]
                    assert got == [t2p + blocks[l][v] * tau], (g.edges, v, l)
                    stops += 1
            graphs += 1
    assert (graphs, stops) == (771, 1330)


# --- the multi-alignment wave listener -----------------------------------------


def _drive_listener(listener, schedule, start, end):
    """Feed rounds start..end: schedule maps round -> 'pulse'|'typed'; the
    other rounds are silent, which the listener is not told.  Returns each
    accepted wave keyed by the round of the pulse that returned it."""
    hits = {}
    for r in range(start, end + 1):
        kind = schedule.get(r)
        if kind == "pulse":
            got = listener.pulse(r)
            if got is not None:
                hits[r] = got
        elif kind == "typed":
            listener.typed_message(r)
    return hits


@pytest.mark.parametrize(
    "g",
    [star(1), path(7), random_tree(40, 4, 3), random_connected_graph(30, 5, 8)],
    ids=["K2", "path7", "tree40", "graph30"],
)
def test_depth_report_relayed_once_per_hop(g):
    # the depth report climbs h hops to the root: one HopValue per hop, each
    # from a different node
    res = run_protocol(g, record_trace=True)
    assert res.ok
    senders = [
        v
        for actions, _obs in res.trace.rounds.values()
        for v, msg in actions.items()
        if isinstance(msg, radio.HopValue)
    ]
    assert len(senders) == len(set(senders)) == res.decomposition.h


# --- wave validator guards ---------------------------------------------------
#
# Each validator is called on a node whose state is set by hand, with the
# pulse heard before the wave's start given as `prev` (0: none), so only the
# round arithmetic and the validator's own guards decide.


@given(st.integers(0, 10**6), st.integers(1, 2**64 - 1), st.integers(1, 50))
def test_wave_hop_names_the_one_hop_that_ends_in_round_r(origin, value, d):
    # hop d ends at origin + d * span; no other round up to three spans after
    # the origin ends a hop
    span = wave_span(value)
    assert wave_hop(origin, value, origin + d * span) == d
    ends = {origin + k * span: k for k in (1, 2, 3)}
    for r in range(origin - span, origin + 3 * span + 1):
        assert wave_hop(origin, value, r) == ends.get(r), r


def _hand_set_node(**state):
    """A plain non-root node awaiting its first wave, with `state` set by hand."""
    node = SizeDiscoveryNode(Label(make_markers()))
    for name, value in state.items():
        setattr(node, name, value)
    return node


def test_mid_phase_wave_travels_at_most_twice_the_depth():
    # x sent from t2 ends its d-th hop at t2 + d * wave_span(x), for d <= 2h
    node = _hand_set_node(h=3, t2=100)
    span = wave_span(5)
    assert node._validate_x_wave(5, 100 + 6 * span, 0) == 6
    assert node._validate_x_wave(5, 100 + 7 * span, 0) is None


def test_wave_is_dated_from_its_first_hop():
    # a wave's sender hears nothing of it: the first listener is one hop away
    node = _hand_set_node(h=3, t2=100)
    assert node._validate_x_wave(5, 100 + wave_span(5), 0) == 1
    assert node._validate_x_wave(5, 100, 0) is None
    # the degree wave leaves after the bitlen(delta) tag rounds
    assert node._validate_delta_wave(6, 3 + wave_span(6), 0) == 1
    assert node._validate_delta_wave(6, 3, 0) is None


def test_h_wave_never_names_a_depth_below_the_level():
    node = _hand_set_node(delta=6, m=3, level=3)
    assert node._validate_h_wave(3, depth_report_round(6, 3) + 3 * wave_span(3), 0) == 3
    # depth 2 dates this round as level 3's hop, yet no level 3 exists at depth 2
    assert node._validate_h_wave(2, depth_report_round(6, 2) + 3 * wave_span(2), 0) is None


def test_t_wave_value_is_a_block_end():
    # T is the round a member stopped in: t2' + j * tau for some j >= 1
    node = _hand_set_node(h=2, t2p=200, tau=7)
    t = 200 + 3 * 7
    assert node._validate_t_wave(t, t + wave_span(t), 0) == 1
    assert node._validate_t_wave(t + 1, t + 1 + wave_span(t + 1), 0) is None
    assert node._validate_t_wave(200, 200 + wave_span(200), 0) is None


def test_n_wave_value_is_at_least_two():
    node = _hand_set_node(t2=500, level=2)
    assert node._validate_n_wave(2, 500 + 2 * wave_span(2), 0) == 2
    assert node._validate_n_wave(1, 500 + 2 * wave_span(1), 0) is None


def test_wave_needs_a_quiet_window_before_its_front():
    # untyped noise after the sending round and up to the front (the round
    # before the last hop began) exposes a forged alignment; `prev`, the pulse
    # heard just before the start, is the last round the node heard there
    t2, span = 100, wave_span(5)
    r = t2 + 2 * span
    node = _hand_set_node(h=3, t2=t2)
    for prev, accepted in ((0, True), (t2, True), (t2 + 1, False), (r - span, False)):
        assert (node._validate_x_wave(5, r, prev) is not None) == accepted, prev


def test_h_wave_quiet_window_ends_two_levels_of_degree_echo_below():
    # the degree wave's echoes audible at level 1 end by m + 3 * wave_span(delta)
    # when the depth is 4: a pulse then is still echo, a pulse after is not
    node = _hand_set_node(delta=6, m=3, level=1)
    r = depth_report_round(6, 4) + wave_span(4)
    echo_end = 3 + 3 * wave_span(6)
    assert node._validate_h_wave(4, r, echo_end) == 1
    assert node._validate_h_wave(4, r, echo_end + 1) is None


# --- the timer ------------------------------------------------------------------
#
# Phase 1 of a depth-2 tree with m = 3 and x = 3: blocks of tau = 13 rounds
# from t2' = 200, each ending in the members' stop slot.


def _blocks_node(label, level):
    node = _hand_set_node(label=label, h=2, phase=1, level=level, m=3, x_i=3, t2p=200, tau=13)
    node._listener = node._on_wave = None  # the x wave was accepted
    node._on_blocks_start(201)
    return node


def test_a_due_timer_runs_only_when_the_node_is_asked_its_next_round():
    # decide, observe and the window methods leave the clock alone: the step
    # due at 104 runs at the first next_transmit_round query, and only once
    node = _hand_set_node()
    node._schedule(104, radio.Stop())
    fired = []
    node._arm(104, fired.append)
    assert node.train(104) == [104] and node.decide(104) == radio.Stop()
    node.observe(104, radio.NOT_LISTENING)
    node.reacts_at([105, 106], radio.COLLISION)
    node.absorb([105], radio.COLLISION)
    node.observe(106, radio.COLLISION)
    node.observe(107, radio.Stop())
    assert fired == [] and node._timer is not None
    assert node.next_transmit_round(104) is None and fired == [104]
    assert node.next_transmit_round(108) is None and fired == [104]


def test_completed_child_leaves_no_timer_armed():
    tag = Tag(2, 1)
    node = _blocks_node(Label(make_markers(), l2=tag), level=2)
    assert node.decide(202) == radio.CollisionTagMsg(tag)
    # while the member has not stopped, the tag repeats from the next block's first round
    assert node.next_transmit_round(212) == 214
    node.observe(213, radio.Stop())
    assert node.stage == "await_phase_end"
    assert node.next_transmit_round(213) is None
    assert node._timer is None


def test_member_without_an_account_retries_one_block_later():
    node = _blocks_node(Label(make_markers(4)), level=1)
    assert node.next_transmit_round(201) == 213  # the stop decision, at the block's last round
    node.observe(202, radio.COLLISION)  # a clash in a tag slot spoils this block's account
    assert node.next_transmit_round(213) == 213 + 13
    assert node.decide(213) is None and node.stage == "member_blocks"
    # block 2 starts from clean windows: one child of weight 1 accounts for weight 2
    child = Tag(1, 1)
    node.observe(214, radio.CollisionTagMsg(child))
    node.observe(213 + report_slot(3, 1, 1), radio.WeightReport(child, 1))
    assert node.next_transmit_round(226) == 226  # the block-final step runs here, not in decide
    assert node.decide(226) == radio.Stop() and node.weight == 2


def test_a_members_block_account_lives_from_its_blocks_to_its_stop():
    child = _blocks_node(Label(make_markers(), l2=Tag(1, 1)), level=2)
    assert child._tags_heard is child._reports_heard is child._window_clean is None
    member = _blocks_node(Label(make_markers(4)), level=1)
    assert member._window_clean is True
    assert member._tags_heard == {} and member._reports_heard == {}
    child_tag = Tag(1, 1)
    member.observe(201, radio.CollisionTagMsg(child_tag))
    member.observe(200 + report_slot(3, 1, 1), radio.WeightReport(child_tag, 1))
    assert member._tags_heard == {1: 1} and member._reports_heard == {1: {1: 1}}
    assert member.next_transmit_round(213) == 213
    assert member.decide(213) == radio.Stop() and member.weight == 2
    assert member._tags_heard is member._reports_heard is member._window_clean is None


def test_listener_accepts_clean_wave():
    from rsd.protocol import WaveListener

    value, start = 13, 100
    pattern = wave_encode(value)
    finish = start + len(pattern) - 1

    listener = WaveListener(lambda v, r, prev: 1 if (v, r) == (value, finish) else None)
    schedule = {start + i: "pulse" for i, c in enumerate(pattern) if c == "1"}
    hits = _drive_listener(listener, schedule, 90, finish)
    assert list(hits) == [finish] and hits[finish][0] == value


def test_listener_survives_collision_immediately_before_wave():
    # the distilled co-stop scenario: ambient noise one round before the
    # wave's first pulse must not cost the true alignment
    from rsd.protocol import WaveListener

    value, start = 49, 200
    pattern = wave_encode(value)
    finish = start + len(pattern) - 1
    listener = WaveListener(lambda v, r, prev: 1 if (v, r) == (value, finish) else None)
    schedule = {start - 1: "pulse"}
    schedule.update({start + i: "pulse" for i, c in enumerate(pattern) if c == "1"})
    hits = _drive_listener(listener, schedule, 190, finish)
    assert [got[0] for got in hits.values()] == [value]


def test_listener_rejects_forged_alignment_via_validator():
    from rsd.protocol import WaveListener

    # a junk pattern that never satisfies the validator is simply ignored
    listener = WaveListener(lambda v, r, prev: None)
    pattern = wave_encode(6)
    schedule = {50 + i: "pulse" for i, c in enumerate(pattern) if c == "1"}
    hits = _drive_listener(listener, schedule, 45, 70)
    assert hits == {}


def test_listener_typed_message_clears_then_recovers():
    from rsd.protocol import WaveListener

    value, start = 5, 30
    pattern = wave_encode(value)
    finish = start + len(pattern) - 1
    listener = WaveListener(lambda v, r, prev: 1 if (v, r) == (value, finish) else None)
    schedule = {20: "pulse", 22: "pulse", 25: "typed"}
    schedule.update({start + i: "pulse" for i, c in enumerate(pattern) if c == "1"})
    hits = _drive_listener(listener, schedule, 18, finish)
    assert [got[0] for got in hits.values()] == [value]


def test_listener_long_silence_drops_stale_candidates():
    # a lone pulse, silence, then 11 spells 10 00..00 11, a power of two;
    # the start is offered only while its pattern fits MAX_WAVE_BITS
    from rsd.protocol import WaveListener

    for length, expected in ((MAX_WAVE_BITS, [2**63]), (MAX_WAVE_BITS + 2, [])):
        listener = WaveListener(lambda v, r, prev: 1)
        finish = 10 + length - 1
        schedule = {10: "pulse", finish - 1: "pulse", finish: "pulse"}
        hits = _drive_listener(listener, schedule, 10, finish)
        assert [got[0] for got in hits.values()] == expected


def test_listener_decodes_largest_wave_value():
    # 2**64 - 1 pulses 65 times: every pulse round stays a candidate start
    from rsd.protocol import WaveListener

    value, start = 2**64 - 1, 40
    pattern = wave_encode(value)
    finish = start + len(pattern) - 1
    listener = WaveListener(lambda v, r, prev: 1 if (v, r) == (value, finish) else None)
    schedule = {start + i: "pulse" for i, c in enumerate(pattern) if c == "1"}
    hits = _drive_listener(listener, schedule, start, finish)
    assert len(pattern) == MAX_WAVE_BITS
    assert [got[0] for got in hits.values()] == [value]


class StringWindowListener(WaveListener):
    """The string-window decoder the arithmetic listener replaced, kept as
    the reference: for every 11 pair it spells the window as a 0/1 string
    and runs wave_decode from each candidate start, oldest first."""

    def pulse(self, r):
        cands = self.cands
        cands.append(r)
        if len(cands) < 2 or cands[-2] != r - 1:
            return None
        lo = max(self.typed + 1, r - MAX_WAVE_BITS + 1)
        starts = cands[bisect_left(cands, lo) :]
        bits = ["0"] * (r - lo + 1)
        for q in starts:
            bits[q - lo] = "1"
        window = "".join(bits)
        for s in starts:
            if (r - s) % 2 == 0:
                continue
            try:
                value = wave_decode(window[s - lo :])
            except MalformedWaveError:
                continue
            i = bisect_left(cands, s)
            hop = self.validator(value, r, cands[i - 1] if i else 0)
            if hop is not None:
                return value, hop, cands[i:]
        return None


@st.composite
def listener_schedules(draw):
    """Rounds -> 'pulse' | 'typed' (others silent): planted waves, some
    overlapping, among noise and silences longer than MAX_WAVE_BITS."""
    schedule, r = {}, 1
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["wave", "noise", "silence"]))
        if kind == "wave":
            value = draw(st.one_of(st.integers(1, 300), st.integers(1, 2**64 - 1), st.just(2**64 - 1)))
            pattern = wave_encode(value)
            schedule.update({r + i: "pulse" for i, c in enumerate(pattern) if c == "1"})
            r += len(pattern) + draw(st.integers(-3, 3))
        elif kind == "noise":
            for _ in range(draw(st.integers(1, 24))):
                sound = draw(st.sampled_from(["pulse", "pulse", "typed", None]))
                if sound is not None:
                    schedule[r] = sound
                r += 1
        else:
            r += draw(st.integers(1, 2 * MAX_WAVE_BITS))
    return schedule


def _offers(listener_cls, schedule, accept):
    """Every (value, round, prev) offered to the validator, and the first
    acceptance with the pulses it hands on."""
    offered = []

    def validator(value, r, prev):
        offered.append((value, r, prev))
        return 1 if accept(value, r) else None

    listener = listener_cls(validator)
    first = None
    for r in sorted(schedule):
        if schedule[r] == "typed":
            listener.typed_message(r)
        elif first is None:
            got = listener.pulse(r)
            if got is not None:
                first = (got[0], r, got[2])
    return offered, first


# a lone pulse, a silence longer than MAX_WAVE_BITS, then 2**64 - 1
_LONGEST = {1: "pulse", **{400 + i: "pulse" for i, c in enumerate(wave_encode(2**64 - 1)) if c == "1"}}


@given(listener_schedules(), st.integers(2, 7))
@example(_LONGEST, 2)
def test_arithmetic_listener_offers_what_the_string_decoder_offers(schedule, modulus):
    # the same (value, round, prev) sequence reaches the validator, and the
    # same wave is accepted first, as with the string window and wave_decode
    never = lambda value, r: False  # noqa: E731
    assert _offers(WaveListener, schedule, never) == _offers(StringWindowListener, schedule, never)
    picky = lambda value, r: (value + r) % modulus == 0  # noqa: E731
    assert _offers(WaveListener, schedule, picky) == _offers(StringWindowListener, schedule, picky)


# --- the send list: typed messages, then at most one wave, in round order ------


def _pulse_rounds(start, value):
    return [start + i for i, c in enumerate(wave_encode(value)) if c == "1"]


def _desync(schedule):
    """The round and message of the desync that `schedule(node)` raises."""
    node = _hand_set_node()
    with pytest.raises(ProtocolDesyncError) as err:
        schedule(node)
    assert err.value.stage == "wave_delta" and err.value.node == -1
    prefix = f"round {err.value.round_no}, node -1: [wave_delta] "
    assert str(err.value).startswith(prefix)
    return err.value.round_no, str(err.value)[len(prefix) :]


def test_a_second_wave_in_flight_is_a_desync():
    # 5 from 100 pulses at 100, 104, 106, 107; a second wave clashes (1 from
    # 102: 102, 104, 105), interleaves (4 from 102: 102, 108, 109) or starts
    # after it (1 from 108), before or after the first pulse is sent
    for start, value in ((102, 1), (102, 4), (108, 1)):
        for sent in (0, 1):
            def second_wave(node):
                node._start_wave(100, 5)
                for q in _pulse_rounds(100, 5)[:sent]:
                    assert node.decide(q) == radio.WavePulse()
                node._start_wave(start, value)

            assert _desync(second_wave) == (start, f"send in round {start} behind a wave in flight")
    # once the last pulse is sent, the next wave goes out
    node = _hand_set_node()
    node._start_wave(100, 5)
    assert [q for q in range(95, 108) if node.decide(q) is not None] == _pulse_rounds(100, 5)
    node._start_wave(108, 1)
    assert node.train(108) == _pulse_rounds(108, 1)


def test_a_typed_message_while_a_wave_is_in_flight_is_a_desync():
    # before, between, on and after the pulses of 5 from 100
    for r in (99, 102, 107, 120):
        def typed_in_flight(node):
            node._start_wave(100, 5)
            node._schedule(r, radio.Stop())

        assert _desync(typed_in_flight) == (r, f"send in round {r} behind a wave in flight")


def test_a_wave_at_or_before_a_queued_typed_message_is_a_desync():
    for start in (100, 106):
        def wave_over_typed(node):
            node._schedule(104, radio.HopValue(3))
            node._schedule(106, radio.Stop())
            node._start_wave(start, 5)

        assert _desync(wave_over_typed) == (
            start, f"send in round {start} at or before the one queued for round 106"
        )


def test_a_stop_then_a_wave_from_the_next_round_is_sent_in_order():
    # the phase-end member stops at r and floods T from r + 1
    node = _hand_set_node()
    node._schedule(99, radio.Stop())
    node._start_wave(100, 5)
    assert node.next_transmit_round(98) == 99 and node.train(99) == [99]
    assert node.decide(99) == radio.Stop()
    assert node.next_transmit_round(99) == 100 and node.train(100) == _pulse_rounds(100, 5)
    assert [node.decide(q) for q in _pulse_rounds(100, 5)] == [radio.WavePulse()] * 4
    assert node._sends is None


def test_typed_over_typed_clashes_at_the_taken_round():
    def typed_over_typed(node):
        node._schedule(104, radio.Stop())
        node._schedule(104, radio.HopValue(3))

    assert _desync(typed_over_typed) == (104, "send in round 104 at or before the one queued for round 104")


def test_a_typed_message_before_a_queued_one_is_a_desync():
    # a node queues its sends in round order: a stop for round 102 behind a
    # depth report for round 104 would be sent out of order
    def typed_before_typed(node):
        node._schedule(104, radio.HopValue(3))
        node._schedule(102, radio.Stop())

    assert _desync(typed_before_typed) == (102, "send in round 102 at or before the one queued for round 104")


def test_the_timer_cuts_the_train():
    node = _hand_set_node()
    node._start_wave(100, 5)
    fired = []
    node._arm(105, fired.append)
    assert node.train(100) == [100, 104]
    assert [node.decide(q) for q in (100, 104)] == [radio.WavePulse()] * 2
    assert node.next_transmit_round(105) == 106 and fired == [105]
    assert node.train(106) == [106, 107]


def test_node_is_not_done_while_a_pulse_is_pending_and_keeps_no_spent_run():
    node = _hand_set_node(output=7)
    node._start_wave(50, 6)
    rounds = _pulse_rounds(50, 6)
    for q in rounds:
        assert not node.done
        assert node.next_transmit_round(q) == q
        assert node.decide(q) == radio.WavePulse()
    assert node.done and node.next_transmit_round(rounds[-1] + 1) is None
    assert node._sends is None


def test_a_typed_message_heard_inside_a_wave_refuses_it():
    # x = 13 from t2 pulses at 101, 103, 107, 109, 110.  A stop heard in the
    # silent round 105 is no pulse (as one, the pulses would spell 15), and
    # proves no wave was in the air then: the wave is refused, and the node
    # goes on listening
    t2, pulses = 100, _pulse_rounds(101, 13)
    for typed, accepted in ((None, 13), (105, None)):
        node = _hand_set_node(h=3, t2=t2, delta=4, m=3, phase=1)
        node._await("wave_x", node._validate_x_wave, node._got_x, mid_phase=True)
        for q in sorted(pulses + [typed] * (typed is not None)):
            node.observe(q, radio.Stop() if q == typed else radio.WavePulse())
        assert node.x_i == accepted
        assert node.stage == ("wave_x" if accepted is None else "idle_until_blocks")


@pytest.mark.parametrize("value", [1, 13, 2**64 - 1])
def test_relay_repeats_the_heard_pulses_one_hop_later(value):
    # an x wave from the phase initiator (sent in rounds t2 + 1 on) ends its
    # first hop at r = t2 + span; a noise pulse before it is no part of the relay
    t2, span = 100, wave_span(value)
    node = _hand_set_node(h=3, t2=t2, delta=4, m=3, phase=1)
    node._await("wave_x", node._validate_x_wave, node._got_x, mid_phase=True)
    node.observe(t2 - 1, radio.COLLISION)
    for q in _pulse_rounds(t2 + 1, value):
        node.observe(q, radio.WavePulse())
    r = t2 + span
    assert node.x_i == value and node.stage == "idle_until_blocks"
    expected = _pulse_rounds(r + 1, value)
    assert node.next_transmit_round(r + 1) == r + 1 and node.train(r + 1) == expected
    assert [q for q in range(r + 1, r + 2 + span) if node.decide(q) is not None] == expected
    assert node._sends is None


def test_protocol_trace_model_soundness():
    g = random_connected_graph(10, 4, 6)
    res = run_protocol(g, record_trace=True)
    assert res.ok
    from rsd.radio import COLLISION, NOT_LISTENING, SILENCE

    # the fast engine records the rounds it resolved: a node absent from a
    # round listened and heard silence
    assert res.trace.last == res.rounds_used
    for r in range(1, res.trace.last + 1):
        recorded_actions, recorded_obs = res.trace.rounds.get(r, ({}, {}))
        actions = {v: recorded_actions.get(v) for v in range(g.n)}
        obs = {v: recorded_obs.get(v, SILENCE) for v in range(g.n)}
        for v in range(g.n):
            talkers = [w for w in g.adj[v] if actions[w] is not None]
            if actions[v] is not None:
                assert obs[v] is NOT_LISTENING
            elif len(talkers) == 0:
                assert obs[v] is SILENCE
            elif len(talkers) == 1:
                assert obs[v] is actions[talkers[0]]
            else:
                assert obs[v] is COLLISION
