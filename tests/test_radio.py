from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from rsd import radio
from rsd.generators import path, random_connected_graph, star
from rsd.graphs import Graph
from rsd.protocol import run_protocol
from rsd.radio import (
    COLLIDED,
    COLLISION,
    NOT_LISTENING,
    SILENCE,
    SimulationError,
    SimulationTrace,
    hearing,
    resolve_round,
    run,
    run_scheduled,
)


@dataclass(frozen=True)
class Opaque:
    """Arbitrary payload for hand-written automata; the protocol sends its
    own messages, and the lower-bound lab integer handles."""

    payload: object


def test_no_transmitters_all_silence():
    g = star(1)
    obs = resolve_round(g, {0: None, 1: None})
    assert obs == {0: SILENCE, 1: SILENCE}


def test_observation_marks_print_their_names():
    assert [repr(m) for m in (SILENCE, COLLISION, NOT_LISTENING)] == [
        "Silence", "CollisionNoise", "NotListening"]


def test_two_transmitting_leaves_collide_at_center():
    g = star(3)
    msg = Opaque("x")
    obs = resolve_round(g, {0: None, 1: msg, 2: msg, 3: None})
    assert obs[0] is COLLISION
    assert obs[3] is SILENCE  # leaves are not adjacent to each other
    assert obs[1] is NOT_LISTENING and obs[2] is NOT_LISTENING


def test_single_transmitter_heard_only_by_neighbors():
    g = star(3)
    msg = Opaque("ping")
    obs = resolve_round(g, {0: None, 1: msg, 2: None, 3: None})
    assert obs[0] is msg
    assert obs[2] is SILENCE and obs[3] is SILENCE


class Dummy:
    """Scriptable automaton: transmits per a fixed round -> message map.

    Done once the schedule drains, unless told to linger forever.
    """

    def __init__(self, schedule=None, linger=False):
        self.schedule = dict(schedule or {})
        self.linger = linger
        self.seen = []

    @property
    def done(self):
        return not self.schedule and not self.linger

    def decide(self, r):
        return self.schedule.pop(r, None)

    def observe(self, r, obs):
        self.seen.append((r, obs))

    def next_transmit_round(self, r):
        pending = [k for k in self.schedule if k >= r]
        return min(pending) if pending else None


def test_zero_round_run():
    g = star(1)
    autos = {0: Dummy(linger=True), 1: Dummy(linger=True)}
    trace, last = run(g, autos, 0)
    assert trace.rounds == {} and trace.last == 0 and last == 0
    assert autos[0].seen == []
    for engine in (run, run_scheduled):
        with pytest.raises(ValueError, match="^max_rounds must be >= 0$"):
            engine(g, autos, -1)


def test_always_listen_sees_silence():
    g = star(1)
    autos = {0: Dummy(linger=True), 1: Dummy(linger=True)}
    _trace, last = run(g, autos, 3)
    assert last == 0
    assert [o for _r, o in autos[1].seen] == [SILENCE] * 3


def test_transmitter_not_listening_in_own_round():
    g = star(1)
    autos = {0: Dummy({2: Opaque("m")}), 1: Dummy(linger=True)}
    run(g, autos, 3)
    assert autos[0].seen[1] == (2, NOT_LISTENING)
    assert autos[1].seen[1] == (2, Opaque("m"))


def test_trace_format():
    g = star(1)
    autos = {0: Dummy({1: Opaque("m")}), 1: Dummy(linger=True)}
    trace, _ = run(g, autos, 2)
    lines = trace.format_text().strip().split("\n")
    assert lines[0] == "1 0 T:Opaque -"
    assert lines[1] == "1 1 L H:Opaque"
    assert lines[2] == "2 0 L S"


def _format_text_reference(trace):
    """The trace text by one `str.format` template of n lines per round."""
    silent = "".join(f"{{0}} {v} L S\n" for v in range(trace.n))
    chunks = []
    for r in range(1, trace.last + 1):
        text = silent.format(r)
        if r in trace.rounds:
            actions, obs = trace.rounds[r]
            lines = text.splitlines(keepends=True)
            for v, o in obs.items():
                lines[v] = f"{r} {v} {radio._action_str(actions.get(v))} {radio._obs_str(o)}\n"
            text = "".join(lines)
        chunks.append(text)
    return "".join(chunks)


def test_trace_text_matches_the_template_formatter():
    msg = Opaque("m")
    empty = SimulationTrace(3)
    assert empty.format_text() == _format_text_reference(empty) == ""
    pair = SimulationTrace(2)  # n = 2, and `last` past the final recorded round
    pair.record(2, {0: msg}, {0: NOT_LISTENING, 1: msg})
    pair.last = 12
    assert pair.format_text() == _format_text_reference(pair)
    assert pair.format_text().splitlines()[-1] == "12 1 L S"
    sparse = SimulationTrace(5)  # nodes 0, 3 and 4 missing from round 3
    sparse.record(3, {1: msg, 2: None}, {2: COLLISION, 1: NOT_LISTENING})
    sparse.record(11, {4: msg}, {4: NOT_LISTENING, 3: msg})
    assert sparse.format_text() == _format_text_reference(sparse)
    res = run_protocol(path(7), record_trace=True)
    assert res.trace.format_text() == _format_text_reference(res.trace)


def test_run_reports_failing_node_and_round():
    class Broken(Dummy):
        done = False

        def decide(self, r):
            if r == 2:
                raise RuntimeError("boom")
            return None

    g = star(1)
    with pytest.raises(SimulationError) as err:
        run(g, {0: Broken(), 1: Dummy(linger=True)}, 5)
    assert err.value.round_no == 2
    assert err.value.node == 0


def test_determinism_full_trace():
    g = random_connected_graph(12, 4, 3)
    sched = {v: {1 + (v % 3): Opaque(str(v))} for v in range(g.n)}

    def build():
        return {v: Dummy(dict(sched[v])) for v in range(g.n)}

    t1, _ = run(g, build(), 6)
    t2, _ = run(g, build(), 6)
    assert t1.format_text() == t2.format_text()


def test_model_soundness_recheck_from_trace():
    g = random_connected_graph(15, 5, 8)
    autos = {v: Dummy({1 + (v % 4): Opaque(str(v))}) for v in range(g.n)}
    trace, _ = run(g, autos, 5)
    for actions, obs in trace.rounds.values():
        for v in range(g.n):
            transmitting = [w for w in g.adj[v] if actions[w] is not None]
            if actions[v] is not None:
                assert obs[v] is NOT_LISTENING
            elif len(transmitting) == 0:
                assert obs[v] is SILENCE
            elif len(transmitting) == 1:
                assert obs[v] is actions[transmitting[0]]
            else:
                assert obs[v] is COLLISION


def test_scheduled_engine_agrees_with_reference():
    g = path(6)
    sched = {v: {2 + v: Opaque(str(v)), 4 + 2 * v: Opaque("b" + str(v))} for v in range(g.n)}

    def build():
        return {v: Dummy(dict(sched[v])) for v in range(g.n)}

    ref = build()
    ref_trace, _ = run(g, ref, 20)
    fast = build()
    trace = SimulationTrace(g.n)
    last = run_scheduled(g, fast, 20, trace)
    assert last == max(r for v in range(g.n) for r in sched[v])
    # only the resolved rounds are recorded; silence fills in the rest
    assert len(trace.rounds) < len(ref_trace.rounds)
    assert trace.format_text() == ref_trace.format_text()
    for v in range(g.n):
        nonsilent_ref = [(r, o) for r, o in ref[v].seen if o is not SILENCE]
        nonsilent_fast = [(r, o) for r, o in fast[v].seen if o is not SILENCE]
        assert nonsilent_ref == nonsilent_fast


def test_scheduled_engine_deadlock_detection():
    g = star(1)
    with pytest.raises(SimulationError) as err:
        run_scheduled(g, {0: Dummy(linger=True), 1: Dummy(linger=True)}, 100)
    assert "not done" in str(err.value)


class Counting(Dummy):
    """Dummy that counts the engine's `next_transmit_round` queries."""

    def __init__(self, schedule=None, linger=False):
        super().__init__(schedule, linger)
        self.queries = 0

    def next_transmit_round(self, r):
        self.queries += 1
        return super().next_transmit_round(r)


class Rearming(Counting):
    """Never transmits and is never done: a timer due every `period` rounds
    re-arms itself when a query reaches it, as a member that retries every
    block does in a run that stalls.  Past `limit` queries it raises, so an
    engine that keeps asking fails instead of hanging."""

    limit = 100_000

    def __init__(self, period):
        super().__init__(linger=True)
        self.period = period
        self.alarm = period

    def next_transmit_round(self, r):
        self.queries += 1
        if self.queries > self.limit:
            raise RuntimeError("queried past the limit")
        while self.alarm <= r:
            self.alarm += self.period
        return self.alarm


def test_stalled_run_queries_are_linear_in_the_rounds_resolved():
    # node 0 transmits in every round up to and past the cap, so node 1 is
    # re-queried after each round while its declared round stays put, and
    # its timer re-arms every 10 rounds
    rounds = 2000
    autos = {0: Counting(_pulses(*range(1, rounds + 2)), linger=True), 1: Rearming(10)}
    assert run_scheduled(star(1), autos, rounds) == rounds
    assert len(autos[1].seen) == rounds
    # a query follows each node's observation of a round, or pops a live
    # entry; a live entry is pushed only by a query that moved it
    queries = sum(a.queries for a in autos.values())
    assert queries <= 2 * (2 + 2 * rounds)


def test_a_timer_that_keeps_moving_on_cannot_hold_the_run_past_the_cap():
    autos = {0: Dummy({1: Opaque("m")}), 1: Rearming(10)}
    trace = SimulationTrace(2)
    assert run_scheduled(star(1), autos, 100, trace) == 1
    assert trace.last == 100
    assert autos[1].alarm == 110  # never asked at its due round past the cap


@st.composite
def small_connected_graphs(draw, min_n=2, max_n=10):
    """A random spanning tree on 2..10 nodes plus random extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for a, b in draw(st.lists(pairs, max_size=2 * n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(n, sorted(edges))


def _reference_round(g, actions):
    """Observations by counting each node's transmitting neighbors, keyed as
    `resolve_round` keys them: transmitters' neighbors first, in the order
    the transmitters and their adjacency lists give, then the other given
    nodes."""
    order = []
    for v, msg in actions.items():
        if msg is not None:
            order += [w for w in g.adj[v] if w not in order]
    order += [v for v in actions if v not in order]
    obs = {}
    for v in order:
        talkers = [w for w in g.adj[v] if actions.get(w) is not None]
        if actions.get(v) is not None:
            obs[v] = NOT_LISTENING
        elif len(talkers) == 1:
            obs[v] = actions[talkers[0]]
        else:
            obs[v] = SILENCE if not talkers else COLLISION
    return obs


@given(small_connected_graphs(), st.data())
def test_resolve_round_counts(g, data):
    n = g.n
    transmit = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    senders = data.draw(st.permutations([v for v in range(n) if transmit[v]]))
    heard = hearing(g, senders)
    for v in range(n):
        talkers = [w for w in g.adj[v] if transmit[w]]
        if not talkers:
            assert v not in heard
        else:
            assert heard[v] == (talkers[0] if len(talkers) == 1 else COLLIDED)
    actions = {v: (Opaque(str(v)) if transmit[v] else None) for v in data.draw(st.permutations(range(n)))}
    obs = resolve_round(g, actions)
    assert list(obs.items()) == list(_reference_round(g, actions).items())
    for v in range(n):
        talkers = [w for w in g.adj[v] if transmit[w]]
        if not transmit[v] and len(talkers) == 1:
            assert obs[v] is actions[talkers[0]]  # the sender's own message object
    # absent nodes listen: every transmitter plus some listeners
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    partial = {v: msg for v, msg in actions.items() if msg is not None or keep[v]}
    part_obs = resolve_round(g, partial)
    assert list(part_obs.items()) == list(_reference_round(g, partial).items())
    assert set(partial) <= set(part_obs)
    for v in range(n):
        if v in part_obs:
            assert part_obs[v] == obs[v]
        else:
            assert obs[v] is SILENCE


class Pulser(Dummy):
    """Dummy that reports its pulse trains and, with `reply_after` set,
    transmits a reply in the round after its `reply_after`-th heard round.

    A train is the scheduled rounds from r on that hold round r's message,
    up to the first other one; the node reacts only by replying.
    """

    def __init__(self, schedule=None, reply_after=None):
        super().__init__(schedule)
        self.reply_after = reply_after

    @property
    def done(self):
        replied = self.reply_after is None or self.heard() >= self.reply_after
        return replied and not self.schedule

    def heard(self):
        return len(_heard(self.seen))

    def observe(self, r, obs):
        super().observe(r, obs)
        if obs not in (SILENCE, NOT_LISTENING) and self.heard() == self.reply_after:
            self.schedule[r + 1] = Opaque("reply")

    def train(self, r):
        rounds = []
        for q in sorted(k for k in self.schedule if k >= r):
            if self.schedule[q] != self.schedule[r]:
                break
            rounds.append(q)
        return rounds

    def reacts_at(self, rounds, obs):
        if self.reply_after is None:
            return None
        k = self.reply_after - self.heard()
        return rounds[k - 1] if 1 <= k <= len(rounds) else None

    def absorb(self, rounds, obs):
        self.seen.extend((q, obs) for q in rounds)


def _heard(seen):
    """The observations a node must be given: all but silence and its own
    transmitting rounds."""
    return [(r, o) for r, o in seen if o not in (SILENCE, NOT_LISTENING)]


def _pulses(*rounds, msg="p"):
    return {q: Opaque(msg) for q in rounds}


def _engines_agree(g, build, max_rounds, monkeypatch):
    """Run both engines on fresh automata; assert equal trace text, last
    transmission and heard observations.  Returns the fast engine's number
    of resolve_round calls and of rounds with a transmitter."""
    ref = build()
    ref_trace, ref_last = run(g, ref, max_rounds)
    fast = build()
    calls = []
    real = radio.resolve_round
    trace = SimulationTrace(g.n)
    with monkeypatch.context() as m:
        m.setattr(radio, "resolve_round", lambda *a: calls.append(a) or real(*a))
        last = run_scheduled(g, fast, max_rounds, trace)
    assert trace.format_text() == ref_trace.format_text()
    assert last == ref_last
    for v in range(g.n):
        assert _heard(fast[v].seen) == _heard(ref[v].seen), v
    busy = sum(any(acts.values()) for acts, _obs in ref_trace.rounds.values())
    return len(calls), busy


def test_window_ends_where_a_listener_replies(monkeypatch):
    # node 1 replies after its second pulse, in the middle of node 0's train
    g = path(3)

    def build():
        return {0: Pulser(_pulses(2, 3, 5, 6, 7)), 1: Pulser(reply_after=2), 2: Pulser()}

    calls, busy = _engines_agree(g, build, 20, monkeypatch)
    assert calls < busy


def test_window_ends_before_another_node_may_transmit(monkeypatch):
    # node 2, out of node 0's reach, collides with its train at node 1
    g = path(3)

    def build():
        return {0: Pulser(_pulses(2, 3, 4, 6, 7)), 1: Pulser(), 2: Pulser(_pulses(4, msg="x"))}

    calls, busy = _engines_agree(g, build, 20, monkeypatch)
    assert calls < busy


def test_senders_with_different_trains_go_round_by_round(monkeypatch):
    g = path(3)

    def build():
        return {0: Pulser(_pulses(2, 3, 4, 6)), 1: Pulser(), 2: Pulser(_pulses(2, 3, 5))}

    calls, busy = _engines_agree(g, build, 20, monkeypatch)
    assert calls == busy


def test_identical_trains_collide_at_a_shared_listener(monkeypatch):
    g = star(3)

    def build():
        train = _pulses(2, 3, 5, 6, 8)
        return {0: Pulser(), 1: Pulser(train), 2: Pulser(dict(train)), 3: Pulser()}

    calls, busy = _engines_agree(g, build, 20, monkeypatch)
    assert calls == 1 < busy


def test_round_cap_inside_a_train(monkeypatch):
    g = path(3)

    def build():
        return {0: Pulser(_pulses(2, 3, 5, 6, 8)), 1: Pulser(reply_after=4), 2: Pulser()}

    for cap in range(0, 10):
        _engines_agree(g, build, cap, monkeypatch)


@pytest.mark.parametrize("method, node", [("train", 0), ("reacts_at", 1), ("absorb", 1)])
def test_a_fault_in_a_window_names_its_method_round_and_node(method, node):
    # node 0's train opens a window at round 2; node 1 reacts at round 3, so
    # it absorbs round 2
    autos = {0: Pulser(_pulses(2, 3, 5, 6, 7)), 1: Pulser(reply_after=2), 2: Pulser()}

    def fault(*args):
        raise RuntimeError("injected fault")

    setattr(autos[node], method, fault)
    with pytest.raises(SimulationError) as err:
        run_scheduled(path(3), autos, 20)
    assert (err.value.round_no, err.value.node) == (2, node)
    assert str(err.value) == f"round 2, node {node}: automaton failed in {method}: injected fault"
    assert isinstance(err.value.__cause__, RuntimeError)


class Echo(Dummy):
    """Dummy that is done until it hears a ping, then echoes it in the next
    round: a done node that hears something can have more to do."""

    def observe(self, r, obs):
        super().observe(r, obs)
        if obs == Opaque("ping"):
            self.schedule[r + 1] = Opaque("echo")


def test_a_done_node_that_hears_a_message_is_not_done_again(monkeypatch):
    # nodes 1 and 2 start done; node 1 hears node 0's ping in round 3, so
    # the run goes on to its echo in round 4
    g = path(3)

    def build():
        return {0: Dummy(_pulses(3, msg="ping")), 1: Echo(), 2: Echo()}

    assert _engines_agree(g, build, 10, monkeypatch) == (2, 2)
    autos = build()
    assert run_scheduled(g, autos, 10) == 4
    assert _heard(autos[2].seen) == [(4, Opaque("echo"))]


class Clocked(Dummy):
    """Dummy whose one send is armed by a timer: the timer runs only when the
    node is asked its next round, as a protocol node's steps do, and queues
    a message for the round it was armed for."""

    def __init__(self, alarm):
        super().__init__()
        self.alarm = alarm

    @property
    def done(self):
        return self.alarm is None and not self.schedule

    def next_transmit_round(self, r):
        if self.alarm is not None and self.alarm <= r:
            self.schedule[self.alarm] = Opaque(f"alarm {self.alarm}")
            self.alarm = None
        nxt = super().next_transmit_round(r)
        return self.alarm if nxt is None else nxt


def test_both_engines_ask_a_node_its_next_round_before_it_decides(monkeypatch):
    # a timer is due at the round it sends in, so a node decided unasked
    # would never send
    g = star(2)

    def build():
        return {0: Dummy(), 1: Clocked(3), 2: Clocked(5)}

    assert _engines_agree(g, build, 10, monkeypatch) == (2, 2)
    autos = build()
    _trace, last = run(g, autos, 10)
    assert last == 5
    assert _heard(autos[0].seen) == [(3, Opaque("alarm 3")), (5, Opaque("alarm 5"))]
