"""Synchronous radio rounds with collision detection.

Model: in each round every node either transmits to all neighbors or
listens.  A listener hears a message iff exactly one neighbor transmits;
two or more transmitting neighbors produce collision noise, zero produce
silence.  Transmitters learn nothing in their own round.  So a node's
observation of a round is one of three marks (SILENCE, COLLISION,
NOT_LISTENING) or the message it heard, the sender's own message object.

`hearing` is the one place the 0/1/>=2 rule is written: it maps each
neighbor of a sender to the one sender it hears, or to COLLIDED.
`resolve_round` turns that map into one round's observations, and the
lower-bound lab (`history_lab`) uses it directly on integer handles.

Two engines drive automata over this model, and both resolve rounds
through `resolve_round`.  `run_scheduled` drives every run: it skips
globally silent stretches by asking automata when they might transmit
next, steps only the nodes a round can affect, and can record a trace.
Where the round's senders share one pulse train and no other node can
transmit before it ends, it resolves the train as one pulse window: one
`resolve_round` call, whose observations hold for every round of the
train, delivered to each listener in one call up to the first round at
which the listener could react.  Anything else goes round by round.
`run` visits every round and every node (the reference semantics); the
tests check `run_scheduled` against it.
"""
from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, NoReturn, Optional, Protocol, Tuple

from .graphs import Graph
from .labels import Tag


# --- messages -------------------------------------------------------------

@dataclass(frozen=True)
class WavePulse:
    """Content-free pulse used by the bit-serial flooding subroutine."""


@dataclass(frozen=True)
class DeltaLearn:
    tag: Tag


@dataclass(frozen=True)
class HopValue:
    value: int


@dataclass(frozen=True)
class CollisionTagMsg:
    tag: Tag


@dataclass(frozen=True)
class WeightReport:
    tag: Tag
    weight: int


@dataclass(frozen=True)
class Stop:
    """End-of-accounting signal from an upper-set member to its children."""


Message = object  # union of the frozen dataclasses above


# --- observations ---------------------------------------------------------

class _Mark:
    """A named observation mark, compared by identity."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return self._name


SILENCE = _Mark("Silence")
COLLISION = _Mark("CollisionNoise")
NOT_LISTENING = _Mark("NotListening")


Observation = object  # SILENCE | COLLISION | NOT_LISTENING | the Message heard


COLLIDED = -1
"""What `hearing` maps a node to when two or more of its neighbors send."""


def hearing(g: Graph, senders: Iterable[int]) -> Dict[int, int]:
    """The 0/1/>=2 transmitter rule: every neighbor of a sender, mapped to
    the one sender it hears, or to COLLIDED when two or more of its
    neighbors send.  A node absent from the result hears silence.  A sender
    with sending neighbors is mapped too: what it makes of that is the
    caller's business (a transmitter hears nothing in its own round).
    Keys follow `senders`, then each sender's adjacency order.
    """
    heard: Dict[int, int] = {}
    for v in senders:
        for w in g.adj[v]:
            heard[w] = COLLIDED if w in heard else v
    return heard


def resolve_round(g: Graph, actions: Dict[int, Optional[Message]]) -> Dict[int, Observation]:
    """Apply the 0/1/>=2 transmitter rule (`hearing`) to one round of actions.

    `actions[v]` is the message v transmits, or None to listen; nodes absent
    from `actions` listen too.  Returns the observation of every node in
    `actions` and of every neighbor of a transmitter; any other node hears
    silence.  A node that hears one sender observes that sender's message
    object itself.
    """
    senders = [v for v, msg in actions.items() if msg is not None]
    obs: Dict[int, Observation] = {}
    for w, s in hearing(g, senders).items():
        obs[w] = COLLISION if s == COLLIDED else actions[s]
    for v, msg in actions.items():
        if msg is not None:
            obs[v] = NOT_LISTENING
        elif v not in obs:
            obs[v] = SILENCE
    return obs


# --- automaton interface ----------------------------------------------------

class Automaton(Protocol):
    """Deterministic per-node step machine.

    decide(r) returns the action for round r; its knowledge is everything
    observed in rounds < r.  observe(r, obs) delivers round r's observation:
    a mark, or the message heard.  Rounds not delivered via observe were
    silent (or the node transmitted, which it knows).  done is terminal.
    next_transmit_round(r) names the earliest round >= r in which the node
    may transmit, or None.  It is the node's clock, the one method that runs
    timers due by round r: both engines ask it at each round the node
    declared (the reference at every round) before the node decides or
    observes that round.  decide, observe and the methods below run none.

    Three optional methods let `run_scheduled` resolve pulse windows; an
    automaton without them always goes round by round.  train(r), asked
    only of a sender of round r, before decide(r), lists the rounds from r
    on in which it sends round r's message if nothing it hears changes its
    schedule; it ends before its next timer and at the first other message.
    reacts_at(rounds, obs) names the first of `rounds` in which observing
    obs could change when or what the node transmits, or could raise, or
    None.  absorb(rounds, obs) delivers obs for each of `rounds`, all before
    that answer, and only records them.  The first two change no state.
    The engines report an exception raised in any of these methods as a
    SimulationError naming round and node.
    """

    done: bool

    def decide(self, r: int) -> Optional[Message]: ...

    def observe(self, r: int, obs: Observation) -> None: ...

    def next_transmit_round(self, r: int) -> Optional[int]: ...


class SimulationError(RuntimeError):
    def __init__(self, message: str, round_no: int, node: int):
        super().__init__(f"round {round_no}, node {node}: {message}")
        self.round_no = round_no
        self.node = node


@dataclass
class SimulationTrace:
    """The actions and observations of the rounds an engine resolved.

    `rounds` maps a round to its (actions, observations), each keyed by
    node; `last` is the trace's final round.  A round missing from
    `rounds`, or a node missing from a recorded round, listened and heard
    silence: in this model a round is silent unless someone transmits, so
    the non-silent rounds fix the whole trace.  Its text is last * n lines
    long, so `iter_text` streams it round by round, the way `rsd run
    --trace` writes it; `format_text` joins the same stream.
    """

    n: int
    rounds: Dict[int, Tuple[Dict[int, Optional[Message]], Dict[int, Observation]]] = field(
        default_factory=dict
    )
    last: int = 0

    def record(
        self, r: int, actions: Dict[int, Optional[Message]], obs: Dict[int, Observation]
    ) -> None:
        self.rounds[r] = (actions, obs)
        self.last = r

    def iter_text(self) -> Iterator[str]:
        """The trace file, one round's text at a time: `round node action
        observation` per line, for rounds 1..last and nodes 0..n-1.  A
        writer that consumes it holds one round's text, not the file."""
        silent = [""] + [f" {v} L S\n" for v in range(self.n)]
        for r in range(1, self.last + 1):
            tails = silent
            if r in self.rounds:
                actions, obs = self.rounds[r]
                tails = silent.copy()
                for v, o in obs.items():  # every node that acted or heard anything
                    tails[v + 1] = f" {v} {_action_str(actions.get(v))} {_obs_str(o)}\n"
            yield str(r).join(tails)  # each tail after its round number

    def format_text(self) -> str:
        """The whole trace file as one string."""
        return "".join(self.iter_text())


def _action_str(msg: Optional[Message]) -> str:
    return "L" if msg is None else f"T:{type(msg).__name__}"


def _obs_str(obs: Observation) -> str:
    if obs is SILENCE:
        return "S"
    if obs is COLLISION:
        return "C"
    if obs is NOT_LISTENING:
        return "-"
    return f"H:{type(obs).__name__}"


def _fault(exc: Exception, method: str, r: int, v: int) -> NoReturn:
    """Re-raise what node v raised in `method` at round r: a SimulationError
    as it is, anything else wrapped in one naming the round and node."""
    if isinstance(exc, SimulationError):
        raise exc
    raise SimulationError(f"automaton failed in {method}: {exc}", r, v) from exc


def _decide(
    automata: Dict[int, Automaton], nodes: Iterable[int], r: int
) -> Dict[int, Optional[Message]]:
    """Round r's action of every node in `nodes`."""
    actions: Dict[int, Optional[Message]] = {}
    for v in nodes:
        try:
            actions[v] = automata[v].decide(r)
        except Exception as exc:
            _fault(exc, "decide", r, v)
    return actions


def _observe(
    automata: Dict[int, Automaton], nodes: Iterable[int], r: int, obs: Dict[int, Observation]
) -> None:
    """Deliver round r's observation to every node in `nodes`, in that order."""
    for v in nodes:
        try:
            automata[v].observe(r, obs[v])
        except Exception as exc:
            _fault(exc, "observe", r, v)


def _next(automata: Dict[int, Automaton], v: int, r: int) -> Optional[int]:
    """Node v's earliest possible transmission from round r on."""
    try:
        return automata[v].next_transmit_round(r)
    except Exception as exc:
        _fault(exc, "next_transmit_round", r, v)


def run(
    g: Graph,
    automata: Dict[int, Automaton],
    max_rounds: int,
) -> Tuple[SimulationTrace, int]:
    """Reference engine: visit rounds 1..max_rounds, stepping every node.

    Returns the trace of every visited round and the last round in which
    anyone transmitted (0 if nobody ever did).  Stops early once every
    automaton is done.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0")
    trace = SimulationTrace(g.n)
    last_activity = 0
    for r in range(1, max_rounds + 1):
        if all(a.done for a in automata.values()):
            break
        for v in range(g.n):
            _next(automata, v, r)  # the node's clock: its steps due by r run
        actions = _decide(automata, range(g.n), r)
        obs = resolve_round(g, actions)
        _observe(automata, range(g.n), r, obs)
        trace.record(r, actions, obs)
        if any(msg is not None for msg in actions.values()):
            last_activity = r
    return trace, last_activity


def _shared_train(
    automata: Dict[int, Automaton], senders: List[int], r: int
) -> Optional[List[int]]:
    """The train every sender of round r reports, if they all report the same
    one of two rounds or more; else None."""
    shared = None
    for v in senders:
        train = getattr(automata[v], "train", None)
        if train is None:
            return None
        try:
            rounds = train(r)
        except Exception as exc:
            _fault(exc, "train", r, v)
        if shared is None:
            shared = rounds
        elif rounds != shared:
            return None
    return shared if len(shared) >= 2 else None


def _window(
    automata: Dict[int, Automaton],
    heap: List[Tuple[int, int]],
    train: List[int],
    actions: Dict[int, Optional[Message]],
    obs: Dict[int, Observation],
    max_rounds: int,
) -> List[int]:
    """The rounds of the senders' `train` that one observation per node can
    resolve: those within the cap and before the first heap entry, up to
    the first round at which a listener could react.  A stale first entry
    only ends the window early: the senders' next query resumes the train."""
    end = min(heap[0][0] - 1, max_rounds) if heap else max_rounds
    rounds = train[: bisect_right(train, end)]
    for v, o in obs.items():
        if len(rounds) < 2:
            break
        if v in actions:
            continue
        reacts_at = getattr(automata[v], "reacts_at", None)
        try:
            first = rounds[0] if reacts_at is None else reacts_at(rounds, o)
        except Exception as exc:
            _fault(exc, "reacts_at", rounds[0], v)
        if first is not None:
            rounds = rounds[: bisect_right(rounds, first)]
    return rounds


def run_scheduled(
    g: Graph,
    automata: Dict[int, Automaton],
    max_rounds: int,
    trace: Optional[SimulationTrace] = None,
) -> int:
    """Fast engine: jump between rounds where some node transmits.

    Sound because automata ignore silence: the next pending transmission of
    an automaton that no round touches never moves earlier, so a lazy heap
    of declared rounds always knows the next globally non-silent round.
    Every live heap entry of that round is checked by a query, which runs
    the node's timers due then, so only nodes that transmit in it decide
    it.  A node holds one live entry, `live[v]`, the round it last declared:
    it is pushed only when that round changes, and an entry that is no
    longer live is dropped without asking the node.  So the queries grow
    with the rounds resolved, even in a run that stalls.

    When those senders share one pulse train (see `Automaton`), the engine
    resolves the train's rounds as one pulse window: `resolve_round` once,
    its observations reused for every round of the window.  The window ends
    before the first heap entry left (see `_window`), within the cap, and at
    the first round at which a listener could react.  Senders decide every
    round of it; each listener absorbs all but the last round in one call,
    and the last round is observed as any other, so reactions, relays and
    faults land in the same round and node as in the reference.  Where any
    of this does not hold, the engine goes round by round.

    Every round it resolves goes into `trace`, if given.  The run stops at
    the first heap entry past the cap without asking its node, so, as in
    the reference, no timer past the cap runs and a node whose timer keeps
    moving on cannot hold the run; the trace then ends at round max_rounds,
    as the reference's does.
    Returns the last round in which anyone transmitted.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0")
    heap: List[Tuple[int, int]] = []
    live: List[Optional[int]] = [None] * g.n  # the round of v's one live heap entry

    def declare(v: int, nxt: Optional[int]) -> None:
        if nxt != live[v]:
            live[v] = nxt
            if nxt is not None:
                heapq.heappush(heap, (nxt, v))

    def due(declared: int, v: int) -> bool:
        """Pop-time check of v's entry for round `declared`: True when it is
        live and v still transmits then; its entry is then spent."""
        if live[v] != declared:
            return False  # stale
        live[v] = None  # popped: re-declared now, or after the round
        actual = _next(automata, v, declared)
        if actual == declared:
            return True
        declare(v, actual)
        return False

    not_done = set()
    for v in range(g.n):
        if not automata[v].done:
            not_done.add(v)
        declare(v, _next(automata, v, 1))
    last_activity = 0
    while not_done:
        r = None
        while heap and r is None:
            declared, v = heapq.heappop(heap)
            if declared > max_rounds or due(declared, v):
                r = declared  # past the cap: no node transmits earlier
        if r is None:
            v = min(not_done)
            raise SimulationError(
                f"no node will ever transmit again but {len(not_done)} are not done",
                last_activity,
                v,
            )
        if r > max_rounds:
            if trace is not None:
                trace.last = max_rounds
            return last_activity
        senders = [v]
        while heap and heap[0][0] == r:
            _, v = heapq.heappop(heap)
            if due(r, v):
                senders.append(v)
        train = _shared_train(automata, senders, r)
        actions = _decide(automata, senders, r)
        obs = resolve_round(g, actions)
        rounds = [r] if train is None else _window(automata, heap, train, actions, obs, max_rounds)
        for q in rounds[1:]:
            if trace is not None:
                trace.record(r, actions, obs)
            r = q
            actions = _decide(automata, senders, r)
        heard = rounds[:-1]
        if heard:
            for v, o in obs.items():
                if v not in actions:
                    try:
                        automata[v].absorb(heard, o)
                    except Exception as exc:
                        _fault(exc, "absorb", heard[0], v)
        _observe(automata, sorted(obs), r, obs)
        if trace is not None:
            trace.record(r, actions, obs)
        for v in obs:
            if automata[v].done:
                not_done.discard(v)
            else:  # a done node that heard something may have more to do
                not_done.add(v)
            declare(v, _next(automata, v, r + 1))
        if any(msg is not None for msg in actions.values()):
            last_activity = r
    return last_activity
