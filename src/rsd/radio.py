"""Synchronous radio rounds with collision detection.

Model: in each round every node either transmits to all neighbors or
listens.  A listener hears a message iff exactly one neighbor transmits;
two or more transmitting neighbors produce collision noise, zero produce
silence.  Transmitters learn nothing in their own round.

Two engines drive automata over this model, and both resolve each round
through `resolve_round`.  `run_scheduled` drives every run: it skips
globally silent stretches by asking automata when they might transmit
next, steps only the nodes a round can affect, and can record a trace.
`run` visits every round and every node (the reference semantics); the
tests check `run_scheduled` against it.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NoReturn, Optional, Protocol, Tuple

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


@dataclass(frozen=True)
class Opaque:
    """Arbitrary payload, used by the lower-bound history computations."""

    payload: object


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


@dataclass(frozen=True)
class Heard:
    message: Message


Observation = object  # SILENCE | COLLISION | NOT_LISTENING | Heard


def resolve_round(g: Graph, actions: Dict[int, Optional[Message]]) -> Dict[int, Observation]:
    """Apply the 0/1/>=2 transmitter rule to one round of actions.

    `actions[v]` is the message v transmits, or None to listen; nodes absent
    from `actions` listen too.  Returns the observation of every node in
    `actions` and of every neighbor of a transmitter; any other node hears
    silence.
    """
    obs: Dict[int, Observation] = {}
    for v, msg in actions.items():
        if msg is not None:
            for w in g.adj[v]:
                obs[w] = COLLISION if w in obs else Heard(msg)
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
    observed in rounds < r.  observe(r, obs) delivers round r's observation.
    Rounds not delivered via observe were silent (or the node transmitted,
    which it knows).  done is terminal.  next_transmit_round(r) names the
    earliest round >= r in which the node may transmit, or None; it may run
    the automaton's timers due by round r.  The engines report an exception
    raised in any of the three as a SimulationError naming round and node.
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
    the non-silent rounds fix the whole trace.
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

    def format_text(self) -> str:
        """Trace file format: `round node action observation` per line, for
        rounds 1..last and nodes 0..n-1."""
        silent = "".join(f"{{0}} {v} L S\n" for v in range(self.n))
        chunks = []
        for r in range(1, self.last + 1):
            text = silent.format(r)
            if r in self.rounds:
                actions, obs = self.rounds[r]
                lines = text.splitlines(keepends=True)
                for v, o in obs.items():  # every node that acted or heard anything
                    lines[v] = f"{r} {v} {_action_str(actions.get(v))} {_obs_str(o)}\n"
                text = "".join(lines)
            chunks.append(text)
        return "".join(chunks)


def _action_str(msg: Optional[Message]) -> str:
    return "L" if msg is None else f"T:{type(msg).__name__}"


def _obs_str(obs: Observation) -> str:
    if obs is SILENCE:
        return "S"
    if obs is COLLISION:
        return "C"
    if obs is NOT_LISTENING:
        return "-"
    return f"H:{type(obs.message).__name__}"


def _decide(
    automata: Dict[int, Automaton], nodes: Iterable[int], r: int
) -> Dict[int, Optional[Message]]:
    """Round r's action of every node in `nodes`."""
    actions: Dict[int, Optional[Message]] = {}
    for v in nodes:
        try:
            actions[v] = automata[v].decide(r)
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(f"automaton failed in decide: {exc}", r, v) from exc
    return actions


def _observe(
    automata: Dict[int, Automaton], nodes: Iterable[int], r: int, obs: Dict[int, Observation]
) -> None:
    """Deliver round r's observation to every node in `nodes`, in that order."""
    for v in nodes:
        try:
            automata[v].observe(r, obs[v])
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(f"automaton failed in observe: {exc}", r, v) from exc


def _query_failed(exc: Exception, r: int, v: int) -> NoReturn:
    """Re-raise what node v raised when asked for its next transmission from
    round r on: a SimulationError as it is, anything else wrapped in one."""
    if isinstance(exc, SimulationError):
        raise exc
    raise SimulationError(f"automaton failed in next_transmit_round: {exc}", r, v) from exc


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
        actions = _decide(automata, range(g.n), r)
        obs = resolve_round(g, actions)
        _observe(automata, range(g.n), r, obs)
        trace.record(r, actions, obs)
        if any(msg is not None for msg in actions.values()):
            last_activity = r
    return trace, last_activity


def run_scheduled(
    g: Graph,
    automata: Dict[int, Automaton],
    max_rounds: int,
    trace: Optional[SimulationTrace] = None,
) -> int:
    """Fast engine: jump between rounds where some node may transmit.

    Sound because automata ignore silence: the next pending transmission of
    an automaton that no round touches never moves earlier, so a lazy heap
    of declared rounds always knows the next globally non-silent round.
    Every round it resolves goes into `trace`, if given; when the cap stops
    the run, the trace ends at round max_rounds, as the reference's does.
    Returns the last round in which anyone transmitted.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0")
    heap: List[Tuple[int, int]] = []
    not_done = set()
    for v in range(g.n):
        if not automata[v].done:
            not_done.add(v)
        try:
            nxt = automata[v].next_transmit_round(1)
        except Exception as exc:
            _query_failed(exc, 1, v)
        if nxt is not None:
            heapq.heappush(heap, (nxt, v))
    last_activity = 0
    while not_done:
        r = None
        while heap:
            declared, v = heap[0]
            try:
                actual = automata[v].next_transmit_round(declared)
            except Exception as exc:
                _query_failed(exc, declared, v)
            if actual == declared:
                r = declared
                break
            heapq.heappop(heap)
            if actual is not None:
                heapq.heappush(heap, (actual, v))
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
        candidates: List[int] = []
        while heap and heap[0][0] == r:
            _, v = heapq.heappop(heap)
            if v not in candidates:
                candidates.append(v)
        actions = _decide(automata, candidates, r)
        obs = resolve_round(g, actions)
        _observe(automata, sorted(obs), r, obs)
        if trace is not None:
            trace.record(r, actions, obs)
        for v in obs:
            if automata[v].done:
                not_done.discard(v)
            elif v not in not_done:
                not_done.add(v)
            try:
                nxt = automata[v].next_transmit_round(r + 1)
            except Exception as exc:
                _query_failed(exc, r + 1, v)
            if nxt is not None:
                heapq.heappush(heap, (nxt, v))
        if any(msg is not None for msg in actions.values()):
            last_activity = r
    return last_activity
