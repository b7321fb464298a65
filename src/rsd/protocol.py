"""The size discovery automaton and its orchestrator.

Every node runs the same deterministic machine driven solely by its label
and what it hears (per round: silence, collision noise, or the message
object itself when one neighbor sends), in three procedures:

1. Parameter learning: degree-learning tags reach the root, which floods
   the maximum degree; nodes date their level from the flood's arrival, the
   designated deepest node reports the depth back along the relay path, and
   the root floods the depth.
2. Size learning, one phase per level from the bottom up: the phase's
   maximum-weight node floods that weight, then children repeat tag and
   weight-report slots in fixed-size blocks until their owning upper-set
   member decodes a consistent account, adopts its weight, and transmits a
   stop; the phase-end member floods its stop round so everyone can date
   the next phase.
3. Final: the root floods the network size and all nodes output it.

Flooding (the wave subroutine) encodes a value bit-serially: 1 -> 10,
0 -> 00, terminated by 11, spreading level by level with each level
occupying 2k+2 rounds.  A node awaits each wave the same way (`_await`),
dates it by one rule (`wave_hop`: the hop d >= 1 on which a wave sent from a
known round ends, behind a quiet window), and relays every accepted wave,
the record (value, hop, pulses heard from its start), by one rule
(`_relay`), which suppresses relaying where it cannot serve a deeper node:
root-initiated waves are relayed only by upper-set members (whose
neighborhoods cover the next level), and mid-phase waves only while the
2h-block propagation budget allows.  Without that suppression, the final
level's echo would collide with the hop relay that follows.

A node keeps its pending sends in one list of (round, message) pairs in
ascending round order: typed messages, then at most one wave, whose pulses
come last.  Its sends never overlap: an x or T relay ends by t2' or the
next t2, and a root wave ends before the value it leads to is sent.  So a
send queued behind a wave in flight, or at or before the last queued
round, comes only from a forged alignment and is a desync.
Only a node that starts a wave lists its pulses (`wave_pulses`); a relay
repeats the pulse rounds it heard from the accepted start, one hop later.
The listener decodes a wave arithmetically from its list of pulse rounds:
it inverts `wave_pulses`, and the tests check both against a string encoder
and decoder.

The procedures are sequential, so a node waits for one timed step at a time
(a phase, block or final start, or a member's block-final stop decision) in
one timer slot, a (round, step) pair.  Only `next_transmit_round(r)` runs a
step due by r, with the round it was armed for; the engines ask it once
everything heard in earlier rounds has been delivered, before the node
decides or observes round r.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from .graphs import Graph, LevelDecomposition, decompose
from .labels import Label, LabelFormatError, LabelingScheme, assign_labels, decode_label
from .radio import (
    COLLISION,
    NOT_LISTENING,
    SILENCE,
    CollisionTagMsg,
    DeltaLearn,
    HopValue,
    Message,
    Observation,
    SimulationError,
    SimulationTrace,
    Stop,
    WavePulse,
    WeightReport,
    run_scheduled,
)
from .upper_sets import (
    UpperSetPlan,
    account_block,
    bitlen,
    bits_value,
    compute_upper_sets,
    compute_weights,
    report_slot,
)

_PULSE = WavePulse()
_STOP = Stop()
_Handler = Callable[[int, Observation], None]  # a stage's observation handler

MAX_WAVE_BITS = 2 * 64 + 2  # longest wave pattern: values fit in 64 bits


class ProtocolDesyncError(SimulationError):
    """An observation impossible at the node's current stage."""

    def __init__(self, message: str, round_no: int, node: int, stage: str):
        super().__init__(f"[{stage}] {message}", round_no, node)
        self.stage = stage


def wave_pulses(x: int) -> List[int]:
    """Offsets of the pulses of a wave carrying x from its first round, in
    ascending order.  The schedule is bit-serial: each 1 becomes 10, each 0
    becomes 00, most significant bit first, then 11; so bit j of x, counted
    from the top, pulses at offset 2j, and the 11 at 2k and 2k + 1 for k bits."""
    if x < 1:
        raise ValueError(f"wave value must be >= 1, got {x}")
    if wave_span(x) > MAX_WAVE_BITS:
        raise ValueError(f"wave value {x} needs more than MAX_WAVE_BITS = {MAX_WAVE_BITS} rounds")
    k = bitlen(x)
    return [2 * i for i in range(k) if x >> (k - 1 - i) & 1] + [2 * k, 2 * k + 1]


# --- timeline arithmetic ----------------------------------------------------

def wave_span(x: int) -> int:
    """Rounds one hop of a wave carrying x occupies: 2 per bit plus the 11."""
    return 2 * bitlen(x) + 2


def wave_hop(origin: int, value: int, r: int) -> Optional[int]:
    """The hop d >= 1 of a wave of `value` sent from round `origin` that
    ends in round r, where hop d ends at origin + d * wave_span(value);
    None if r ends no hop."""
    d, rem = divmod(r - origin, wave_span(value))
    if rem or d < 1:
        return None
    return d


def _quiet_hop(origin: int, value: int, r: int, prev: int, quiet_from: int) -> Optional[int]:
    """`wave_hop` behind a quiet window: None also if `prev`, the pulse heard
    just before the wave's start (0 if none), came after `quiet_from`, the
    round by which every echo of earlier traffic would have ended were the
    value true (echoes of an earlier wave can mimic a shorter wave)."""
    return None if prev > quiet_from else wave_hop(origin, value, r)


def depth_report_round(delta: int, h: int) -> int:
    """Round in which the depth report reaches the root: the degree wave
    needs h hops after the bitlen(delta) tag rounds, the report h more."""
    return bitlen(delta) + h * wave_span(delta) + h


def t1_formula(delta: int, h: int) -> int:
    """End of parameter learning: the depth wave's last hop finishes."""
    return depth_report_round(delta, h) + h * wave_span(h)


def tau_formula(delta: int, x: int) -> int:
    m = bitlen(delta)
    return m + x * m + 1


# --- the in-simulation wave listener -----------------------------------------

class WaveListener:
    """Decodes a wave from the rounds in which the node heard a pulse.

    Ambient collision noise (simultaneous stops, tag slot clashes) is
    indistinguishable from a wave pulse, so every pulse round may be the
    start of the real wave.  When a pulse closes an 11 pair, the listener
    decodes the pattern from each candidate start, oldest first, that
    follows the last clean typed message, fits MAX_WAVE_BITS and spans
    whole pairs; a start whose pulses wave_pulses could not have listed is
    skipped.  The validator gets (value, finish_round, prev), where prev is
    the pulse heard just before the start (0 if none), and accepts by
    returning the wave's hop; the listener then returns the record (value,
    hop, the pulse rounds from the start on).  Since the validator checks
    exact round arithmetic, only the true alignment is accepted.
    Rounds the node spent transmitting count as silent.  A listener serves
    one wave: `SizeDiscoveryNode.observe` drops it once it has accepted one.
    """

    __slots__ = ("validator", "cands", "typed")

    def __init__(self, validator: Callable[[int, int, int], Optional[int]]):
        self.validator = validator
        self.cands: List[int] = []  # ascending pulse rounds; each is a candidate wave start
        self.typed = 0  # round of the last clean typed message: no wave spans it

    def typed_message(self, r: int) -> None:
        """A clean non-pulse message: no wave is in the air at round r."""
        self.typed = r

    def pulse(self, r: int) -> Optional[Tuple[int, int, List[int]]]:
        """A non-silent round: record it and, if it closes an 11 pair, decode.

        A start s decodes iff r - s is odd, s < r - 1 and every pulse in
        [s, r - 2] lies an even number of rounds after s (pair s + 2j then
        carries bit j of the value, most significant first).  So the starts
        that decode are the pulses from the window's first round to r - 3
        that come after the last pulse of r's parity, and the value from s
        sums 2^((r - 1 - c)/2 - 1) over the pulses c in [s, r - 2]."""
        cands = self.cands
        cands.append(r)
        last = len(cands) - 2
        if last < 0 or cands[last] != r - 1:
            return None
        lo = max(self.typed + 1, r - MAX_WAVE_BITS + 1)
        first = last
        value = 0
        while first > 0:
            c = cands[first - 1]
            if c < lo or (r - c) % 2 == 0:
                break
            first -= 1
            value += 1 << ((r - 1 - c) // 2 - 1)
        for i in range(first, last):  # oldest start first
            hop = self.validator(value, r, cands[i - 1] if i else 0)
            if hop is not None:
                return value, hop, cands[i:]
            value -= 1 << ((r - 1 - cands[i]) // 2 - 1)
        return None


# --- the node automaton -------------------------------------------------------

def _is_pulse(obs: Observation) -> bool:
    """Collision noise sounds the same as a wave pulse."""
    return obs is COLLISION or isinstance(obs, WavePulse)


class SizeDiscoveryNode:
    """Deterministic per-node machine; consumes only its label and observations.

    With `record_events`, `events` is the node's audit log: one tuple per
    step (what it learned, each wave it accepted, each weight, stop and
    phase end), in order.  Without it, `events` is None and the node keeps
    only its O(1) state, as the paper's node does.  A stage's scratch lives
    only while the stage runs: the root's degree bits from `root_collect`
    until it knows the degree, and a member's block account from
    `member_blocks` until its stop; otherwise each is None, as is the send
    list once it drains.  A finished node thus holds what it learned, and
    nodes booted from equal labels share one `Label`.  Its timer runs only
    in `next_transmit_round`, which reports the timer's round as a send's.
    """

    __slots__ = (
        "label", "node_id", "events", "stage",
        "delta", "m", "level", "h", "weight", "output",
        "phase", "t2", "x_i", "t2p", "tau",
        "_sends", "_head", "_timer", "_on_obs", "_listener", "_on_wave", "_mid_phase",
        "_delta_bits", "_window_clean", "_tags_heard", "_reports_heard",
    )

    def __init__(self, label: Label, node_id: int = -1, record_events: bool = False):
        self.label = label
        self.node_id = node_id
        self.events: Optional[List[tuple]] = [] if record_events else None

        self.delta: Optional[int] = None
        self.m: Optional[int] = None
        self.level: Optional[int] = None
        self.h: Optional[int] = None
        self.weight: Optional[int] = None
        self.output: Optional[int] = None

        self.phase = 0
        self.t2: Optional[int] = None
        self.x_i: Optional[int] = None
        self.t2p: Optional[int] = None
        self.tau: Optional[int] = None

        self._sends: Optional[List[Tuple[int, Message]]] = None  # pending (round, message), ascending
        self._head = 0  # index of the first pending send in _sends
        self._timer: Optional[Tuple[int, Callable[[int], None]]] = None
        self._on_obs: Optional[_Handler] = None
        self._listener: Optional[WaveListener] = None
        self._on_wave: Optional[Callable[[int, int, int], None]] = None
        self._mid_phase = False  # whether the awaited wave is a mid-phase one

        self._delta_bits: Optional[Dict[int, int]] = None  # the root's, in root_collect
        # a member's block window, in member_blocks: its level fixes the one phase it accounts in
        self._window_clean: Optional[bool] = None
        self._tags_heard: Optional[Dict[int, int]] = None
        self._reports_heard: Optional[Dict[int, Dict[int, int]]] = None

        if label.has(0):
            self._enter("root_collect", self._obs_root_collect)
            self._delta_bits = {}
            self.level = 0
            self.m = label.l1.id
        else:
            self._await("wave_delta", self._validate_delta_wave, self._got_delta)
            if label.l1.active():
                self._schedule(label.l1.id, DeltaLearn(label.l1))

    # -- engine interface --

    @property
    def done(self) -> bool:
        return self.output is not None and self._sends is None

    def decide(self, r: int) -> Optional[Message]:
        sends = self._sends
        if sends is None:
            return None
        q, msg = sends[self._head]
        if q != r:
            return None
        self._head += 1
        if self._head == len(sends):  # drained: keep no spent list
            self._sends, self._head = None, 0
        return msg

    def observe(self, r: int, obs: Observation) -> None:
        if obs is NOT_LISTENING:
            return
        listener = self._listener
        if listener is None:
            if self._on_obs is not None:
                self._on_obs(r, obs)
        elif _is_pulse(obs):
            got = listener.pulse(r)
            if got is not None:
                value, hop, pulses = got
                on_wave = self._on_wave
                self._listener = self._on_wave = None
                self._relay(r, hop, pulses)
                on_wave(r, value, hop)
        elif obs is not SILENCE:  # a message other than a pulse
            listener.typed_message(r)

    def next_transmit_round(self, r: int) -> Optional[int]:
        """The node's clock: run the step due by r, then name the next send or step."""
        timer = self._timer
        if timer is not None and timer[0] <= r:
            self._timer = None  # cleared first: steps re-arm
            timer[1](timer[0])
            timer = self._timer
        nxt = None if self._sends is None else self._sends[self._head][0]
        if timer is not None and (nxt is None or timer[0] < nxt):
            return timer[0]
        return nxt

    def train(self, r: int) -> List[int]:
        """The pending send rounds from r on, asked only of a node that
        sends in round r (r is the first of them): a typed message is a
        train of one round; a pulse is followed only by the rest of its
        wave, cut before the timer."""
        sends, head = self._sends, self._head
        if sends[head][1] is not _PULSE:
            return [r]
        timer = self._timer
        end = len(sends) if timer is None else bisect_left(sends, timer[0], head, key=itemgetter(0))
        return [q for q, _ in sends[head:end]]

    def reacts_at(self, rounds: List[int], obs: Observation) -> Optional[int]:
        """The first of `rounds` at which hearing `obs` could act: with a
        listener armed, the first pulse that closes an 11 pair; in a stage
        with an observation handler, the first round."""
        listener = self._listener
        if listener is None:
            return rounds[0] if self._on_obs is not None else None
        if not _is_pulse(obs):
            return rounds[0]
        prev = listener.cands[-1] if listener.cands else None
        for q in rounds:
            if prev == q - 1:
                return q
            prev = q
        return None

    def absorb(self, rounds: List[int], obs: Observation) -> None:
        """Hear `obs` in each of `rounds`, all before `reacts_at`'s answer:
        the pulses only extend the listener's record."""
        if self._listener is not None:
            self._listener.cands.extend(rounds)

    # -- internal plumbing --

    def _schedule(self, r: int, msg: Message) -> None:
        """Queue a typed message for round r."""
        self._send([(r, msg)])

    def _start_wave(self, start: int, value: int) -> None:
        """Send a wave of `value` whose first pulse is in round `start`."""
        self._send([(start + i, _PULSE) for i in wave_pulses(value)])

    def _send(self, sends: List[Tuple[int, Message]]) -> None:
        """Queue `sends`, (round, message) pairs in ascending round order
        (a list the node may keep), behind the pending ones.  The procedures'
        sends never overlap (see the module docstring), so a send behind a
        wave in flight, or at or before the last queued round, is a desync
        in the round of the first of `sends`."""
        r = sends[0][0]
        queued = self._sends
        if queued is None:
            self._sends, self._head = sends, 0
            return
        last, msg = queued[-1]
        if msg is _PULSE:
            self._desync(f"send in round {r} behind a wave in flight", r)
        if r <= last:
            self._desync(f"send in round {r} at or before the one queued for round {last}", r)
        queued.extend(sends)

    def _arm(self, r: int, step: Callable[[int], None]) -> None:
        assert self._timer is None, "a node waits for one timed step at a time"
        self._timer = (r, step)

    def _enter(self, stage: str, on_obs: Optional[_Handler] = None) -> None:
        """The one writer of `stage`; `on_obs` is None while idle or awaiting a wave."""
        self.stage = stage
        self._on_obs = on_obs

    def _desync(self, message: str, r: int) -> None:
        raise ProtocolDesyncError(message, r, self.node_id, self.stage)

    def _event(self, *items) -> None:
        if self.events is not None:
            self.events.append(items)

    # -- awaiting a wave --

    def _await(
        self,
        stage: str,
        validator: Callable[[int, int, int], Optional[int]],
        on_wave: Callable[[int, int, int], None],
        mid_phase: bool = False,
    ) -> None:
        """Enter `stage` and listen for one wave, a mid-phase one or one the
        root sent: once `validator` accepts it, `observe` drops the listener,
        relays the wave and calls `on_wave(r, value, hop)`."""
        self._enter(stage)
        self._listener = WaveListener(validator)
        self._on_wave = on_wave
        self._mid_phase = mid_phase

    def _relay(self, r: int, hop: int, pulses: List[int]) -> None:
        """The one relay rule: a root-initiated wave goes on from upper-set
        members, whose neighborhoods cover the next level; a mid-phase wave
        goes on while the 2h-hop budget lasts.  The relay repeats `pulses`,
        the pulse rounds heard from the wave's start, one hop later: the
        start is a pulse, so they are exactly wave_pulses(value), shifted."""
        if (hop < 2 * self.h if self._mid_phase else self.label.has(4)):
            shift = r + 1 - pulses[0]
            self._send([(c + shift, _PULSE) for c in pulses])

    # -- wave validators: each returns the accepted wave's hop, or None --

    def _validate_delta_wave(self, value: int, r: int, prev: int) -> Optional[int]:
        mb = bitlen(value)
        return _quiet_hop(mb, value, r, prev, mb)

    def _validate_h_wave(self, value: int, r: int, prev: int) -> Optional[int]:
        assert self.m is not None and self.level is not None
        if self.level > value or (self.h is not None and value != self.h):
            return None
        echo_end = self.m + min(self.level + 2, value) * wave_span(self.delta)
        if _quiet_hop(depth_report_round(self.delta, value), value, r, prev, echo_end) != self.level:
            return None
        return self.level

    def _mid_phase_wave(self, origin: int, value: int, r: int, prev: int) -> Optional[int]:
        """A mid-phase wave sent from round `origin` travels at most 2h hops."""
        d = _quiet_hop(origin, value, r, prev, origin)
        return d if d is not None and d <= 2 * self.h else None

    def _validate_x_wave(self, value: int, r: int, prev: int) -> Optional[int]:
        assert self.t2 is not None and self.h is not None
        return self._mid_phase_wave(self.t2, value, r, prev)

    def _validate_t_wave(self, value: int, r: int, prev: int) -> Optional[int]:
        assert self.t2p is not None and self.tau is not None and self.h is not None
        if value <= self.t2p or (value - self.t2p) % self.tau != 0:
            return None
        return self._mid_phase_wave(value, value, r, prev)

    def _validate_n_wave(self, value: int, r: int, prev: int) -> Optional[int]:
        assert self.t2 is not None and self.level is not None
        if value < 2 or _quiet_hop(self.t2, value, r, prev, self.t2) != self.level:
            return None
        return self.level

    # -- stage: root collecting degree tags --

    def _obs_root_collect(self, r: int, obs: Observation) -> None:
        if isinstance(obs, DeltaLearn):
            tag = obs.tag
            if tag.id != r:
                self._desync(f"degree tag id {tag.id} arrived in round {r}", r)
            self._delta_bits[tag.id] = tag.bit
        elif obs is COLLISION:
            self._desync("collision while collecting degree tags", r)
        if r == self.m:
            if sorted(self._delta_bits) != list(range(1, self.m + 1)):
                self._desync(
                    f"degree bits incomplete: have ids {sorted(self._delta_bits)}", r
                )
            value = bits_value(self._delta_bits)
            if value.bit_length() != self.m:  # also refuses a degree of 0
                self._desync(f"degree {value} does not fit its own bit count", r)
            self.delta = value
            self._delta_bits = None  # the degree is known
            self._event("delta", r, value)
            self._event("level", r, 0)
            self._start_wave(self.m + 1, self.delta)
            self._enter("root_await_hop", self._obs_root_await_hop)

    def _obs_root_await_hop(self, r: int, obs: Observation) -> None:
        if isinstance(obs, HopValue):
            x = obs.value
            expected = depth_report_round(self.delta, x)
            if r != expected:
                self._desync(f"depth report {x} arrived in round {r}, expected {expected}", r)
            self._start_wave(r + 1, x)
            self._finish_param_learning(r, x)

    # -- parameter learning: the degree wave, the hop relay, the depth wave --

    def _got_delta(self, r: int, value: int, hop: int) -> None:
        self.delta = value
        self.m = bitlen(value)
        self.level = hop
        self._event("delta", r, self.delta)
        self._event("level", r, self.level)
        self._event("wave", "delta", r, self.delta, self.level)
        if self.label.has(1):
            # the designated deepest node knows its level is the depth
            self._schedule(r + 1, HopValue(self.level))
            self.h = self.level
        elif self.label.has(3):
            self._enter("await_hop", self._obs_await_hop)
            return
        self._await("wave_h", self._validate_h_wave, self._got_h)

    def _obs_await_hop(self, r: int, obs: Observation) -> None:
        if isinstance(obs, HopValue):
            self.h = obs.value
            self._schedule(r + 1, HopValue(self.h))
            self._await("wave_h", self._validate_h_wave, self._got_h)

    def _got_h(self, r: int, value: int, hop: int) -> None:
        self._event("wave", "h", r, value, hop)
        self._finish_param_learning(r, value)

    def _finish_param_learning(self, r: int, h: int) -> None:
        if self.h is not None and self.h != h:
            self._desync(f"depth {h} contradicts earlier value {self.h}", r)
        self.h = h
        self.t2 = t1 = t1_formula(self.delta, h)
        self._event("h", r, h)
        self._event("t1", r, t1)
        self._arm(t1 + 1, self._on_phase_start)
        self._enter("idle_until_phase")

    # -- phases --

    def _on_phase_start(self, r: int) -> None:
        self.phase = i = self.phase + 1
        assert self.t2 is not None and r == self.t2 + 1
        # non-members weigh 1: the deepest level from phase 1, level h - i from phase i
        if self.weight is None and not self.label.has(4) and self.level >= self.h - i:
            self.weight = 1
            self._event("weight", r - 1, 1)
        if self.label.has(6) and self.level == self.h - i + 1:
            assert self.weight is not None, "phase initiator without a weight"
            self._set_phase_schedule(self.weight)
            self._start_wave(r, self.weight)
            self._enter("idle_until_blocks")
        else:
            self._await("wave_x", self._validate_x_wave, self._got_x, mid_phase=True)

    def _set_phase_schedule(self, x: int) -> None:
        self.x_i = x
        self.t2p = self.t2 + 2 * self.h * wave_span(x)
        self.tau = tau_formula(self.delta, x)
        self._event("x", self.phase, x, self.t2p, self.tau)
        self._arm(self.t2p + 1, self._on_blocks_start)

    def _got_x(self, r: int, value: int, hop: int) -> None:
        self._set_phase_schedule(value)
        self._event("wave", "x", r, value, hop, self.phase)
        self._enter("idle_until_blocks")

    def _on_blocks_start(self, r: int) -> None:
        assert self.t2p is not None and r == self.t2p + 1
        if self.level == self.h - self.phase + 1:
            self._enter("child_blocks", self._obs_child_blocks)
            self._on_child_block(r)
        elif self.level == self.h - self.phase and self.label.has(4):
            self._window_clean, self._tags_heard, self._reports_heard = True, {}, {}
            self._arm(self.t2p + self.tau, self._on_block_end)
            self._enter("member_blocks", self._obs_member_blocks)
        else:
            self._await("await_phase_end", self._validate_t_wave, self._got_t, mid_phase=True)

    # children ---------------------------------------------------------------

    def _on_child_block(self, r: int) -> None:
        """The block after round r - 1: schedule this child's tag and report
        slots; a tagged child repeats them every block until its member stops."""
        base = r - 1
        l2, l3 = self.label.l2, self.label.l3
        if l2.active():
            self._schedule(base + l2.id, CollisionTagMsg(l2))
        if l3.active():
            assert self.weight is not None, "weight-tagged child without a weight"
            slot = base + report_slot(self.m, self.weight, l3.id)
            self._schedule(slot, WeightReport(l3, self.weight))
        if l2.active() or l3.active():
            self._arm(base + self.tau + 1, self._on_child_block)

    def _obs_child_blocks(self, r: int, obs: Observation) -> None:
        off = r - self.t2p
        if off <= 0 or off % self.tau != 0:
            return  # mid-block traffic belongs to members
        if obs is COLLISION or isinstance(obs, Stop):
            self._event("child_complete", self.phase, r)
            self._timer = None  # no next block
            self._await("await_phase_end", self._validate_t_wave, self._got_t, mid_phase=True)

    # members ----------------------------------------------------------------

    def _obs_member_blocks(self, r: int, obs: Observation) -> None:
        off_total = r - self.t2p
        if off_total < 1:
            self._desync("observation before the block schedule began", r)
        off = (off_total - 1) % self.tau + 1
        if off == self.tau:
            return  # stop slot: other members' stops are not ours to act on
        if off <= self.m:
            if obs is COLLISION:
                self._window_clean = False
            elif obs is not SILENCE:
                if not isinstance(obs, CollisionTagMsg):
                    self._desync(f"unexpected {type(obs).__name__} in tag slots", r)
                if obs.tag.id != off:
                    self._desync(f"tag id {obs.tag.id} heard in slot {off}", r)
                self._tags_heard[obs.tag.id] = obs.tag.bit
        elif off < self.tau:
            if obs is COLLISION:
                self._window_clean = False
            elif obs is not SILENCE:
                if not isinstance(obs, WeightReport):
                    self._desync(f"unexpected {type(obs).__name__} in report slots", r)
                expected = report_slot(self.m, obs.weight, obs.tag.id)
                if not (1 <= obs.weight <= self.x_i) or off != expected:
                    self._desync(
                        f"weight report ({obs.tag.id}, w={obs.weight}) in slot {off}", r
                    )
                self._reports_heard.setdefault(obs.weight, {})[obs.tag.id] = obs.tag.bit

    def _on_block_end(self, r: int) -> None:
        """Block-final decision, due before round r is decided: adopt the
        weight and stop in round r, or retry next block."""
        weight = account_block(self._window_clean, self._tags_heard, self._reports_heard)
        if weight is None:
            self._window_clean = True
            self._tags_heard = {}
            self._reports_heard = {}
            self._arm(r + self.tau, self._on_block_end)
            return
        self.weight = weight
        self._window_clean = self._tags_heard = self._reports_heard = None  # accounted
        self._event("weight", r, self.weight)
        self._event("member_stop", self.phase, r)
        self._schedule(r, _STOP)
        if self.label.has(5):
            self._event("T", self.phase, r, r)
            self._start_wave(r + 1, r)
            self._finish_phase(r, r)
        else:
            self._await("await_phase_end", self._validate_t_wave, self._got_t, mid_phase=True)

    # phase end ----------------------------------------------------------------

    def _got_t(self, r: int, value: int, hop: int) -> None:
        self._event("wave", "T", r, value, hop)
        self._finish_phase(r, value)

    def _finish_phase(self, r: int, big_t: int) -> None:
        self.t2 = big_t + 2 * self.h * wave_span(big_t)
        self._event("t2", self.phase + 1, r, self.t2)
        if self.phase < self.h:
            self._arm(self.t2 + 1, self._on_phase_start)
        else:
            self._arm(self.t2 + 1, self._on_final_start)
        self._enter("idle_until_phase")

    # final ----------------------------------------------------------------------

    def _on_final_start(self, r: int) -> None:
        if self.label.has(0):
            assert self.weight is not None, "root finished phases without a weight"
            self.output = self.weight
            self._event("output", r - 1, self.output)
            self._start_wave(r, self.output)
            self._enter("draining")
        else:
            self._await("wave_n", self._validate_n_wave, self._got_n)

    def _got_n(self, r: int, value: int, hop: int) -> None:
        self.output = value
        self._event("output", r, value)
        self._event("wave", "n", r, value, hop)
        self._enter("draining")


# --- orchestration -------------------------------------------------------------

@dataclass
class ProtocolResult:
    """Outcome of one end-to-end run plus everything tests need to audit it.

    `rounds_used` is the last round in which anyone transmitted or, if the
    simulation raised, the round it failed in: 0, with `nodes` empty and
    every output None, when a label did not decode.  `trace` is the run's
    `SimulationTrace` when one was asked for, else None; if the run failed
    it holds the rounds resolved before the failure.  Each node's `events`
    is its audit log when the run was asked to record events, else None.
    """

    ok: bool
    outputs: Dict[int, Optional[int]]
    rounds_used: int
    round_cap: int
    scheme: LabelingScheme
    decomposition: LevelDecomposition
    plan: UpperSetPlan
    oracle_weights: Dict[int, int]
    nodes: Dict[int, SizeDiscoveryNode]
    trace: Optional[SimulationTrace] = None
    failure: Optional[str] = None

    def report(self, g: Graph) -> dict:
        return {
            "n": g.n,
            "delta": self.decomposition.delta,
            "h": self.decomposition.h,
            "rounds_used": self.rounds_used,
            "max_label_bits": self.scheme.max_bits(),
            "outputs_ok": self.ok,
            "bound_Dn2logDelta": self.round_cap,
        }


def round_cap_multiplier() -> int:
    """The round cap's multiplier: cap = 64 * D * n^2 * (floor(log Delta) + 1)."""
    return 64


def _boot(n: int, scheme: LabelingScheme, record_events: bool) -> Dict[int, SizeDiscoveryNode]:
    """Nodes 0..n-1, each built from its decoded label bits; every distinct
    string is decoded once.  A string that does not decode fails the run
    before round 1: a SimulationError at round 0 naming the lowest node
    that holds it."""
    labels: Dict[str, Label] = {}
    nodes = {}
    for v in range(n):
        bits = scheme.encoded[v]
        if bits not in labels:
            try:
                labels[bits] = decode_label(bits)
            except LabelFormatError as exc:
                raise SimulationError(f"label does not decode: {exc}", 0, v) from exc
        nodes[v] = SizeDiscoveryNode(labels[bits], v, record_events)
    return nodes


def run_protocol(g: Graph, record_trace: bool = False, record_events: bool = False) -> ProtocolResult:
    """Label the graph, run size discovery, and audit the outputs against n.

    Each node boots from its encoded bits, as the paper's node does (see
    `_boot`); a label that does not decode fails the run at round 0, with
    no node built.  The audit reads only each node's `output` and `done`.
    `record_trace` keeps every resolved round, and
    `record_events` keeps each node's event log (see `SizeDiscoveryNode`);
    the log grows by about four events per node and phase, so a run without
    it holds O(1) state per node.
    """
    if g.n < 2:
        raise ValueError("size discovery requires n >= 2: the root must have a neighbor")
    d = decompose(g)
    plan = compute_upper_sets(g, d)
    weights = compute_weights(plan, d)
    scheme = assign_labels(g, d, plan, weights)
    cap = round_cap_multiplier() * g.diameter() * g.n * g.n * bitlen(d.delta)

    failure = None
    trace = SimulationTrace(g.n) if record_trace else None
    nodes: Dict[int, SizeDiscoveryNode] = {}
    try:
        nodes = _boot(g.n, scheme, record_events)
        rounds_used = run_scheduled(g, nodes, cap, trace)
    except SimulationError as exc:
        failure = str(exc)
        rounds_used = exc.round_no

    outputs = {v: nodes[v].output if nodes else None for v in range(g.n)}
    ok = failure is None and all(out == g.n for out in outputs.values())
    if failure is None and not all(nodes[v].done for v in range(g.n)):
        ok = False
        failure = f"round cap {cap} exhausted before all nodes finished"
    return ProtocolResult(
        ok=ok,
        outputs=outputs,
        rounds_used=rounds_used,
        round_cap=cap,
        scheme=scheme,
        decomposition=d,
        plan=plan,
        oracle_weights=weights,
        nodes=nodes,
        trace=trace,
        failure=failure,
    )
