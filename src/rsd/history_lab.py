"""Executable lower-bound laboratory.

The hard instances are double stars: a center r of degree Delta with one
distinguished leaf a that carries i extra leaves, for floor(Delta/2) <= i
<= Delta-1.  Any size discovery algorithm is a deterministic function of a
node's history: its label followed by one entry per round (a received
history, a collision mark, or a silence mark).  Two leaves with equal
labels stay forever indistinguishable, and two trees whose per-label leaf
occupancies (none / one / many) agree give their centers identical
histories.  Counting patterns therefore bounds the number of center
histories by z^2 * 3^(2z) for z possible labels, which an exact big-integer
evaluation makes checkable.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from operator import eq
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .graphs import Graph
from .radio import COLLIDED, hearing

LAMBDA = "lambda"
STAR = "star"
SUB = "sub"


@dataclass(frozen=True)
class FamilyTree:
    """One double star: center r (id 0), hub leaf a (id 1), R = r's other
    leaves, A = a's extra leaves."""

    delta: int
    i: int
    graph: Graph
    r: int
    a: int
    leaves_r: Tuple[int, ...]
    leaves_a: Tuple[int, ...]

    @property
    def n(self) -> int:
        return self.graph.n


def _family_range(delta: int) -> range:
    """The member indices floor(Delta/2)..Delta-1 for one maximum degree."""
    if delta < 2:
        raise ValueError(f"the family needs delta >= 2, got {delta}")
    return range(delta // 2, delta)


def family_tree(delta: int, i: int) -> FamilyTree:
    """The one member with i extra hub leaves."""
    span = _family_range(delta)
    if i not in span:
        raise ValueError(
            f"index {i} outside the family range {span.start}..{span.stop - 1} for delta {delta}"
        )
    edges = [(0, v) for v in range(1, delta + 1)]
    edges += [(1, v) for v in range(delta + 1, delta + 1 + i)]
    return FamilyTree(
        delta=delta,
        i=i,
        graph=Graph.from_edges(delta + i + 1, edges),
        r=0,
        a=1,
        leaves_r=tuple(range(2, delta + 1)),
        leaves_a=tuple(range(delta + 1, delta + 1 + i)),
    )


def build_family(delta: int) -> List[FamilyTree]:
    """All members for one maximum degree; i ranges over floor(Delta/2)..Delta-1."""
    return [family_tree(delta, i) for i in _family_range(delta)]


Automaton = Callable[[str], bool]
"""History digest -> transmit?  It must be a pure function of the digest:
`compute_histories` asks it once per history and table."""


class HistoryTable:
    """Hash-consed history store: equal structures share one integer handle.

    A handle's digest is the blake2b of `leaf|label`, `event|digest(prev)`
    or `event|digest(prev)|digest(sub)`.  Beside the digests the table keeps
    each handle's action under the automaton it last served: True when the
    history transmits, False when it listens, or None until asked.  Serving
    a different automaton forgets them.
    """

    def __init__(self):
        self._intern: Dict[tuple, int] = {}
        self._digests: List[str] = []
        self._automaton: Optional[Automaton] = None
        self._actions: List[Optional[bool]] = []

    def leaf(self, label: str) -> int:
        key = ("leaf", label)
        hid = self._intern.get(key)
        return hid if hid is not None else self._add(key, f"leaf|{label}")

    def _add(self, key: tuple, material: str) -> int:
        hid = len(self._digests)
        self._intern[key] = hid
        self._digests.append(hashlib.blake2b(material.encode(), digest_size=16).hexdigest())
        self._actions.append(None)
        return hid

    def digest(self, hid: int) -> str:
        return self._digests[hid]

    def actions(self, automaton: Automaton) -> List[Optional[bool]]:
        """The action cache for `automaton`, parallel to the handles."""
        if automaton is not self._automaton:
            self._automaton = automaton
            self._actions = [None] * len(self._digests)
        return self._actions


def seeded_automaton(seed: int) -> Automaton:
    """Deterministic pseudo-random map from history digests to actions."""

    prefix = f"auto:{seed}:".encode()

    def act(digest: str) -> bool:
        return hashlib.blake2b(prefix + digest.encode(), digest_size=1).digest()[0] & 1 == 1

    return act


def compute_histories(
    tree: FamilyTree,
    labeling: Dict[int, str],
    automaton: Automaton,
    rounds: int,
    table: Optional[HistoryTable] = None,
) -> List[List[int]]:
    """Histories of every node for t = 0..rounds, as interned handles: row t
    lists nodes 0..n-1 in order.

    Round t+1 actions are the automaton applied to round-t histories; the
    new entry is the transmitter's history when exactly one neighbor
    transmits, a collision mark for two or more, and a silence mark
    otherwise (transmitters record silence themselves).  The rule is
    `radio.hearing`, applied to the handles themselves: no message is
    built.  The automaton is asked once per distinct history: the table
    caches its answers, so the members of a family sharing one table share
    them too.  Negative rounds raise ValueError.
    """
    if rounds < 0:
        raise ValueError(f"histories need rounds >= 0, got {rounds}")
    table = table if table is not None else HistoryTable()
    g = tree.graph
    current = [table.leaf(labeling[v]) for v in range(g.n)]
    out = [current]
    intern, digests, add = table._intern, table._digests, table._add
    cache = table.actions(automaton)
    for _t in range(rounds):
        senders = []
        for v, hid in enumerate(current):
            act = cache[hid]
            if act is None:
                act = cache[hid] = automaton(digests[hid])
            if act:
                senders.append(v)
        heard = hearing(g, senders)
        for v in senders:
            heard.pop(v, None)  # a transmitter hears nothing
        nxt = []
        for v, prev in enumerate(current):
            s = heard.get(v)
            if s is None or s == COLLIDED:
                event = LAMBDA if s is None else STAR
                key = (event, prev)
                hid = intern.get(key)
                if hid is None:
                    hid = add(key, f"{event}|{digests[prev]}")
            else:
                sub = current[s]
                key = (SUB, prev, sub)
                hid = intern.get(key)
                if hid is None:
                    hid = add(key, f"{SUB}|{digests[prev]}|{digests[sub]}")
            nxt.append(hid)
        current = nxt
        out.append(current)
    return out


# --- patterns and counting ---------------------------------------------------


def label_universe(beta: int) -> Tuple[str, ...]:
    """All binary strings of length <= beta, shortest first then lexicographic."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    out: List[str] = [""]
    for length in range(1, beta + 1):
        out.extend(format(val, f"0{length}b") for val in range(2**length))
    return tuple(out)


@dataclass(frozen=True)
class Pattern:
    """Center and hub labels plus per-label occupancy (0, 1, or 2-for-many)."""

    r_label: str
    r_occupancy: Tuple[int, ...]
    a_label: str
    a_occupancy: Tuple[int, ...]


def pattern_of(tree: FamilyTree, labeling: Dict[int, str], beta: int) -> Pattern:
    universe = label_universe(beta)
    index = {lab: k for k, lab in enumerate(universe)}

    def occupancy(nodes: Sequence[int]) -> Tuple[int, ...]:
        counts = [0] * len(universe)
        for v in nodes:
            counts[index[labeling[v]]] += 1
        return tuple(min(c, 2) for c in counts)

    return Pattern(
        r_label=labeling[tree.r],
        r_occupancy=occupancy(tree.leaves_r),
        a_label=labeling[tree.a],
        a_occupancy=occupancy(tree.leaves_a),
    )


def pattern_bound(beta: int) -> int:
    """Exact count bound z^2 * 3^(2z) with z = 2^(beta+1) labels."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    z = 2 ** (beta + 1)
    return z * z * 3 ** (2 * z)


def crossover(beta: int, delta: int) -> dict:
    """Evaluate the pigeonhole inequality z^2 * 3^(2z) < delta/2 exactly.

    The family, and so the inequality, exists only from delta 2 on; a smaller
    delta raises ValueError.
    """
    _family_range(delta)
    bound = pattern_bound(beta)
    return {
        "beta": beta,
        "delta": delta,
        "bound": bound,
        "family_size_lower_bound": delta // 2,
        "holds": 2 * bound < delta,
    }


# --- lemma checks -------------------------------------------------------------


def _random_labeling(
    nodes: Sequence[int], universe: Sequence[str], rng: random.Random
) -> Dict[int, str]:
    return {v: rng.choice(universe) for v in nodes}


def matched_labelings(
    family: Sequence[FamilyTree], beta: int, rng: random.Random
) -> List[Tuple[FamilyTree, Dict[int, str]]]:
    """Labelings sharing one pattern, for every member with at least 2 hub leaves.

    R has the same size in every member, so its multiset is copied verbatim.
    The A sets differ in size; size differences are absorbed by a padding
    label that appears at least twice everywhere, keeping its occupancy
    class at "many".
    """
    matchable = [t for t in family if t.i >= 2]
    if not matchable:
        return []
    universe = list(label_universe(beta))
    r_label = rng.choice(universe)
    a_label = rng.choice(universe)
    smallest = min(t.i for t in matchable)
    pad = rng.choice(universe)
    body: List[str] = [pad, pad]
    for _ in range(rng.randrange(0, smallest - 1)):
        body.append(rng.choice(universe))
    body = body[:smallest]
    r_leaf_labels = [rng.choice(universe) for _ in range(len(matchable[0].leaves_r))]

    out = []
    for tree in matchable:
        labeling = {tree.r: r_label, tree.a: a_label}
        for v, lab in zip(tree.leaves_r, r_leaf_labels):
            labeling[v] = lab
        fill = body + [pad] * (tree.i - len(body))
        for v, lab in zip(tree.leaves_a, fill):
            labeling[v] = lab
        out.append((tree, labeling))
    return out


def check_lemmas(
    delta: int,
    trials: int,
    rounds: int,
    seed: int,
    beta: int = 1,
) -> dict:
    """Stress the two indistinguishability lemmas over seeded automata.

    Per trial: a fresh automaton; lemma 1 runs each member under an
    independent random labeling and compares leaf histories against label
    equality at every time step; lemma 2 runs the whole family under a
    shared pattern and requires all center histories to coincide: each
    member whose center history differs from the first member's is one
    `pattern-determines-center` record at the first t where they differ,
    so the class has one history exactly when it has no record.  A check
    of no trials or of negative rounds checks nothing, and below delta 4
    lemma 2 has fewer than two members (i >= 2) to compare; all three
    raise ValueError.
    """
    if delta < 4:
        raise ValueError(f"lemma checks need delta >= 4, got {delta}")
    if trials < 1:
        raise ValueError(f"lemma checks need trials >= 1, got {trials}")
    if rounds < 0:
        raise ValueError(f"lemma checks need rounds >= 0, got {rounds}")
    family = build_family(delta)
    universe = label_universe(beta)
    rng = random.Random(seed)
    violations: List[dict] = []

    for trial in range(trials):
        automaton = seeded_automaton(rng.getrandbits(32))
        table = HistoryTable()

        for tree in family:
            labeling = _random_labeling(range(tree.n), universe, rng)
            hist = compute_histories(tree, labeling, automaton, rounds, table)
            columns = list(zip(*hist))  # column v: node v's handles for t = 0..rounds
            for group in (tree.leaves_r, tree.leaves_a):
                for aa in range(len(group)):
                    for bb in range(aa + 1, len(group)):
                        va, vb = group[aa], group[bb]
                        same_label = labeling[va] == labeling[vb]
                        # one comparison clears a pair; only a failing one is scanned for its t
                        if same_label:
                            if columns[va] == columns[vb]:
                                continue
                        elif not any(map(eq, columns[va], columns[vb])):
                            continue
                        for t in range(rounds + 1):
                            same_hist = hist[t][va] == hist[t][vb]
                            if same_hist != same_label:
                                violations.append(
                                    {
                                        "lemma": "leaf-indistinguishability",
                                        "trial": trial,
                                        "tree_i": tree.i,
                                        "nodes": [va, vb],
                                        "t": t,
                                    }
                                )
                                break

        matched = matched_labelings(family, beta, rng)  # two or more members from delta 4
        patterns = {pattern_of(tree, labeling, beta) for tree, labeling in matched}
        if len(patterns) != 1:
            violations.append({"lemma": "pattern-construction", "trial": trial})
            continue
        root_histories = []
        for tree, labeling in matched:
            hist = compute_histories(tree, labeling, automaton, rounds, table)
            root_histories.append([hist[t][tree.r] for t in range(rounds + 1)])
        for other in root_histories[1:]:
            for t in range(rounds + 1):
                if other[t] != root_histories[0][t]:
                    violations.append(
                        {"lemma": "pattern-determines-center", "trial": trial, "t": t}
                    )
                    break

    return {"delta": delta, "trials": trials, "rounds": rounds, "violations": violations}
