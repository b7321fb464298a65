"""Ordered upper sets, private-child partition, child ids, and node weights.

For each level l < h, the upper set US(l) is an ordered list of level-l
nodes whose neighborhoods cover V(l+1).  Each member v owns the private
children N'(v): its level-(l+1) neighbors not claimed by earlier members.
The first floor(log2 |N'(v)|)+1 private children (by ascending id) carry
ids from {1..floor(log2 Delta)+1}; the first one inherits the id of the
shared tagged child that admitted v (rule 1), or id 1 (rule 2 and the
initial member).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Tuple

from .graphs import Graph, LevelDecomposition


def bitlen(x: int) -> int:
    """floor(log2 x) + 1 for x >= 1; the number of binary digits."""
    if x < 1:
        raise ValueError(f"bitlen requires x >= 1, got {x}")
    return x.bit_length()


def bits_value(bits: Dict[int, int]) -> int:
    """The number spelled by an (id -> bit) map, most significant bit at the
    smallest id; ids need not be contiguous."""
    value = 0
    for i in sorted(bits):
        value = 2 * value + bits[i]
    return value


def digits(count: int, positions: Iterable[int]) -> Dict[int, int]:
    """The binary digits of count, by position: the inverse of bits_value.

    The most significant digit goes to the smallest position; there must be
    exactly bitlen(count) positions."""
    ordered = sorted(positions)
    spelled = format(count, "b")
    if len(ordered) != len(spelled):
        raise ValueError(f"{count} has {len(spelled)} binary digits, not {len(ordered)}")
    return {p: int(c) for p, c in zip(ordered, spelled)}


def report_slot(m: int, weight: int, tag_id: int) -> int:
    """Offset within an accounting block of the weight report of a child of
    the given weight carrying weight-tag id `tag_id`; the m collision-tag
    slots come first."""
    return m + (weight - 1) * m + tag_id


def account_block(
    collision_free: bool, tag_bits: Dict[int, int], reports: Dict[int, Dict[int, int]]
) -> Optional[int]:
    """An upper-set member's block-final decision: its weight, or None to retry.

    The block counts only if its windows were collision-free and some
    collision tag was heard.  The tag bits spell the child count, the
    reports of each weight w spell the number c_w of children of weight w,
    and the c_w must sum to the child count; the weight is 1 + sum w*c_w.
    """
    if not collision_free or not tag_bits:
        return None
    counts = {w: bits_value(pairs) for w, pairs in reports.items()}
    if sum(counts.values()) != bits_value(tag_bits):
        return None
    return 1 + sum(w * c for w, c in counts.items())


@dataclass(frozen=True)
class UpperSetPlan:
    """Per-level upper sets plus the tagging structure derived from them.

    Attributes:
        us: level -> ordered member tuple.
        nprime: member -> its private children, ascending id.
        owner: child (level >= 1 node) -> the member owning it.
        child_id: tagged child -> id in {1..floor(log Delta)+1}; untagged
            children are absent.
        tag_order: member -> its tagged children, inherited-id holder first.
        foreign: children audible to at least one member besides their owner.
    """

    us: Dict[int, Tuple[int, ...]]
    nprime: Dict[int, Tuple[int, ...]]
    owner: Dict[int, int]
    child_id: Dict[int, int]
    tag_order: Dict[int, Tuple[int, ...]]
    foreign: frozenset

    def id_set(self, member: int) -> Tuple[int, ...]:
        """Sorted ids used by a member's tagged children."""
        return tuple(sorted(self.child_id[u] for u in self.tag_order[member]))


def compute_upper_sets(g: Graph, d: LevelDecomposition) -> UpperSetPlan:
    """Construct US(l) for every l in 0..h-1 with deterministic tie-breaks.

    Admission follows the two rules: prefer an uncovered-neighbor node that
    shares a tagged child with the latest possible member (scanning tagged
    children in assignment order, then smallest candidate id); otherwise
    admit the smallest-id node that still covers something.  The first
    member is the smallest-id node with an uncovered upper neighbor.

    Within a level the admission state is kept incrementally, in time linear
    in the level's edges: each level-l node counts its uncovered upper
    neighbours and leaves the candidate set when the count reaches 0; the
    smallest candidate is read with a pointer that only moves forward along
    the sorted level, since the candidates only shrink; and the anchor
    search walks a stack of the members' tagged children, newest member
    first, dropping for good a child none of whose neighbours is a
    candidate.

    Once a level is complete, ids are re-dealt among each member's private
    children: a child heard by members other than its owner transmits into
    their accounting windows, so it must not sit on a 0 digit of the
    owner's child-count encoding, where its lone report could decode as "no
    such children" at the foreigner and let it finish (and silence the
    child) before the owner has read it.  Children used as admission
    anchors keep their ids; the rest prefer owner-private children for 0
    digits and foreign-audible children for 1 digits, whose stray reports
    inflate a foreigner's counts and correctly stall it.
    """
    if d.h < 1:
        raise ValueError("upper sets require a graph with at least two nodes")
    m_ids = bitlen(d.delta)
    us: Dict[int, Tuple[int, ...]] = {}
    nprime: Dict[int, Tuple[int, ...]] = {}
    owner: Dict[int, int] = {}
    child_id: Dict[int, int] = {}
    tag_order: Dict[int, Tuple[int, ...]] = {}
    foreign_all: set = set()

    for l in range(d.h):
        level = d.levels[l]
        uncovered = set(d.levels[l + 1])
        upper = {v: sum(1 for w in g.adj[v] if d.level[w] == l + 1) for v in level}
        cands = {v for v in level if upper[v]}
        first = 0  # cands only shrinks, so min(cands) only moves right along the level
        stack: List[List[int]] = []  # per member, newest last: tagged children, reversed
        inherited_of: Dict[int, int] = {}  # member -> its inherited id, in admission order
        anchors: set = set()
        while uncovered:
            assert cands, f"level {l}: uncovered nodes remain but no eligible member"
            anchor = None
            while stack:
                kids = stack[-1]
                while kids and cands.isdisjoint(g.adj[kids[-1]]):
                    kids.pop()  # no candidate neighbour now means none ever again
                if kids:
                    anchor = kids[-1]
                    break
                stack.pop()
            if anchor is None:
                while level[first] not in cands:
                    first += 1
                v, inherited = level[first], 1
            else:
                anchors.add(anchor)
                v, inherited = min(cands.intersection(g.adj[anchor])), child_id[anchor]
            private = sorted(w for w in g.adj[v] if w in uncovered)
            assert private, "admitted a member with no private children"
            uncovered.difference_update(private)
            for u in private:
                for w in g.adj[u]:
                    if d.level[w] == l:
                        upper[w] -= 1
                        if not upper[w]:
                            cands.discard(w)
            inherited_of[v] = inherited
            nprime[v] = tuple(private)
            owner.update((u, v) for u in private)
            k = bitlen(len(private))
            ids = [inherited] + [i for i in range(1, m_ids + 1) if i != inherited][: k - 1]
            child_id.update(zip(private, ids))
            tag_order[v] = tuple(private[:k])
            stack.append(list(reversed(tag_order[v])))

        us[l] = tuple(inherited_of)
        foreign = {
            u
            for u in d.levels[l + 1]
            if sum(1 for w in g.adj[u] if w in inherited_of) >= 2
        }
        foreign_all.update(foreign)
        for v, inherited in inherited_of.items():
            bit_of = digits(len(nprime[v]), [child_id[u] for u in tag_order[v]])
            for u in tag_order[v]:  # anchors keep their ids; the rest are dealt again
                if u in anchors:
                    del bit_of[child_id[u]]
                else:
                    del child_id[u]
            pool = [u for u in nprime[v] if u not in anchors]
            child_id.update(_audibility_assignment(bit_of, pool, foreign))
            tagged = [u for u in nprime[v] if u in child_id]
            first = next(u for u in tagged if child_id[u] == inherited)
            tag_order[v] = (first,) + tuple(u for u in tagged if u != first)
    return UpperSetPlan(
        us=us,
        nprime=nprime,
        owner=owner,
        child_id=child_id,
        tag_order=tag_order,
        foreign=frozenset(foreign_all),
    )


def _audibility_assignment(
    bit_of: Dict[int, int], children: Sequence[int], foreign: AbstractSet[int]
) -> Dict[int, int]:
    """Deal the slots of `bit_of` (slot -> digit) to children: quiet ones
    (not in `foreign`) first; unavoidable loud ones take 1-digit slots
    before 0-digit slots.  Returns child -> slot."""
    quiet = [u for u in children if u not in foreign]
    loud = [u for u in children if u in foreign]
    ones_first = sorted(bit_of, key=lambda i: (-bit_of[i], i))
    out = dict(zip(loud[: max(0, len(bit_of) - len(quiet))], ones_first))
    taken = set(out.values())
    out.update(zip(quiet, sorted(i for i in bit_of if i not in taken)))
    return out


def compute_weights(plan: UpperSetPlan, d: LevelDecomposition) -> Dict[int, int]:
    """Bottom-up weights: 1 at level h and for non-members, else 1 + sum over N'."""
    weight: Dict[int, int] = {}
    for l in range(d.h, -1, -1):
        for v in d.levels[l]:
            weight[v] = 1 + sum(weight[u] for u in plan.nprime.get(v, ()))
    return weight


def collision_tag_map(plan: UpperSetPlan) -> Dict[int, Tuple[int, int]]:
    """Child -> (id, bit): the bit is its rank's digit in binary(|N'(owner)|)."""
    tags: Dict[int, Tuple[int, int]] = {}
    for v, order in plan.tag_order.items():
        bit_of = digits(len(plan.nprime[v]), plan.id_set(v))
        for u in order:
            tags[u] = (plan.child_id[u], bit_of[plan.child_id[u]])
    return tags


def weight_tag_map(plan: UpperSetPlan, weights: Dict[int, int]) -> Dict[int, Tuple[int, int]]:
    """Child -> (id, bit): position and digit within binary(|Q(x)|) of its group.

    Position holders follow the same audibility policy as collision-tag ids:
    owner-private children first, with unavoidable foreign-audible holders
    steered onto 1 digits.
    """
    tags: Dict[int, Tuple[int, int]] = {}
    for private in plan.nprime.values():
        groups: Dict[int, List[int]] = {}
        for u in private:
            groups.setdefault(weights[u], []).append(u)
        for group in groups.values():
            bit_of = digits(len(group), range(1, bitlen(len(group)) + 1))
            for u, j in _audibility_assignment(bit_of, group, plan.foreign).items():
                tags[u] = (j, bit_of[j])
    return tags


class OraclePlanError(AssertionError):
    """The offline phase replay could not reach a sound schedule."""


def _replay_level(
    g: Graph,
    d: LevelDecomposition,
    plan: UpperSetPlan,
    weights: Dict[int, int],
    l: int,
    l2: Dict[int, Tuple[int, int]],
    l3: Dict[int, Tuple[int, int]],
) -> Tuple[Optional[Dict[int, int]], List[int]]:
    """Exact slot-by-slot replay of one phase's block dynamics.

    A member completes when `account_block` accepts what its active
    children send; it then stops at the block end, silencing every
    adjacent child.  Returns (blocks, []) when every member completes with
    its true weight, else (None, suspects), the children whose promotion
    could repair the phase: the foreign carriers of the first member that
    would adopt a wrong weight, or else the silenced tag carriers of the
    smallest robbed member, smallest first (none if no member is robbed).
    """
    m = bitlen(d.delta)
    active = {u for u in d.levels[l + 1] if u in l2 or u in l3}
    blocks: Dict[int, int] = {}
    incomplete = list(plan.us[l])
    block = 0
    while incomplete:
        block += 1
        finishing = []
        for v in incomplete:
            audible = [u for u in g.adj[v] if u in active]
            slots: List[int] = []
            tag_bits: Dict[int, int] = {}
            reports: Dict[int, Dict[int, int]] = {}
            for u in audible:
                if u in l2:
                    i, bit = l2[u]
                    slots.append(i)
                    tag_bits[i] = bit
                if u in l3:
                    j, bit = l3[u]
                    slots.append(report_slot(m, weights[u], j))
                    reports.setdefault(weights[u], {})[j] = bit
            learned = account_block(len(set(slots)) == len(slots), tag_bits, reports)
            if learned is None:
                continue
            if learned != weights[v]:
                return None, sorted(u for u in audible if plan.owner.get(u) != v)
            finishing.append(v)
        if not finishing:
            for v in sorted(incomplete):
                silenced = [u for u in plan.nprime[v] if (u in l2 or u in l3) and u not in active]
                if silenced:
                    return None, silenced
            return None, []
        for v in finishing:
            blocks[v] = block
            active.difference_update(g.adj[v])
        incomplete = [v for v in incomplete if v not in blocks]
    return blocks, []


def _promote_to_one_bit(
    u: int,
    plan: UpperSetPlan,
    weights: Dict[int, int],
    l3: Dict[int, Tuple[int, int]],
    pinned: set,
) -> bool:
    """Move child u onto a 1-digit position of its weight class and pin it.

    A 1-digit report strictly inflates any foreign member's per-weight sum
    (or collides outright), so its carrier provably stalls every member
    other than its owner and can never be silenced early.  u takes the
    first 1 position, most significant first, that an unpinned classmate
    holds; the classmate takes u's old spot (or loses its tag if u had
    none).  Returns False, changing nothing, if u holds that position itself
    or every holder is pinned.
    """
    owner = plan.owner[u]
    classmates = [c for c in plan.nprime[owner] if weights[c] == weights[u]]
    count = len(classmates)
    one_positions = [j for j, b in digits(count, range(1, bitlen(count) + 1)).items() if b]
    holder = {l3[c][0]: c for c in classmates if c in l3}
    for pos in one_positions:
        victim = holder[pos]
        if victim == u:
            return False
        if victim in pinned:
            continue
        old = l3.get(u)
        if old is None:
            del l3[victim]
        else:
            l3[victim] = old
        l3[u] = (pos, 1)
        pinned.add(u)
        return True
    return False


def finalize_weight_tags(
    g: Graph,
    d: LevelDecomposition,
    plan: UpperSetPlan,
    weights: Dict[int, int],
) -> Tuple[Dict[int, Tuple[int, int]], Dict[int, Dict[int, int]]]:
    """Weight-transmission tags plus the per-level completion-block schedule.

    Starts from the audibility-aware assignment and repairs it against the
    exact phase replay with one rule: the first suspect of a failed replay
    that is not pinned and that `_promote_to_one_bit` can move is moved to
    a 1 digit and pinned, which provably stalls the member that silenced
    (or miscounted) it; if none can move, OraclePlanError is raised.  So
    each replay of level l accepts it, pins a level-(l+1) child that was
    not pinned before, or raises.  Pins are never undone, so level l takes
    at most |V(l+1)| + 1 replays.
    """
    l2 = collision_tag_map(plan)
    l3 = weight_tag_map(plan, weights)
    blocks_per_level: Dict[int, Dict[int, int]] = {}
    pinned: set = set()
    for l in range(d.h):
        while True:
            blocks, suspects = _replay_level(g, d, plan, weights, l, l2, l3)
            if blocks is not None:
                blocks_per_level[l] = blocks
                break
            if not any(
                u not in pinned and _promote_to_one_bit(u, plan, weights, l3, pinned)
                for u in suspects
            ):
                raise OraclePlanError(f"level {l}: no suspect among {suspects} can be promoted")
    return l3, blocks_per_level
