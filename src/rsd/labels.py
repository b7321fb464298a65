"""The node labeling scheme: 7 markers, three (id, bit) tags, and its encoding.

Marker meanings:
    0 root; 1 designated deepest node; 2 degree-learning neighbors of the
    root; 3 internal nodes of the relay path; 4 upper-set members;
    5 per-level phase-end member; 6 per-level maximum-weight node.

Tag roles: l1 teaches the root the maximum degree bit by bit, l2 creates
deliberate collisions that serialize weight accounting, l3 transmits
per-weight child counts.  Encoded labels are self-delimiting and stay
within 16 + 6*bitlen(bitlen(Delta)) bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .graphs import Graph, LevelDecomposition
from .upper_sets import UpperSetPlan, bitlen, collision_tag_map, digits, finalize_weight_tags

NO_TAG_ID = 0


class LabelFormatError(ValueError):
    """Raised when an encoded label cannot be decoded."""


@dataclass(frozen=True, slots=True)
class Tag:
    """One (id, bit) tag; id 0 means inactive."""

    id: int
    bit: int

    def active(self) -> bool:
        return self.id > NO_TAG_ID


ZERO_TAG = Tag(0, 0)
NO_TAG = (NO_TAG_ID, 0)  # ZERO_TAG as an (id, bit) pair


@dataclass(frozen=True, slots=True)
class Label:
    """Markers M(0..6) plus the three tags."""

    markers: Tuple[int, ...]
    l1: Tag = ZERO_TAG
    l2: Tag = ZERO_TAG
    l3: Tag = ZERO_TAG

    def has(self, marker: int) -> bool:
        return self.markers[marker] == 1


def make_markers(*on: int) -> Tuple[int, ...]:
    return tuple(1 if i in on else 0 for i in range(7))


@dataclass(frozen=True)
class LabelingScheme:
    """Complete assignment: per-node Label and its encoded bit string.

    Nodes with equal labels share one `Label` object and one string, built
    and encoded once by `assign_labels`."""

    labels: Dict[int, Label]
    encoded: Dict[int, str]

    def max_bits(self) -> int:
        return max(len(b) for b in self.encoded.values())

    def mean_bits(self) -> float:
        return sum(len(b) for b in self.encoded.values()) / len(self.encoded)


def length_bound(delta: int) -> int:
    """This repository's concrete cap on encoded label length."""
    return 16 + 6 * bitlen(bitlen(delta))


def _bits_of(x: int) -> str:
    return format(x, "b")


def _relay_path(g: Graph, d: LevelDecomposition, deep_node: int) -> list[int]:
    """Walk from the designated deepest node to the root, smallest-id parent each hop."""
    path = [deep_node]
    cur = deep_node
    while d.level[cur] > 0:
        cur = min(w for w in g.adj[cur] if d.level[w] == d.level[cur] - 1)
        path.append(cur)
    return path


def assign_labels(
    g: Graph,
    d: LevelDecomposition,
    plan: UpperSetPlan,
    weights: Dict[int, int],
) -> LabelingScheme:
    """Assign the full scheme. Requires h >= 1 (the root has a neighbor)."""
    if d.h < 1:
        raise ValueError("labeling requires a graph with at least two nodes")
    m = bitlen(d.delta)
    l3, blocks_per_level = finalize_weight_tags(g, d, plan, weights)

    mask = [0] * g.n  # marker i of node v is bit i of mask[v]
    mask[d.root] |= 1 << 0
    deep_node = min(d.levels[d.h])
    mask[deep_node] |= 1 << 1
    learners = sorted(g.adj[d.root])[:m]
    for w in learners:
        mask[w] |= 1 << 2
    for v in _relay_path(g, d, deep_node)[1:-1]:
        mask[v] |= 1 << 3
    for l in range(d.h):
        for v in plan.us[l]:
            mask[v] |= 1 << 4
        blocks = blocks_per_level[l]
        worst = max(blocks.values())
        mask[min(v for v in plan.us[l] if blocks[v] == worst)] |= 1 << 5
        lvl = d.levels[l + 1]
        top = max(weights[u] for u in lvl)
        mask[min(u for u in lvl if weights[u] == top)] |= 1 << 6

    delta_digits = digits(d.delta, range(1, m + 1))
    l1 = {w: (i, delta_digits[i]) for i, w in enumerate(learners, start=1)}
    l1[d.root] = (m, 0)
    l2 = collision_tag_map(plan)

    # O(log log Delta) bits leave few distinct labels: build and encode each
    # once, keyed by the markers' mask and the three (id, bit) tags
    shared: Dict[tuple, Tuple[Label, str]] = {}
    labels: Dict[int, Label] = {}
    encoded: Dict[int, str] = {}
    for v in range(g.n):
        key = (mask[v], l1.get(v, NO_TAG), l2.get(v, NO_TAG), l3.get(v, NO_TAG))
        if key not in shared:
            lbl = Label(
                make_markers(*(i for i in range(7) if key[0] >> i & 1)),
                *(Tag(*tag) for tag in key[1:]),
            )
            shared[key] = (lbl, encode_label(lbl))
        labels[v], encoded[v] = shared[key]
    return LabelingScheme(labels=labels, encoded=encoded)


def encode_label(lbl: Label) -> str:
    """Self-delimiting encoding: 7 marker bits, then per tag a unary length
    prefix (len(id bits) zeros, then a one), the id bits, and the data bit."""
    out = ["".join(str(b) for b in lbl.markers)]
    for tag in (lbl.l1, lbl.l2, lbl.l3):
        id_bits = _bits_of(tag.id) if tag.id > 0 else ""
        out.append("0" * len(id_bits) + "1" + id_bits + str(tag.bit))
    return "".join(out)


def decode_label(bits: str) -> Label:
    """Exact inverse of encode_label."""
    if any(c not in "01" for c in bits):
        raise LabelFormatError(f"non-binary character in {bits!r}")
    if len(bits) < 7:
        raise LabelFormatError("truncated label: missing marker bits")
    markers = tuple(int(c) for c in bits[:7])
    pos = 7
    tags = []
    for _ in range(3):
        zeros = 0
        while pos < len(bits) and bits[pos] == "0":
            zeros += 1
            pos += 1
        if pos >= len(bits):
            raise LabelFormatError("truncated label: unary prefix never terminated")
        pos += 1  # the delimiting one
        if pos + zeros + 1 > len(bits):
            raise LabelFormatError("truncated label: incomplete tag body")
        id_bits = bits[pos : pos + zeros]
        pos += zeros
        tag_id = int(id_bits, 2) if id_bits else 0
        if id_bits and id_bits[0] == "0":
            raise LabelFormatError("tag id has a leading zero")
        tags.append(Tag(tag_id, int(bits[pos])))
        pos += 1
    if pos != len(bits):
        raise LabelFormatError(f"{len(bits) - pos} trailing bits after label")
    return Label(markers=markers, l1=tags[0], l2=tags[1], l3=tags[2])


def format_labels_file(scheme: LabelingScheme) -> str:
    """One line per node: markers, the three tags, and the encoded bits."""
    lines = []
    for v in sorted(scheme.labels):
        lbl = scheme.labels[v]
        fields = [str(v), "".join(str(b) for b in lbl.markers)]
        for tag in (lbl.l1, lbl.l2, lbl.l3):
            fields.append(str(tag.id))
            fields.append(str(tag.bit))
        fields.append(scheme.encoded[v])
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"
