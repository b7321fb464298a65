import pytest
from hypothesis import given, strategies as st

from rsd import labels
from rsd.generators import random_connected_graph, random_tree, star
from rsd.graphs import Graph, decompose
from rsd.labels import (
    Label,
    LabelFormatError,
    Tag,
    ZERO_TAG,
    assign_labels,
    decode_label,
    encode_label,
    format_labels_file,
    length_bound,
    make_markers,
)
from rsd.upper_sets import (
    bitlen,
    collision_tag_map,
    compute_upper_sets,
    compute_weights,
    finalize_weight_tags,
)


def scheme_for(g):
    d = decompose(g)
    plan = compute_upper_sets(g, d)
    weights = compute_weights(plan, d)
    return d, assign_labels(g, d, plan, weights)


def test_k2_labels():
    d, scheme = scheme_for(star(1))
    root, leaf = scheme.labels[0], scheme.labels[1]
    assert root.markers == make_markers(0, 4, 5)
    assert root.l1 == Tag(1, 0)
    assert leaf.has(1) and leaf.has(2) and leaf.has(6)
    assert leaf.l1 == Tag(1, 1)
    assert leaf.l2 == Tag(1, 1)
    assert leaf.l3 == Tag(1, 1)


def test_star4_degree_learning_tags():
    d, scheme = scheme_for(star(4))
    # binary(4) = 100 across the three smallest-id leaves
    assert scheme.labels[1].l1 == Tag(1, 1)
    assert scheme.labels[2].l1 == Tag(2, 0)
    assert scheme.labels[3].l1 == Tag(3, 0)
    assert scheme.labels[0].l1 == Tag(3, 0)
    assert scheme.labels[4].l1 == ZERO_TAG


def test_unmarked_node_defaults():
    d, scheme = scheme_for(star(6))
    lbl = scheme.labels[6]  # beyond the tagged prefix: no role anywhere
    assert lbl.markers == make_markers()
    assert lbl.l1 == ZERO_TAG and lbl.l2 == ZERO_TAG and lbl.l3 == ZERO_TAG


def test_marker_population_invariants():
    for g in (star(4), random_connected_graph(40, 8, 2), random_connected_graph(25, 5, 7)):
        d, scheme = scheme_for(g)
        m = bitlen(d.delta)
        labels = scheme.labels
        assert sum(lbl.has(0) for lbl in labels.values()) == 1
        assert sum(lbl.has(1) for lbl in labels.values()) == 1
        two = [v for v, lbl in labels.items() if lbl.has(2)]
        assert len(two) == m
        assert all(v in g.adj[d.root] for v in two)
        assert labels[d.root].has(0)
        for l in range(d.h):
            level_set = d.levels[l]
            fives = [v for v in level_set if labels[v].has(5)]
            assert len(fives) == 1
            sixes = [u for u in d.levels[l + 1] if labels[u].has(6)]
            assert len(sixes) == 1
        # marker 4 is exactly the union of upper sets
        from rsd.upper_sets import compute_upper_sets

        plan = compute_upper_sets(g, decompose(g))
        members = {v for l in plan.us for v in plan.us[l]}
        assert {v for v, lbl in labels.items() if lbl.has(4)} == members


def test_encode_all_zero_label_is_13_bits():
    lbl = Label(markers=make_markers())
    assert encode_label(lbl) == "0000000" + "10" * 3
    assert len(encode_label(lbl)) == 13


def test_encode_tag_5_1():
    lbl = Label(markers=make_markers(), l1=Tag(5, 1))
    encoded = encode_label(lbl)
    assert encoded == "0000000" + "0001" + "101" + "1" + "10" + "10"


def test_decode_is_inverse_exhaustively():
    for tag_id in range(0, 65):
        for bit in (0, 1):
            lbl = Label(markers=make_markers(3), l1=Tag(tag_id, bit), l2=Tag(1, 0), l3=ZERO_TAG)
            assert decode_label(encode_label(lbl)) == lbl


@given(
    st.tuples(*[st.integers(0, 1) for _ in range(7)]),
    st.tuples(st.integers(0, 64), st.integers(0, 1)),
    st.tuples(st.integers(0, 64), st.integers(0, 1)),
    st.tuples(st.integers(0, 64), st.integers(0, 1)),
)
def test_roundtrip_property(markers, t1, t2, t3):
    lbl = Label(markers=markers, l1=Tag(*t1), l2=Tag(*t2), l3=Tag(*t3))
    assert decode_label(encode_label(lbl)) == lbl


def test_decode_rejects_garbage():
    with pytest.raises(LabelFormatError):
        decode_label("0101")
    with pytest.raises(LabelFormatError):
        decode_label("0000000" + "10" * 3 + "1")
    with pytest.raises(LabelFormatError):
        decode_label("0000000" + "0")
    with pytest.raises(LabelFormatError):
        decode_label("00000a0" + "10" * 3)


def test_length_bound_on_stars():
    for delta in (2, 4, 16, 256):
        d, scheme = scheme_for(star(delta))
        assert scheme.max_bits() <= length_bound(delta)


def test_labeling_refuses_a_graph_of_one_node():
    # a single node has no level below the root: the refusal comes before
    # the plan and weights, which such a graph does not have, are read
    g = Graph.from_edges(1, [])
    with pytest.raises(ValueError, match="labeling requires a graph with at least two nodes"):
        assign_labels(g, decompose(g), None, {})


def test_k2_max_bits():
    _d, scheme = scheme_for(star(1))
    assert scheme.max_bits() <= 22


def test_tag_ids_within_bounds():
    g = random_connected_graph(50, 12, 4)
    d, scheme = scheme_for(g)
    m = bitlen(d.delta)
    for lbl in scheme.labels.values():
        for tag in (lbl.l1, lbl.l2, lbl.l3):
            assert 0 <= tag.id <= m
            assert tag.bit in (0, 1)


def test_each_distinct_label_is_built_and_encoded_once(monkeypatch):
    encoded = []

    def counted(lbl):
        encoded.append(lbl)
        return encode_label(lbl)

    monkeypatch.setattr(labels, "encode_label", counted)
    g = random_tree(300, 8, 1)
    _d, scheme = scheme_for(g)
    distinct = set(scheme.labels.values())
    assert len(encoded) == len(distinct) == 36
    # nodes with equal labels share one Label and one string
    assert len({id(lbl) for lbl in scheme.labels.values()}) == 36
    assert len({id(bits) for bits in scheme.encoded.values()}) == 36
    for v in range(g.n):
        assert scheme.encoded[v] == encode_label(scheme.labels[v])


def test_every_node_carries_its_own_tags():
    g = random_tree(300, 8, 1)
    d = decompose(g)
    plan = compute_upper_sets(g, d)
    weights = compute_weights(plan, d)
    scheme = assign_labels(g, d, plan, weights)
    l2 = collision_tag_map(plan)
    l3, _blocks = finalize_weight_tags(g, d, plan, weights)
    assert len(set(l3.values())) > 1
    for v in range(g.n):
        lbl = scheme.labels[v]
        assert (lbl.l2.id, lbl.l2.bit) == l2.get(v, (0, 0))
        assert (lbl.l3.id, lbl.l3.bit) == l3.get(v, (0, 0))


def test_labels_file_format():
    d, scheme = scheme_for(star(2))
    text = format_labels_file(scheme)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    fields = lines[0].split()
    assert fields[0] == "0"
    assert len(fields[1]) == 7
    assert len(fields) == 9
    assert set(fields[8]) <= {"0", "1"}
