import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglink.reduction import Mbr, cut_reduce, mbr_of
from siglink.signatures import Signature, cosine_similarity
from siglink.synth import generate_synthetic
from siglink.linking import reference_signatures
from siglink.wrtree import (
    WrNode,
    WrTree,
    aggregate_signatures,
    bulk_load,
    insert,
    knn_search,
    linear_knn,
    merge_node,
    rtree_baseline_knn,
    validate,
)

from testkit import entry, line_anchors, random_signature, sig


def synthetic_entries(n, seed, n_anchors=None, m=10):
    traces, anchors = generate_synthetic(
        n, n_anchors or max(400, 4 * n), 0.08, 100, seed=seed
    )
    sigs, _, _ = reference_signatures(traces)
    entries = []
    for oid in sorted(sigs):
        reduced = cut_reduce(sigs[oid], m)
        entries.append((oid, reduced, mbr_of(reduced, anchors)))
    return entries, anchors


# ---------------------------------------------------------------------------
# Aggregates


def test_aggregate_single_signature_is_itself():
    s = sig({1: 0.6, 2: 0.8})
    agg = aggregate_signatures([s])
    assert np.array_equal(agg.dims, s.dims)
    assert np.array_equal(agg.weights, s.weights)
    assert not agg.normalized


def test_aggregate_takes_per_dimension_maximum():
    a = sig({8: 0.3, 2: 0.9}, normalize=False)
    b = sig({8: 0.5, 5: 0.4}, normalize=False)
    agg = aggregate_signatures([a, b])
    assert agg.as_dict() == {2: 0.9, 5: 0.4, 8: 0.5}


def test_aggregate_rejects_empty_and_mixed_kinds():
    with pytest.raises(ValueError):
        aggregate_signatures([])
    with pytest.raises(ValueError):
        aggregate_signatures([sig({1: 1.0}), sig({1: 1.0}, kind="sequential:q=2")])


def test_aggregate_dot_dominates_member_dots():
    rng = np.random.default_rng(3)
    for _ in range(100):
        members = [random_signature(rng, int(rng.integers(1, 15)), dim_space=50)
                   for _ in range(int(rng.integers(1, 6)))]
        query = random_signature(rng, int(rng.integers(1, 15)), dim_space=50)
        agg = aggregate_signatures(members)
        q = query.as_dict()
        bound = sum(q.get(d, 0.0) * w for d, w in agg.pairs())
        for member in members:
            assert bound >= cosine_similarity(member, query) - 1e-12


# ---------------------------------------------------------------------------
# Greedy packing


def _leaf(object_id, dims, lon=0.0, lat=0.0):
    s = sig({d: 1.0 for d in dims})
    return WrNode.leaf(object_id, s, Mbr(lon, lat, lon, lat))


def test_merge_node_small_bulk_single_node():
    nodes = merge_node([_leaf("a", [1]), _leaf("b", [2])], capacity=4)
    assert len(nodes) == 1
    assert len(nodes[0].children) == 2


def test_merge_node_greedy_prefers_shared_dimensions():
    o1 = _leaf("o1", [1, 2, 3, 4])
    o2 = _leaf("o2", [1, 10, 11])
    o3 = _leaf("o3", [1, 2, 3, 9])
    nodes = merge_node([o1, o2, o3], capacity=2)
    grouped = [sorted(c.object_id for c in node.children) for node in nodes]
    assert grouped == [["o1", "o3"], ["o2"]]


def test_merge_node_disjoint_signatures_keep_bulk_order():
    leaves = [_leaf(f"o{i}", [100 + i]) for i in range(6)]
    nodes = merge_node(leaves, capacity=2)
    grouped = [[c.object_id for c in node.children] for node in nodes]
    assert grouped == [["o0", "o1"], ["o2", "o3"], ["o4", "o5"]]


def _merge_node_by_intersection(bulk, capacity):
    """The packing rule as first written, kept as the oracle: on every pick,
    intersect the node's aggregate dims with each unassigned member's."""
    bulk = list(bulk)
    if len(bulk) < capacity:
        return [bulk]
    dim_sets = [b.signature.dim_set() if b.is_leaf else b.postings.keys() for b in bulk]
    unassigned = list(range(len(bulk)))
    groups = []
    while unassigned:
        seed = unassigned.pop(0)
        members = [bulk[seed]]
        agg_dims = set(dim_sets[seed])
        while len(members) < capacity and unassigned:
            best_pos, best_common = 0, -1
            for pos, j in enumerate(unassigned):
                common = len(agg_dims & dim_sets[j])
                if common > best_common:
                    best_pos, best_common = pos, common
            j = unassigned.pop(best_pos)
            members.append(bulk[j])
            agg_dims |= dim_sets[j]
        groups.append(members)
    return groups


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=40),
    capacity=st.integers(min_value=2, max_value=8),
    dim_space=st.integers(min_value=1, max_value=30),
)
def test_merge_node_groups_equal_intersection_greedy(seed, n, capacity, dim_space):
    # a small dim space makes tied shared-dimension counts common
    rng = np.random.default_rng(seed)
    leaves = [
        _leaf(f"o{i}", rng.choice(dim_space, size=int(rng.integers(1, min(dim_space, 6) + 1)),
                                  replace=False).tolist())
        for i in range(n)
    ]
    nodes = merge_node(leaves, capacity)
    assert [node.children for node in nodes] == _merge_node_by_intersection(leaves, capacity)
    # a bulk of internal nodes packs by their aggregates' dims
    inner = [WrNode.internal(leaves[i : i + 3]) for i in range(0, n, 3)]
    nodes = merge_node(inner, capacity)
    assert [node.children for node in nodes] == _merge_node_by_intersection(inner, capacity)


# ---------------------------------------------------------------------------
# Bulk loading


def test_bulk_load_small_corpus_single_root():
    entries, _ = synthetic_entries(10, seed=0)
    tree = bulk_load(entries, capacity=16)
    assert tree.root is not None
    assert all(child.is_leaf for child in tree.root.children)
    assert validate(tree) == []


def test_bulk_load_ten_objects_capacity_four():
    entries, _ = synthetic_entries(10, seed=1)
    tree = bulk_load(entries, capacity=4)
    assert len(tree.root.children) == 3
    assert validate(tree) == []


def test_bulk_load_empty_and_duplicate_ids():
    empty = bulk_load([], capacity=4)
    assert empty.root is None
    assert knn_search(empty, (sig({1: 1.0}), Mbr(0, 0, 1, 1)), 3) == []
    entries, _ = synthetic_entries(5, seed=2)
    with pytest.raises(ValueError):
        bulk_load(entries + [entries[0]], capacity=4)
    with pytest.raises(ValueError):
        bulk_load(entries, capacity=1)


def test_bulk_load_names_a_repeated_id():
    entries, _ = synthetic_entries(5, seed=2)
    oid = entries[3][0]
    with pytest.raises(ValueError, match=f"^object id {oid!r} repeats an earlier entry's$"):
        bulk_load(entries + [entries[3]])


def test_bulk_load_refuses_mixed_kinds_as_insert_does():
    anchors = line_anchors(4)
    spatial = entry("s", sig({0: 0.6, 1: 0.8}), anchors)
    sequential = ("q", sig({0: 0.6, 1: 0.8}, kind="sequential:q=2"), Mbr(0, 0, 0, 0))
    for objects, rule in (([spatial, sequential], "'sequential:q=2' vs 'spatial'"),
                          ([sequential, spatial], "'spatial' vs 'sequential:q=2'")):
        with pytest.raises(ValueError, match=f"^signature kind mismatch: {rule}$"):
            bulk_load(objects, capacity=4)
    tree = bulk_load([spatial], capacity=4)
    with pytest.raises(ValueError, match="^signature kind mismatch: 'sequential:q=2' vs index"):
        insert(tree, sequential)


def test_index_refuses_and_validate_reports_unnormalized_leaf():
    entries, _ = synthetic_entries(6, seed=8)
    oid, s, m = entries[0]
    raw = Signature(s.dims, 3.0 * s.weights, s.kind, normalized=False)
    refused = f"signature of '{oid}' is not normalized"
    with pytest.raises(ValueError, match=refused):
        bulk_load([(oid, raw, m), *entries[1:]], capacity=4)
    tree = bulk_load(entries[1:], capacity=4)
    with pytest.raises(ValueError, match=refused):
        insert(tree, (oid, raw, m))
    assert tree.n_objects == 5 and validate(tree) == []
    with pytest.raises(ValueError, match=refused):
        insert(bulk_load([], capacity=4), (oid, raw, m))
    # validate still reports one in a tree built in memory
    tree = bulk_load(entries, capacity=16)
    leaf = next(c for c in tree.root.children if c.object_id == oid)
    leaf._leaf_sig = Signature(s.dims, s.weights, s.kind, normalized=False)
    assert validate(tree) == [f"signature of leaf '{oid}' is not normalized"]


def test_bulk_load_matches_linear_oracle():
    entries, _ = synthetic_entries(200, seed=3)
    tree = bulk_load(entries, capacity=8)
    assert validate(tree) == []
    for oid, s, m in entries[::5]:
        for k in (1, 5):
            assert knn_search(tree, (s, m), k) == linear_knn(entries, (s, m), k)


# ---------------------------------------------------------------------------
# Insert


def test_insert_into_empty_tree():
    tree = bulk_load([], capacity=4)
    entries, _ = synthetic_entries(1, seed=4)
    insert(tree, entries[0])
    assert tree.n_objects == 1
    oid, s, m = entries[0]
    assert knn_search(tree, (s, m), 1) == [(oid, pytest.approx(1.0))]


def test_inserted_object_found_by_self_query():
    entries, _ = synthetic_entries(40, seed=5)
    tree = bulk_load(entries[:30], capacity=4)
    for e in entries[30:]:
        insert(tree, e)
    assert validate(tree) == []
    for oid, s, m in entries[30:]:
        top = knn_search(tree, (s, m), 1)
        assert top[0][0] == oid
        assert top[0][1] == pytest.approx(1.0, abs=1e-12)


def test_split_keeps_dimension_families_apart():
    # five leaves at one point overflow a capacity-4 root; a rectangle-only
    # split cannot tell them apart, the greedy packing groups them by dims
    tree = bulk_load([], capacity=4)
    a, b = [1, 2], [3, 4]
    for oid, dims in [("A0", a), ("A1", a), ("B2", b), ("B3", b), ("A4", a)]:
        leaf = _leaf(oid, dims)
        insert(tree, (oid, leaf.signature, leaf.mbr))
    halves = [[c.object_id for c in half.children] for half in tree.root.children]
    assert halves == [["A0", "A1", "A4"], ["B2", "B3"]]
    assert validate(tree) == []


def test_insert_duplicate_id_rejected():
    entries, _ = synthetic_entries(3, seed=6)
    tree = bulk_load(entries, capacity=4)
    with pytest.raises(ValueError):
        insert(tree, entries[0])


def test_many_inserts_preserve_oracle_equivalence():
    entries, _ = synthetic_entries(500, seed=7)
    tree = bulk_load([], capacity=8)
    for e in entries:
        insert(tree, e)
    assert validate(tree) == []
    rng = np.random.default_rng(0)
    for idx in rng.choice(len(entries), size=60, replace=False):
        oid, s, m = entries[idx]
        for k in (1, 5):
            assert knn_search(tree, (s, m), k) == linear_knn(entries, (s, m), k)


def _height(tree):
    height, node = 0, tree.root
    while not node.is_leaf:
        height, node = height + 1, node.children[0]
    return height


def test_postings_stay_current_between_searches():
    # capacity 3 splits the root several times; every insert is followed by
    # searches that must agree with the oracle over the objects present
    entries, _ = synthetic_entries(90, seed=17)
    rng = np.random.default_rng(17)
    present = []

    def check(tree):
        assert validate(tree) == []
        for idx in rng.choice(len(entries), size=3, replace=False):
            _, s, m = entries[idx]
            for k in (1, 5):
                expect = linear_knn(present, (s, m), k)
                assert knn_search(tree, (s, m), k) == expect
                assert rtree_baseline_knn(tree, (s, m), k) == expect

    tree = bulk_load([], capacity=3)
    heights = set()
    for e in entries[:60]:
        insert(tree, e)
        present.append(e)
        heights.add(_height(tree))
        check(tree)
    assert len(heights) >= 3
    for e in entries[60:]:
        insert(tree, e)
        present.append(e)
        check(tree)


_HUBS = (0, 1, 2)
_WEIGHTS = st.sampled_from([0.25, 0.5, 1.0, 2.0])


@st.composite
def _hub_heavy_signature(draw):
    # two or three of the three hub dims in every object, so each hub is in
    # most objects, plus up to three personal dims; few distinct weights make
    # ties common
    hubs = draw(st.lists(st.sampled_from(_HUBS), min_size=2, max_size=3, unique=True))
    personal = draw(st.lists(st.integers(3, 40), max_size=3, unique=True))
    return sig({d: draw(_WEIGHTS) for d in hubs + personal})


@st.composite
def _hub_heavy_corpus(draw):
    anchors = line_anchors(100)
    n = draw(st.integers(1, 40))
    labels = draw(st.permutations(range(n)))
    entries = [entry(f"o{label:02d}", draw(_hub_heavy_signature()), anchors)
               for label in labels]
    probes = draw(st.lists(_hub_heavy_signature(), min_size=1, max_size=3))
    queries = [(s, m) for _, s, m in entries[:2]]
    queries += [(s, mbr_of(s, anchors)) for s in probes]
    return entries, queries


def _hexed(result):
    return [(oid, s.hex()) for oid, s in result]


@settings(max_examples=80, deadline=None)
@given(corpus=_hub_heavy_corpus(), capacity=st.sampled_from([2, 3, 8, 32]))
def test_hub_heavy_tree_search_matches_linear_bit_for_bit(corpus, capacity):
    entries, queries = corpus
    grown = bulk_load([], capacity=capacity)
    for e in entries:
        insert(grown, e)
    trees = [bulk_load(entries, capacity=capacity), grown]
    for k in (1, 5, len(entries) + 1):
        for query in queries:
            expect = _hexed(linear_knn(entries, query, k))
            for tree in trees:
                assert _hexed(knn_search(tree, query, k)) == expect
                assert _hexed(rtree_baseline_knn(tree, query, k)) == expect


def _internal_nodes_with_leaves(node):
    """Every internal node under ``node`` with the leaves beneath it."""
    if node.is_leaf:
        return [], [node]
    found, leaves = [], []
    for child in node.children:
        inner, below = _internal_nodes_with_leaves(child)
        found += inner
        leaves += below
    return [(node, leaves), *found], leaves


def _check_aggregates(tree):
    """Assert that every internal node's aggregate, read from its posting
    lists, is the dimension-wise maximum of the signatures beneath it, bit
    for bit; returns the number of internal nodes."""
    nodes, _ = _internal_nodes_with_leaves(tree.root)
    for node, leaves in nodes:
        expect = aggregate_signatures([leaf.signature for leaf in leaves])
        agg = node.signature
        assert np.array_equal(agg.dims, expect.dims)
        assert np.array_equal(agg.weights, expect.weights)
        assert agg.kind == expect.kind and not agg.normalized
    return len(nodes)


@pytest.mark.parametrize("capacity", [4, 32])
def test_node_signature_is_the_aggregate_of_its_leaves(capacity):
    entries, _ = synthetic_entries(300, seed=18)
    tree = bulk_load(entries[:150], capacity=capacity)
    n_nodes = _check_aggregates(tree)
    for e in entries[150:]:
        insert(tree, e)
    assert _check_aggregates(tree) > n_nodes  # the inserts split nodes


# ---------------------------------------------------------------------------
# Search behavior


def test_self_query_top1():
    entries, _ = synthetic_entries(50, seed=8)
    tree = bulk_load(entries, capacity=8)
    oid, s, m = entries[7]
    assert knn_search(tree, (s, m), 1)[0] == (oid, pytest.approx(1.0))


def test_query_disjoint_from_everything_returns_empty():
    anchors_lons = [0.0, 0.1, 5.0]
    from siglink.traces import AnchorSet

    anchors = AnchorSet(anchors_lons, [0.0, 0.1, 5.0])
    entries = [
        entry("a", sig({0: 0.6, 1: 0.8}), anchors),
        entry("b", sig({1: 1.0}), anchors),
    ]
    tree = bulk_load(entries, capacity=4)
    probe = entry("q", sig({2: 1.0}), anchors)
    assert knn_search(tree, (probe[1], probe[2]), 5) == []
    assert rtree_baseline_knn(tree, (probe[1], probe[2]), 5) == []


def test_knn_rejects_bad_inputs():
    entries, _ = synthetic_entries(5, seed=9)
    tree = bulk_load(entries, capacity=4)
    _, s, m = entries[0]
    unnormalized = sig({1: 3.0, 2: 4.0}, normalize=False)
    sequential = sig({1: 1.0}, kind="sequential:q=2")
    for search in (knn_search, rtree_baseline_knn, lambda _, q, k: linear_knn(entries, q, k)):
        with pytest.raises(ValueError, match="k must be"):
            search(tree, (s, m), 0)
        with pytest.raises(ValueError, match="normalized"):
            search(tree, (unnormalized, m), 1)
    # the oracle scans any entries it is given; only an index has a kind
    for search in (knn_search, rtree_baseline_knn):
        with pytest.raises(ValueError, match="kind mismatch"):
            search(tree, (sequential, m), 1)


def test_linear_knn_ranks_all_when_k_exceeds_n():
    from siglink.traces import AnchorSet

    anchors = AnchorSet([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    shared = {0: 0.5, 1: 0.5, 2: 0.5}
    entries = [
        entry("a", sig({**shared, 0: 0.9}), anchors),
        entry("b", sig({**shared, 1: 0.9}), anchors),
        entry("c", sig({**shared, 2: 0.9}), anchors),
    ]
    probe = entries[0]
    res = linear_knn(entries, (probe[1], probe[2]), 10)
    assert res[0][0] == "a"
    assert {oid for oid, _ in res} == {"a", "b", "c"}
    sims = [s for _, s in res]
    assert sims == sorted(sims, reverse=True)


def test_linear_single_object():
    entries, _ = synthetic_entries(1, seed=10)
    oid, s, m = entries[0]
    assert linear_knn(entries, (s, m), 3) == [(oid, pytest.approx(1.0))]


def test_tie_order_is_ascending_object_id():
    from siglink.traces import AnchorSet

    anchors = AnchorSet([0.0, 1.0], [0.0, 0.0])
    twin = {0: 0.6, 1: 0.8}
    entries = [
        entry("zz", sig(twin), anchors),
        entry("aa", sig(twin), anchors),
    ]
    tree = bulk_load(entries, capacity=4)
    probe = sig(twin)
    expected = [("aa", pytest.approx(1.0)), ("zz", pytest.approx(1.0))]
    assert linear_knn(entries, (probe, entries[0][2]), 2) == expected
    assert knn_search(tree, (probe, entries[0][2]), 2) == expected


def test_rtree_baseline_equals_linear_when_everything_overlaps():
    entries, anchors = synthetic_entries(60, seed=11)
    tree = bulk_load(entries, capacity=8)
    world = Mbr(-180.0, -90.0, 180.0, 90.0)
    for oid, s, _ in entries[::7]:
        assert rtree_baseline_knn(tree, (s, world), 5) == linear_knn(
            entries, (s, world), 5
        )


def test_rtree_baseline_matches_wrtree_on_overlap_complete_queries():
    entries, _ = synthetic_entries(120, seed=12)
    tree = bulk_load(entries, capacity=8)
    for oid, s, m in entries[::5]:
        base = rtree_baseline_knn(tree, (s, m), 5)
        true = linear_knn(entries, (s, m), 5)
        if base == true:  # overlap-complete case
            assert knn_search(tree, (s, m), 5) == true


# ---------------------------------------------------------------------------
# Validation


def test_validator_flags_stale_postings():
    entries, _ = synthetic_entries(30, seed=13)
    tree = bulk_load(entries, capacity=4)
    node = tree.root.children[0]
    plist = node.postings[min(node.postings)]
    plist[min(plist)] *= 0.5
    assert any("posting" in p for p in validate(tree))


def test_validator_flags_mixed_children():
    entries, _ = synthetic_entries(30, seed=13)
    tree = bulk_load(entries, capacity=4)
    node = tree.root.children[0]
    assert not node.children[0].is_leaf
    oid, s, m = entries[0]
    node.children.append(WrNode.leaf("extra", s, m))
    assert any("mixes leaf and internal" in p for p in validate(tree))


def test_validator_flags_escaped_mbr():
    entries, _ = synthetic_entries(30, seed=14)
    tree = bulk_load(entries, capacity=4)
    child = tree.root.children[0]
    object.__setattr__(child, "mbr", Mbr(-500.0, -500.0, 500.0, 500.0))
    assert any("mbr" in p.lower() for p in validate(tree))


def _hand_tree(shape, capacity):
    """A tree of hand-placed nodes: a string is a leaf of that id, a list an
    internal node over its items."""
    anchors = line_anchors(10)
    leaves = []

    def node(item):
        if isinstance(item, str):
            leaves.append(item)
            return WrNode.leaf(*entry(item, sig({ord(item) % 10: 1.0}), anchors))
        return WrNode.internal([node(child) for child in item])

    root = node(shape)
    return WrTree(root, capacity, "spatial", set(leaves))


@pytest.mark.parametrize("shape,capacity,missing,problem", [
    (["a", "a"], 4, 0, "duplicate object ids in tree"),
    (list("abcdefghi"), 2, 0, "node at depth 0 has 9 children"),
    ([["a", "b"], [["c"]]], 4, 0, "leaves at unequal depths: [2, 3]"),
    (list("abcdef"), 8, 1, "the 6 leaf ids are not the tree's 7 ids"),
], ids=["duplicate-ids", "over-capacity", "unequal-depths", "object-count"])
def test_validate_reports_each_shape_rule(shape, capacity, missing, problem):
    tree = _hand_tree(shape, capacity)
    tree.ids.update(f"missing{i}" for i in range(missing))
    assert validate(tree) == [problem]
