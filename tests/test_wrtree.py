import numpy as np
import pytest

from siglink.reduction import Mbr, cut_reduce, mbr_of
from siglink.signatures import cosine_similarity
from siglink.synth import generate_synthetic
from siglink.linking import reference_signatures
from siglink.wrtree import (
    WrNode,
    aggregate_signatures,
    bulk_load,
    insert,
    knn_search,
    linear_knn,
    load_index,
    merge_node,
    rtree_baseline_knn,
    save_index,
    validate,
)

from testkit import entry, random_signature, sig


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
    with pytest.raises(ValueError):
        knn_search(tree, (s, m), 0)
    with pytest.raises(ValueError):
        knn_search(tree, (sig({1: 2.0}, normalize=False), m), 1)
    with pytest.raises(ValueError):
        knn_search(tree, (sig({1: 1.0}, kind="sequential:q=2"), m), 1)


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
# Validation and serialization


def test_validator_flags_corrupted_aggregate():
    entries, _ = synthetic_entries(30, seed=13)
    tree = bulk_load(entries, capacity=4)
    node = tree.root.children[0]
    dim = min(node.weight_map)
    node.weight_map[dim] *= 0.5
    assert any("aggregate" in p for p in validate(tree))


def test_validator_flags_escaped_mbr():
    entries, _ = synthetic_entries(30, seed=14)
    tree = bulk_load(entries, capacity=4)
    child = tree.root.children[0]
    object.__setattr__(child, "mbr", Mbr(-500.0, -500.0, 500.0, 500.0))
    assert any("mbr" in p.lower() for p in validate(tree))


def test_index_round_trip(tmp_path):
    entries, _ = synthetic_entries(80, seed=15)
    tree = bulk_load(entries, capacity=8)
    path = tmp_path / "index.bin"
    save_index(tree, path)
    loaded = load_index(path)
    assert loaded.capacity == tree.capacity
    assert loaded.n_objects == tree.n_objects
    assert loaded.kind == tree.kind
    assert validate(loaded) == []
    for oid, s, m in entries[::9]:
        assert knn_search(loaded, (s, m), 5) == knn_search(tree, (s, m), 5)
    insert(loaded, ("brand-new", entries[0][1], entries[0][2]))
    assert loaded.n_objects == tree.n_objects + 1


def test_index_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not an index")
    with pytest.raises(ValueError):
        load_index(path)


def test_empty_tree_round_trip(tmp_path):
    tree = bulk_load([], capacity=4)
    path = tmp_path / "empty.bin"
    save_index(tree, path)
    loaded = load_index(path)
    assert loaded.root is None
    assert loaded.n_objects == 0


def _saved_index_bytes(tmp_path, n=6, capacity=2):
    entries, _ = synthetic_entries(n, seed=16)
    path = tmp_path / "index.bin"
    save_index(bulk_load(entries, capacity=capacity), path)
    return path, bytearray(path.read_bytes())


# header layout after the 10-byte magic: <H version, I capacity, Q n_objects,
# B weighted, ...
_CAPACITY_AT = 12
_N_OBJECTS_AT = 16
_WEIGHTED_AT = 24


def test_index_object_count_mismatch_rejected(tmp_path):
    path, raw = _saved_index_bytes(tmp_path)
    raw[_N_OBJECTS_AT : _N_OBJECTS_AT + 8] = (6 + 1).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="corrupt index"):
        load_index(path)


def test_index_capacity_below_two_rejected(tmp_path):
    path, raw = _saved_index_bytes(tmp_path)
    raw[_CAPACITY_AT : _CAPACITY_AT + 4] = (1).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="corrupt index"):
        load_index(path)


def test_index_unweighted_flag_rejected(tmp_path):
    path, raw = _saved_index_bytes(tmp_path)
    assert raw[_WEIGHTED_AT] == 1
    raw[_WEIGHTED_AT] = 0
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="corrupt index"):
        load_index(path)


def test_truncated_index_rejected_at_every_offset(tmp_path):
    path, raw = _saved_index_bytes(tmp_path)
    for cut in range(len(b"SIGLINKIDX") + 1, len(raw)):
        path.write_bytes(bytes(raw[:cut]))
        with pytest.raises(ValueError, match="corrupt index"):
            load_index(path)
