import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglink.reduction import (
    Mbr,
    anchor_boxes,
    cut_reduce,
    cut_table,
    mbr_of,
    top_m,
    union_mbrs,
)
from siglink.signatures import Signature, SignatureTable, cosine_similarity
from siglink.traces import AnchorSet

from testkit import mbr_of_ids, random_signature, sig, top_m_row


# ---------------------------------------------------------------------------
# Top-m truncation


def test_cut_keeps_signature_when_m_large_enough():
    s = sig({1: 0.5, 2: 0.4, 3: 0.3})
    assert cut_reduce(s, 3) is s
    assert cut_reduce(s, 10) is s


def test_cut_hand_computed_renormalization():
    s = sig({1: 0.9, 2: 0.5, 3: 0.1})
    reduced = cut_reduce(s, 2)
    assert reduced.dims.tolist() == [1, 2]
    norm = math.sqrt(0.81 + 0.25)
    assert reduced.weights.tolist() == pytest.approx([0.9 / norm, 0.5 / norm], abs=1e-12)
    assert reduced.weights.tolist() == pytest.approx([0.874, 0.486], abs=1e-3)
    assert reduced.normalized


def test_cut_tie_at_threshold_prefers_lower_dim():
    s = sig({1: 0.7, 2: 0.5, 3: 0.5})
    reduced = cut_reduce(s, 2)
    assert reduced.dims.tolist() == [1, 2]


def test_cut_rejects_bad_inputs():
    s = sig({1: 1.0})
    with pytest.raises(ValueError):
        cut_reduce(s, 0)
    with pytest.raises(ValueError):
        cut_reduce(sig({1: 2.0}, normalize=False), 1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=40),
    m1=st.integers(min_value=1, max_value=40),
    m2=st.integers(min_value=1, max_value=40),
)
def test_cut_containment_and_nesting(seed, n, m1, m2):
    rng = np.random.default_rng(seed)
    s = random_signature(rng, n)
    m1, m2 = min(m1, m2), max(m1, m2)
    r1 = cut_reduce(s, m1)
    r2 = cut_reduce(s, m2)
    assert set(r1.dims.tolist()) <= set(r2.dims.tolist()) <= set(s.dims.tolist())
    # every kept weight (pre-renormalization) >= every dropped weight
    kept = set(r1.dims.tolist())
    kept_min = min(w for d, w in s.pairs() if d in kept)
    dropped = [w for d, w in s.pairs() if d not in kept]
    assert all(kept_min >= w for w in dropped)


def _cut_reduce_loop(s, m):
    """The one-signature top-m cut the batched selection replaced, kept as
    the oracle: lexsort by (-weight, dim), keep m, re-sort by dim and divide
    by ``np.linalg.norm``."""
    if m >= s.nnz():
        return s
    order = np.lexsort((s.dims, -s.weights))[:m]
    resort = np.argsort(s.dims[order])
    dims, weights = s.dims[order][resort], s.weights[order][resort]
    return Signature(dims, weights / np.linalg.norm(weights), s.kind, True)


def _hex(s):
    return s.dims.tolist(), [w.hex() for w in s.weights.tolist()]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_sigs=st.integers(min_value=0, max_value=12),
    m=st.integers(min_value=1, max_value=8),
    levels=st.integers(min_value=1, max_value=6),
)
def test_batched_top_m_equals_cut_reduce_row_by_row(seed, n_sigs, m, levels):
    # few distinct weight levels make ties at the m-th weight common
    rng = np.random.default_rng(seed)
    sigs = []
    for _ in range(n_sigs):
        n = int(rng.integers(1, 15))
        dims = np.sort(rng.choice(50, size=n, replace=False))
        raw = rng.integers(1, levels + 1, size=n) / levels
        sigs.append(sig({int(d): float(w) for d, w in zip(dims, raw)}))
    table = SignatureTable.of({f"o{i}": s for i, s in enumerate(sigs)})
    batched = cut_table(table, m)
    assert list(batched) == list(table)
    for oid, s in zip(table, sigs):
        b = batched[oid]
        assert _hex(b) == _hex(cut_reduce(s, m)) == _hex(_cut_reduce_loop(s, m))
        if s.nnz() <= m:
            assert _hex(b) == _hex(s)
        else:
            assert b.normalized
    # the mask form the closure uses keeps the same dims
    rows = np.repeat(np.arange(len(sigs)), [s.nnz() for s in sigs])
    keep = top_m(rows, table.weights, m)
    assert table.dims[keep].tolist() == batched.dims.tolist()


def test_batched_top_m_ties_and_m_one():
    table = SignatureTable.of({"tied": sig({1: 0.5, 2: 0.5, 3: 0.5}),
                               "heavy_last": sig({4: 0.1, 5: 0.2, 6: 0.9})})
    one = cut_table(table, 1)
    assert one["tied"].dims.tolist() == [1] and one["tied"].weights.tolist() == [1.0]
    assert one["heavy_last"].dims.tolist() == [6]
    assert [r.dims.tolist() for r in cut_table(table, 2).values()] == [[1, 2], [5, 6]]
    with pytest.raises(ValueError, match="m must be >= 1"):
        cut_table(SignatureTable.of({}), 0)
    with pytest.raises(ValueError, match="signature of 'raw' is not normalized"):
        SignatureTable.of({"tied": table["tied"], "raw": sig({1: 2.0}, normalize=False)})


def _cut_weights_row_by_row(table, m):
    """``cut_table``'s weights as a Python loop normalises them: each cut
    row divided in place by ``math.sqrt(seg.dot(seg))``."""
    nnz = np.diff(table.indptr)
    weights = table.weights[top_m(np.repeat(np.arange(len(nnz)), nnz), table.weights, m)]
    bounds = np.concatenate(([0], np.cumsum(np.minimum(nnz, m)))).tolist()
    for i in np.flatnonzero(nnz > m).tolist():
        seg = weights[bounds[i] : bounds[i + 1]]
        seg /= math.sqrt(seg.dot(seg))
    return weights


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_sigs=st.integers(min_value=0, max_value=12),
    m=st.sampled_from([1, 2, 10, 16, 40]),
)
def test_cut_table_normalises_each_cut_row_bit_for_bit_as_a_row_loop(seed, n_sigs, m):
    # distinct weights over many magnitudes, rows both shorter and longer than m
    rng = np.random.default_rng(seed)
    sigs = {}
    for i in range(n_sigs):
        n = int(rng.integers(1, 2 * m + 3))
        weights = rng.uniform(0.05, 1.0, n) * 10.0 ** rng.integers(-3, 4, n)
        sigs[f"o{i}"] = sig(dict(zip(rng.choice(200, n, replace=False).tolist(),
                                     weights.tolist())))
    table = SignatureTable.of(sigs)
    got = cut_table(table, m).weights.tolist()
    assert [w.hex() for w in got] == [w.hex() for w in _cut_weights_row_by_row(table, m).tolist()]


@st.composite
def _tables(draw):
    """Spatial signatures over anchors 0..29 by id, a few weight levels
    apart so that ties at the m-th weight are common."""
    levels = draw(st.integers(1, 5))
    sigs = {}
    for i in range(draw(st.integers(0, 10))):
        dims = draw(st.lists(st.integers(0, 29), min_size=1, max_size=15, unique=True))
        raw = draw(st.lists(st.integers(1, levels), min_size=len(dims), max_size=len(dims)))
        sigs[f"o{i}"] = sig({d: w / levels for d, w in zip(dims, raw)})
    return SignatureTable.of(sigs)


_ORACLE_ANCHORS = AnchorSet(np.cos(np.arange(30.0)), np.sin(np.arange(30.0)) * 2)


@settings(max_examples=80, deadline=None)
@given(table=_tables(), m=st.integers(1, 8))
def test_cut_table_and_its_boxes_equal_the_per_row_oracle(table, m):
    cut = cut_table(table, m)
    assert list(cut) == list(table)
    boxes = anchor_boxes(_ORACLE_ANCHORS, cut.dims, cut.indptr[:-1]).tolist() if len(cut) else []
    for oid, box in zip(table, boxes):
        s = table[oid]
        dims, weights = top_m_row(s.dims.tolist(), s.weights.tolist(), m)
        got = cut[oid]
        assert got.dims.tolist() == dims
        assert [w.hex() for w in got.weights.tolist()] == [w.hex() for w in weights.tolist()]
        assert Mbr(*box) == mbr_of_ids(dims, _ORACLE_ANCHORS)


def test_anchor_boxes_of_a_table_equal_mbr_of_each_row():
    anchors = AnchorSet([0.0, 1.0, 5.0, -2.0], [0.0, 2.0, 1.0, 3.0])
    sigs = [sig({0: 1.0}), sig({1: 0.5, 3: 0.5}), sig({0: 0.4, 1: 0.4, 2: 0.4})]
    table = SignatureTable.of(dict(zip("abc", sigs)))
    boxes = [Mbr(*b) for b in anchor_boxes(anchors, table.dims, table.indptr[:-1]).tolist()]
    assert boxes == [mbr_of(s, anchors) for s in sigs]
    assert boxes[1] == Mbr(-2.0, 2.0, 1.0, 3.0)


# ---------------------------------------------------------------------------
# Bounding rectangles


def test_mbr_single_dim_degenerate():
    anchors = AnchorSet([2.5], [3.5])
    box = mbr_of(sig({0: 1.0}), anchors)
    assert box == Mbr(2.5, 3.5, 2.5, 3.5)
    assert box.area() == 0.0


def test_mbr_two_points():
    anchors = AnchorSet([0.0, 1.0], [0.0, 2.0])
    box = mbr_of(sig({0: 0.5, 1: 0.5}), anchors)
    assert box == Mbr(0.0, 0.0, 1.0, 2.0)


def test_mbr_monotone_under_superset():
    anchors = AnchorSet([0.0, 1.0, 5.0], [0.0, 2.0, 1.0])
    small = mbr_of(sig({0: 0.5, 1: 0.5}), anchors)
    big = mbr_of(sig({0: 0.4, 1: 0.4, 2: 0.4}), anchors)
    assert big.contains(small)


def test_mbr_requires_spatial_kind():
    with pytest.raises(ValueError):
        mbr_of(sig({1: 1.0}, kind="sequential:q=2"), AnchorSet([0.0, 1.0], [0.0, 1.0]))


def test_mbr_intersection_touching_edges_counts():
    a = Mbr(0.0, 0.0, 1.0, 1.0)
    b = Mbr(1.0, 0.0, 2.0, 1.0)
    assert a.intersects(b)
    assert a.intersection_area(b) == 0.0
    assert not a.intersects(Mbr(1.1, 0.0, 2.0, 1.0))
    assert union_mbrs([a, b]) == Mbr(0.0, 0.0, 2.0, 1.0)


def test_inverted_mbr_rejected():
    with pytest.raises(ValueError):
        Mbr(1.0, 0.0, 0.0, 1.0)


def test_disjoint_reduced_mbrs_imply_zero_similarity():
    # shared dimensions force overlapping boxes, so disjoint boxes mean no
    # shared dimensions and an exactly zero dot product
    rng = np.random.default_rng(11)
    anchors = AnchorSet(np.linspace(0.0, 1.0, 500), np.zeros(500))

    def local_signature():
        start = int(rng.integers(0, 440))
        dims = start + rng.choice(60, size=20, replace=False)
        return cut_reduce(
            sig({int(d): float(w) for d, w in zip(dims, rng.uniform(0.1, 1, 20))}), 10
        )

    disjoint_seen = 0
    for _ in range(400):
        a = local_signature()
        b = local_signature()
        if not mbr_of(a, anchors).intersects(mbr_of(b, anchors)):
            disjoint_seen += 1
            assert cosine_similarity(a, b) == 0.0
    assert disjoint_seen > 50
