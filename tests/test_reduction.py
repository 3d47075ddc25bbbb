import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglink.reduction import Mbr, cut_reduce, mbr_of, union_mbrs
from siglink.signatures import cosine_similarity
from siglink.traces import AnchorSet

from testkit import random_signature, sig


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
    assert reduced.reduced_m == 2
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
