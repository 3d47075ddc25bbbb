import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglink.errors import EmptySignatureError, EmptyTraceError
from siglink.signatures import (
    CorpusStats,
    Grid,
    build_corpus_stats,
    build_sequential_corpus,
    build_sequential_signature,
    build_spatial_signature,
    build_spatiotemporal_corpus,
    build_spatiotemporal_signature,
    build_temporal_histogram,
    cosine_similarity,
    read_signatures_jsonl,
    time_bin,
    write_signatures_jsonl,
)
from siglink.traces import AnchorSet, Trace

from testkit import random_signature, sig, trace_of


# ---------------------------------------------------------------------------
# Corpus statistics


def test_single_object_corpus_all_df_one():
    stats = build_corpus_stats([trace_of("a", [1, 2, 3])])
    assert stats.n_objects == 1
    assert stats.doc_freq == {1: 1, 2: 1, 3: 1}


def test_doc_freq_counts_objects_not_visits():
    traces = [
        trace_of("a", [5, 5, 5]),
        trace_of("b", [5, 7]),
        trace_of("c", [7]),
        trace_of("d", [9]),
    ]
    stats = build_corpus_stats(traces)
    assert stats.doc_freq[5] == 2
    assert stats.doc_freq[7] == 2
    assert stats.doc_freq[9] == 1


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_corpus_stats([])


# ---------------------------------------------------------------------------
# Spatial signatures


def test_spatial_signature_hand_computed_tfidf():
    # object visits p1 twice and p2 once; p1 appears in 2 of 4 objects,
    # p2 in all 4, so p2's weight vanishes and p1 normalizes to 1
    stats = CorpusStats(4, {1: 2, 2: 4})
    trace = trace_of("o", [1, 1, 2])
    pre_normalization = (2 / 3) * math.log(4 / 2)
    assert pre_normalization == pytest.approx(0.4621, abs=1e-4)
    signature = build_spatial_signature(trace, stats)
    assert signature.as_dict() == {1: 1.0}
    assert signature.normalized


def test_anchor_visited_by_every_object_dropped():
    traces = [trace_of("a", [1, 9]), trace_of("b", [2, 9]), trace_of("c", [3, 9])]
    stats = build_corpus_stats(traces)
    signature = build_spatial_signature(traces[0], stats)
    assert 9 not in signature.as_dict()


def test_single_object_corpus_single_anchor_normalizes_to_one():
    trace = trace_of("only", [4])
    stats = build_corpus_stats([trace])
    signature = build_spatial_signature(trace, stats)
    assert signature.as_dict() == {4: 1.0}


def test_object_with_only_universal_anchors_yields_empty_signature():
    traces = [trace_of("a", [9]), trace_of("b", [9, 5]), trace_of("c", [9, 6])]
    stats = build_corpus_stats(traces)
    with pytest.raises(EmptySignatureError):
        build_spatial_signature(traces[0], stats)


def test_anchor_missing_from_stats_dropped():
    # anchor 2 is unseen by the corpus and is dropped before weighting
    stats = CorpusStats(3, {1: 1})
    signature = build_spatial_signature(trace_of("o", [1, 2, 1]), stats)
    assert signature.as_dict() == {1: 1.0}
    with pytest.raises(EmptySignatureError):
        build_spatial_signature(trace_of("o", [2, 3]), stats)


def test_empty_trace_rejected():
    with pytest.raises(EmptyTraceError):
        build_spatial_signature(Trace("o", []), CorpusStats(2, {1: 1}))


def test_signature_normalization_invariant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = random_signature(rng, int(rng.integers(1, 30)))
        assert abs(float(np.sum(s.weights**2)) - 1.0) < 1e-9
        assert np.all(np.diff(s.dims) > 0)
        assert np.all(s.weights > 0)


# ---------------------------------------------------------------------------
# Cosine similarity


def test_cosine_identical_is_one():
    s = sig({1: 0.3, 5: 0.7, 9: 0.2})
    assert cosine_similarity(s, s) == pytest.approx(1.0, abs=1e-12)


def test_cosine_disjoint_is_zero():
    assert cosine_similarity(sig({1: 1.0}), sig({2: 1.0})) == 0.0


def test_cosine_hand_value():
    a = sig({1: 0.6, 2: 0.8})
    b = sig({1: 0.8, 2: 0.6})
    assert cosine_similarity(a, b) == pytest.approx(0.96, abs=1e-12)


def test_cosine_requires_matching_kind_and_normalization():
    a = sig({1: 1.0})
    b = sig({1: 1.0}, kind="sequential:q=2")
    with pytest.raises(ValueError):
        cosine_similarity(a, b)
    raw = sig({1: 2.0}, normalize=False)
    with pytest.raises(ValueError):
        cosine_similarity(a, raw)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    na=st.integers(min_value=1, max_value=25),
    nb=st.integers(min_value=1, max_value=25),
)
def test_cosine_symmetry_and_range(seed, na, nb):
    rng = np.random.default_rng(seed)
    a = random_signature(rng, na, dim_space=60)
    b = random_signature(rng, nb, dim_space=60)
    ab = cosine_similarity(a, b)
    assert ab == cosine_similarity(b, a)
    assert 0.0 <= ab <= 1.0 + 1e-12


def test_euclidean_cosine_identity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = random_signature(rng, int(rng.integers(1, 30)), dim_space=80)
        b = random_signature(rng, int(rng.integers(1, 30)), dim_space=80)
        union = np.union1d(a.dims, b.dims)
        dense_a = np.zeros(len(union))
        dense_b = np.zeros(len(union))
        dense_a[np.searchsorted(union, a.dims)] = a.weights
        dense_b[np.searchsorted(union, b.dims)] = b.weights
        euc_sq = float(np.sum((dense_a - dense_b) ** 2))
        assert abs(euc_sq - (2.0 - 2.0 * cosine_similarity(a, b))) < 1e-9


# ---------------------------------------------------------------------------
# Sequential signatures


def test_gram_counts_via_single_object_corpus():
    trace = trace_of("o", [10, 20, 10, 20])
    corpus = build_sequential_corpus([trace], 2)
    signature = build_sequential_signature(trace, corpus)
    # grams (10,20) x2 and (20,10) x1, so weights are 2/sqrt(5), 1/sqrt(5)
    weights = sorted(signature.weights.tolist(), reverse=True)
    assert weights == pytest.approx([2 / math.sqrt(5), 1 / math.sqrt(5)])


def test_q1_sequential_equals_spatial():
    rng = np.random.default_rng(3)
    for _ in range(10):
        traces = [
            trace_of(f"o{i}", rng.integers(0, 15, size=rng.integers(2, 20)).tolist())
            for i in range(6)
        ]
        corpus = build_sequential_corpus(traces, 1)
        stats = build_corpus_stats(traces)
        for trace in traces:
            try:
                spatial = build_spatial_signature(trace, stats)
            except EmptySignatureError:
                with pytest.raises(EmptySignatureError):
                    build_sequential_signature(trace, corpus)
                continue
            seq = build_sequential_signature(trace, corpus)
            assert np.array_equal(seq.dims, spatial.dims)
            assert np.allclose(seq.weights, spatial.weights, atol=1e-12)


def test_full_length_gram_single_dimension():
    trace = trace_of("o", [3, 1, 4, 1, 5])
    corpus = build_sequential_corpus([trace], 5)
    signature = build_sequential_signature(trace, corpus)
    assert signature.nnz() == 1
    assert signature.weights[0] == pytest.approx(1.0)


def test_trace_shorter_than_q_rejected():
    trace = trace_of("o", [1, 2])
    corpus = build_sequential_corpus([trace_of("x", [1, 2, 3])], 3)
    with pytest.raises(EmptySignatureError):
        build_sequential_signature(trace, corpus)


def test_nonstrict_drops_unknown_grams():
    corpus = build_sequential_corpus([trace_of("a", [1, 2, 3])], 2)
    foreign = trace_of("b", [1, 2, 9])
    signature = build_sequential_signature(foreign, corpus)
    assert signature.nnz() == 1


# ---------------------------------------------------------------------------
# Temporal histograms


def _trace_at_hours(hours, day=1):
    # UTC timestamps with the default +8 offset cancelled out
    base = 1_600_000_000 - (1_600_000_000 % 86400)
    return Trace(
        "o",
        [(i, base + day * 86400 + int(h * 3600) - 8 * 3600) for i, h in enumerate(hours)],
    )


def test_all_points_in_first_bin():
    hist = build_temporal_histogram(_trace_at_hours([0.5, 0.5, 0.5]), 1)
    assert hist.bins[0] == 1.0
    assert hist.bins[1:].sum() == 0.0


def test_two_bin_histogram_split():
    hist = build_temporal_histogram(_trace_at_hours([1.5, 1.5, 13.5, 13.5]), 12)
    assert hist.bins.tolist() == [0.5, 0.5]


def test_boundary_point_falls_in_second_bin():
    hist = build_temporal_histogram(_trace_at_hours([12.0]), 12)
    assert hist.bins.tolist() == [0.0, 1.0]


def test_dt_must_divide_24():
    with pytest.raises(ValueError):
        build_temporal_histogram(_trace_at_hours([1.0]), 5)


def test_histogram_l1_normalized():
    rng = np.random.default_rng(1)
    hours = rng.uniform(0, 24, 50).tolist()
    hist = build_temporal_histogram(_trace_at_hours(hours), 2)
    assert abs(hist.bins.sum() - 1.0) < 1e-9


def test_time_bin_uses_local_offset():
    t = 1_600_000_000 - (1_600_000_000 % 86400)  # UTC midnight
    assert time_bin(t, 1, utc_offset_hours=0) == 0
    assert time_bin(t, 1, utc_offset_hours=8) == 8


# ---------------------------------------------------------------------------
# Spatiotemporal signatures


def _square_anchors():
    return AnchorSet([0.0, 0.9, 0.0, 0.9], [0.0, 0.0, 0.9, 0.9])


def test_single_point_spatiotemporal():
    anchors = _square_anchors()
    trace = Trace("o", [(0, 1_600_000_000)])
    grid = Grid.fit(anchors, 10)
    corpus = build_spatiotemporal_corpus([trace], anchors, grid, 1)
    signature = build_spatiotemporal_signature(trace, anchors, corpus)
    assert signature.nnz() == 1
    assert signature.weights[0] == pytest.approx(1.0)


def test_same_cell_different_intervals_distinct_dims():
    anchors = _square_anchors()
    trace = Trace("o", [(0, 1_600_000_000), (0, 1_600_000_000 + 6 * 3600)])
    grid = Grid.fit(anchors, 10)
    corpus = build_spatiotemporal_corpus([trace], anchors, grid, 1)
    signature = build_spatiotemporal_signature(trace, anchors, corpus)
    assert signature.nnz() == 2


@pytest.mark.parametrize("g", [100, 200, 300])
def test_common_grid_resolutions_accepted(g):
    anchors = _square_anchors()
    trace = Trace("o", [(0, 1_600_000_000), (3, 1_600_050_000)])
    grid = Grid.fit(anchors, g)
    corpus = build_spatiotemporal_corpus([trace], anchors, grid, 1)
    signature = build_spatiotemporal_signature(trace, anchors, corpus)
    assert signature.nnz() == 2


def test_grid_cells_cover_bbox_corners():
    anchors = _square_anchors()
    grid = Grid.fit(anchors, 7)
    assert grid.cell_of(0.0, 0.0) == 0
    assert grid.cell_of(0.9, 0.9) == 7 * 7 - 1


# ---------------------------------------------------------------------------
# Signature file format


def test_signature_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    entries = [(f"o{i}", random_signature(rng, 8)) for i in range(5)]
    entries[0][1].reduced_m = 8
    path = tmp_path / "sigs.jsonl"
    write_signatures_jsonl(path, entries)
    back = read_signatures_jsonl(path)
    assert [oid for oid, _ in back] == [oid for oid, _ in entries]
    for (_, orig), (_, loaded) in zip(entries, back):
        assert np.array_equal(orig.dims, loaded.dims)
        assert np.array_equal(orig.weights, loaded.weights)  # full-precision floats
        assert orig.kind == loaded.kind
        assert orig.reduced_m == loaded.reduced_m
