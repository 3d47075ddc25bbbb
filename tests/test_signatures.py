import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglink.errors import EmptySignatureError, EmptyTraceError
from siglink.linking import build_corpus_stats, build_spatial_signature, reference_signatures
from siglink.reduction import cut_table
from siglink.signatures import (
    KIND_SPATIAL,
    Corpus,
    cosine_similarity,
    emd,
    grid_cells,
    kind_corpus,
    SignatureTable,
    pair_counts,
    read_signatures_jsonl,
    temporal_histograms,
    tfidf_signatures,
    tfidf_weights,
    time_bin,
    write_signatures_jsonl,
)
from siglink.traces import AnchorSet, Trace

from testkit import random_signature, sig, trace_of


# ---------------------------------------------------------------------------
# Corpus statistics


def _spatial_corpus(n_objects, dims):
    """A spatial corpus of ``n_objects`` objects fitted from the dimensions
    of their distinct (object, dimension) pairs."""
    return Corpus(KIND_SPATIAL).fit(n_objects, np.array(dims, dtype=np.int64))


def test_single_object_corpus_all_df_one():
    corpus = build_corpus_stats([trace_of("a", [1, 2, 3])])
    assert corpus.n_objects == 1
    assert corpus.vocab.tolist() == [1, 2, 3]
    assert corpus.df.tolist() == [1, 1, 1]
    assert corpus.idf.tolist() == [1.0, 1.0, 1.0]


def test_doc_freq_counts_objects_not_visits():
    traces = [
        trace_of("a", [5, 5, 5]),
        trace_of("b", [5, 7]),
        trace_of("c", [7]),
        trace_of("d", [9]),
    ]
    corpus = build_corpus_stats(traces)
    assert corpus.vocab.tolist() == [5, 7, 9]
    assert corpus.df.tolist() == [2, 2, 1]


def test_empty_corpus_rejected():
    with pytest.raises(EmptyTraceError):
        build_corpus_stats([])
    with pytest.raises(EmptyTraceError):
        build_corpus_stats([Trace("a", []), Trace("b", [])])


def test_empty_traces_excluded_and_not_counted():
    anchors = _square_anchors()
    traces = [Trace("e", []), trace_of("a", [0, 1, 2]), Trace("f", []), trace_of("b", [1, 3])]
    for kind, params in (
        ("spatial", {}),
        ("sequential", {"q": 1}),
        ("sequential", {"q": 2}),
        ("spatiotemporal", {"anchors": anchors, "g": 2, "dt_hours": 6}),
    ):
        sigs, excluded, corpus = tfidf_signatures(traces, kind_corpus(kind, **params))
        assert corpus.n_objects == 2
        assert excluded == ["e", "f"]
        assert set(sigs) == {"a", "b"}


# ---------------------------------------------------------------------------
# Spatial signatures


def test_spatial_signature_hand_computed_tfidf():
    # object visits p1 twice and p2 once; p1 appears in 2 of 4 objects,
    # p2 in all 4, so p2's weight vanishes and p1 normalizes to 1
    corpus = _spatial_corpus(4, [1, 1, 2, 2, 2, 2])
    trace = trace_of("o", [1, 1, 2])
    pre_normalization = (2 / 3) * math.log(4 / 2)
    assert pre_normalization == pytest.approx(0.4621, abs=1e-4)
    signature = build_spatial_signature(trace, corpus)
    assert signature.as_dict() == {1: 1.0}
    assert signature.normalized


def test_anchor_visited_by_every_object_dropped():
    traces = [trace_of("a", [1, 9]), trace_of("b", [2, 9]), trace_of("c", [3, 9])]
    corpus = build_corpus_stats(traces)
    signature = build_spatial_signature(traces[0], corpus)
    assert 9 not in signature.as_dict()


def test_single_object_corpus_single_anchor_normalizes_to_one():
    trace = trace_of("only", [4])
    corpus = build_corpus_stats([trace])
    signature = build_spatial_signature(trace, corpus)
    assert signature.as_dict() == {4: 1.0}


def test_object_with_only_universal_anchors_yields_empty_signature():
    traces = [trace_of("a", [9]), trace_of("b", [9, 5]), trace_of("c", [9, 6])]
    corpus = build_corpus_stats(traces)
    with pytest.raises(EmptySignatureError):
        build_spatial_signature(traces[0], corpus)


def test_anchor_missing_from_stats_dropped():
    # anchor 2 is unseen by the corpus and is dropped before weighting
    corpus = _spatial_corpus(3, [1])
    signature = build_spatial_signature(trace_of("o", [1, 2, 1]), corpus)
    assert signature.as_dict() == {1: 1.0}
    with pytest.raises(EmptySignatureError):
        build_spatial_signature(trace_of("o", [2, 3]), corpus)


def test_empty_trace_rejected():
    with pytest.raises(EmptyTraceError):
        build_spatial_signature(Trace("o", []), _spatial_corpus(2, [1]))


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


def _sequential(traces, q, corpus_traces=None):
    """Sequential signatures of traces by id, over a corpus fitted to
    ``corpus_traces`` (the traces themselves by default), and the excluded
    ids."""
    corpus = kind_corpus("sequential", q=q)
    if corpus_traces is not None:
        corpus = tfidf_signatures(corpus_traces, corpus)[2]
    sigs, excluded, _ = tfidf_signatures(traces, corpus)
    return sigs, excluded


def test_gram_counts_via_single_object_corpus():
    trace = trace_of("o", [10, 20, 10, 20])
    signature = _sequential([trace], 2)[0]["o"]
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
        seq, seq_excluded = _sequential(traces, 1)
        spatial, spatial_excluded, _ = reference_signatures(traces)
        assert seq_excluded == spatial_excluded
        assert seq.keys() == spatial.keys()
        for oid, s in seq.items():
            assert s.kind == "sequential:q=1"
            assert s.dims.tobytes() == spatial[oid].dims.tobytes()
            assert s.weights.tobytes() == spatial[oid].weights.tobytes()


def test_full_length_gram_single_dimension():
    trace = trace_of("o", [3, 1, 4, 1, 5])
    signature = _sequential([trace], 5)[0]["o"]
    assert signature.nnz() == 1
    assert signature.weights[0] == pytest.approx(1.0)


def test_trace_shorter_than_q_rejected():
    trace = trace_of("o", [1, 2])
    sigs, excluded = _sequential([trace], 3, corpus_traces=[trace_of("x", [1, 2, 3])])
    assert sigs == {} and excluded == ["o"]
    # a corpus of traces shorter than q still counts them, and has no grams
    sigs, excluded = _sequential([trace, Trace("e", [])], 3)
    assert sigs == {} and excluded == ["o", "e"]


def test_nonstrict_drops_unknown_grams():
    foreign = trace_of("b", [1, 2, 9])
    sigs, _ = _sequential([foreign], 2, corpus_traces=[trace_of("a", [1, 2, 3])])
    assert sigs["b"].nnz() == 1
    # a trace of unseen grams only is excluded
    sigs, excluded = _sequential([trace_of("c", [9, 2, 1])], 2, [trace_of("a", [1, 2, 3])])
    assert sigs == {} and excluded == ["c"]


def test_grams_stay_inside_one_trace():
    # the run (2, 3) straddles the boundary of a and b and is no gram
    traces = [trace_of("a", [1, 2]), trace_of("b", [3, 1]), trace_of("c", [2, 3])]
    sigs, excluded = _sequential(traces[:2], 2, corpus_traces=traces[:2])
    assert set(sigs) == {"a", "b"}
    assert _sequential(traces[2:], 2, corpus_traces=traces[:2]) == ({}, ["c"])


# ---------------------------------------------------------------------------
# Temporal histograms


def _trace_at_hours(hours, day=1):
    # UTC timestamps with the default +8 offset cancelled out
    base = 1_600_000_000 - (1_600_000_000 % 86400)
    return Trace(
        "o",
        [(i, base + day * 86400 + int(h * 3600) - 8 * 3600) for i, h in enumerate(hours)],
    )


def _histogram(trace, dt):
    return temporal_histograms([trace], dt)[0]


def test_all_points_in_first_bin():
    hist = _histogram(_trace_at_hours([0.5, 0.5, 0.5]), 1)
    assert hist[0] == 1.0
    assert hist[1:].sum() == 0.0


def test_two_bin_histogram_split():
    hist = _histogram(_trace_at_hours([1.5, 1.5, 13.5, 13.5]), 12)
    assert hist.tolist() == [0.5, 0.5]


def test_boundary_point_falls_in_second_bin():
    hist = _histogram(_trace_at_hours([12.0]), 12)
    assert hist.tolist() == [0.0, 1.0]


def test_dt_must_divide_24():
    with pytest.raises(ValueError):
        _histogram(_trace_at_hours([1.0]), 5)


def test_histogram_l1_normalized():
    rng = np.random.default_rng(1)
    hours = rng.uniform(0, 24, 50).tolist()
    hist = _histogram(_trace_at_hours(hours), 2)
    assert abs(hist.sum() - 1.0) < 1e-9


def test_empty_trace_has_no_histogram():
    hist = _histogram(Trace("o", []), 6)
    assert hist.tolist() == [0.0] * 4
    with pytest.raises(ValueError, match="EMD needs both histograms L1-normalized"):
        emd(hist, _histogram(_trace_at_hours([1.0]), 6), 6)


def _per_point_histogram(trace, dt, utc_offset_hours):
    """One trace's histogram filled point by point: the oracle of the
    batched one."""
    bins = np.zeros(24 // dt)
    for _, t in trace.points:
        bins[time_bin(t, dt, utc_offset_hours)] += 1
    return bins / bins.sum()


@settings(max_examples=60, deadline=None)
@given(
    stamps=st.lists(
        st.lists(st.integers(-(2**40), 2**40), max_size=30), min_size=0, max_size=8
    ),
    dt=st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]),
    utc_offset_hours=st.integers(-12, 14),
)
def test_temporal_histograms_bytes_equal_per_point_loop(stamps, dt, utc_offset_hours):
    traces = [Trace(f"o{i}", [(0, t) for t in ts]) for i, ts in enumerate(stamps)]
    got = temporal_histograms(traces, dt, utc_offset_hours)
    assert got.shape == (len(traces), 24 // dt)
    for trace, row in zip(traces, got):
        if not trace.points:
            assert not row.any()
            continue
        assert row.tobytes() == _per_point_histogram(trace, dt, utc_offset_hours).tobytes()


def test_time_bin_uses_local_offset():
    t = 1_600_000_000 - (1_600_000_000 % 86400)  # UTC midnight
    assert time_bin(t, 1, utc_offset_hours=0) == 0
    assert time_bin(t, 1, utc_offset_hours=8) == 8


# ---------------------------------------------------------------------------
# Spatiotemporal signatures


def _square_anchors():
    return AnchorSet([0.0, 0.9, 0.0, 0.9], [0.0, 0.0, 0.9, 0.9])


def _spatiotemporal(traces, g, dt_hours=1):
    corpus = kind_corpus("spatiotemporal", anchors=_square_anchors(), g=g, dt_hours=dt_hours)
    return tfidf_signatures(traces, corpus)[0]


def test_single_point_spatiotemporal():
    trace = Trace("o", [(0, 1_600_000_000)])
    signature = _spatiotemporal([trace], 10)["o"]
    assert signature.nnz() == 1
    assert signature.weights[0] == pytest.approx(1.0)


def test_same_cell_different_intervals_distinct_dims():
    trace = Trace("o", [(0, 1_600_000_000), (0, 1_600_000_000 + 6 * 3600)])
    signature = _spatiotemporal([trace], 10)["o"]
    assert signature.nnz() == 2


@pytest.mark.parametrize("g", [100, 200, 300])
def test_common_grid_resolutions_accepted(g):
    trace = Trace("o", [(0, 1_600_000_000), (3, 1_600_050_000)])
    signature = _spatiotemporal([trace], g)["o"]
    assert signature.nnz() == 2


def test_grid_cells_cover_bbox_corners():
    cells = grid_cells(_square_anchors(), 7)
    assert cells[0] == 0
    # the north-east corner lies on the max edge and is clamped into the grid
    assert cells[3] == 7 * 7 - 1
    assert cells.tolist() == [0, 6, 42, 48]


def test_grid_cells_of_a_flat_anchor_set():
    anchors = AnchorSet([0.0, 0.5, 1.0], [2.0, 2.0, 2.0])
    assert grid_cells(anchors, 4).tolist() == [0, 2, 3]
    with pytest.raises(ValueError):
        grid_cells(anchors, 0)


def test_spatiotemporal_dims_are_cell_times_interval():
    # UTC midnight is 08:00 local; dt=6 gives interval 1 of 4
    t = 1_600_000_000 - (1_600_000_000 % 86400)
    corpus = kind_corpus("spatiotemporal", anchors=_square_anchors(), g=2, dt_hours=6)
    sigs, _, corpus = tfidf_signatures([Trace("o", [(3, t), (0, t + 12 * 3600)])], corpus)
    assert corpus.kind == "spatiotemporal:g=2,dt=6"
    assert sigs["o"].dims.tolist() == [0 * 4 + 3, 3 * 4 + 1]


# ---------------------------------------------------------------------------
# Signature file format


def test_signature_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    entries = [(f"o{i}", random_signature(rng, 8)) for i in range(5)]
    path = tmp_path / "sigs.jsonl"
    write_signatures_jsonl(path, dict(entries))
    back = read_signatures_jsonl(path)
    assert list(back) == [oid for oid, _ in entries]
    for (_, orig), loaded in zip(entries, back.values()):
        assert np.array_equal(orig.dims, loaded.dims)
        assert np.array_equal(orig.weights, loaded.weights)  # full-precision floats
        assert orig.kind == loaded.kind


def test_signature_table_jsonl_round_trip_is_byte_identical(tmp_path):
    traces = [trace_of(f"o{i}", [i % 5, 5 + i % 3, 9, 10 + i]) for i in range(9, -1, -1)]
    sigs = tfidf_signatures(traces, kind_corpus("spatial"))[0]
    for name, table in (("full", sigs), ("cut", cut_table(sigs, 2))):
        first, second = tmp_path / f"{name}1.jsonl", tmp_path / f"{name}2.jsonl"
        write_signatures_jsonl(first, table)
        back = read_signatures_jsonl(first)
        write_signatures_jsonl(second, back)
        assert second.read_bytes() == first.read_bytes()
        # the table keeps trace order; the file lists ids in ascending order
        assert (back.kind, list(back)) == (table.kind, sorted(table))
        for oid, sig in table.items():
            assert (back[oid].dims.tobytes(), back[oid].weights.tobytes()) \
                == (sig.dims.tobytes(), sig.weights.tobytes())
        for line in first.read_text().splitlines():
            assert list(json.loads(line)) == ["object_id", "kind", "normalized", "sig"]
    assert list(sigs) == [f"o{i}" for i in range(9, -1, -1)]


def test_records_with_the_older_reduced_m_key_read_the_same(tmp_path):
    # older files carry the key on every record, just before its sig
    traces = [trace_of(f"o{i}", [i % 5, 5 + i % 3, 9, 10 + i]) for i in range(6)]
    table = cut_table(tfidf_signatures(traces, kind_corpus("spatial"))[0], 2)
    new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
    write_signatures_jsonl(new, table)
    records = [json.loads(line) for line in new.read_text().splitlines()]
    old.write_text("".join(
        json.dumps({**r, "reduced_m": [None, 2, 7][i % 3], "sig": r["sig"]}) + "\n"
        for i, r in enumerate(records)))
    a, b = read_signatures_jsonl(new), read_signatures_jsonl(old)
    assert (a.kind, a.ids, a.indptr.tobytes(), a.dims.tobytes(), a.weights.tobytes()) == (
        b.kind, b.ids, b.indptr.tobytes(), b.dims.tobytes(), b.weights.tobytes())


@pytest.mark.parametrize("text,line", [("", 1), ("\n", 1), ("\n  \n\n", 3)])
def test_signature_file_with_no_record_is_refused_at_its_last_line(tmp_path, text, line):
    path = tmp_path / "empty.jsonl"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: no signature record$"):
        read_signatures_jsonl(path)


def test_signature_file_whose_last_record_has_no_line_break_is_refused(tmp_path):
    records = [{"object_id": oid, "kind": "spatial", "normalized": True, "sig": [[d, 1.0]]}
               for d, oid in enumerate("ab")]
    raw = "".join(json.dumps(r) + "\n" for r in records).encode()
    path = tmp_path / "sigs.jsonl"
    cut = raw.index(b"\n")
    # a cut just before a line break leaves whole records; b would be lost
    for case, line in ((raw[:cut], 1), (raw[:-1], 2)):
        path.write_bytes(case)
        rule = f"{path}:{line}: the last record has no line break; is the file truncated?"
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
            read_signatures_jsonl(path)
    # a cut just after one still reads as a shorter set: no record count is kept
    path.write_bytes(raw[: cut + 1])
    assert list(read_signatures_jsonl(path)) == ["a"]
    for newline in (b"\r\n", b"\r"):
        path.write_bytes(raw.replace(b"\n", newline))
        assert list(read_signatures_jsonl(path)) == ["a", "b"]


@pytest.mark.parametrize("scale,refused", [(1.0 + 6e-10, False), (1.0 + 2e-9, True)])
def test_signature_record_near_the_norm_tolerance(tmp_path, scale, refused):
    # a norm off by less than NORM_TOL reads as written; one off by more is
    # refused, naming the line
    weights = [0.6 * scale, 0.8 * scale]
    path = tmp_path / "sigs.jsonl"
    path.write_text(json.dumps({"object_id": "a", "kind": "spatial", "normalized": True,
                                "sig": [[0, weights[0]], [2, weights[1]]]}) + "\n")
    if refused:
        rule = f"{path}:1: marked normalized but its norm is 1.00000000"
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}"):
            read_signatures_jsonl(path)
    else:
        assert read_signatures_jsonl(path)["a"].weights.tolist() == weights


# ---------------------------------------------------------------------------
# Batched TF-IDF: bit-identical to weighting each object alone


def _expected_weights(counts, n, df):
    """One object's TF-IDF weights by the definition: (c / total) * idf over
    the dimensions the corpus has seen, then divided by the L2 norm; ``n``
    and ``df`` are the corpus's object count and dimension -> document
    frequency map."""
    total = sum(c for d, c in counts.items() if d in df)
    idf = {d: 1.0 if n == 1 else math.log(n / df[d]) for d in counts if d in df}
    dims = sorted(d for d in idf if idf[d] > 0.0)
    if not dims:
        return None
    freq = np.array([counts[d] for d in dims], dtype=float)
    weights = freq / total * np.array([idf[d] for d in dims])
    weights /= np.linalg.norm(weights)
    return np.array(dims, dtype=np.int64), weights


_TFIDF_ANCHORS = AnchorSet(np.linspace(0.0, 1.0, 60), np.linspace(0.0, 1.0, 60) ** 2)

# the kinds the property test draws: (corpus that is not fitted, q or None)
_TFIDF_KINDS = {
    "spatial": (kind_corpus("spatial"), None),
    **{f"sequential{q}": (kind_corpus("sequential", q=q), q) for q in (1, 2, 3)},
    "spatiotemporal": (
        kind_corpus("spatiotemporal", anchors=_TFIDF_ANCHORS, g=3, dt_hours=6),
        None,
    ),
}


def _oracle_occurrences(kind, corpus_traces, traces, anchors):
    """Object count, dimension -> document frequency map and per-trace
    dimension occurrences of one TF-IDF kind, object by object in plain
    Python: grams through a sorted vocabulary
    (q=1 keeps the anchor id), grid cells through each anchor's
    coordinates (3 x 3 grid, clamped at the max edge) times 6-hour local
    intervals. Grams outside the vocabulary are dropped as unseen."""
    q = _TFIDF_KINDS[kind][1]
    if kind == "spatiotemporal":
        lons, lats = anchors.lons.tolist(), anchors.lats.tolist()

        def index(v, lo, hi):
            return 0 if hi == lo else min(max(int((v - lo) / (hi - lo) * 3), 0), 2)

        def cell(a):
            return index(lats[a], min(lats), max(lats)) * 3 + index(lons[a], min(lons), max(lons))

        def occurrences(trace):
            return [cell(a) * 4 + (t + 8 * 3600) % 86400 // (6 * 3600) for a, t in trace.points]

    elif q is None:

        def occurrences(trace):
            return [a for a, _ in trace.points]

    else:

        def grams(trace):
            ids = [a for a, _ in trace.points]
            return [tuple(ids[i : i + q]) for i in range(len(ids) - q + 1)]

        vocab = sorted({g for t in corpus_traces for g in grams(t)})
        gram_id = {g: g[0] if q == 1 else i for i, g in enumerate(vocab)}

        def occurrences(trace):
            return [gram_id[g] for g in grams(trace) if g in gram_id]

    usable = [t for t in corpus_traces if t.points]
    df = Counter(d for t in usable for d in set(occurrences(t)))
    return len(usable), dict(df), [occurrences(t) for t in traces]


@st.composite
def _tfidf_corpora(draw):
    """Traces over anchors 0..59, the first few of them the corpus; any may
    be empty or shorter than a gram. With ``universal`` set every non-empty
    trace visits anchor 0, a corpus-wide dimension; traces outside the
    corpus bring unseen dimensions. Anchor 59 lies on the grid's max edge."""
    n_traces = draw(st.integers(1, 7))
    n_corpus = draw(st.integers(1, n_traces))
    universal = draw(st.booleans())
    traces = []
    for i in range(n_traces):
        ids = draw(st.lists(st.integers(0, 59), max_size=90))
        if universal and ids:
            ids.append(0)
        hours = draw(st.lists(st.integers(0, 200), min_size=len(ids), max_size=len(ids)))
        t = 1_600_000_000 + 3600 * np.cumsum(hours)
        traces.append(Trace(f"o{i}", list(zip(ids, t.tolist()))))
    return traces[:n_corpus], traces


@settings(max_examples=40, deadline=None)
@given(
    corpora=_tfidf_corpora(),
    kind=st.sampled_from(
        ["spatial", "sequential1", "sequential2", "sequential3", "spatiotemporal"]
    ),
)
def test_table_bit_identical_to_per_object_weights(corpora, kind):
    corpus_traces, traces = corpora
    unfitted = _TFIDF_KINDS[kind][0]
    if not any(t.points for t in corpus_traces):
        with pytest.raises(EmptyTraceError):
            tfidf_signatures(corpus_traces, unfitted)
        return
    corpus = tfidf_signatures(corpus_traces, unfitted)[2]
    n, df, occurrences = _oracle_occurrences(kind, corpus_traces, traces, _TFIDF_ANCHORS)
    assert corpus.n_objects == n
    assert dict(zip(corpus.vocab.tolist(), corpus.df.tolist())) == df
    oracle = unfitted.fit(n, np.repeat(list(df), list(df.values())).astype(np.int64))
    sigs, excluded, _ = tfidf_signatures(traces, corpus)
    rows = np.repeat(np.arange(len(traces)), [len(o) for o in occurrences])
    dims = np.array([d for o in occurrences for d in o], dtype=np.int64)
    pair_rows, pair_dims, counts = pair_counts(rows, dims)
    ids = [t.object_id for t in traces]
    weighted = tfidf_weights(pair_rows, pair_dims, counts, oracle, len(ids))
    batched, batched_excluded = SignatureTable.from_rows(oracle.kind, ids, *weighted)
    assert batched_excluded == excluded
    assert list(batched) == [oid for oid in ids if oid not in excluded]
    for trace, occ in zip(traces, occurrences):
        want = _expected_weights(Counter(occ), n, df)
        if want is None:
            assert trace.object_id in excluded
            assert trace.object_id not in sigs and trace.object_id not in batched
            continue
        for sig in (batched[trace.object_id], sigs[trace.object_id]):
            assert sig.kind == corpus.kind and sig.normalized
            assert np.array_equal(sig.dims, want[0])
            assert sig.weights.tobytes() == want[1].tobytes()


def test_table_from_rows_repeated_id_keeps_last_row_and_lists_each_empty_row():
    # rows 0..4 hold ids a, b, a, b, c; rows 1 and 4 have nothing left, and
    # dim 0 is in every row that has any dimension, so it weighs nothing
    corpus = _spatial_corpus(3, [0, 1, 0, 2, 0, 3])
    rows = np.array([0, 0, 1, 2, 2, 3, 3, 4])
    dims = np.array([0, 1, 0, 0, 2, 0, 3, 0])
    weighted = tfidf_weights(rows, dims, np.ones(8), corpus, 5)
    sigs, excluded = SignatureTable.from_rows(KIND_SPATIAL, ["a", "b", "a", "b", "c"], *weighted)
    assert excluded == ["b", "c"]
    assert list(sigs) == ["a", "b"]
    assert sigs["a"].dims.tolist() == [2] and sigs["b"].dims.tolist() == [3]


@settings(max_examples=80, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(0, 6), st.integers(-2, 40)), max_size=60),
    huge=st.sampled_from([None, 2**62 - 1, 2**63 - 1]),
)
def test_pair_counts_keyed_directly_or_by_rank_count_every_pair(points, huge):
    # dim 40 becomes ``huge``; a negative dim, or a huge one over more than
    # one row, overflows the direct key and takes the ranked one
    points = [(r, huge if d == 40 and huge is not None else d) for r, d in points]
    rows = np.array([r for r, _ in points], dtype=np.int64)
    dims = np.array([d for _, d in points], dtype=np.int64)
    got_rows, got_dims, counts = pair_counts(rows, dims)
    assert got_rows.dtype == got_dims.dtype == np.int64
    got = list(zip(got_rows.tolist(), got_dims.tolist(), counts.tolist()))
    assert got == [(r, d, c) for (r, d), c in sorted(Counter(points).items())]


def test_pair_counts_direct_and_ranked_keys_agree_on_the_largest_anchor_id():
    huge = 2**62 - 1
    one_row = pair_counts(np.array([0, 0, 0]), np.array([huge, 3, huge]))  # direct
    two_rows = pair_counts(np.array([0, 0, 0, 1]), np.array([huge, 3, huge, 5]))  # ranked
    for got, want in [(one_row, [(0, 3, 1), (0, huge, 2)]),
                      (two_rows, [(0, 3, 1), (0, huge, 2), (1, 5, 1)])]:
        assert list(zip(*(a.tolist() for a in got))) == want
