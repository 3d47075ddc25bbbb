import math
import os
import re
import subprocess
import sys
import warnings
from datetime import date, datetime, timedelta, timezone
from itertools import compress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siglink
from siglink.errors import EmptyTraceError
from siglink.signatures import SignatureTable, temporal_histograms
from siglink.traces import (
    _NEAREST_POOL,
    AnchorSet,
    RawPoint,
    SplitStrategy,
    Trace,
    TraceTable,
    calibrate_trace,
    filter_min_points,
    haversine_m,
    local_date,
    nearest_anchors,
    read_anchor_csv,
    read_raw_csv,
    read_trace_csv,
    _query_dates,
    query_days,
    split_dataset,
    write_anchor_csv,
    write_raw_csv,
    write_trace_csv,
)

from testkit import trace_of

TZ8 = timezone(timedelta(hours=8))


def ts(year, month, day, hour=12, minute=0):
    return int(datetime(year, month, day, hour, minute, tzinfo=TZ8).timestamp())


# ---------------------------------------------------------------------------
# Calibration


def test_consecutive_duplicates_collapse_keeping_earliest(anchors100):
    raw = [RawPoint(7.1, 0.0, 30), RawPoint(6.9, 0.0, 10), RawPoint(7.0, 0.0, 20)]
    trace = calibrate_trace("o", raw, anchors100)
    assert trace.points == [(7, 10)]


def test_alternating_anchors_preserved(anchors100):
    raw = [
        RawPoint(7.0, 0.0, 10),
        RawPoint(9.0, 0.0, 20),
        RawPoint(7.1, 0.0, 30),
        RawPoint(8.9, 0.0, 40),
    ]
    trace = calibrate_trace("o", raw, anchors100)
    assert [a for a, _ in trace.points] == [7, 9, 7, 9]


def test_coincident_anchors_tie_breaks_to_lower_id(anchors100):
    anchors = AnchorSet([4.0, 4.0], [1.0, 1.0])
    assert nearest_anchors(anchors, [4.0], [1.0])[0] == 0


def test_unsorted_raw_points_are_sorted_first(anchors100):
    raw = [RawPoint(9.0, 0.0, 50), RawPoint(2.0, 0.0, 10)]
    trace = calibrate_trace("o", raw, anchors100)
    assert trace.points == [(2, 10), (9, 50)]


def test_empty_raw_raises(anchors100):
    with pytest.raises(EmptyTraceError):
        calibrate_trace("o", [], anchors100)


@pytest.mark.parametrize(
    "fixes, index, problem",
    [
        ([(math.nan, 0.0, 1), (0.1, 0.0, 2)], 0, "non-finite coordinate: lon nan, lat 0.0"),
        ([(0.1, 0.0, 1), (math.inf, 0.0, 2)], 1, "non-finite coordinate: lon inf, lat 0.0"),
        ([(0.1, 0.0, 1), (0.2, -math.inf, 2)], 1, "non-finite coordinate: lon 0.2, lat -inf"),
        # the index is the fix's place in the input, before the time sort
        ([(0.1, 0.0, 9), (116.399, 219.902, 5), (-180.5, 0.0, 1)], 1,
         "coordinate outside WGS84: lon 116.399, lat 219.902"),
        ([(0.1, 0.0, 1), (-180.5, 0.0, 2)], 1, "coordinate outside WGS84: lon -180.5, lat 0.0"),
    ],
)
def test_calibrate_trace_refuses_a_fix_outside_wgs84_naming_object_and_fix(
    anchors100, fixes, index, problem
):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any numpy warning
        with pytest.raises(ValueError, match=re.escape(f"object 'o': fix {index} has a {problem}")):
            calibrate_trace("o", fixes, anchors100)


def test_calibrate_trace_takes_the_wgs84_edges():
    anchors = AnchorSet([-180.0, 180.0, 0.0, 0.0], [0.0, 0.0, -90.0, 90.0])
    raw = [(-180.0, 0.0, 1), (0.0, -90.0, 2), (0.0, 90.0, 3), (180.0, 0.1, 4)]
    # 180 and -180 are one meridian: the fix at 180 snaps to anchor 0, the lower id
    assert calibrate_trace("o", raw, anchors).points == [(0, 1), (2, 2), (3, 3), (0, 4)]


def test_nearest_anchor_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    anchors = AnchorSet(rng.uniform(116, 117, 300), rng.uniform(39.5, 40.5, 300))
    lons = rng.uniform(116, 117, 200)
    lats = rng.uniform(39.5, 40.5, 200)
    got = nearest_anchors(anchors, lons, lats)
    for i in range(len(lons)):
        dists = haversine_m(lons[i], lats[i], anchors.lons, anchors.lats)
        assert got[i] == int(np.argmin(dists))


def _oracle_nearest(anchors, lons, lats):
    """Haversine distance to every anchor; lowest id within the tie tolerance."""
    out = []
    for lon, lat in zip(lons, lats):
        dists = haversine_m(lon, lat, anchors.lons, anchors.lats)
        dmin = dists.min()
        out.append(int(np.flatnonzero(dists <= dmin + 1e-9 * max(dmin, 1.0))[0]))
    return out


def _probe_points(anchors, extra_lons, extra_lats):
    """Every anchor, the midpoint of every pair of anchors, and extra points."""
    lons, lats = list(anchors.lons), list(anchors.lats)
    n = len(anchors)
    for i in range(n):
        for j in range(i + 1, n):
            lons.append((anchors.lons[i] + anchors.lons[j]) / 2)
            lats.append((anchors.lats[i] + anchors.lats[j]) / 2)
    return lons + list(extra_lons), lats + list(extra_lats)


# Grid values in degrees: coarse enough that midpoints and coincident anchors
# give exact ties.
_GRID = st.integers(min_value=-4, max_value=4).map(lambda v: 116.0 + 0.25 * v)


@settings(max_examples=60, deadline=None)
@given(
    cells=st.lists(st.tuples(_GRID, _GRID), min_size=1, max_size=12),
    stack=st.tuples(_GRID, _GRID),
    copies=st.integers(min_value=0, max_value=5 * _NEAREST_POOL),
    extra=st.lists(st.tuples(_GRID, _GRID), max_size=5),
    data=st.data(),
)
def test_nearest_anchor_ties_match_bruteforce_oracle(cells, stack, copies, extra, data):
    # up to 5x the first re-ranking pool of coincident anchors, at shuffled
    # ids, so a point on the stack is tied with more anchors than the pool
    # holds; lists may also repeat a cell and may hold a single anchor
    cells = data.draw(st.permutations(cells + [stack] * copies))
    anchors = AnchorSet([c[0] for c in cells], [c[1] - 76.0 for c in cells])
    lons, lats = _probe_points(anchors, [e[0] for e in extra], [e[1] - 76.0 for e in extra])
    got = nearest_anchors(anchors, lons, lats)
    assert got.tolist() == _oracle_nearest(anchors, lons, lats)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=120),
)
def test_nearest_anchor_screen_matches_bruteforce_oracle(seed, n):
    # many anchors, so most points take the two-neighbour screen; a few
    # anchors are duplicated to put coincident pairs next to the screen
    rng = np.random.default_rng(seed)
    lons = rng.uniform(116.0, 116.2, n)
    lats = rng.uniform(39.9, 40.1, n)
    dup = rng.choice(n, size=min(n, 3), replace=False)
    anchors = AnchorSet(np.append(lons, lons[dup]), np.append(lats, lats[dup]))
    picks = rng.choice(len(anchors), size=min(len(anchors), 12), replace=False)
    sub = AnchorSet(anchors.lons[picks], anchors.lats[picks])
    probe_lons, probe_lats = _probe_points(
        sub, rng.uniform(116.0, 116.2, 40), rng.uniform(39.9, 40.1, 40)
    )
    got = nearest_anchors(anchors, probe_lons, probe_lats)
    assert got.tolist() == _oracle_nearest(anchors, probe_lons, probe_lats)


def _reference_nearest(anchors, lon, lat):
    """Plain-Python nearest anchor: haversine distance to every anchor,
    lowest id within the tie tolerance of ``nearest_anchors``."""
    dists = []
    for a_lon, a_lat in zip(anchors.lons.tolist(), anchors.lats.tolist()):
        p1, p2 = math.radians(lat), math.radians(a_lat)
        h = (math.sin((p2 - p1) / 2) ** 2
             + math.cos(p1) * math.cos(p2) * math.sin(math.radians(a_lon - lon) / 2) ** 2)
        dists.append(6_371_000.0 * 2 * math.asin(math.sqrt(min(max(h, 0.0), 1.0))))
    dmin = min(dists)
    return next(i for i, d in enumerate(dists) if d <= dmin + 1e-9 * max(dmin, 1.0))


@settings(max_examples=80, deadline=None)
@given(
    cells=st.lists(st.tuples(_GRID, _GRID), min_size=1, max_size=8),
    fixes=st.lists(st.tuples(_GRID, _GRID, st.integers(0, 4)), min_size=1, max_size=25),
)
def test_calibrate_trace_matches_plain_python_reference(cells, fixes):
    # grid points give exact ties between anchors, and five distinct
    # timestamps make equal ones common
    anchors = AnchorSet([c[0] for c in cells], [c[1] - 76.0 for c in cells])
    raw = [RawPoint(lon, lat - 76.0, 1_600_000_000 + 60 * t) for lon, lat, t in fixes]
    expect = []
    for p in sorted(raw, key=lambda p: p.t):  # sorted() is stable
        nearest = _reference_nearest(anchors, p.lon, p.lat)
        if not expect or expect[-1][0] != nearest:
            expect.append((nearest, p.t))
    trace = calibrate_trace("o", raw, anchors)
    assert trace == Trace("o", expect)
    assert trace.points == expect
    assert trace.anchor_ids.dtype == trace.t.dtype == np.int64


def test_raw_point_is_its_plain_tuple():
    p = RawPoint(116.25, 39.5, 1_600_000_000)
    assert p == (116.25, 39.5, 1_600_000_000) and hash(p) == hash((116.25, 39.5, 1_600_000_000))
    assert {p, (116.25, 39.5, 1_600_000_000)} == {p}
    lon, lat, t = p
    assert (lon, lat, t) == (p.lon, p.lat, p.t) == (116.25, 39.5, 1_600_000_000)
    assert repr(p) == "RawPoint(lon=116.25, lat=39.5, t=1600000000)"
    assert p != RawPoint(116.25, 39.5, 1_600_000_001)
    with pytest.raises(AttributeError):
        p.t = 0


def test_stable_time_sort_keeps_input_order_of_equal_timestamps(anchors100):
    raw = [RawPoint(5.0, 0.0, 20), RawPoint(3.0, 0.0, 10), RawPoint(4.0, 0.0, 10)]
    trace = calibrate_trace("o", raw, anchors100)
    assert trace.points == [(3, 10), (4, 10), (5, 20)]


def test_calibration_is_idempotent_on_anchor_points():
    rng = np.random.default_rng(5)
    anchors = AnchorSet(rng.uniform(0, 1, 80), rng.uniform(0, 1, 80))
    visited = rng.choice(80, size=30, replace=True)
    visited = [int(v) for i, v in enumerate(visited) if i == 0 or v != visited[i - 1]]
    raw = [
        RawPoint(float(anchors.lons[a]), float(anchors.lats[a]), 100 + 10 * i)
        for i, a in enumerate(visited)
    ]
    trace = calibrate_trace("o", raw, anchors)
    assert [a for a, _ in trace.points] == visited


# ---------------------------------------------------------------------------
# Filtering


def test_filter_min_points_zero_keeps_everything():
    traces = [trace_of("a", range(3)), trace_of("b", range(5))]
    assert filter_min_points(traces, 0) == traces


def test_filter_min_points_boundary_inclusive():
    traces = [
        trace_of("a", range(10)),
        trace_of("b", range(5)),
        trace_of("c", range(20)),
    ]
    kept = filter_min_points(traces, 10)
    assert [t.object_id for t in kept] == ["a", "c"]


def test_filter_min_points_negative_rejected():
    with pytest.raises(ValueError):
        filter_min_points([], -1)


# ---------------------------------------------------------------------------
# The trace type


def test_trace_of_pairs_equals_trace_of_columns():
    pairs = [(3, 10), (1, 20), (3, 20)]
    ids, t = np.array([3, 1, 3], dtype=np.int64), np.array([10, 20, 20], dtype=np.int64)
    trace = Trace.of("o", ids, t)
    assert trace.anchor_ids is ids and trace.t is t  # held, not copied
    assert Trace("o", pairs) == trace and Trace("o", iter(pairs)) == trace
    assert len(trace) == 3 and trace.points == pairs
    assert Trace("o", pairs).anchor_ids.dtype == Trace("o", pairs).t.dtype == np.int64
    assert trace != Trace("p", pairs)
    assert trace != Trace("o", pairs[:2])
    assert trace != Trace("o", [(3, 10), (1, 20), (3, 21)])
    assert trace != Trace("o", [(3, 10), (2, 20), (3, 20)])
    assert trace != pairs and trace != "o"
    assert repr(trace) == "Trace(object_id='o', points=[(3, 10), (1, 20), (3, 20)])"


def test_trace_points_round_trip_and_assignment():
    trace = trace_of("o", [4, 2, 4])
    assert Trace("o", trace.points) == trace
    assert all(type(a) is int and type(t) is int for a, t in trace.points)
    trace.points = [p for p in trace.points if p[0] != 2]
    assert trace.anchor_ids.tolist() == [4, 4] and trace.t.tolist() == [1_600_000_000, 1_600_000_120]
    trace.points = []
    assert len(trace) == 0 and trace == Trace("o", [])


def test_empty_trace():
    empty = Trace("e", [])
    assert len(empty) == 0 and empty.points == []
    assert empty.anchor_ids.shape == empty.t.shape == (0,)
    assert empty.anchor_ids.dtype == empty.t.dtype == np.int64
    assert empty == Trace.of("e", np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    table = TraceTable.of([empty, trace_of("a", [1]), Trace("f", [])])
    assert table.rows().tolist() == [1] and table.anchor_ids.tolist() == [1] and len(table.t) == 1
    assert split_dataset([empty], SplitStrategy.interleaved()).flagged == ["e"]


def test_lists_of_traces_compare_by_value():
    traces = [trace_of("a", [1, 2]), Trace("e", []), trace_of("b", [5])]
    copies = [Trace(t.object_id, t.points) for t in traces]
    assert traces == copies and not traces != copies
    assert (traces, 1) == (copies, 1)
    assert traces != copies[::-1] and traces != copies[:2]
    with pytest.raises(TypeError):
        hash(traces[0])


# ---------------------------------------------------------------------------
# Splitting


def _four_day_trace():
    points = []
    for day in (1, 2, 3, 4):
        points.append((day * 10, ts(2021, 3, day, 9)))
        points.append((day * 10 + 1, ts(2021, 3, day, 18)))
    return Trace("o", points)


def test_interleaved_split_odd_days_to_query():
    result = split_dataset([_four_day_trace()], SplitStrategy.interleaved())
    q_days = {local_date(t) for _, t in result.q[0].points}
    d_days = {local_date(t) for _, t in result.d[0].points}
    assert q_days == {date(2021, 3, 1), date(2021, 3, 3)}
    assert d_days == {date(2021, 3, 2), date(2021, 3, 4)}
    assert not result.flagged


def test_serial_split_first_q_days():
    points = [(i, ts(2021, 3, 1 + i, 10)) for i in range(30)]
    result = split_dataset([Trace("o", points)], SplitStrategy.serial(15))
    q_days = sorted({local_date(t) for _, t in result.q[0].points})
    d_days = sorted({local_date(t) for _, t in result.d[0].points})
    assert q_days == [date(2021, 3, 1 + i) for i in range(15)]
    assert d_days == [date(2021, 3, 16 + i) for i in range(15)]


def test_random_split_is_deterministic():
    trace = _four_day_trace()
    first = split_dataset([trace], SplitStrategy.random(2, seed=9))
    second = split_dataset([trace], SplitStrategy.random(2, seed=9))
    assert first.q[0].points == second.q[0].points
    assert first.d[0].points == second.d[0].points


def test_weekday_weekend_split():
    # 2021-03-06 is a Saturday, 2021-03-08 a Monday
    points = [(1, ts(2021, 3, 6, 10)), (2, ts(2021, 3, 8, 10))]
    result = split_dataset([Trace("o", points)], SplitStrategy.weekday_weekend())
    assert result.q[0].points == [(1, ts(2021, 3, 6, 10))]
    assert result.d[0].points == [(2, ts(2021, 3, 8, 10))]


def test_single_day_object_flagged_with_empty_half():
    points = [(1, ts(2021, 3, 1, 9)), (2, ts(2021, 3, 1, 10))]
    result = split_dataset([Trace("solo", points)], SplitStrategy.interleaved())
    assert result.flagged == ["solo"]
    assert result.q[0].points == points
    assert result.d[0].points == []


@settings(max_examples=40, deadline=None)
@given(
    days=st.lists(st.integers(min_value=1, max_value=28), min_size=2, max_size=12),
    strategy_idx=st.integers(min_value=0, max_value=3),
)
def test_split_completeness_and_disjointness(days, strategy_idx):
    strategy = [
        SplitStrategy.interleaved(),
        SplitStrategy.serial(2),
        SplitStrategy.random(2, seed=1),
        SplitStrategy.weekday_weekend(),
    ][strategy_idx]
    points = [(i, ts(2021, 3, d, 8 + i)) for i, d in enumerate(sorted(days))]
    trace = Trace("o", points)
    result = split_dataset([trace], strategy)
    merged = sorted(result.q[0].points + result.d[0].points)
    assert merged == sorted(points)
    q_days = {local_date(t) for _, t in result.q[0].points}
    d_days = {local_date(t) for _, t in result.d[0].points}
    assert not (q_days & d_days)


_EPOCH = date(1970, 1, 1).toordinal()


@settings(max_examples=100, deadline=None)
@given(
    day_lists=st.lists(
        st.lists(st.integers(min_value=-40_000, max_value=40_000), max_size=12, unique=True),
        min_size=1, max_size=5,
    ),
    strategy_idx=st.integers(min_value=0, max_value=3),
    q_days=st.integers(min_value=1, max_value=5),
    subset_seed=st.integers(min_value=0, max_value=2**31),
)
def test_query_days_equals_query_dates(day_lists, strategy_idx, q_days, subset_seed):
    # day numbers since 1970-01-01, negative ones before it; each object's
    # days are tried whole and as a random subset
    strategy = [
        SplitStrategy.interleaved(),
        SplitStrategy.serial(q_days),
        SplitStrategy.random(q_days, seed=subset_seed),
        SplitStrategy.weekday_weekend(),
    ][strategy_idx]
    ids = [f"o{i}" for i in range(len(day_lists))]
    rows = np.array([i for i, ds in enumerate(day_lists) for _ in ds], dtype=np.int64)
    days = np.array([d for ds in day_lists for d in sorted(ds)], dtype=np.int64)
    subset = np.random.default_rng(subset_seed).random(len(days)) < 0.6
    for keep in (np.ones(len(days), dtype=bool), subset):
        got = query_days(ids, rows[keep], days[keep], strategy)
        expect = []
        for i, oid in enumerate(ids):
            dates = [date.fromordinal(_EPOCH + d) for d in days[keep][rows[keep] == i].tolist()]
            to_q = _query_dates(oid, dates, strategy)
            expect += [d in to_q for d in dates]
        assert got.dtype == bool and got.tolist() == expect


def _reference_split(traces, strategy, utc_offset_hours):
    """split_dataset by its definition: one local_date per point."""
    q, d, flagged = [], [], []
    for trace in traces:
        dates = [local_date(t, utc_offset_hours) for _, t in trace.points]
        to_q = _query_dates(trace.object_id, dates, strategy)
        q.append([p for p, day in zip(trace.points, dates) if day in to_q])
        d.append([p for p, day in zip(trace.points, dates) if day not in to_q])
        if not q[-1] or not d[-1]:
            flagged.append(trace.object_id)
    return q, d, flagged


# Instants around which split timestamps cluster: before 1970, the epoch,
# and month, leap-day and year ends.
_SPLIT_BASES = [
    int(datetime(y, m, d, tzinfo=timezone.utc).timestamp())
    for y, m, d in [
        (1965, 7, 1), (1969, 12, 31), (1970, 1, 1), (2020, 2, 29),
        (2021, 3, 1), (2021, 4, 30), (2021, 12, 31), (2022, 1, 1),
    ]
]


@settings(max_examples=80, deadline=None)
@given(
    objects=st.lists(
        st.tuples(
            st.sampled_from(_SPLIT_BASES),
            st.lists(st.integers(min_value=-4 * 86400, max_value=4 * 86400), max_size=25),
        ),
        min_size=1,
        max_size=4,
    ),
    strategy=st.sampled_from(
        [
            SplitStrategy.interleaved(),
            SplitStrategy.serial(2),
            SplitStrategy.random(3, seed=4),
            SplitStrategy.weekday_weekend(),
        ]
    ),
    utc_offset=st.sampled_from([8, 0, -5]),
)
def test_split_matches_per_point_local_date_reference(objects, strategy, utc_offset):
    traces = [
        Trace(f"o{i}", [(j % 7, base + dt) for j, dt in enumerate(sorted(offsets))])
        for i, (base, offsets) in enumerate(objects)
    ]
    result = split_dataset(traces, strategy, utc_offset_hours=utc_offset)
    q, d, flagged = _reference_split(traces, strategy, utc_offset)
    assert [t.points for t in result.q] == q
    assert [t.points for t in result.d] == d
    assert result.flagged == flagged


def _compressed_traces(traces, keep):
    """Each trace with the points ``keep`` keeps, compressed one trace at a
    time: the oracle of ``TraceTable.masked``."""
    keep = keep.tolist()
    out, end = [], 0
    for trace in traces:
        start, end = end, end + len(trace.points)
        out.append(Trace(trace.object_id, list(compress(trace.points, keep[start:end]))))
    return out


@settings(max_examples=80, deadline=None)
@given(lengths=st.lists(st.integers(0, 6), max_size=8), data=st.data())
def test_masked_traces_equal_compress_per_trace(lengths, data):
    traces = [Trace(f"o{i}", [(j, 100 * j) for j in range(n)]) for i, n in enumerate(lengths)]
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=sum(lengths),
                                       max_size=sum(lengths))), dtype=bool)
    got = TraceTable.of(traces).masked(keep)
    assert list(got) == _compressed_traces(traces, keep)
    assert got.ids == [t.object_id for t in traces]


def test_a_table_of_a_table_is_that_table_and_tables_compare_by_value():
    traces = [trace_of("a", [1, 2]), Trace("e", []), trace_of("b", [5])]
    table = TraceTable.of(traces)
    assert TraceTable.of(table) is table
    assert table == TraceTable.of(Trace(t.object_id, t.points) for t in traces)
    assert not table != TraceTable.of(traces)
    assert list(table) == traces and table[2] == traces[2] and table[-3] == traces[0]
    assert table != TraceTable.of(traces[::-1]) and table != TraceTable.of(traces[:2])
    assert table != TraceTable.of([trace_of("a", [1, 3]), Trace("e", []), trace_of("b", [5])])
    assert table != TraceTable(table.ids, np.array([0, 1, 2, 3]), table.anchor_ids, table.t)
    assert table != traces
    with pytest.raises(IndexError):
        table[3]
    with pytest.raises(TypeError):
        hash(table)
    view = table[0]
    view.points = []  # rebinds the view's columns, not the table's
    assert table[0] == traces[0]


@pytest.mark.parametrize("empty_at", [0, 1, 2])
def test_masked_and_the_time_order_check_around_an_empty_trace(empty_at):
    # b starts before a ends: a fall between two traces is no fall
    traces = [trace_of("a", [1, 2, 3]), trace_of("b", [4, 5])]
    traces.insert(empty_at, Trace("e", []))
    keep = np.array([True, False, True, False, True])
    assert list(TraceTable.of(traces).masked(keep)) == _compressed_traces(traces, keep)
    # every object's points fall on one day, so every object is flagged
    flagged = split_dataset(traces, SplitStrategy.interleaved()).flagged
    assert flagged == [t.object_id for t in traces]
    traces[traces.index(trace_of("b", [4, 5]))] = Trace("b", [(4, 70), (5, 60)])
    with pytest.raises(ValueError, match=r"^object 'b': timestamp 60 precedes its previous"):
        split_dataset(traces, SplitStrategy.interleaved())


def test_a_falling_timestamp_is_refused_naming_its_object():
    traces = [trace_of("a", [1, 2]), Trace("b", [(3, 50), (4, 50), (2, 40)]), trace_of("c", [5])]
    message = r"^object 'b': timestamp 40 precedes its previous point's; a trace's points run in"
    with pytest.raises(ValueError, match=message):
        split_dataset(traces, SplitStrategy.interleaved())
    with pytest.raises(ValueError, match=message):
        siglink.signature_closure(traces, AnchorSet([0.0] * 6, [0.0] * 6))


def test_split_strategy_validation():
    with pytest.raises(ValueError):
        SplitStrategy("fancy")
    with pytest.raises(ValueError):
        SplitStrategy.serial(0)


def _with_repeated_id():
    """Twenty synthetic objects, and o00005's points again under the id
    o00000: a set in which an id repeats."""
    traces, anchors = siglink.generate_synthetic(20, 300, 0.08, 60, seed=0)
    return traces + [Trace.of("o00000", traces[5].anchor_ids, traces[5].t)], anchors


# every entry point that takes a trace set, on a set whose last trace
# repeats an id: each once kept that id's last trace, or a row per trace
REPEATED_ID_CALLS = {
    "split_dataset": lambda t, a: split_dataset(t, SplitStrategy.interleaved()),
    "tfidf_signatures": lambda t, a: siglink.tfidf_signatures(t, siglink.kind_corpus()),
    "link_all-queries": lambda t, a: siglink.link_all(t, t[:5], a),
    "link_all-references": lambda t, a: siglink.link_all(t[:5], t, a),
    "signature_closure": lambda t, a: siglink.signature_closure(t, a),
    "temporal_histograms": lambda t, a: temporal_histograms(t, 6),
    "utility_metrics-before": lambda t, a: siglink.utility_metrics(t, t[:-1], a),
    "utility_metrics-after": lambda t, a: siglink.utility_metrics(t[:-1], t, a),
}


@pytest.mark.parametrize("call", REPEATED_ID_CALLS.values(), ids=REPEATED_ID_CALLS)
def test_a_trace_set_with_a_repeated_id_is_refused(call):
    traces, anchors = _with_repeated_id()
    with pytest.raises(ValueError, match=r"^object id 'o00000' repeats an earlier trace's$"):
        call(traces, anchors)


# every entry point that indexes by anchor id, on a trace set whose first
# object names anchor 5 of a 3-anchor set: each once raised IndexError or
# dropped the point as unseen
_ANCHORS3 = AnchorSet([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
_IN_RANGE = [Trace("a", [(0, 1_600_000_000)]), Trace("b", [(1, 1_600_000_000)])]
OUT_OF_RANGE_CALLS = {
    "link_all-queries": lambda t: siglink.link_all(t, _IN_RANGE, _ANCHORS3),
    "link_all-references": lambda t: siglink.link_all(_IN_RANGE, t, _ANCHORS3),
    "signature_closure": lambda t: siglink.signature_closure(t, _ANCHORS3),
    "utility_metrics-before": lambda t: siglink.utility_metrics(t, _IN_RANGE, _ANCHORS3),
    "utility_metrics-after": lambda t: siglink.utility_metrics(_IN_RANGE, t, _ANCHORS3),
    "spatiotemporal": lambda t: siglink.tfidf_signatures(
        t, siglink.kind_corpus("spatiotemporal", anchors=_ANCHORS3, g=2, dt_hours=6)
    ),
}


@pytest.mark.parametrize("call", OUT_OF_RANGE_CALLS.values(), ids=OUT_OF_RANGE_CALLS)
def test_an_anchor_id_outside_the_anchor_set_is_refused(call):
    traces = [Trace("a", [(5, 1_600_000_000)]), Trace("b", [(1, 1_600_000_000)])]
    with pytest.raises(ValueError, match=r"^object 'a' names anchor 5, beyond the 3 anchors$"):
        call(traces)


def test_a_signature_table_with_a_repeated_id_is_refused():
    with pytest.raises(ValueError, match=r"^object id 'a' repeats an earlier row's$"):
        SignatureTable("spatial", ["a", "b", "a"], np.arange(4), np.array([0, 1, 2]),
                       np.ones(3))


def test_day_boundary_respects_utc_offset():
    # 23:30 in UTC+8 on March 1st is already March 2nd in UTC+10
    t = ts(2021, 3, 1, 23, 30)
    assert local_date(t, 8) == date(2021, 3, 1)
    assert local_date(t, 10) == date(2021, 3, 2)


# ---------------------------------------------------------------------------
# File round-trips


def test_csv_round_trips(tmp_path):
    anchors = AnchorSet([0.25, 1.5], [3.125, 4.75])
    apath = tmp_path / "anchors.csv"
    write_anchor_csv(apath, anchors)
    back = read_anchor_csv(apath)
    assert np.array_equal(back.lons, anchors.lons)
    assert np.array_equal(back.lats, anchors.lats)

    raw = {"a": [RawPoint(1.25, 2.5, 100)], "b": [RawPoint(0.5, 0.75, 7)]}
    rpath = tmp_path / "raw.csv"
    write_raw_csv(rpath, raw)
    assert read_raw_csv(rpath) == raw

    traces = [trace_of("a", [1, 2, 1]), trace_of("b", [5])]
    tpath = tmp_path / "traces.csv"
    write_trace_csv(tpath, traces)
    assert read_trace_csv(tpath) == traces


def test_bad_headers_rejected(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("wrong,header\n1,2\n")
    with pytest.raises(ValueError):
        read_raw_csv(path)
    with pytest.raises(ValueError):
        read_anchor_csv(path)
    with pytest.raises(ValueError):
        read_trace_csv(path)


def test_negative_anchor_id_refused(tmp_path):
    # a negative id would alias another anchor once ids become array indexes
    traces = [trace_of("a", [1, 2]), Trace("b", [(0, 10), (-1, 20)])]
    with pytest.raises(ValueError, match="object 'b' has negative anchor id -1"):
        TraceTable.of(traces)
    with pytest.raises(ValueError, match="'b'"):
        split_dataset(traces, SplitStrategy.interleaved())
    path = tmp_path / "traces.csv"
    path.write_text("object_id,anchor_id,timestamp\na,1,10\n\nb,-1,20\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: anchor id -1 is negative")):
        read_trace_csv(path)


def test_trace_rows_must_run_in_time_order_per_object(tmp_path):
    path = tmp_path / "traces.csv"
    # objects may interleave, and a timestamp may repeat
    path.write_text("object_id,anchor_id,timestamp\na,1,10\nb,2,5\na,2,10\nb,1,7\n")
    assert read_trace_csv(path) == [Trace("a", [(1, 10), (2, 10)]), Trace("b", [(2, 5), (1, 7)])]
    path.write_text("object_id,anchor_id,timestamp\na,1,10\nb,2,5\na,2,9\n")
    message = f"{path}:4: timestamp 9 of 'a' precedes its previous row's"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_trace_csv(path)


def test_anchor_ids_must_be_dense(tmp_path):
    # a gap, a duplicate or an id out of file order names the file and line
    path = tmp_path / "anchors.csv"
    for ids, line, bad, due in [
        ((0, 2), 3, 2, 1), ((0, 0), 3, 0, 1), ((1, 0), 2, 1, 0), ((0, 1, 1, 2), 4, 1, 2)
    ]:
        path.write_text("anchor_id,lon,lat\n" + "".join(f"{i},0.5,1.5\n" for i in ids))
        message = f"{path}:{line}: anchor id {bad} where {due} was due"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_anchor_csv(path)


@pytest.mark.parametrize(
    "lons, lats, index",
    [
        ([0.0, math.nan], [0.0, 0.0], 1),
        ([0.0, 1.0, 2.0], [0.0, 0.0, -math.inf], 2),
        ([math.inf, math.nan], [math.nan, 0.0], 0),
    ],
)
def test_anchor_set_refuses_non_finite_coordinates_naming_the_first(lons, lats, index):
    with pytest.raises(ValueError, match=f"^anchor {index} has a non-finite coordinate"):
        AnchorSet(lons, lats)


@pytest.mark.parametrize(
    "lons, lats, index",
    [
        ([116.3, 116.4, 116.3, 116.4], [39.9, 39.9, 40.0, 95.0], 3),
        ([0.0, -180.5], [0.0, 0.0], 1),
        ([0.0, 1.0, 180.0 + 1e-9], [-90.0 - 1e-9, 0.0, 0.0], 0),
        ([0.0, 200.0, 0.0], [0.0, 0.0, math.nan], 1),
    ],
)
def test_anchor_set_refuses_coordinates_outside_wgs84_naming_the_first(lons, lats, index):
    with pytest.raises(ValueError, match=f"^anchor {index} has a coordinate outside WGS84"):
        AnchorSet(lons, lats)


@pytest.mark.parametrize(
    "reader, text, where",
    [
        pytest.param(
            read_anchor_csv,
            "anchor_id,lon,lat\n0,116.30,39.90\n1,116.40,39.90\n2,116.30,40.00\n3,116.40,95.00\n",
            "5: lat: '95.00' is not a finite number in [-90, 90]", id="anchor-lat"),
        pytest.param(
            read_anchor_csv, "anchor_id,lon,lat\n0,-180.5,0\n",
            "2: lon: '-180.5' is not a finite number in [-180, 180]", id="anchor-lon"),
        pytest.param(
            read_raw_csv,
            "object_id,lon,lat,timestamp\na,116.301,39.901,1600000000\n"
            "a,116.399,219.902,1600000600\n",
            "3: lat: '219.902' is not a finite number in [-90, 90]", id="raw-lat"),
        pytest.param(
            read_raw_csv, "object_id,lon,lat,timestamp\na,180.001,0,10\n",
            "2: lon: '180.001' is not a finite number in [-180, 180]", id="raw-lon"),
    ],
)
def test_csv_readers_refuse_coordinates_outside_wgs84(tmp_path, reader, text, where):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{where}")):
        reader(path)


def test_scipy_spatial_loads_only_on_first_calibration():
    # a fresh interpreter: this one may have loaded scipy.spatial already
    probe = Path(__file__).with_name("scipy_spatial_probe.py")
    src = str(Path(siglink.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(probe)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_csv_reader_names_the_line_of_bad_bytes_a_cut_last_row_and_a_huge_field(tmp_path):
    path = tmp_path / "traces.csv"
    head = b"object_id,anchor_id,timestamp\r\n"
    for body, line, problem in [
        (b"a,1,10\r\na,2,2\xff0\r\n", 3, "not UTF-8"),
        (b"a,1,10\ra,2,20\r\n\xe9", 4, "not UTF-8"),
        (b"a,1,10\r\na,2,20", 3, "the last row has no line break; is the file truncated?"),
        (b"a,1,10\r\n\"b\n\",2,20", 4, "the last row has no line break; is the file truncated?"),
        (b"a,1,10\r\n" + b"b" * 200_000 + b",2,20\r\n", 3, "field larger than field limit"),
    ]:
        path.write_bytes(head + body)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {problem}")):
            read_trace_csv(path)
    path.write_bytes(b"object_id,anchor")
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: bad calibrated trace header: ")):
        read_trace_csv(path)
    # a header alone, with or without its line break, and a last row ending
    # in a bare carriage return all read
    for text in (head, head[:-2], head + b"a,1,10\r"):
        path.write_bytes(text)
        assert read_trace_csv(path) == ([Trace("a", [(1, 10)])] if text.endswith(b"10\r") else [])
