from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglink.errors import EmptyTraceError
from siglink.traces import (
    _NEAREST_POOL,
    AnchorSet,
    RawPoint,
    SplitStrategy,
    Trace,
    calibrate_trace,
    filter_min_points,
    haversine_m,
    local_date,
    nearest_anchors,
    read_anchor_csv,
    read_raw_csv,
    read_trace_csv,
    _query_dates,
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


def test_equidistant_point_snaps_to_lower_id_planar():
    # anchors 3 and 5 straddle the query; planar distances are exactly equal
    anchors = AnchorSet([0.0, 1.0, 2.0, 10.0, 3.0, 14.0], [5.0] * 6)
    d3 = abs(10.0 - 12.0)
    d5 = abs(14.0 - 12.0)
    assert d3 == d5
    ids = nearest_anchors(anchors, [12.0], [5.0], metric="planar")
    assert ids[0] == 3


def test_coincident_anchors_tie_breaks_to_lower_id(anchors100):
    anchors = AnchorSet([4.0, 4.0], [1.0, 1.0])
    for metric in ("planar", "haversine"):
        ids = nearest_anchors(anchors, [4.0], [1.0], metric=metric)
        assert ids[0] == 0


def test_unsorted_raw_points_are_sorted_first(anchors100):
    raw = [RawPoint(9.0, 0.0, 50), RawPoint(2.0, 0.0, 10)]
    trace = calibrate_trace("o", raw, anchors100)
    assert trace.points == [(2, 10), (9, 50)]


def test_empty_raw_raises(anchors100):
    with pytest.raises(EmptyTraceError):
        calibrate_trace("o", [], anchors100)


def test_unknown_metric_rejected(anchors100):
    with pytest.raises(ValueError):
        nearest_anchors(anchors100, [1.0], [0.0], metric="manhattan")


def test_nearest_anchor_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    anchors = AnchorSet(rng.uniform(116, 117, 300), rng.uniform(39.5, 40.5, 300))
    lons = rng.uniform(116, 117, 200)
    lats = rng.uniform(39.5, 40.5, 200)
    got = nearest_anchors(anchors, lons, lats, metric="haversine")
    for i in range(len(lons)):
        dists = haversine_m(lons[i], lats[i], anchors.lons, anchors.lats)
        assert got[i] == int(np.argmin(dists))


def _oracle_nearest(anchors, lons, lats, metric):
    """Exact distance to every anchor; lowest id within the tie tolerance."""
    out = []
    for lon, lat in zip(lons, lats):
        if metric == "planar":
            dists = np.hypot(anchors.lons - lon, anchors.lats - lat)
        else:
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
# give exact planar ties.
_GRID = st.integers(min_value=-4, max_value=4).map(lambda v: 116.0 + 0.25 * v)


@settings(max_examples=60, deadline=None)
@given(
    cells=st.lists(st.tuples(_GRID, _GRID), min_size=1, max_size=12),
    stack=st.tuples(_GRID, _GRID),
    copies=st.integers(min_value=0, max_value=5 * _NEAREST_POOL),
    extra=st.lists(st.tuples(_GRID, _GRID), max_size=5),
    metric=st.sampled_from(["planar", "haversine"]),
    data=st.data(),
)
def test_nearest_anchor_ties_match_bruteforce_oracle(cells, stack, copies, extra, metric, data):
    # up to 5x the first re-ranking pool of coincident anchors, at shuffled
    # ids, so a point on the stack is tied with more anchors than the pool
    # holds; lists may also repeat a cell and may hold a single anchor
    cells = data.draw(st.permutations(cells + [stack] * copies))
    anchors = AnchorSet([c[0] for c in cells], [c[1] - 76.0 for c in cells])
    lons, lats = _probe_points(anchors, [e[0] for e in extra], [e[1] - 76.0 for e in extra])
    got = nearest_anchors(anchors, lons, lats, metric=metric)
    assert got.tolist() == _oracle_nearest(anchors, lons, lats, metric)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=120),
    metric=st.sampled_from(["planar", "haversine"]),
)
def test_nearest_anchor_screen_matches_bruteforce_oracle(seed, n, metric):
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
    got = nearest_anchors(anchors, probe_lons, probe_lats, metric=metric)
    assert got.tolist() == _oracle_nearest(anchors, probe_lons, probe_lats, metric)


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
    points = [(i, ts(2021, 3, d, 8 + (i % 10))) for i, d in enumerate(sorted(days))]
    trace = Trace("o", points)
    result = split_dataset([trace], strategy)
    merged = sorted(result.q[0].points + result.d[0].points)
    assert merged == sorted(points)
    q_days = {local_date(t) for _, t in result.q[0].points}
    d_days = {local_date(t) for _, t in result.d[0].points}
    assert not (q_days & d_days)


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
        Trace(f"o{i}", [(j % 7, base + dt) for j, dt in enumerate(offsets)])
        for i, (base, offsets) in enumerate(objects)
    ]
    result = split_dataset(traces, strategy, utc_offset_hours=utc_offset)
    q, d, flagged = _reference_split(traces, strategy, utc_offset)
    assert [t.points for t in result.q] == q
    assert [t.points for t in result.d] == d
    assert result.flagged == flagged


def test_split_strategy_validation():
    with pytest.raises(ValueError):
        SplitStrategy("fancy")
    with pytest.raises(ValueError):
        SplitStrategy.serial(0)


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


def test_anchor_ids_must_be_dense():
    with pytest.raises(ValueError):
        AnchorSet.from_rows([(0, 0.0, 0.0), (2, 1.0, 1.0)])
