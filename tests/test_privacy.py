import math

import numpy as np
import pytest

from siglink.errors import EmptySignatureError
from siglink.linking import (
    accuracy_at_k,
    build_corpus_stats,
    build_spatial_signature,
    link_all,
)
from siglink.privacy import (
    DEFAULT_LARGE_CELL_M,
    DEFAULT_SMALL_CELL_M,
    ClosureReport,
    ClosureRound,
    UtilityMetrics,
    signature_closure,
    utility_metrics,
)
from siglink.reduction import cut_reduce
from siglink.synth import generate_synthetic
from siglink.traces import METERS_PER_DEGREE, AnchorSet, SplitStrategy, Trace, split_dataset

from testkit import mbr_of_ids


def _trace(object_id, anchor_ids):
    return Trace(object_id, [(a, 1_600_000_000 + i * 3600) for i, a in enumerate(anchor_ids)])


def test_unchanged_traces_score_ones():
    anchors = AnchorSet([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
    traces = [_trace("a", [0, 1, 2, 1])]
    metrics = utility_metrics(traces, traces, anchors)
    assert metrics.data_remain == 1.0
    assert metrics.mbr_overlap == 1.0
    assert metrics.grid_coverage_large == 1.0
    assert metrics.grid_coverage_small == 1.0


def test_half_deleted_points_with_no_unique_cells():
    anchors = AnchorSet([0.0, 1.0], [0.0, 1.0])
    before = [_trace("a", [0, 0, 1, 1])]
    after = [_trace("a", [0, 1])]
    metrics = utility_metrics(before, after, anchors)
    assert metrics.data_remain == 0.5
    assert metrics.grid_coverage_large == 1.0
    assert metrics.grid_coverage_small == 1.0
    assert metrics.mbr_overlap == 1.0


def test_emptied_object_scores_zero():
    anchors = AnchorSet([0.0, 1.0], [0.0, 1.0])
    before = [_trace("a", [0, 1])]
    after = [_trace("a", [])]
    metrics = utility_metrics(before, after, anchors)
    assert metrics.data_remain == 0.0
    assert metrics.mbr_overlap == 0.0
    assert metrics.grid_coverage_small == 0.0


def test_degenerate_point_mbr_scores_one_when_contained():
    anchors = AnchorSet([0.25, 0.25], [0.75, 0.75])
    before = [_trace("a", [0, 1, 0])]
    after = [_trace("a", [0])]
    metrics = utility_metrics(before, after, anchors)
    assert metrics.mbr_overlap == 1.0


def test_mismatched_object_sets_rejected():
    anchors = AnchorSet([0.0], [0.0])
    with pytest.raises(ValueError):
        utility_metrics([_trace("a", [0])], [_trace("b", [0])], anchors)


def _closure_corpus(seed, n=120):
    return generate_synthetic(
        n, 2500, 0.05, 400, seed=seed,
        personal_mass=0.10, personal_pool=15, hub_fraction=0.5,
        hub_radius_mult=6.0, hub_exponent=0.0,
    )


def test_removed_sets_disjoint_and_suppression_sound():
    traces, anchors = _closure_corpus(0)
    originals = {t.object_id: list(t.points) for t in traces}
    modified, report = signature_closure(traces, anchors, m=10, rounds=3)
    seen: dict[str, set[int]] = {}
    for round_ in report.rounds:
        for oid, removed in round_.removed.items():
            assert not (set(removed) & seen.get(oid, set())), "anchor removed twice"
            seen.setdefault(oid, set()).update(removed)
    by_id = {t.object_id: t for t in modified}
    for oid, removed in seen.items():
        remaining = {a for a, _ in by_id[oid].points}
        assert not (remaining & removed)
    # inputs were not mutated
    assert all(originals[t.object_id] == t.points for t in traces)


def test_utility_monotone_decay_across_rounds():
    traces, anchors = _closure_corpus(1)
    _, report = signature_closure(traces, anchors, m=10, rounds=3)
    series = [report.rounds[i].utility for i in range(3)]
    for metric in ("data_remain", "mbr_overlap", "grid_coverage_large", "grid_coverage_small"):
        values = [getattr(u, metric) for u in series]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), metric


def test_accuracy_decreases_in_the_mean_over_seeds():
    baselines, r1, r2, r3 = [], [], [], []
    for seed in range(10):
        traces, anchors = _closure_corpus(seed, n=100)
        _, report = signature_closure(traces, anchors, m=10, rounds=3)
        baselines.append(report.baseline_accuracy[1])
        r1.append(report.rounds[0].accuracy[1])
        r2.append(report.rounds[1].accuracy[1])
        r3.append(report.rounds[2].accuracy[1])
    means = [float(np.mean(v)) for v in (baselines, r1, r2, r3)]
    assert means[0] > means[1] > means[2] or means[1] == 0.0
    assert means[3] <= means[1]
    assert means[3] < means[0]


def test_trade_off_accuracy_falls_faster_than_data():
    traces, anchors = _closure_corpus(2)
    _, report = signature_closure(traces, anchors, m=10, rounds=3)
    base = report.baseline_accuracy[1]
    final = report.rounds[-1]
    acc_drop = (base - final.accuracy[1]) / max(base, 1e-9)
    data_drop = 1.0 - final.utility.data_remain
    assert acc_drop > data_drop


def test_tiny_pool_object_can_empty_out_and_is_flagged():
    anchors = AnchorSet([0.0, 0.1, 0.5, 0.9], [0.0, 0.1, 0.5, 0.9])
    days = lambda i: 1_600_000_000 + i * 43_200
    traces = [
        Trace("tiny", [(0, days(0)), (1, days(1)), (0, days(2)), (1, days(3))]),
        Trace("other", [(2, days(0)), (3, days(1)), (2, days(2)), (3, days(3))]),
    ]
    modified, report = signature_closure(traces, anchors, m=10, rounds=1)
    assert set(report.emptied) == {"tiny", "other"}
    assert all(not t.points for t in modified)


def test_parameter_validation():
    traces, anchors = _closure_corpus(3, n=10)
    with pytest.raises(ValueError):
        signature_closure(traces, anchors, m=0)
    with pytest.raises(ValueError):
        signature_closure(traces, anchors, rounds=0)


# ---------------------------------------------------------------------------
# The closure against its object-by-object definition


def _oracle_utility(before, after, anchors):
    """utility_metrics by its definition, one object and one point at a time."""
    all_ids = [a for t in before for a, _ in t.points]
    mean_lat = float(np.mean(anchors.lats[all_ids]))
    origin = (float(anchors.lons[all_ids].min()), float(anchors.lats[all_ids].min()))
    grids = [
        (cell_m / (METERS_PER_DEGREE * max(np.cos(np.radians(mean_lat)), 1e-9)),
         cell_m / METERS_PER_DEGREE)
        for cell_m in (DEFAULT_LARGE_CELL_M, DEFAULT_SMALL_CELL_M)
    ]

    def cells(trace, grid):
        return len({(math.floor((anchors.lons[a] - origin[0]) / grid[0]),
                     math.floor((anchors.lats[a] - origin[1]) / grid[1])) for a, _ in trace.points})

    after_by_id = {t.object_id: t for t in after}
    remain, overlap, large, small = [], [], [], []
    for b in before:
        a = after_by_id[b.object_id]
        if not b.points:
            continue
        remain.append(len(a) / len(b))
        if not a.points:
            for scores in (overlap, large, small):
                scores.append(0.0)
            continue
        b_box = mbr_of_ids([p[0] for p in b.points], anchors)
        a_box = mbr_of_ids([p[0] for p in a.points], anchors)
        if b_box.area() == 0.0:
            overlap.append(1.0 if b_box.contains(a_box) else 0.0)
        else:
            overlap.append(a_box.intersection_area(b_box) / b_box.area())
        large.append(cells(a, grids[0]) / cells(b, grids[0]))
        small.append(cells(a, grids[1]) / cells(b, grids[1]))
    return UtilityMetrics(*(float(np.mean(v)) for v in (remain, overlap, large, small)))


def _oracle_closure(traces, anchors, m, rounds, split, engine, k=5):
    """signature_closure object by object: re-split, re-weight and re-link
    the suppressed traces in every round."""
    current = [Trace(t.object_id, list(t.points)) for t in traces]

    def accuracy():
        halves = split_dataset([t for t in current if t.points], split)
        if not any(t.points for t in halves.q) or not any(t.points for t in halves.d):
            return {kk: 0.0 for kk in range(1, k + 1)}
        run = link_all(halves.q, halves.d, anchors, engine=engine, k=k, m=m)
        return {kk: accuracy_at_k(run, kk) for kk in range(1, k + 1)}

    baseline, report_rounds = accuracy(), []
    for round_no in range(1, rounds + 1):
        usable = [t for t in current if t.points]
        if not usable:
            break
        stats = build_corpus_stats(usable)
        removed = {}
        for trace in usable:
            try:
                sig = build_spatial_signature(trace, stats)
            except EmptySignatureError:
                continue
            doomed = set(cut_reduce(sig, m).dims.tolist())
            removed[trace.object_id] = sorted(doomed)
            trace.points = [p for p in trace.points if p[0] not in doomed]
        utility = _oracle_utility(traces, current, anchors)
        report_rounds.append(ClosureRound(round_no, removed, accuracy(), utility))
    emptied = [t.object_id for t in current if not t.points]
    return current, ClosureReport(baseline, report_rounds, emptied)


def _edge_corpus(seed):
    """Eight objects that all visit anchors 0, 1 and 2; one that visits only
    those (its anchors are corpus-wide once the last object empties out) and
    one with two anchors of its own (it empties out in the first round at
    m=2)."""
    rng = np.random.default_rng(seed)
    anchors = AnchorSet(rng.uniform(0, 1, 60), rng.uniform(0, 1, 60))

    def visits(ids):
        return [(int(a), 1_600_000_000 + i * 28_800 + int(rng.integers(0, 3000)))
                for i, a in enumerate(ids)]

    traces = [
        Trace(f"o{i}", visits(np.r_[0, 1, 2, rng.integers(6, 60, 30)])) for i in range(8)
    ]
    traces.append(Trace("hub_only", visits([0, 1, 0, 1, 0, 1, 2, 0, 1])))
    traces.append(Trace("tiny", visits([3, 5, 3, 5])))
    return traces, anchors


SPLITS = [
    SplitStrategy.interleaved(),
    SplitStrategy.serial(4),
    SplitStrategy.random(5, seed=2),
    SplitStrategy.weekday_weekend(),
]


@pytest.mark.parametrize("engine", ["linear", "rtree", "wrtree"])
@pytest.mark.parametrize("split", SPLITS, ids=[s.name for s in SPLITS])
def test_closure_equals_object_by_object_oracle(split, engine):
    # the oracle links with each engine, the closure with its default one, so
    # the closure's accuracies are checked against the linear scan too
    for seed in range(3):
        traces, anchors = generate_synthetic(
            40, 800, 0.06, 120, seed=seed, n_days=12,
            personal_mass=0.2, personal_pool=12, hub_fraction=0.4,
        )
        expect = _oracle_closure(traces, anchors, 5, 3, split, engine)
        assert signature_closure(traces, anchors, m=5, rounds=3, split=split) == expect
    traces, anchors = _edge_corpus(seed)
    expect = _oracle_closure(traces, anchors, 2, 2, split, engine)
    first, second = expect[1].rounds
    assert expect[1].emptied == ["tiny"]
    assert first.removed["hub_only"] == [0, 1] and "hub_only" not in second.removed
    assert signature_closure(traces, anchors, m=2, rounds=2, split=split) == expect


# ---------------------------------------------------------------------------
# utility_metrics on inputs the closure never makes


def test_utility_of_unrelated_after_matches_oracle():
    anchors = AnchorSet([0.0, 0.004, 0.01, 0.02, -0.01, 0.5], [0.0, 0.004, 0.01, 0.02, 0.3, 0.5])
    before = [_trace("a", [0, 1, 2]), _trace("b", [3, 3]), _trace("c", [1, 2])]
    # a: two points outside its box, one inside; b: a zero-area box left for
    # a point elsewhere; c: unchanged
    after = [_trace("b", [5]), _trace("a", [1, 4, 5, 4]), _trace("c", [1, 2])]
    metrics = utility_metrics(before, after, anchors)
    assert metrics == _oracle_utility(before, after, anchors)
    assert metrics.data_remain == pytest.approx((4 / 3 + 1 / 2 + 1) / 3)
    # a's new box covers the part of its old one above latitude 0.004
    assert metrics.mbr_overlap == pytest.approx((0.6 + 0.0 + 1.0) / 3)


def test_zero_area_before_box_scores_containment():
    anchors = AnchorSet([0.2, 0.2, 0.7], [0.4, 0.4, 0.1])
    before = [_trace("a", [0, 1]), _trace("b", [0, 1])]
    after = [_trace("a", [1]), _trace("b", [2])]
    metrics = utility_metrics(before, after, anchors)
    assert metrics == _oracle_utility(before, after, anchors)
    assert metrics.mbr_overlap == 0.5


def test_traces_without_a_point_are_refused():
    anchors = AnchorSet([0.0], [0.0])
    with pytest.raises(ValueError, match="^utility metrics need a point to measure"):
        utility_metrics([Trace("a", [])], [Trace("a", [])], anchors)
    # a side without a point after suppression is measured: nothing remains
    assert utility_metrics([_trace("a", [0])], [Trace("a", [])], anchors).data_remain == 0.0


def test_empty_inputs_rejected():
    anchors = AnchorSet([0.0], [0.0])
    with pytest.raises(ValueError):
        utility_metrics([], [], anchors)
    with pytest.raises(ValueError):
        utility_metrics([_trace("a", [0])], [_trace("a", [0]), _trace("b", [0])], anchors)
