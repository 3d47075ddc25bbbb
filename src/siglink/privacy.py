"""Iterative suppression of each object's most identifying anchors, with
utility metrics quantifying how little data the suppression costs."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EmptySignatureError
from .reduction import cut_reduce, mbr_of_ids
from .signatures import build_corpus_stats, build_spatial_signature
from .traces import (
    DEFAULT_UTC_OFFSET_HOURS,
    METERS_PER_DEGREE,
    AnchorSet,
    SplitStrategy,
    Trace,
    split_dataset,
)
from .linking import accuracy_at_k, link_all

DEFAULT_LARGE_CELL_M = 423.0
DEFAULT_SMALL_CELL_M = 85.0


@dataclass
class UtilityMetrics:
    data_remain: float
    mbr_overlap: float
    grid_coverage_large: float
    grid_coverage_small: float


@dataclass
class ClosureRound:
    round_no: int
    removed: dict[str, list[int]]
    accuracy: dict[int, float]
    utility: UtilityMetrics


@dataclass
class ClosureReport:
    baseline_accuracy: dict[int, float]
    rounds: list[ClosureRound]
    emptied: list[str]  # objects whose trace ran out of points

    def to_json(self, path: str | Path) -> None:
        payload = {
            "baseline_accuracy": {str(k): v for k, v in self.baseline_accuracy.items()},
            "rounds": [
                {
                    "round": r.round_no,
                    "accuracy": {str(k): v for k, v in r.accuracy.items()},
                    "utility": asdict(r.utility),
                    "n_removed": sum(len(v) for v in r.removed.values()),
                }
                for r in self.rounds
            ],
            "emptied": sorted(self.emptied),
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _cells_covered(trace_ids: Sequence[int], anchors: AnchorSet, origin, cell_deg) -> set:
    lons = anchors.lons[list(trace_ids)]
    lats = anchors.lats[list(trace_ids)]
    ix = np.floor((lons - origin[0]) / cell_deg[0]).astype(int)
    iy = np.floor((lats - origin[1]) / cell_deg[1]).astype(int)
    return set(zip(ix.tolist(), iy.tolist()))


def utility_metrics(
    before: Sequence[Trace],
    after: Sequence[Trace],
    anchors: AnchorSet,
    large_cell_m: float = DEFAULT_LARGE_CELL_M,
    small_cell_m: float = DEFAULT_SMALL_CELL_M,
) -> UtilityMetrics:
    """Average retained fraction of points, bounding-box area, and grid cells.

    Grid cell sizes are given in meters and converted to degrees at the mean
    latitude of the original data; a degenerate (zero-area) original bounding
    box scores 1 whenever the suppressed trace still falls inside it.
    """
    before_by_id = {t.object_id: t for t in before}
    after_by_id = {t.object_id: t for t in after}
    if set(before_by_id) != set(after_by_id):
        raise ValueError("utility metrics need identical object sets")
    if not before_by_id:
        raise ValueError("utility metrics need at least one object")

    all_ids = [a for t in before for a, _ in t.points]
    mean_lat = float(np.mean(anchors.lats[all_ids]))
    origin = (float(anchors.lons[all_ids].min()), float(anchors.lats[all_ids].min()))

    def cell_deg(cell_m: float) -> tuple[float, float]:
        dlat = cell_m / METERS_PER_DEGREE
        dlon = cell_m / (METERS_PER_DEGREE * max(np.cos(np.radians(mean_lat)), 1e-9))
        return (dlon, dlat)

    large = cell_deg(large_cell_m)
    small = cell_deg(small_cell_m)

    remain, overlap, cover_large, cover_small = [], [], [], []
    for oid, b in before_by_id.items():
        a = after_by_id[oid]
        if not b.points:
            continue
        remain.append(len(a) / len(b))
        b_ids = [aid for aid, _ in b.points]
        a_ids = [aid for aid, _ in a.points]
        b_mbr = mbr_of_ids(b_ids, anchors)
        if not a_ids:
            overlap.append(0.0)
            cover_large.append(0.0)
            cover_small.append(0.0)
            continue
        a_mbr = mbr_of_ids(a_ids, anchors)
        if b_mbr.area() == 0.0:
            overlap.append(1.0 if b_mbr.contains(a_mbr) else 0.0)
        else:
            overlap.append(a_mbr.intersection_area(b_mbr) / b_mbr.area())
        for grid, acc in ((large, cover_large), (small, cover_small)):
            b_cells = _cells_covered(b_ids, anchors, origin, grid)
            a_cells = _cells_covered(a_ids, anchors, origin, grid)
            acc.append(len(a_cells) / len(b_cells))
    return UtilityMetrics(
        data_remain=float(np.mean(remain)),
        mbr_overlap=float(np.mean(overlap)),
        grid_coverage_large=float(np.mean(cover_large)),
        grid_coverage_small=float(np.mean(cover_small)),
    )


def _link_accuracy(
    traces: Sequence[Trace],
    anchors: AnchorSet,
    split: SplitStrategy,
    engine: str,
    k: int,
    m: int | None,
    capacity: int,
    utc_offset_hours: int,
) -> dict[int, float]:
    halves = split_dataset(
        [t for t in traces if t.points], split, utc_offset_hours=utc_offset_hours
    )
    if not any(t.points for t in halves.d) or not any(t.points for t in halves.q):
        # suppression wiped one half out entirely: nothing is linkable
        return {kk: 0.0 for kk in range(1, k + 1)}
    run = link_all(
        halves.q, halves.d, anchors, engine=engine, k=k, m=m, capacity=capacity
    )
    return {kk: accuracy_at_k(run, kk) for kk in range(1, k + 1)}


def signature_closure(
    traces: Sequence[Trace],
    anchors: AnchorSet,
    *,
    m: int = 10,
    rounds: int = 1,
    split: SplitStrategy | None = None,
    engine: str = "wrtree",
    k: int = 5,
    link_m: int | None = None,
    capacity: int = 32,
    utc_offset_hours: int = DEFAULT_UTC_OFFSET_HOURS,
    rebuild_stats: bool = True,
    large_cell_m: float = DEFAULT_LARGE_CELL_M,
    small_cell_m: float = DEFAULT_SMALL_CELL_M,
) -> tuple[list[Trace], ClosureReport]:
    """Repeatedly suppress each object's top-m weighted anchors and re-measure.

    Every round builds spatial signatures from the current traces (corpus
    statistics recomputed unless ``rebuild_stats`` is off), deletes every
    occurrence of each object's top-m anchors from both halves symmetrically,
    then records linking accuracy on the suppressed data and utility against
    the original. The report's baseline accuracy is measured before any
    suppression. Accuracy comes from ``link_all`` with ``engine`` (any of
    ``linking.ENGINES``; all are exact, so the choice changes only the
    time), at reduction level ``link_m`` (default ``m``).
    """
    if m < 1 or rounds < 1:
        raise ValueError("m and rounds must both be >= 1")
    if split is None:
        split = SplitStrategy.interleaved()
    link_m = m if link_m is None else link_m
    original = [Trace(t.object_id, list(t.points)) for t in traces]
    current = [Trace(t.object_id, list(t.points)) for t in traces]

    def measure() -> dict[int, float]:
        return _link_accuracy(
            current, anchors, split, engine, k, link_m, capacity, utc_offset_hours
        )

    baseline = measure()
    frozen_stats = None
    report_rounds: list[ClosureRound] = []
    for round_no in range(1, rounds + 1):
        usable = [t for t in current if t.points]
        if not usable:
            break
        if rebuild_stats or frozen_stats is None:
            stats = build_corpus_stats(usable)
            if not rebuild_stats:
                frozen_stats = stats
        else:
            stats = frozen_stats
        removed: dict[str, list[int]] = {}
        for trace in current:
            if not trace.points:
                continue
            try:
                sig = build_spatial_signature(trace, stats)
            except (EmptySignatureError, ValueError):
                continue
            top = cut_reduce(sig, m)
            doomed = set(top.dims.tolist())
            removed[trace.object_id] = sorted(doomed)
            trace.points = [p for p in trace.points if p[0] not in doomed]
        accuracy = measure()
        utility = utility_metrics(
            original, current, anchors, large_cell_m, small_cell_m
        )
        report_rounds.append(ClosureRound(round_no, removed, accuracy, utility))
    emptied = [t.object_id for t in current if not t.points]
    return current, ClosureReport(baseline, report_rounds, emptied)
