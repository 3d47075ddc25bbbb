"""Iterative suppression of each object's most identifying anchors, with
utility metrics quantifying how little data the suppression costs."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .linking import accuracies, link_all, reference_signatures
from .reduction import anchor_boxes, cut_table
from .signatures import pair_counts
from .traces import (
    DEFAULT_UTC_OFFSET_HOURS,
    AnchorSet,
    SplitStrategy,
    Trace,
    TraceTable,
    metre_grid,
    split_dataset,
)

# Names perfbench's tracer wraps in this module. The closure calls none of
# them.
from .linking import build_corpus_stats, build_spatial_signature  # noqa: F401, E402
from .reduction import cut_reduce  # noqa: F401, E402

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

    def summary(self) -> dict:
        """What ``closure.json`` holds: accuracies, utility and removal
        counts per round, and the emptied objects."""
        return {
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


class _UtilityGrids:
    """Per-object summaries for the utility metrics, over the two utility
    grids of one original point set.

    The grid cells are ``DEFAULT_LARGE_CELL_M`` and ``DEFAULT_SMALL_CELL_M``
    meters wide, converted to degrees at the mean latitude of the original
    points, and start at their south-west corner. Each anchor's cell in each
    grid is computed once.
    """

    def __init__(self, original_anchor_ids: np.ndarray, anchors: AnchorSet):
        self.anchors = anchors
        self.cells: list[tuple[np.ndarray, int]] = []
        for cell_m in (DEFAULT_LARGE_CELL_M, DEFAULT_SMALL_CELL_M):
            xy, _ = metre_grid(anchors.lons, anchors.lats, cell_m, original_anchor_ids)
            distinct, cell = np.unique(xy, axis=0, return_inverse=True)
            self.cells.append((cell, len(distinct)))

    def summarize(self, traces: TraceTable) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Point count, bounding box (min lon, min lat, max lon, max lat;
        zeros where there are no points) and distinct cells per grid of each
        row of ``traces``, from its (object, anchor) visit counts."""
        rows, anchor_ids, counts = pair_counts(traces.rows(), traces.anchor_ids)
        n_objects = len(traces)
        count = np.bincount(rows, weights=counts, minlength=n_objects)
        box = np.zeros((n_objects, 4))
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        if len(starts):
            box[rows[starts]] = anchor_boxes(self.anchors, anchor_ids, starts)
        cells = []
        for cell, n_cells in self.cells:
            keys = np.sort(rows * n_cells + cell[anchor_ids])
            first = np.ones(len(keys), dtype=bool)
            first[1:] = keys[1:] != keys[:-1]
            cells.append(np.bincount(keys[first] // n_cells, minlength=n_objects))
        return count, box, cells


def _utility(before, after) -> UtilityMetrics:
    """Utility of the summarized ``after`` against ``before``, row by row;
    an object with no original point is skipped. A degenerate (zero-area)
    original bounding box scores 1 whenever the suppressed points still
    fall inside it."""
    (b_count, b_box, b_cells), (a_count, a_box, a_cells) = before, after
    rows = b_count > 0
    b_count, b_box, a_count, a_box = b_count[rows], b_box[rows], a_count[rows], a_box[rows]
    kept = a_count > 0
    b_area = (b_box[:, 2] - b_box[:, 0]) * (b_box[:, 3] - b_box[:, 1])
    w = np.minimum(a_box[:, 2], b_box[:, 2]) - np.maximum(a_box[:, 0], b_box[:, 0])
    h = np.minimum(a_box[:, 3], b_box[:, 3]) - np.maximum(a_box[:, 1], b_box[:, 1])
    shared = np.where((w < 0.0) | (h < 0.0), 0.0, w * h)
    contained = np.all(b_box[:, :2] <= a_box[:, :2], axis=1) & np.all(
        b_box[:, 2:] >= a_box[:, 2:], axis=1
    )
    flat = b_area == 0.0
    overlap = np.where(flat, contained.astype(float), shared / np.where(flat, 1.0, b_area))
    cover = [np.where(kept, a[rows] / b[rows], 0.0) for a, b in zip(a_cells, b_cells)]
    return UtilityMetrics(
        data_remain=float(np.mean(a_count / b_count)),
        mbr_overlap=float(np.mean(np.where(kept, overlap, 0.0))),
        grid_coverage_large=float(np.mean(cover[0])),
        grid_coverage_small=float(np.mean(cover[1])),
    )


def utility_metrics(
    before: Sequence[Trace],
    after: Sequence[Trace],
    anchors: AnchorSet,
) -> UtilityMetrics:
    """Average retained fraction of points, bounding-box area, and grid cells,
    over the objects of ``before`` (by id) with at least one point; see
    ``_UtilityGrids`` for the grids. A degenerate (zero-area) original
    bounding box scores 1 whenever the suppressed trace still falls inside
    it. Each side is a ``TraceTable`` or a list of traces. An id that
    repeats on either side, an anchor id outside ``anchors``, or a
    ``before`` without a point, is refused."""
    before, after = TraceTable.of(before), TraceTable.of(after)
    for side in (before, after):
        side.check_anchor_ids(len(anchors))
    if not len(before.anchor_ids):
        raise ValueError("utility metrics need a point to measure; the traces before hold none")
    if set(before.ids) != set(after.ids):
        raise ValueError("utility metrics need identical object sets")
    grids = _UtilityGrids(before.anchor_ids, anchors)
    row_of = {oid: i for i, oid in enumerate(after.ids)}
    aligned = TraceTable.of(after[row_of[oid]] for oid in before.ids)
    return _utility(grids.summarize(before), grids.summarize(aligned))


def signature_closure(
    traces: Sequence[Trace],
    anchors: AnchorSet,
    *,
    m: int = 10,
    rounds: int = 1,
    split: SplitStrategy | None = None,
    k: int = 5,
    utc_offset_hours: int = DEFAULT_UTC_OFFSET_HOURS,
) -> tuple[TraceTable, ClosureReport]:
    """Repeatedly suppress each object's top-m weighted anchors and re-measure.

    Every round weights the current traces' spatial signatures over a
    corpus of the current non-empty traces (``reference_signatures``), cuts
    each to its top m anchors (``cut_table``) and deletes every occurrence
    of those anchors from that object's trace, in both halves alike. It
    then records linking accuracy on the suppressed data and utility
    against the original. An object with an empty trace or no
    discriminative anchor left loses nothing that round. The report's
    baseline accuracy is measured before any suppression. Accuracy splits
    the current traces (``split_dataset``) and links the query half against
    the reference half (``link_all``, on its default engine) at reduction
    level ``m``; it is 0 at every k when either half holds no point.

    ``traces`` is a ``TraceTable`` or a list of traces; an object id that
    repeats, an anchor id outside ``anchors`` or a timestamp that falls is
    refused. The suppressed traces are returned as a table: the original
    points under a mask, with a row for every object.
    """
    if m < 1 or rounds < 1:
        raise ValueError("m and rounds must both be >= 1")
    if split is None:
        split = SplitStrategy.interleaved()
    traces = TraceTable.of(traces)
    traces.check_anchor_ids(len(anchors))
    row_of = {oid: i for i, oid in enumerate(traces.ids)}
    keys = traces.rows() * len(anchors) + traces.anchor_ids  # each point's (object, anchor)
    alive = np.ones(len(keys), dtype=bool)
    current = traces

    def accuracy() -> dict[int, float]:
        halves = split_dataset(current, split, utc_offset_hours)
        if not len(halves.q.t) or not len(halves.d.t):
            # suppression wiped one half out entirely: nothing is linkable
            return {kk: 0.0 for kk in range(1, k + 1)}
        run = link_all(halves.q, halves.d, anchors, k=k, m=m)
        return accuracies(run.results, run.reference_ids, k)

    baseline = accuracy()
    report_rounds: list[ClosureRound] = []
    if len(keys):
        grids = _UtilityGrids(traces.anchor_ids, anchors)
        original = grids.summarize(traces)
    for round_no in range(1, rounds + 1):
        if not len(current.t):
            break
        cut = cut_table(reference_signatures(current)[0], m)
        cut_rows = np.fromiter(map(row_of.__getitem__, cut.ids), dtype=np.int64, count=len(cut))
        cut_keys = np.repeat(cut_rows, np.diff(cut.indptr)) * len(anchors) + cut.dims
        alive &= ~np.isin(keys, cut_keys)
        current = traces.masked(alive)
        bounds = cut.indptr.tolist()
        removed = {oid: cut.dims[s:e].tolist() for oid, s, e in zip(cut.ids, bounds, bounds[1:])}
        utility = _utility(original, grids.summarize(current))
        report_rounds.append(ClosureRound(round_no, removed, accuracy(), utility))
    emptied = [oid for oid, n in zip(traces.ids, np.diff(current.indptr).tolist()) if not n]
    return current, ClosureReport(baseline, report_rounds, emptied)
