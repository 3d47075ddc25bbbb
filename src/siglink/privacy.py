"""Iterative suppression of each object's most identifying anchors, with
utility metrics quantifying how little data the suppression costs."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .linking import accuracies, link_signatures
from .reduction import anchor_boxes, top_m
from .signatures import KIND_SPATIAL, Corpus, SignatureTable, pair_counts, tfidf_weights
from .traces import (
    DEFAULT_UTC_OFFSET_HOURS,
    AnchorSet,
    SplitStrategy,
    Trace,
    check_unique_ids,
    day_pairs,
    masked_traces,
    metre_grid,
    point_table,
    query_days,
)

# Names perfbench's tracer wraps in this module. The closure works on the
# point table and calls none of them.
from .linking import build_corpus_stats, build_spatial_signature, link_all  # noqa: F401, E402
from .reduction import cut_reduce  # noqa: F401, E402
from .traces import split_dataset  # noqa: F401, E402

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

    def summarize(
        self, rows: np.ndarray, anchor_ids: np.ndarray, counts: np.ndarray, n_objects: int
    ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Point count, bounding box (min lon, min lat, max lon, max lat;
        zeros where there are no points) and distinct cells per grid of each
        object, from its visit counts: COO ``(rows, anchor_ids, counts)``
        sorted by row, as ``pair_counts`` returns them."""
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


def _summaries_of(traces: Sequence[Trace], grids: _UtilityGrids):
    rows, anchor_ids, _ = point_table(traces)
    pair_rows, pair_anchors, counts = pair_counts(rows, anchor_ids)
    return grids.summarize(pair_rows, pair_anchors, counts, len(traces))


def utility_metrics(
    before: Sequence[Trace],
    after: Sequence[Trace],
    anchors: AnchorSet,
) -> UtilityMetrics:
    """Average retained fraction of points, bounding-box area, and grid cells,
    over the objects of ``before`` (by id) with at least one point; see
    ``_UtilityGrids`` for the grids. A degenerate (zero-area) original
    bounding box scores 1 whenever the suppressed trace still falls inside
    it. An id that repeats on either side is refused."""
    if not before:
        raise ValueError("utility metrics need at least one object")
    grids = _UtilityGrids(point_table(before)[1], anchors)  # refuses a repeated id
    check_unique_ids([t.object_id for t in after], "trace")
    after_by_id = {t.object_id: t for t in after}
    if {t.object_id for t in before} != set(after_by_id):
        raise ValueError("utility metrics need identical object sets")
    aligned = [after_by_id[t.object_id] for t in before]
    return _utility(_summaries_of(before, grids), _summaries_of(aligned, grids))


def signature_closure(
    traces: Sequence[Trace],
    anchors: AnchorSet,
    *,
    m: int = 10,
    rounds: int = 1,
    split: SplitStrategy | None = None,
    k: int = 5,
    utc_offset_hours: int = DEFAULT_UTC_OFFSET_HOURS,
) -> tuple[list[Trace], ClosureReport]:
    """Repeatedly suppress each object's top-m weighted anchors and re-measure.

    Every round recomputes corpus statistics over the current non-empty
    traces, builds each object's spatial signature from them, deletes every
    occurrence of its top-m anchors from both halves symmetrically, then
    records linking accuracy on the suppressed data and utility against the
    original. An object with an empty trace or no discriminative anchor left
    loses nothing that round. The report's baseline accuracy is measured
    before any suppression. Accuracy comes from linking the split's query
    half against its reference half with ``link_all``'s weighting and
    exclusion rules, at reduction level ``m``, with ``link_signatures``'
    default engine. An object id that repeats is refused.

    The traces are read once into a flat point table and counted once into
    (object, anchor) pairs. Suppression removes whole pairs, so a round is a
    mask over that one count table; the split is re-applied to the days of
    the points still alive.
    """
    if m < 1 or rounds < 1:
        raise ValueError("m and rounds must both be >= 1")
    if split is None:
        split = SplitStrategy.interleaved()
    object_ids = [t.object_id for t in traces]
    n = len(object_ids)
    rows, anchor_ids, t = point_table(traces)
    pair_rows, pair_anchors, counts = pair_counts(rows, anchor_ids)
    width = int(anchor_ids.max(initial=-1)) + 1
    keys = pair_rows * width + pair_anchors  # sorted, as the pairs are
    pair_of = np.searchsorted(keys, rows * width + anchor_ids)
    day_rows, days, day_of = day_pairs(rows, t, utc_offset_hours)
    pair_alive = np.ones(len(pair_rows), dtype=bool)

    def fitted(rows: np.ndarray, dims: np.ndarray) -> Corpus:
        return Corpus(KIND_SPATIAL).fit(np.count_nonzero(np.diff(rows, prepend=-1)), dims)

    def signed(corpus: Corpus, keep: np.ndarray, half_counts: np.ndarray) -> SignatureTable:
        weighted = tfidf_weights(pair_rows[keep], pair_anchors[keep], half_counts[keep], corpus, n)
        return SignatureTable.from_rows(KIND_SPATIAL, object_ids, *weighted)[0]

    def measure() -> dict[int, float]:
        alive = pair_alive[pair_of]
        live_days = np.bincount(day_of[alive], minlength=len(days)) > 0
        day_in_q = np.zeros(len(days), dtype=bool)
        day_in_q[live_days] = query_days(object_ids, day_rows[live_days], days[live_days], split)
        in_q = day_in_q[day_of]
        q_counts = np.bincount(pair_of[alive & in_q], minlength=len(pair_rows))
        d_counts = np.bincount(pair_of[alive & ~in_q], minlength=len(pair_rows))
        if not q_counts.any() or not d_counts.any():
            # suppression wiped one half out entirely: nothing is linkable
            return {kk: 0.0 for kk in range(1, k + 1)}
        q, d = q_counts > 0, d_counts > 0
        corpus = fitted(pair_rows[d], pair_anchors[d])
        ref_sigs, query_sigs = signed(corpus, d, d_counts), signed(corpus, q, q_counts)
        return accuracies(link_signatures(query_sigs, ref_sigs, anchors, k=k, m=m))

    def summary():
        return grids.summarize(
            pair_rows[pair_alive], pair_anchors[pair_alive], counts[pair_alive], n
        )

    baseline = measure()
    report_rounds: list[ClosureRound] = []
    if len(rows):
        grids = _UtilityGrids(anchor_ids, anchors)
        original = summary()
    for round_no in range(1, rounds + 1):
        live = np.flatnonzero(pair_alive)
        if not len(live):
            break
        live_rows, live_anchors = pair_rows[live], pair_anchors[live]
        corpus = fitted(live_rows, live_anchors)
        w_rows, w_dims, weights = tfidf_weights(live_rows, live_anchors, counts[live], corpus, n)
        top = top_m(w_rows, weights, m)
        top_rows, top_dims = w_rows[top], w_dims[top]
        bounds = [*np.flatnonzero(np.diff(top_rows, prepend=-1)).tolist(), len(top_rows)]
        removed = {object_ids[top_rows[s]]: top_dims[s:e].tolist()
                   for s, e in zip(bounds, bounds[1:])}
        pair_alive[np.searchsorted(keys, top_rows * width + top_dims)] = False
        accuracy = measure()
        utility = _utility(original, summary())
        report_rounds.append(ClosureRound(round_no, removed, accuracy, utility))
    current = masked_traces(traces, pair_alive[pair_of])
    emptied = [t.object_id for t in current if not len(t)]
    return current, ClosureReport(baseline, report_rounds, emptied)
