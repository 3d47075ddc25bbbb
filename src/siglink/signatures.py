"""Movement signatures: sparse TF-IDF vectors over spatial, sequential, and
spatiotemporal vocabularies, day-cycle histograms, and their similarities."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptySignatureError, EmptyTraceError
from .traces import DEFAULT_UTC_OFFSET_HOURS, AnchorSet, Trace

NORM_TOL = 1e-9

KIND_SPATIAL = "spatial"


def sequential_kind(q: int) -> str:
    return f"sequential:q={q}"


def spatiotemporal_kind(g: int, dt_hours: int) -> str:
    return f"spatiotemporal:g={g},dt={dt_hours}"


@dataclass
class Signature:
    """Sparse non-negative vector over a dimension vocabulary.

    ``dims`` is strictly increasing and parallel to ``weights``; zero-weight
    dimensions are never stored. A normalized signature has unit L2 norm.
    """

    dims: np.ndarray
    weights: np.ndarray
    kind: str
    normalized: bool
    reduced_m: int | None = None
    _pairs: list[tuple[int, float]] | None = field(
        default=None, repr=False, compare=False
    )
    _dim_set: frozenset[int] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.dims = np.asarray(self.dims, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=float)

    def nnz(self) -> int:
        return len(self.dims)

    def pairs(self) -> list[tuple[int, float]]:
        if self._pairs is None:
            self._pairs = list(zip(self.dims.tolist(), self.weights.tolist()))
        return self._pairs

    def dim_set(self) -> frozenset[int]:
        if self._dim_set is None:
            self._dim_set = frozenset(self.dims.tolist())
        return self._dim_set

    def as_dict(self) -> dict[int, float]:
        return dict(self.pairs())

    def norm(self) -> float:
        return float(np.linalg.norm(self.weights))


def make_signature(
    weights_by_dim: Mapping[int, float], kind: str, normalize: bool = True
) -> Signature:
    """Build a signature from a dim -> weight mapping, dropping non-positive
    entries and (by default) scaling to unit L2 norm."""
    items = sorted((d, w) for d, w in weights_by_dim.items() if w > 0.0)
    if not items:
        raise EmptySignatureError("signature has no positive-weight dimensions")
    dims = np.array([d for d, _ in items], dtype=np.int64)
    weights = np.array([w for _, w in items], dtype=float)
    if normalize:
        weights = weights / np.linalg.norm(weights)
    return Signature(dims, weights, kind, normalized=normalize)


def _leaf_sim(q_map: dict[int, float], sig: Signature) -> float:
    """Dot product of a query's dim -> weight map with a signature: the one
    pairwise similarity kernel. It accumulates over the signature's
    dimensions in ascending order, from 0.0, so every engine produces
    bit-identical similarities."""
    total = 0.0
    get = q_map.get
    for d, w in sig.pairs():
        v = get(d)
        if v is not None:
            total += v * w
    return total


def cosine_similarity(a: Signature, b: Signature) -> float:
    if a.kind != b.kind:
        raise ValueError(f"signature kind mismatch: {a.kind!r} vs {b.kind!r}")
    if not (a.normalized and b.normalized):
        raise ValueError("cosine similarity needs both signatures normalized")
    return _leaf_sim(a.as_dict(), b)


# ---------------------------------------------------------------------------
# Corpus statistics and TF-IDF weighting


@dataclass
class CorpusStats:
    """Per-dimension document frequencies over a set of objects."""

    n_objects: int
    doc_freq: dict[int, int]
    _columns: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(df, idf)`` arrays indexed by dimension id, computed once,
        on first use. ``df`` is the document frequency, 0 where the corpus
        lacks the dimension. ``idf`` is the weight factor: the natural-log
        IDF ``log(n / df)`` where it is positive, 0 elsewhere. A
        single-object corpus carries no discriminative statistics; IDF would
        be the same constant on every dimension and vanish under
        normalization, so every dimension it has gets factor 1 and is
        weighted by frequency alone."""
        if self._columns is None:
            seen = np.fromiter(self.doc_freq, dtype=np.int64, count=len(self.doc_freq))
            df = np.zeros(int(seen.max()) + 1 if len(seen) else 1, dtype=np.int64)
            df[seen] = np.fromiter(self.doc_freq.values(), dtype=np.int64, count=len(seen))
            self._columns = (df, _idf_of(df, self.n_objects))
        return self._columns


def _idf_of(df: np.ndarray, n: int) -> np.ndarray:
    idf = np.zeros(len(df))
    seen = np.flatnonzero(df)
    if n == 1:
        idf[seen] = 1.0
        return idf
    dfs, which = np.unique(df[seen], return_inverse=True)
    log_of = np.array([math.log(n / d) for d in dfs.tolist()])
    idf[seen] = np.maximum(log_of, 0.0)[which]
    return idf


def column_stats(n_objects: int, dims: np.ndarray) -> CorpusStats:
    """Corpus statistics of ``n_objects`` objects from the dimensions of
    their distinct (object, dimension) pairs: a dimension's document
    frequency is the number of nonzeros in its column."""
    if n_objects < 1:
        raise ValueError("corpus must contain at least one trace")
    df = np.bincount(np.asarray(dims, dtype=np.int64), minlength=1)
    seen = np.flatnonzero(df)
    stats = CorpusStats(n_objects, dict(zip(seen.tolist(), df[seen].tolist())))
    stats._columns = (df, _idf_of(df, n_objects))
    return stats


def corpus_stats(dim_sets: Sequence[Iterable[int]]) -> CorpusStats:
    """Count, for each dimension, how many objects have it. Takes one
    duplicate-free collection of dimensions per object."""
    dims = np.fromiter(chain.from_iterable(dim_sets), dtype=np.int64)
    return column_stats(len(dim_sets), dims)


def build_corpus_stats(traces: Sequence[Trace]) -> CorpusStats:
    """Count, for each anchor, how many objects visit it at least once."""
    return corpus_stats([trace.anchor_ids() for trace in traces])


def pair_counts(
    rows: np.ndarray, dims: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Occurrence counts of (row, dimension) pairs, one pair per point.

    Returns the distinct pairs' rows, dimensions and counts, sorted by
    (row, dimension): the COO input of ``tfidf_rows``. The fourth array maps
    each point to its pair.
    """
    width = int(dims.max()) + 1 if len(dims) else 1
    keys, inverse, counts = np.unique(
        rows * width + dims, return_inverse=True, return_counts=True
    )
    return keys // width, keys % width, counts, inverse


def tfidf_rows(
    rows: np.ndarray,
    dims: np.ndarray,
    counts: np.ndarray,
    stats: CorpusStats,
    kind: str,
    n_rows: int,
) -> list[Signature | None]:
    """TF-IDF signatures of rows ``0 .. n_rows - 1``; natural-log IDF, L2
    normalized.

    Takes COO occurrence counts sorted by (row, dimension), duplicates
    summed (see ``pair_counts``). This is the one weighting step of every
    TF-IDF kind. Dimensions the corpus has not seen are dropped before
    weighting: they cannot contribute to any similarity against it, and term
    frequencies are taken over the counts that remain. Dimensions present in
    every object carry zero weight and are dropped too. A row with nothing
    left has no discriminative signature and gets ``None``.

    Each row is scaled by its own norm, ``sqrt(w.dot(w))``, which is how
    ``np.linalg.norm`` computes it, so a row's weights are bit-identical to
    weighting that object alone.
    """
    df, idf = stats.columns()
    inside = dims < len(df)
    at = np.where(inside, dims, 0)
    seen = inside & (df[at] > 0)
    counts = np.asarray(counts, dtype=float)
    total = np.bincount(rows[seen], weights=counts[seen], minlength=n_rows)
    factor = np.where(inside, idf[at], 0.0)
    keep = factor > 0.0
    rows, dims = rows[keep], dims[keep]
    weights = counts[keep] / total[rows] * factor[keep]
    out: list[Signature | None] = [None] * n_rows
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    ends = np.append(starts[1:], len(rows))
    for row, s, e in zip(rows[starts].tolist(), starts.tolist(), ends.tolist()):
        seg = weights[s:e]
        seg /= math.sqrt(seg.dot(seg))
        out[row] = Signature(dims[s:e], seg, kind, normalized=True)
    return out


def tfidf_signature(counts: Mapping[int, int], stats: CorpusStats, kind: str) -> Signature:
    """``tfidf_rows`` for one object's occurrence counts by dimension;
    raises ``EmptySignatureError`` if nothing carries weight."""
    n = len(counts)
    dims = np.fromiter(counts.keys(), dtype=np.int64, count=n)
    order = np.argsort(dims)
    freq = np.fromiter(counts.values(), dtype=float, count=n)
    sig = tfidf_rows(np.zeros(n, dtype=np.int64), dims[order], freq[order], stats, kind, 1)[0]
    if sig is None:
        raise EmptySignatureError("signature has no positive-weight dimensions")
    return sig


def build_spatial_signature(trace: Trace, stats: CorpusStats) -> Signature:
    if not trace.points:
        raise EmptyTraceError(f"object {trace.object_id!r} has an empty trace")
    return tfidf_signature(trace.anchor_counts(), stats, KIND_SPATIAL)


# ---------------------------------------------------------------------------
# Sequential signatures (anchor n-grams)


@dataclass
class SequentialCorpus:
    """Gram vocabulary and document frequencies for a fixed gram length."""

    q: int
    vocab: dict[tuple[int, ...], int]
    stats: CorpusStats


def _grams(trace: Trace, q: int) -> list[tuple[int, ...]]:
    ids = [a for a, _ in trace.points]
    return [tuple(ids[i : i + q]) for i in range(len(ids) - q + 1)]


def build_sequential_corpus(traces: Sequence[Trace], q: int) -> SequentialCorpus:
    """Intern the corpus grams to dense integer ids and count document
    frequencies. Length-1 grams keep the anchor id itself, so q=1 signatures
    live in the same dimension space as spatial ones."""
    if q < 1:
        raise ValueError("gram length q must be >= 1")
    per_object = [set(_grams(trace, q)) for trace in traces]
    all_grams = set().union(*per_object)
    if q == 1:
        vocab = {g: g[0] for g in all_grams}
    else:
        vocab = {g: i for i, g in enumerate(sorted(all_grams))}
    stats = corpus_stats([set(map(vocab.__getitem__, seen)) for seen in per_object])
    return SequentialCorpus(q, vocab, stats)


def build_sequential_signature(trace: Trace, corpus: SequentialCorpus) -> Signature:
    """TF-IDF over the trace's grams in the corpus's weight space.

    A gram outside the corpus vocabulary has no dimension id, and is
    dropped like any dimension the corpus has not seen.
    """
    if len(trace) < corpus.q:
        raise EmptySignatureError(
            f"trace of {len(trace)} points yields no {corpus.q}-grams"
        )
    counts = Counter(map(corpus.vocab.get, _grams(trace, corpus.q)))
    counts.pop(None, None)
    return tfidf_signature(counts, corpus.stats, sequential_kind(corpus.q))


# ---------------------------------------------------------------------------
# Spatiotemporal signatures (grid cell x time interval)


@dataclass(frozen=True)
class Grid:
    """Uniform g x g partition of a bounding box."""

    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float
    g: int

    @classmethod
    def fit(cls, anchors: AnchorSet, g: int) -> "Grid":
        if g < 1:
            raise ValueError("grid resolution must be >= 1")
        return cls(
            float(anchors.lons.min()),
            float(anchors.lats.min()),
            float(anchors.lons.max()),
            float(anchors.lats.max()),
            g,
        )

    def cell_of(self, lon: float, lat: float) -> int:
        span_lon = self.max_lon - self.min_lon
        span_lat = self.max_lat - self.min_lat
        ix = 0 if span_lon == 0 else int((lon - self.min_lon) / span_lon * self.g)
        iy = 0 if span_lat == 0 else int((lat - self.min_lat) / span_lat * self.g)
        ix = min(max(ix, 0), self.g - 1)
        iy = min(max(iy, 0), self.g - 1)
        return iy * self.g + ix


def check_dt(dt_hours: int) -> int:
    dt = int(dt_hours)
    if dt < 1 or 24 % dt != 0:
        raise ValueError(f"dt_hours must divide 24 exactly, got {dt_hours}")
    return dt


def time_bin(t: int, dt_hours: int, utc_offset_hours: int = DEFAULT_UTC_OFFSET_HOURS) -> int:
    """Index of the half-open local time-of-day interval containing t."""
    seconds_of_day = (int(t) + utc_offset_hours * 3600) % 86400
    return seconds_of_day // (dt_hours * 3600)


def _cell_time_counts(
    trace: Trace,
    anchors: AnchorSet,
    grid: Grid,
    dt_hours: int,
    utc_offset_hours: int,
) -> dict[int, int]:
    d_bins = 24 // dt_hours
    counts: dict[int, int] = {}
    for anchor_id, t in trace.points:
        lon, lat = anchors.lonlat(anchor_id)
        dim = grid.cell_of(lon, lat) * d_bins + time_bin(t, dt_hours, utc_offset_hours)
        counts[dim] = counts.get(dim, 0) + 1
    return counts


@dataclass
class SpatiotemporalCorpus:
    grid: Grid
    dt_hours: int
    utc_offset_hours: int
    stats: CorpusStats


def build_spatiotemporal_corpus(
    traces: Sequence[Trace],
    anchors: AnchorSet,
    grid: Grid,
    dt_hours: int,
    utc_offset_hours: int = DEFAULT_UTC_OFFSET_HOURS,
) -> SpatiotemporalCorpus:
    dt = check_dt(dt_hours)
    stats = corpus_stats(
        [_cell_time_counts(t, anchors, grid, dt, utc_offset_hours).keys() for t in traces]
    )
    return SpatiotemporalCorpus(grid, dt, utc_offset_hours, stats)


def build_spatiotemporal_signature(
    trace: Trace, anchors: AnchorSet, corpus: SpatiotemporalCorpus
) -> Signature:
    if not trace.points:
        raise EmptyTraceError(f"object {trace.object_id!r} has an empty trace")
    counts = _cell_time_counts(
        trace, anchors, corpus.grid, corpus.dt_hours, corpus.utc_offset_hours
    )
    return tfidf_signature(
        counts, corpus.stats, spatiotemporal_kind(corpus.grid.g, corpus.dt_hours)
    )


# ---------------------------------------------------------------------------
# Temporal histograms and earth mover's distance


@dataclass
class TemporalHistogram:
    """L1-normalized histogram of visit times over the daily cycle."""

    bins: np.ndarray
    dt_hours: int
    normalized: bool

    def __post_init__(self) -> None:
        self.bins = np.asarray(self.bins, dtype=float)

    def d(self) -> int:
        return len(self.bins)


def build_temporal_histogram(
    trace: Trace,
    dt_hours: int,
    utc_offset_hours: int = DEFAULT_UTC_OFFSET_HOURS,
) -> TemporalHistogram:
    dt = check_dt(dt_hours)
    if not trace.points:
        raise EmptyTraceError(f"object {trace.object_id!r} has an empty trace")
    d = 24 // dt
    bins = np.zeros(d)
    for _, t in trace.points:
        bins[time_bin(t, dt, utc_offset_hours)] += 1
    return TemporalHistogram(bins / bins.sum(), dt, normalized=True)


def temporal_cost(i: int, j: int, dt_hours: int) -> float:
    """Unit transport cost between two daily intervals: the circular gap in
    hours over 12, so the antipodal half-day costs exactly 1."""
    dt = check_dt(dt_hours)
    d = 24 // dt
    if not (0 <= i < d and 0 <= j < d):
        raise ValueError(f"bin index out of range for {d} bins: ({i}, {j})")
    gap = abs(i - j) * dt
    return gap / 12.0 if gap <= 12 else (24 - gap) / 12.0


def _check_histogram_pair(a: TemporalHistogram, b: TemporalHistogram) -> None:
    if a.d() != b.d() or a.dt_hours != b.dt_hours:
        raise ValueError(
            f"histogram layout mismatch: {a.d()}x{a.dt_hours}h vs {b.d()}x{b.dt_hours}h"
        )
    if not (a.normalized and b.normalized):
        raise ValueError("EMD needs both histograms L1-normalized")


def emd(a: TemporalHistogram, b: TemporalHistogram) -> float:
    """Exact earth mover's distance under the circular daily cost.

    For a one-dimensional circular histogram with arc-length ground cost the
    optimal transport has a closed form: shift the cumulative difference by
    its median and sum the absolute values. One bin step costs dt/12, so the
    result lands in [0, 1].
    """
    _check_histogram_pair(a, b)
    cum = np.cumsum(a.bins - b.bins)
    shift = np.median(cum)
    arc_steps = float(np.abs(cum - shift).sum())
    return min(1.0, max(0.0, arc_steps * a.dt_hours / 12.0))


def emd_similarity(a: TemporalHistogram, b: TemporalHistogram) -> float:
    return 1.0 - emd(a, b)


# ---------------------------------------------------------------------------
# Signature file format (JSON lines)


def signature_to_record(object_id: str, sig: Signature) -> dict:
    return {
        "object_id": object_id,
        "kind": sig.kind,
        "normalized": sig.normalized,
        "reduced_m": sig.reduced_m,
        "sig": [[int(d), float(w)] for d, w in sig.pairs()],
    }


def signature_from_record(record: Mapping) -> tuple[str, Signature]:
    pairs = record["sig"]
    dims = np.array([p[0] for p in pairs], dtype=np.int64)
    weights = np.array([p[1] for p in pairs], dtype=float)
    sig = Signature(
        dims,
        weights,
        record["kind"],
        normalized=bool(record["normalized"]),
        reduced_m=record.get("reduced_m"),
    )
    return str(record["object_id"]), sig


def write_signatures_jsonl(
    path: str | Path, entries: Iterable[tuple[str, Signature]]
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for object_id, sig in entries:
            fh.write(json.dumps(signature_to_record(object_id, sig)) + "\n")


def read_signatures_jsonl(path: str | Path) -> list[tuple[str, Signature]]:
    out: list[tuple[str, Signature]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(signature_from_record(json.loads(line)))
    return out
