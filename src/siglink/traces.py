"""GPS trace ingestion, anchor calibration, filtering, and query/reference splits."""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EmptyTraceError

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

EARTH_RADIUS_M = 6_371_000.0
METERS_PER_DEGREE = EARTH_RADIUS_M * np.pi / 180.0

# Day boundaries are computed in a fixed UTC offset rather than inferred from
# the data; +8 matches the east-Asian vehicle feeds this library grew out of.
DEFAULT_UTC_OFFSET_HOURS = 8

# First candidate pool when re-ranking KD-tree hits by exact distance; it
# doubles for the points whose whole pool ties.
_NEAREST_POOL = 8

# A point whose second KD-tree neighbour is farther than the first by more
# than this relative-plus-absolute gap in metres has a unique nearest anchor;
# see nearest_anchors for why the gap is sound.
_CLEAR_GAP = 1e-6

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


class RawPoint(NamedTuple):
    """One GPS fix: WGS84 degrees plus an epoch-seconds timestamp. A plain
    tuple: it equals, hashes and unpacks as ``(lon, lat, t)``."""

    lon: float
    lat: float
    t: int


class Trace:
    """A calibrated trace: chronological visits, whose timestamps never
    fall, held as two parallel 1-d int64 columns, ``anchor_ids`` and their
    timestamps ``t``. A row of a ``TraceTable`` is read as one.

    ``Trace(object_id, points)`` takes ``(anchor_id, timestamp)`` pairs;
    ``Trace.of`` takes the two columns as they are. ``points`` is a list of
    pairs built on each read, for perfbench's hooks and tests; assigning it
    replaces both columns. Traces are equal when their ids and columns are.
    """

    __slots__ = ("object_id", "anchor_ids", "t")
    __hash__ = None  # mutable, and equal by value

    def __init__(self, object_id: str, points: Iterable[tuple[int, int]]):
        self.object_id = object_id
        self.points = points

    @classmethod
    def of(cls, object_id: str, anchor_ids: np.ndarray, t: np.ndarray) -> Trace:
        """The trace of two parallel int64 columns, which it holds without
        copying."""
        trace = cls.__new__(cls)
        trace.object_id, trace.anchor_ids, trace.t = object_id, anchor_ids, t
        return trace

    @property
    def points(self) -> list[tuple[int, int]]:
        return list(zip(self.anchor_ids.tolist(), self.t.tolist()))

    @points.setter
    def points(self, points: Iterable[tuple[int, int]]) -> None:
        pairs = np.array(list(points), dtype=np.int64).reshape(-1, 2)
        self.anchor_ids, self.t = pairs.T.copy()

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.object_id == other.object_id
            and np.array_equal(self.anchor_ids, other.anchor_ids)
            and np.array_equal(self.t, other.t)
        )

    def __repr__(self) -> str:
        return f"Trace(object_id={self.object_id!r}, points={self.points!r})"


class AnchorSet:
    """Immutable anchor vocabulary; ids are dense in [0, len).

    The coordinate arrays are never modified and must be WGS84 degrees. The
    lookup tree of unit vectors is built on first use and cached on the
    instance; scipy's KD-tree module is imported only then, so a process
    that never calibrates raw fixes never loads it.
    """

    def __init__(self, lons: Sequence[float], lats: Sequence[float]):
        self.lons = np.asarray(lons, dtype=float)
        self.lats = np.asarray(lats, dtype=float)
        if self.lons.ndim != 1 or self.lons.shape != self.lats.shape:
            raise ValueError("lons and lats must be parallel 1-d sequences")
        if len(self.lons) == 0:
            raise ValueError("anchor set must contain at least one anchor")
        problem = _outside_wgs84(self.lons, self.lats)
        if problem:
            raise ValueError(f"anchor {problem}")
        self._sphere_tree: cKDTree | None = None

    def __len__(self) -> int:
        return len(self.lons)

    def sphere_tree(self) -> cKDTree:
        if self._sphere_tree is None:
            from scipy.spatial import cKDTree

            self._sphere_tree = cKDTree(_unit_sphere(self.lons, self.lats))
        return self._sphere_tree


def metre_grid(lons, lats, cell_m: float, ref=slice(None)):
    """Square cells ``cell_m`` metres wide, in degrees at the mean latitude
    of the points ``lons[ref], lats[ref]`` and counted from their south-west
    corner: each point's (column, row) as an (n, 2) int64 array, and the
    grid as ``(west, south, dlon, dlat)``."""
    west, south = float(lons[ref].min()), float(lats[ref].min())
    mean_lat = float(np.mean(lats[ref]))
    dlat = cell_m / METERS_PER_DEGREE
    dlon = cell_m / (METERS_PER_DEGREE * max(np.cos(np.radians(mean_lat)), 1e-9))
    ix = np.floor((lons - west) / dlon).astype(np.int64)
    iy = np.floor((lats - south) / dlat).astype(np.int64)
    return np.column_stack([ix, iy]), (west, south, dlon, dlat)


def haversine_m(lon1, lat1, lon2, lat2):
    """Great-circle distance in meters; accepts scalars or numpy arrays."""
    lon1, lat1, lon2, lat2 = (
        np.radians(np.asarray(v, dtype=float)) for v in (lon1, lat1, lon2, lat2)
    )
    a = (
        np.sin((lat2 - lat1) / 2.0) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2
    )
    return EARTH_RADIUS_M * 2.0 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def _outside_wgs84(lons: np.ndarray, lats: np.ndarray) -> str | None:
    """The index of the first (lon, lat) outside [-180, 180] x [-90, 90] or
    not finite, and what it has; None if there is none. Passing costs one
    test of each column's largest magnitude, which nan fails."""
    if np.abs(lons).max() <= 180.0 and np.abs(lats).max() <= 90.0:
        return None
    i = int(np.argmin((np.abs(lons) <= 180.0) & (np.abs(lats) <= 90.0)))
    lon, lat = float(lons[i]), float(lats[i])
    finite = math.isfinite(lon) and math.isfinite(lat)
    what = "a coordinate outside WGS84" if finite else "a non-finite coordinate"
    return f"{i} has {what}: lon {lon}, lat {lat}"


def _unit_sphere(lons, lats) -> np.ndarray:
    lon_r = np.radians(np.asarray(lons, dtype=float))
    lat_r = np.radians(np.asarray(lats, dtype=float))
    cos_lat = np.cos(lat_r)
    return np.column_stack([cos_lat * np.cos(lon_r), cos_lat * np.sin(lon_r), np.sin(lat_r)])


def nearest_anchors(anchors: AnchorSet, lons, lats) -> np.ndarray:
    """Nearest anchor id for each (lon, lat); exact ties go to the lowest id.

    "Ties" are anchors within ``1e-9 * max(dmin, 1)`` metres of the nearest
    haversine distance ``dmin``. The KD-tree of unit vectors screens every
    point with its two nearest anchors; a point whose second neighbour is
    farther than the first by more than the clear gap ``d1 * 1e-6 + 1e-6``
    takes the first directly. Only the remaining near-ties are re-ranked:
    the tree's nearest ``_NEAREST_POOL`` anchors are scored by haversine
    and the lowest id within the tie tolerance wins. A point whose farthest
    pooled anchor still ties is re-ranked again over a pool twice as large,
    until the farthest one no longer ties or the pool holds every anchor.

    Why the screen returns what the re-ranking would: the screen scales
    chord lengths ``c`` by the earth radius R. The great-circle distance
    ``R * 2 * asin(c / 2)`` is at least ``R * c``, and since ``asin`` has
    slope >= 1 the arc gap between two anchors is at least ``R`` times their
    chord gap. So every other anchor lies more than ``1e-6 * (d1 + 1)``
    beyond the first neighbour, whose haversine distance is at most
    ``pi / 2`` times ``d1``. That gap exceeds the tie tolerance by a factor
    of over 600, and the rounding of either distance (about ``1e-8`` m
    absolute plus a few ulps relative) by over 100, so no other anchor can
    tie or win.
    """
    lons = np.atleast_1d(np.asarray(lons, dtype=float))
    lats = np.atleast_1d(np.asarray(lats, dtype=float))
    tree, points = anchors.sphere_tree(), _unit_sphere(lons, lats)
    # with one anchor the missing second neighbour comes back at infinity,
    # which always clears the gap
    dist, idx = tree.query(points, k=2)
    d1 = dist[:, 0] * EARTH_RADIUS_M
    d2 = dist[:, 1] * EARTH_RADIUS_M
    nearest = idx[:, 0]
    near_tie = ~(d2 > d1 * (1.0 + _CLEAR_GAP) + _CLEAR_GAP)
    if near_tie.any():
        nearest[near_tie] = _nearest_in_pool(
            anchors, tree, points[near_tie], lons[near_tie], lats[near_tie]
        )
    return nearest


def _nearest_in_pool(
    anchors: AnchorSet, tree: cKDTree, points: np.ndarray, lons, lats
) -> np.ndarray:
    """Haversine re-ranking of the KD-tree's nearest anchors, widening the
    pool while its farthest anchor still ties.

    Chord distance on the unit sphere is monotone in great-circle distance, so
    the candidates are retrieved in 3-d and re-ranked by haversine before
    tie-breaking; anchors outside a pool are no nearer than its farthest one.
    """
    nearest = np.empty(len(lons), dtype=np.intp)
    rows = np.arange(len(lons))
    k = min(_NEAREST_POOL, len(anchors))
    while True:
        _, idx = tree.query(points[rows], k=k)
        idx = idx.reshape(len(rows), k)
        row_lons, row_lats = lons[rows, None], lats[rows, None]
        exact = haversine_m(row_lons, row_lats, anchors.lons[idx], anchors.lats[idx])
        dmin = exact.min(axis=1, keepdims=True)
        tied = exact <= dmin + 1e-9 * np.maximum(dmin, 1.0)
        nearest[rows] = np.where(tied, idx, len(anchors)).min(axis=1)
        rows = rows[tied[:, -1]]
        if k == len(anchors) or not len(rows):
            return nearest
        k = min(2 * k, len(anchors))


def calibrate_trace(object_id: str, raw: Sequence[RawPoint], anchors: AnchorSet) -> Trace:
    """Snap raw fixes to their nearest anchors and collapse consecutive repeats.

    Input is sorted by timestamp first (stably, so fixes sharing a timestamp
    keep their input order); a run of points snapping to the same anchor
    keeps only its earliest timestamp. A fix that is not a WGS84 coordinate
    raises ``ValueError`` naming the object and the fix's index in ``raw``.
    """
    if not raw:
        raise EmptyTraceError(f"no raw points for object {object_id!r}")
    lons, lats, stamps = zip(*raw)
    lons, lats = np.array(lons, dtype=float), np.array(lats, dtype=float)
    problem = _outside_wgs84(lons, lats)
    if problem:
        raise ValueError(f"object {object_id!r}: fix {problem}")
    stamps = np.array(stamps, dtype=np.int64)
    order = np.argsort(stamps, kind="stable")
    ids = nearest_anchors(anchors, lons[order], lats[order])
    keep = np.empty(len(raw), dtype=bool)
    keep[0] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return Trace.of(object_id, ids[keep], stamps[order[keep]])


def filter_min_points(traces: Iterable[Trace], min_points: int) -> list[Trace]:
    """Keep traces with at least min_points calibrated points, order preserved."""
    if min_points < 0:
        raise ValueError("min_points must be >= 0")
    return [t for t in traces if len(t) >= min_points]


@dataclass(frozen=True)
class SplitStrategy:
    """Rule assigning each object's day-groups to the query or reference half."""

    name: str
    q_days: int = 0
    seed: int = 0

    _NAMES = ("interleaved", "serial", "random", "weekday_weekend")

    def __post_init__(self) -> None:
        if self.name not in self._NAMES:
            raise ValueError(f"unknown split strategy {self.name!r}")
        if self.name in ("serial", "random") and self.q_days < 1:
            raise ValueError(f"{self.name} split needs q_days >= 1")

    @classmethod
    def interleaved(cls) -> "SplitStrategy":
        return cls("interleaved")

    @classmethod
    def serial(cls, q_days: int) -> "SplitStrategy":
        return cls("serial", q_days=q_days)

    @classmethod
    def random(cls, q_days: int, seed: int = 0) -> "SplitStrategy":
        return cls("random", q_days=q_days, seed=seed)

    @classmethod
    def weekday_weekend(cls) -> "SplitStrategy":
        return cls("weekday_weekend")


@dataclass
class SplitResult:
    """Both halves of a split, as tables with a row per object in input
    order, and the ids of the objects left with an empty half."""

    q: TraceTable
    d: TraceTable
    flagged: list[str]


def local_date(t: int, utc_offset_hours: int = DEFAULT_UTC_OFFSET_HOURS) -> date:
    return datetime.fromtimestamp(
        int(t) + utc_offset_hours * 3600, tz=timezone.utc
    ).date()


def _query_dates(
    object_id: str, dates: list[date], strategy: SplitStrategy
) -> set[date]:
    if strategy.name == "interleaved":
        return {d for d in dates if d.day % 2 == 1}
    if strategy.name == "weekday_weekend":
        return {d for d in dates if d.weekday() >= 5}
    ordered = sorted(set(dates))
    take = min(strategy.q_days, len(ordered))
    if strategy.name == "serial":
        return set(ordered[:take])
    # random: a per-object generator keyed on (seed, object id) keeps each
    # object's split stable when other objects come and go
    rng = random.Random(f"{strategy.seed}:{object_id}")
    return set(rng.sample(ordered, take))


def check_unique_ids(ids: Sequence[str], what: str) -> None:
    """Refuse ``ids`` if one repeats: ``ValueError`` naming the first id
    that an earlier ``what`` (trace, row) holds."""
    seen: set[str] = set()
    for oid in ids:
        if oid in seen:
            raise ValueError(f"object id {oid!r} repeats an earlier {what}'s")
        seen.add(oid)


class TraceTable(Sequence[Trace]):
    """A set of calibrated traces as one table, which splitting, weighting,
    histograms and utility read as it is: object ``ids`` in row order and
    int64 point columns in CSR layout, row ``i`` holding
    ``anchor_ids[indptr[i]:indptr[i + 1]]`` and the same slice of ``t``.
    ``table[i]`` is row ``i`` as a ``Trace`` view of the columns; assigning
    ``points`` on it rebinds only that view. Tables are equal when their ids
    and columns are. An object id that repeats, or a negative anchor id,
    raises ``ValueError`` naming its object."""

    __hash__ = None  # mutable, and equal by value

    def __init__(self, ids: Sequence[str], indptr: np.ndarray, anchor_ids: np.ndarray,
                 t: np.ndarray):
        check_unique_ids(ids, "trace")
        self.ids, self.indptr, self.anchor_ids, self.t = list(ids), indptr, anchor_ids, t
        if len(anchor_ids) and anchor_ids.min() < 0:
            at = int(np.argmax(anchor_ids < 0))
            oid = self.ids[self.rows()[at]]
            raise ValueError(f"object {oid!r} has negative anchor id {anchor_ids[at]}")

    @classmethod
    def of(cls, traces: Iterable[Trace]) -> TraceTable:
        """``traces`` if it is a table, else its traces as one, in order."""
        if isinstance(traces, TraceTable):
            return traces
        traces = list(traces)
        empty = np.empty(0, dtype=np.int64)
        return cls(
            [trace.object_id for trace in traces],
            np.cumsum([0, *map(len, traces)], dtype=np.int64),
            np.concatenate([empty, *(trace.anchor_ids for trace in traces)]),
            np.concatenate([empty, *(trace.t for trace in traces)]),
        )

    def rows(self) -> np.ndarray:
        """Each point's row: the index of its trace."""
        return np.repeat(np.arange(len(self.ids)), np.diff(self.indptr))

    def masked(self, keep: np.ndarray) -> TraceTable:
        """The table of the points a boolean mask over them keeps, in order;
        every row stays, empty or not. A row's new start is the count of
        kept points before its old one."""
        kept = np.flatnonzero(keep)
        return TraceTable(self.ids, np.searchsorted(kept, self.indptr), self.anchor_ids[kept],
                          self.t[kept])

    def check_anchor_ids(self, n_anchors: int) -> None:
        """Refuse a point whose anchor id is outside an anchor set of
        ``n_anchors``: ``ValueError`` naming its object, the id and the count."""
        if len(self.anchor_ids) and self.anchor_ids.max() >= n_anchors:
            at = int(np.argmax(self.anchor_ids >= n_anchors))
            raise ValueError(
                f"object {self.ids[self.rows()[at]]!r} names anchor {self.anchor_ids[at]},"
                f" beyond the {n_anchors} anchors"
            )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Trace:
        i = range(len(self.ids))[i]
        at = slice(self.indptr[i], self.indptr[i + 1])
        return Trace.of(self.ids[i], self.anchor_ids[at], self.t[at])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceTable):
            return NotImplemented
        columns = (self.indptr, self.anchor_ids, self.t), (other.indptr, other.anchor_ids, other.t)
        return self.ids == other.ids and all(map(np.array_equal, *columns))


def day_pairs(
    rows: np.ndarray, t: np.ndarray, utc_offset_hours: int = DEFAULT_UTC_OFFSET_HOURS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (object, local day) pairs of a table's points, sorted:
    their objects, their day numbers since 1970-01-01, and how many points
    each holds. ``rows`` gives each point's object, in table order, and
    ``t`` its timestamp, in time order within each object, so each pair is
    a run of points."""
    # floor division keeps days before the epoch whole
    day = (t + utc_offset_hours * 3600) // 86400
    first = np.ones(len(t), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (day[1:] != day[:-1])
    starts = np.flatnonzero(first)
    return rows[starts], day[starts], np.diff(starts, append=len(t))


def query_days(
    object_ids: Sequence[str],
    rows: np.ndarray,
    days: np.ndarray,
    strategy: SplitStrategy,
) -> np.ndarray:
    """Whether each distinct (object, day) pair from ``day_pairs`` goes to
    the query half, by ``_query_dates``'s rule: an object's split depends
    only on the days among the pairs given, which are sorted by (object,
    day). The calendar rules and ``serial`` are array expressions over the
    day numbers; ``random`` runs ``_query_dates`` per object, since its
    generator is keyed on the object."""
    if strategy.name == "interleaved":
        # odd day of the month: the 1st is 0 days past its month's start
        day = days.astype("datetime64[D]")
        return (day - day.astype("datetime64[M]")).astype(np.int64) % 2 == 0
    if strategy.name == "weekday_weekend":
        # 1970-01-01, day 0, was a Thursday (weekday 3)
        return (days + 3) % 7 >= 5
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    if strategy.name == "serial":
        sizes = np.diff(np.append(starts, len(rows)))
        return np.arange(len(rows)) - np.repeat(starts, sizes) < strategy.q_days
    dates = list(map(date.fromordinal, (days + _EPOCH_ORDINAL).tolist()))
    bounds = [*starts.tolist(), len(rows)]
    in_q: list[bool] = []
    for s, e in zip(bounds, bounds[1:]):
        to_q = _query_dates(object_ids[rows[s]], dates[s:e], strategy)
        in_q.extend(map(to_q.__contains__, dates[s:e]))
    return np.array(in_q, dtype=bool)


def split_dataset(
    traces: Iterable[Trace],
    strategy: SplitStrategy,
    utc_offset_hours: int = DEFAULT_UTC_OFFSET_HOURS,
) -> SplitResult:
    """Split every trace into a query half and a reference half by calendar day.

    Each object appears in both halves, as a row of each table, cut from
    one table by one mask; objects whose strategy leaves one half empty are
    still emitted but reported in ``flagged`` so downstream accuracy
    denominators can exclude them. A trace whose timestamps fall anywhere,
    against the ``Trace`` contract, raises ``ValueError`` naming its object.
    """
    table = TraceTable.of(traces)
    rows, t = table.rows(), table.t
    falls = np.flatnonzero((t[1:] < t[:-1]) & (rows[1:] == rows[:-1])) + 1
    if len(falls):
        raise ValueError(f"object {table.ids[rows[falls[0]]]!r}: timestamp {t[falls[0]]} precedes"
                         " its previous point's; a trace's points run in time order")
    day_rows, days, sizes = day_pairs(rows, t, utc_offset_hours)
    in_q = np.repeat(query_days(table.ids, day_rows, days, strategy), sizes)
    q, d = table.masked(in_q), table.masked(~in_q)
    empty = (np.diff(q.indptr) == 0) | (np.diff(d.indptr) == 0)
    return SplitResult(q, d, [table.ids[i] for i in np.flatnonzero(empty).tolist()])


# ---------------------------------------------------------------------------
# File formats


def _degrees(field: str, limit: int) -> float:
    """A CSV column type, with ``limit`` bound: a float in [-limit, limit]."""
    value = float(field)
    if not abs(value) <= limit:  # nan fails too
        raise ValueError(f"{field!r} is not a finite number in [-{limit}, {limit}]")
    return value


def _csv_rows(
    path: str | Path, columns: Mapping[str, Callable[[str], object]], what: str
) -> Iterator[tuple[int, list]]:
    """The non-blank rows after a CSV file's header, each with its line
    number and each field converted by its column's type. The header must
    list ``columns`` in order; bytes that are not UTF-8, a wrong header, a
    row without one field per column, a field its column's type refuses or
    a last row without a line break (a truncated file) raise ``ValueError``
    naming the file and line."""
    header = list(columns)
    text = _utf8_text(path)
    # newline="" reads lines as open(..., newline="") would, as csv wants
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = _parsed(reader, path)
    first = next(rows, None)
    if first != header:
        raise ValueError(f"{path}:{max(reader.line_num, 1)}: bad {what} header: {first}")
    line = 0
    for row in rows:
        if not row:
            continue
        line = reader.line_num
        if len(row) != len(header):
            raise ValueError(f"{path}:{line}: expected {len(header)} fields, got {len(row)}")
        values = []
        for (name, convert), field in zip(columns.items(), row):
            try:
                values.append(convert(field))
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: {name}: {exc}") from None
        yield line, values
    if line and not text.endswith(("\n", "\r")):
        raise ValueError(f"{path}:{line}: the last row has no line break; is the file truncated?")


def _utf8_text(path: str | Path) -> str:
    """A file's text; bytes that are not UTF-8 raise ``ValueError`` naming
    the file and the line they are on, counting a CR, an LF or a CRLF as
    one line break."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[: exc.start].decode("utf-8")
        line = before.count("\n") + before.count("\r") - before.count("\r\n") + 1
        raise ValueError(f"{path}:{line}: not UTF-8") from None


def _parsed(reader, path: str | Path) -> Iterator[list[str]]:
    """The rows of a ``csv.reader``, with its own errors (a field over the
    size limit) raised as ``ValueError`` naming the file and line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def _point_int(field: str) -> int:
    """A CSV column type for point anchor ids and timestamps: an integer below
    2**62 in magnitude, which int64 point columns hold with room for offsets."""
    value = int(field)
    if not abs(value) < 2**62:
        raise ValueError(f"{field!r} is not below 2**62 in magnitude")
    return value


def _object_id(field: str) -> str:
    """A CSV column type for object ids: a non-empty string."""
    if not field:
        raise ValueError("empty; an object id is a non-empty string")
    return field


_LON, _LAT = partial(_degrees, limit=180), partial(_degrees, limit=90)
_RAW_COLUMNS = {"object_id": _object_id, "lon": _LON, "lat": _LAT, "timestamp": _point_int}
_ANCHOR_COLUMNS = {"anchor_id": int, "lon": _LON, "lat": _LAT}
_TRACE_COLUMNS = {"object_id": _object_id, "anchor_id": _point_int, "timestamp": _point_int}


def read_raw_csv(path: str | Path) -> dict[str, list[RawPoint]]:
    """Read `object_id,lon,lat,timestamp` rows grouped by object."""
    out: dict[str, list[RawPoint]] = {}
    for _, (oid, lon, lat, t) in _csv_rows(path, _RAW_COLUMNS, "raw trace"):
        out.setdefault(oid, []).append(RawPoint(lon, lat, t))
    return out


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and then ``rows`` as a UTF-8 CSV file in the csv
    module's default dialect (lines end in CRLF), as every CSV here is
    written; ``_csv_rows`` reads them back."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as UTF-8 JSON indented by two spaces, ending in a
    line break, as every JSON file here is written."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_raw_csv(path: str | Path, raw: dict[str, list[RawPoint]]) -> None:
    rows = ([oid, repr(p.lon), repr(p.lat), p.t] for oid, pts in raw.items() for p in pts)
    write_csv(path, list(_RAW_COLUMNS), rows)


def read_anchor_csv(path: str | Path) -> AnchorSet:
    """Read `anchor_id,lon,lat` rows whose ids run 0, 1, 2, ... in file
    order; a row with any other id (a duplicate, a gap or a row out of
    order), or a file with no row, raises ``ValueError`` naming the file and
    line."""
    lons: list[float] = []
    lats: list[float] = []
    for line, (anchor_id, lon, lat) in _csv_rows(path, _ANCHOR_COLUMNS, "anchor"):
        if anchor_id != len(lons):
            raise ValueError(
                f"{path}:{line}: anchor id {anchor_id} where {len(lons)} was due;"
                " ids run 0, 1, 2, ... in file order"
            )
        lons.append(lon)
        lats.append(lat)
    if not lons:
        raise ValueError(f"{path}:1: no anchor row after the header")
    return AnchorSet(lons, lats)


def write_anchor_csv(path: str | Path, anchors: AnchorSet) -> None:
    coords = enumerate(zip(anchors.lons.tolist(), anchors.lats.tolist()))
    write_csv(path, list(_ANCHOR_COLUMNS), ([i, repr(lon), repr(lat)] for i, (lon, lat) in coords))


def read_trace_csv(path: str | Path) -> list[Trace]:
    """Read calibrated `object_id,anchor_id,timestamp` rows, file order kept.
    A negative anchor id, or a timestamp earlier than its object's previous
    row's, raises ``ValueError`` naming the file and line; equal timestamps
    are allowed."""
    columns: dict[str, tuple[list[int], list[int]]] = {}
    for line, (oid, anchor_id, t) in _csv_rows(path, _TRACE_COLUMNS, "calibrated trace"):
        if anchor_id < 0:
            raise ValueError(f"{path}:{line}: anchor id {anchor_id} is negative")
        ids, stamps = columns.setdefault(oid, ([], []))
        if stamps and t < stamps[-1]:
            raise ValueError(f"{path}:{line}: timestamp {t} of {oid!r} precedes its previous row's")
        ids.append(anchor_id)
        stamps.append(t)
    return [
        Trace.of(oid, np.array(ids, dtype=np.int64), np.array(stamps, dtype=np.int64))
        for oid, (ids, stamps) in columns.items()
    ]


def write_trace_csv(path: str | Path, traces: Iterable[Trace]) -> None:
    rows = (
        [trace.object_id, a, t]
        for trace in traces
        for a, t in zip(trace.anchor_ids.tolist(), trace.t.tolist())
    )
    write_csv(path, list(_TRACE_COLUMNS), rows)
