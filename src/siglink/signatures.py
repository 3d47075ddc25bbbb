"""Movement signatures: sparse TF-IDF vectors over spatial, sequential, and
spatiotemporal vocabularies, day-cycle histograms, and their similarities."""

from __future__ import annotations

import json
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import EmptySignatureError, EmptyTraceError
from .traces import (
    DEFAULT_UTC_OFFSET_HOURS,
    AnchorSet,
    Trace,
    TraceTable,
    _utf8_text,
    check_unique_ids,
)

NORM_TOL = 1e-9

KIND_SPATIAL = "spatial"


def sequential_kind(q: int) -> str:
    return f"sequential:q={q}"


def spatiotemporal_kind(g: int, dt_hours: int) -> str:
    return f"spatiotemporal:g={g},dt={dt_hours}"


@dataclass
class Signature:
    """Sparse non-negative vector over a dimension vocabulary: one row of a
    ``SignatureTable``, a tree node's aggregate or a hand-made vector.

    ``dims`` is strictly increasing and parallel to ``weights``; zero-weight
    dimensions are never stored. A normalized signature has unit L2 norm.
    """

    dims: np.ndarray
    weights: np.ndarray
    kind: str
    normalized: bool
    _pairs: list[tuple[int, float]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _dim_set: frozenset[int] | None = field(default=None, init=False, repr=False, compare=False)

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
# A set of signatures


def _indptr(nnz) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(nnz, dtype=np.int64)))


@dataclass(eq=False)
class SignatureTable(Mapping[str, Signature]):
    """Normalized signatures of one kind as CSR arrays, one row per object:
    row ``i`` holds ``dims[indptr[i]:indptr[i + 1]]`` and the same slice of
    ``weights``. ``ids`` are unique, in row order, and a table is refused
    where one repeats; ``kind`` is None only with no rows. As a mapping it
    gives each row by id as a ``Signature`` view."""

    kind: str | None
    ids: list[str]
    indptr: np.ndarray
    dims: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        check_unique_ids(self.ids, "row")
        self._row = {oid: i for i, oid in enumerate(self.ids)}

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __getitem__(self, object_id: str) -> Signature:
        i = self._row[object_id]
        at = slice(self.indptr[i], self.indptr[i + 1])
        return Signature(self.dims[at], self.weights[at], self.kind, True)

    @classmethod
    def of(cls, sigs: Mapping[str, Signature]) -> SignatureTable:
        """``sigs`` if it is a table, else its signatures as one. Refuses a
        signature that is not normalized, naming its object, and a mix of
        kinds."""
        if isinstance(sigs, SignatureTable):
            return sigs
        rows = list(sigs.values())
        kind = rows[0].kind if rows else None
        for object_id, sig in sigs.items():
            if not sig.normalized:
                raise ValueError(f"signature of {object_id!r} is not normalized")
            if sig.kind != kind:
                raise ValueError(f"signature kind mismatch: {sig.kind!r} vs {kind!r}")
        dims = np.concatenate([np.empty(0, dtype=np.int64), *(sig.dims for sig in rows)])
        weights = np.concatenate([np.empty(0), *(sig.weights for sig in rows)])
        return cls(kind, list(sigs), _indptr([sig.nnz() for sig in rows]), dims, weights)

    @classmethod
    def from_rows(
        cls, kind: str, object_ids: Sequence[str], rows, dims, weights
    ) -> tuple[SignatureTable, list[str]]:
        """The table of a COO table sorted by (row, dim) whose row ``i`` is
        object ``object_ids[i]``, and the id of each row with no entry, in
        row order."""
        nnz = np.bincount(rows, minlength=len(object_ids))
        ids = [object_ids[i] for i in np.flatnonzero(nnz).tolist()]
        table = cls(kind, ids, _indptr(nnz[nnz > 0]), dims, weights)
        return table, [object_ids[i] for i in np.flatnonzero(nnz == 0).tolist()]


# ---------------------------------------------------------------------------
# TF-IDF weighting


def _lookup(table: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's index in a sorted table of distinct values, and whether
    the table holds it."""
    at = np.searchsorted(table, keys)
    seen = at < len(table)
    seen[seen] = table[at[seen]] == keys[seen]
    return at, seen


def pair_counts(rows: np.ndarray, dims: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (row, dimension) pairs of one pair per point, sorted,
    and their counts. A pair is keyed ``row * width + dim`` over
    non-negative rows and dims when every key fits in int64; otherwise its
    dimension is numbered by rank first, which fits for any dimension ids."""
    if not len(dims):
        return rows[:0], dims[:0], np.zeros(0, dtype=np.int64)
    width = int(dims.max()) + 1
    if dims.min() >= 0 and (int(rows.max()) + 1) * width < 2**63:
        keys, counts = np.unique(rows * width + dims, return_counts=True)
        return keys // width, (keys % width).astype(dims.dtype, copy=False), counts
    vocab, rank = np.unique(dims, return_inverse=True)
    keys, counts = np.unique(rows * len(vocab) + rank, return_counts=True)
    return keys // len(vocab), vocab[keys % len(vocab)], counts


def tfidf_weights(
    rows: np.ndarray, dims: np.ndarray, counts: np.ndarray, corpus: Corpus, n_rows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TF-IDF weights of rows ``0 .. n_rows - 1`` of COO occurrence counts
    (see ``pair_counts``) in the weight space of the fitted ``corpus``;
    natural-log IDF, L2 normalized: the one weighting step of every TF-IDF
    kind. Returns the nonzero weights as COO rows, dims and weights, sorted
    by (row, dim). Dimensions the corpus has not seen are dropped before
    term frequencies are taken; dimensions in every object weigh 0 and are
    dropped too, so a row may be left with no entry. Each row is divided by
    its own ``sqrt(w.dot(w))``, as ``np.linalg.norm`` computes it, so it is
    bit-identical to weighting that object alone.
    """
    at, seen = _lookup(corpus.vocab, dims)
    counts = np.asarray(counts, dtype=float)
    total = np.bincount(rows[seen], weights=counts[seen], minlength=n_rows)
    factor = np.zeros(len(dims))
    factor[seen] = corpus.idf[at[seen]]
    keep = factor > 0.0
    rows, dims = rows[keep], dims[keep]
    weights = counts[keep] / total[rows] * factor[keep]
    bounds = np.searchsorted(rows, np.arange(n_rows + 1)).tolist()
    for s, e in zip(bounds, bounds[1:]):
        seg = weights[s:e]  # empty for a row with no entry
        seg /= math.sqrt(seg.dot(seg))
    return rows, dims, weights


# ---------------------------------------------------------------------------
# TF-IDF kinds: each turns a trace table's points into one dimension per occurrence


def check_dt(dt_hours: int) -> int:
    dt = int(dt_hours)
    if dt < 1 or 24 % dt != 0:
        raise ValueError(f"dt_hours must divide 24 exactly, got {dt_hours}")
    return dt


def time_bin(t, dt_hours: int, utc_offset_hours: int = DEFAULT_UTC_OFFSET_HOURS):
    """Index of the half-open local time-of-day interval containing t; takes
    an int or an int array."""
    seconds_of_day = (t + utc_offset_hours * 3600) % 86400
    return seconds_of_day // (dt_hours * 3600)


def grid_cells(anchors: AnchorSet, g: int) -> np.ndarray:
    """Each anchor's cell in a uniform g x g partition of the anchors'
    bounding box, numbered row by row from the south-west corner; anchors on
    the north or east edge fall in the last row or column."""
    if g < 1:
        raise ValueError("grid resolution must be >= 1")

    def index(v: np.ndarray) -> np.ndarray:
        span = v.max() - v.min()
        if span == 0:
            return np.zeros(len(v), dtype=np.int64)
        return np.minimum(((v - v.min()) / span * g).astype(np.int64), g - 1)

    return index(anchors.lats) * g + index(anchors.lons)


def _gram_keys(rows: np.ndarray, anchor_ids: np.ndarray, q: int):
    """Every run of q consecutive points that stays inside one trace: its
    row, and its anchor ids as one record whose fields compare in order."""
    n = max(len(rows) - q + 1, 0)
    inside = rows[:n] == rows[q - 1 : q - 1 + n]
    runs = np.column_stack([anchor_ids[i : i + n] for i in range(q)])[inside]
    return rows[:n][inside], runs.view([(f"a{i}", np.int64) for i in range(q)]).ravel()


@dataclass
class Corpus:
    """The weight space of one TF-IDF kind: how a trace's points become
    dimensions, and the document frequencies that weight them.

    Spatial and sequential q=1 dimensions are anchor ids. A sequential
    q >= 2 dimension is a gram's index in ``grams``, the corpus's sorted
    table of runs of q consecutive points inside one trace. A spatiotemporal
    dimension is ``cell * (24 // dt_hours) + interval``: the grid cell of the
    visited anchor (``cells``, see ``grid_cells``) and the local
    time-of-day interval of the visit. A fitted corpus holds its
    ``n_objects``, its ``vocab`` of distinct dimension ids, sorted, and
    ``df``, the document frequency of each of them; ``idf`` is derived from
    them once, when the corpus is made. ``kind_corpus`` makes a corpus that
    is not fitted; ``fit`` fits it.
    """

    kind: str
    q: int = 1
    grams: np.ndarray | None = None
    cells: np.ndarray | None = None
    dt_hours: int = 1
    utc_offset_hours: int = DEFAULT_UTC_OFFSET_HOURS
    n_objects: int = 0
    vocab: np.ndarray | None = None
    df: np.ndarray | None = None
    idf: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        # idf is log(n / df), floored at 0. In a single-object corpus it
        # would vanish under normalization, so every dimension gets factor 1
        # and is weighted by frequency alone.
        if self.df is not None:
            dfs, which = np.unique(self.df, return_inverse=True)
            log_of = np.array([math.log(self.n_objects / d) for d in dfs.tolist()])
            self.idf = np.maximum(log_of, 0.0)[which] if self.n_objects > 1 else np.ones(len(which))

    def fit(self, n_objects: int, dims: np.ndarray) -> Corpus:
        """This weight space fitted to ``n_objects`` objects from the dims of
        their distinct (object, dim) pairs; a dim's count is its df."""
        if n_objects < 1:
            raise ValueError("corpus must contain at least one trace")
        vocab, df = np.unique(np.asarray(dims, dtype=np.int64), return_counts=True)
        return replace(self, n_objects=n_objects, vocab=vocab, df=df)

    def column(
        self, rows: np.ndarray, anchor_ids: np.ndarray, t: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The row and dimension of each point of a ``TraceTable``'s
        columns; grams outside ``grams`` are dropped."""
        if self.cells is not None:
            interval = time_bin(t, self.dt_hours, self.utc_offset_hours)
            return rows, self.cells[anchor_ids] * (24 // self.dt_hours) + interval
        if self.q == 1:
            return rows, anchor_ids
        rows, keys = _gram_keys(rows, anchor_ids, self.q)
        ids, seen = _lookup(self.grams, keys)
        return rows[seen], ids[seen]


def kind_corpus(
    kind: str = KIND_SPATIAL,
    *,
    q: int = 2,
    anchors: AnchorSet | None = None,
    g: int = 100,
    dt_hours: int | None = None,
    utc_offset_hours: int = DEFAULT_UTC_OFFSET_HOURS,
) -> Corpus:
    """A corpus that is not fitted, for the TF-IDF kind named ``spatial``,
    ``sequential`` (grams of length ``q``) or ``spatiotemporal`` (a ``g`` x
    ``g`` grid over ``anchors`` and intervals of ``dt_hours``, refused when
    its ``g * g * (24 // dt_hours)`` dimensions exceed 2**62). Length-1
    grams keep the anchor id itself, so q=1 signatures live in the same
    dimension space as spatial ones."""
    if kind == KIND_SPATIAL:
        return Corpus(KIND_SPATIAL)
    if kind == "sequential":
        if q < 1:
            raise ValueError("gram length q must be >= 1")
        return Corpus(sequential_kind(q), q=q)
    if kind == "spatiotemporal":
        if anchors is None or dt_hours is None:
            raise ValueError("spatiotemporal signatures need anchors and dt_hours")
        dt = check_dt(dt_hours)
        if g * g * (24 // dt) > 2**62:
            raise ValueError(
                f"g={g} and dt={dt} give {g * g * (24 // dt)} cell-time dimensions;"
                " dimension ids hold at most 2**62"
            )
        return Corpus(
            spatiotemporal_kind(g, dt),
            cells=grid_cells(anchors, g),
            dt_hours=dt,
            utc_offset_hours=utc_offset_hours,
        )
    raise ValueError(f"unsupported signature kind {kind!r}")


def tfidf_signatures(
    traces: Sequence[Trace], corpus: Corpus
) -> tuple[SignatureTable, list[str], Corpus]:
    """TF-IDF signatures of ``traces``, a ``TraceTable`` or a list of
    traces, in the weight space of ``corpus``.

    A corpus that is not fitted is first fitted to the non-empty traces
    among these: their gram table, for q >= 2, and their document
    frequencies. Returns the signatures, the ids of traces left without one
    (empty, or every dimension corpus-wide or unseen) in trace order, and
    the corpus used. A repeated object id is refused (``TraceTable``), and
    so, for a spatiotemporal corpus, is an anchor id outside its grid's
    anchors.
    """
    table = TraceTable.of(traces)
    rows, anchor_ids, t = table.rows(), table.anchor_ids, table.t
    fit = corpus.df is None
    if fit and not len(rows):
        raise EmptyTraceError("corpus has no non-empty traces")
    if corpus.cells is not None:
        table.check_anchor_ids(len(corpus.cells))
    if fit and corpus.q > 1:
        corpus = replace(corpus, grams=np.unique(_gram_keys(rows, anchor_ids, corpus.q)[1]))
    pair_rows, dims, counts = pair_counts(*corpus.column(rows, anchor_ids, t))
    if fit:
        corpus = corpus.fit(np.count_nonzero(np.diff(rows, prepend=-1)), dims)
    weighted = tfidf_weights(pair_rows, dims, counts, corpus, len(table))
    sigs, excluded = SignatureTable.from_rows(corpus.kind, table.ids, *weighted)
    return sigs, excluded, corpus


# ---------------------------------------------------------------------------
# Temporal histograms and earth mover's distance


def temporal_histograms(
    traces: Sequence[Trace],
    dt_hours: int,
    utc_offset_hours: int = DEFAULT_UTC_OFFSET_HOURS,
) -> np.ndarray:
    """Every trace's L1-normalized visit-time histogram, one row per trace
    in trace order over the ``24 // dt_hours`` daily intervals; an empty
    trace's row is all zeros."""
    dt = check_dt(dt_hours)
    d = 24 // dt
    table = TraceTable.of(traces)
    keys = table.rows() * d + time_bin(table.t, dt, utc_offset_hours)
    counts = np.bincount(keys, minlength=len(table) * d).reshape(len(table), d)
    return counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)


def temporal_cost(i: int, j: int, dt_hours: int) -> float:
    """Unit transport cost between two daily intervals: the circular gap in
    hours over 12, so the antipodal half-day costs exactly 1."""
    dt = check_dt(dt_hours)
    d = 24 // dt
    if not (0 <= i < d and 0 <= j < d):
        raise ValueError(f"bin index out of range for {d} bins: ({i}, {j})")
    gap = abs(i - j) * dt
    return gap / 12.0 if gap <= 12 else (24 - gap) / 12.0


def emd(a: np.ndarray, b: np.ndarray, dt_hours: int) -> float:
    """Exact earth mover's distance under the circular daily cost between
    two rows of ``temporal_histograms`` made with ``dt_hours``.

    For a one-dimensional circular histogram with arc-length ground cost the
    optimal transport has a closed form (Rabin, Delon and Gousseau, 2011):
    shift the cumulative difference by its median and sum the absolute
    values. One bin step costs dt/12, so the result lands in [0, 1]. Rows
    that do not hold ``24 // dt_hours`` bins raise ``ValueError``, as do
    rows that are not distributions: finite, non-negative bins summing to 1
    within ``NORM_TOL`` (an empty trace's all-zero row is not one).
    """
    dt = check_dt(dt_hours)
    d = 24 // dt
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != (d,) or b.shape != (d,):
        raise ValueError(f"histogram layout mismatch: {a.shape} vs {b.shape} for {d} bins of {dt}h")
    for row in (a, b):
        # a nan bin fails the first test, an infinite one the second
        if not ((row >= 0.0).all() and abs(row.sum() - 1.0) <= NORM_TOL):
            raise ValueError("EMD needs both histograms L1-normalized")
    cum = np.cumsum(a - b)
    shift = np.median(cum)
    arc_steps = float(np.abs(cum - shift).sum())
    return min(1.0, max(0.0, arc_steps * dt / 12.0))


def emd_similarity(a: np.ndarray, b: np.ndarray, dt_hours: int) -> float:
    return 1.0 - emd(a, b, dt_hours)


# ---------------------------------------------------------------------------
# Signature file format (JSON lines)


_RECORD_KEYS = ("object_id", "kind", "normalized", "sig")


def check_row(dims: np.ndarray, weights: np.ndarray) -> None:
    """Refuse, naming the rule, a signature row that breaks what cosine
    scores and the bounds rely on: dims non-negative and strictly increasing,
    weights finite and > 0, and unit norm within ``NORM_TOL``. The signature
    JSONL reader calls it on every record."""
    if (dims < 0).any() or (np.diff(dims) <= 0).any():
        raise ValueError("dims must be non-negative and strictly increasing")
    if not (np.isfinite(weights) & (weights > 0.0)).all():
        raise ValueError("weights must be finite and > 0")
    norm = float(np.linalg.norm(weights))
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"marked normalized but its norm is {norm!r}")


def signature_from_record(record: Mapping) -> tuple[str, Signature]:
    """A signature read back from its record: an object with keys
    ``_RECORD_KEYS``, a non-empty string id, a string kind, marked
    normalized, and a list of [dim, weight] pairs whose row passes
    ``check_row``. Other keys, such as the per-row cut m that older files
    carry, are ignored. Raises ``ValueError`` for a record that breaks any
    of these."""
    if not isinstance(record, dict) or any(key not in record for key in _RECORD_KEYS):
        raise ValueError(f"a signature record is an object with keys {', '.join(_RECORD_KEYS)}")
    object_id, pairs, normalized = record["object_id"], record["sig"], record["normalized"]
    if not (isinstance(object_id, str) and object_id):
        raise ValueError("'object_id' must be a non-empty string")
    if not (isinstance(record["kind"], str) and isinstance(normalized, bool)):
        raise ValueError("a signature record needs a string kind and a true/false normalized flag")
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and type(p[0]) is int and type(p[1]) in (int, float)
        for p in pairs
    ):
        raise ValueError("'sig' must be a list of [int dim, number weight] pairs")
    try:
        dims = np.array([p[0] for p in pairs], dtype=np.int64)
        weights = np.array([p[1] for p in pairs], dtype=float)
    except OverflowError:
        raise ValueError("a dim or weight is out of range") from None
    if not normalized:  # top-m cuts, cosine scores and the bounds need unit vectors
        raise ValueError(f"signature of {object_id!r} is not normalized")
    check_row(dims, weights)
    return object_id, Signature(dims, weights, record["kind"], True)


def write_signatures_jsonl(path: str | Path, sigs: Mapping[str, Signature]) -> None:
    """One record per signature, by ascending id."""
    with open(path, "w", encoding="utf-8") as fh:
        for object_id in sorted(sigs):
            sig = sigs[object_id]
            record = {"object_id": object_id, "kind": sig.kind, "normalized": sig.normalized,
                      "sig": sig.pairs()}
            fh.write(json.dumps(record) + "\n")


def read_signatures_jsonl(path: str | Path) -> SignatureTable:
    """The signatures of a file of records, one per non-blank line, in file
    order. A line that is not a valid record (see ``signature_from_record``),
    whose kind is not the first record's, or whose id an earlier line holds
    raises ``ValueError`` naming the file and line, as do a last record
    without a line break (a truncated file), bytes that are not UTF-8 and a
    file with no record, at its last line."""
    sigs: dict[str, Signature] = {}
    lineno = 1
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                # json raises RecursionError on a line nested past its depth
                try:
                    object_id, sig = signature_from_record(json.loads(line))
                    kind = next(iter(sigs.values()), sig).kind
                    if sig.kind != kind:
                        raise ValueError(f"signature kind mismatch: {sig.kind!r} vs {kind!r}")
                    if object_id in sigs:
                        raise ValueError(f"object id {object_id!r} repeats an earlier record's")
                except (ValueError, RecursionError) as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if not line.endswith("\n"):
                    raise ValueError(
                        f"{path}:{lineno}: the last record has no line break;"
                        " is the file truncated?"
                    )
                sigs[object_id] = sig
    except UnicodeDecodeError:
        _utf8_text(path)  # raises the ValueError naming the line
        raise
    if not sigs:
        raise ValueError(f"{path}:{lineno}: no signature record")
    return SignatureTable.of(sigs)
