"""Signature dimensionality reduction (top-m truncation) and the spatial
bounding boxes of reduced signatures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .signatures import KIND_SPATIAL, Signature, SignatureTable
from .traces import AnchorSet


@dataclass(frozen=True)
class Mbr:
    """Axis-aligned bounding rectangle in degrees; degenerate boxes allowed,
    inverted ones and NaN bounds refused."""

    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    def __post_init__(self) -> None:
        if not (self.min_lon <= self.max_lon and self.min_lat <= self.max_lat):
            raise ValueError(f"inverted or NaN rectangle: {self}")

    def intersects(self, other: "Mbr") -> bool:
        # closed rectangles: touching edges count as overlap, so a shared
        # boundary point is never pruned away
        return not (
            self.max_lon < other.min_lon
            or other.max_lon < self.min_lon
            or self.max_lat < other.min_lat
            or other.max_lat < self.min_lat
        )

    def union(self, other: "Mbr") -> "Mbr":
        return Mbr(
            min(self.min_lon, other.min_lon),
            min(self.min_lat, other.min_lat),
            max(self.max_lon, other.max_lon),
            max(self.max_lat, other.max_lat),
        )

    def area(self) -> float:
        return (self.max_lon - self.min_lon) * (self.max_lat - self.min_lat)

    def intersection_area(self, other: "Mbr") -> float:
        w = min(self.max_lon, other.max_lon) - max(self.min_lon, other.min_lon)
        h = min(self.max_lat, other.max_lat) - max(self.min_lat, other.min_lat)
        if w < 0.0 or h < 0.0:
            return 0.0
        return w * h

    def contains(self, other: "Mbr") -> bool:
        return (
            self.min_lon <= other.min_lon
            and self.min_lat <= other.min_lat
            and self.max_lon >= other.max_lon
            and self.max_lat >= other.max_lat
        )


def union_mbrs(mbrs: Sequence[Mbr]) -> Mbr:
    if not mbrs:
        raise ValueError("cannot union an empty rectangle list")
    return Mbr(
        min(m.min_lon for m in mbrs),
        min(m.min_lat for m in mbrs),
        max(m.max_lon for m in mbrs),
        max(m.max_lat for m in mbrs),
    )


def top_m(rows: np.ndarray, weights: np.ndarray, m: int) -> np.ndarray:
    """Which entries of a COO table sorted by (row, dim) are among their
    row's ``m`` heaviest. Ties at the m-th weight go to the lower dim.

    Entries are ranked in the order of ``np.lexsort((-weights, rows))``,
    taken from a stable sort of integer keys (row, weight level), which is
    several times faster than lexsort's stable sort of the floats. A weight's
    level is its rank among the distinct weights, heaviest first; the stable
    sort keeps entries of equal key in dim order.
    """
    n = len(rows)
    by_weight = np.argsort(-weights)
    sorted_w = weights[by_weight]
    level = np.empty(n, dtype=np.int64)
    level[by_weight] = np.cumsum(np.concatenate(([0], sorted_w[1:] != sorted_w[:-1])))
    order = np.argsort(rows * (n + 1) + level, kind="stable")
    # order permutes entries within each row only, so its i-th entry has
    # rank i - (the first index of row rows[i]) in its row
    index = np.arange(n)
    first = np.where(np.concatenate(([True], rows[1:] != rows[:-1])), index, 0)
    keep = np.empty(n, dtype=bool)
    keep[order] = index - np.maximum.accumulate(first) < m
    return keep


def cut_table(sigs: SignatureTable, m: int) -> SignatureTable:
    """Each row of ``sigs`` cut to its ``m`` heaviest dimensions (see
    ``top_m``), in one selection over the table; a row of at most ``m`` is
    kept as it is. A cut row is divided by its own ``sqrt(w.dot(w))``, as
    ``np.linalg.norm`` computes it, so it is bit-identical to cutting it
    alone; ``np.vecdot`` runs that same dot routine on each row of the
    ``(n_cut, m)`` block. The result is a plain table: no row records the m
    it was cut to, which a linking run keeps once (``LinkingRun.reduced_m``)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    nnz = np.diff(sigs.indptr)
    keep = top_m(np.repeat(np.arange(len(nnz)), nnz), sigs.weights, m)
    indptr = np.concatenate(([0], np.cumsum(np.minimum(nnz, m))))
    weights = sigs.weights[keep]
    at = indptr[:-1][nnz > m, None] + np.arange(m)
    block = weights[at]
    weights[at] = block / np.sqrt(np.vecdot(block, block))[:, None]
    return SignatureTable(sigs.kind, sigs.ids, indptr, sigs.dims[keep], weights)


def cut_reduce(sig: Signature, m: int) -> Signature:
    """The one-row case of ``cut_table``; a signature with at most ``m``
    dimensions comes back as the same object."""
    if not sig.normalized:
        raise ValueError("cut reduction expects a normalized signature")
    cut = cut_table(SignatureTable.of({"": sig}), m)[""]
    return cut if sig.nnz() > m else sig


def anchor_boxes(anchors: AnchorSet, ids: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The bounding box (min lon, min lat, max lon, max lat) of each run of
    anchor ``ids`` that begins at an index in ``starts``, as one row each.
    Min and max are exact, so a row equals bounding its run alone."""
    lons, lats = anchors.lons[ids], anchors.lats[ids]
    return np.column_stack([
        np.minimum.reduceat(lons, starts),
        np.minimum.reduceat(lats, starts),
        np.maximum.reduceat(lons, starts),
        np.maximum.reduceat(lats, starts),
    ])


def mbr_of(sig: Signature, anchors: AnchorSet) -> Mbr:
    """A spatial signature's anchors' bounding box: one ``anchor_boxes`` row."""
    if sig.kind != KIND_SPATIAL:
        raise ValueError(f"MBR is defined for spatial signatures, got {sig.kind!r}")
    if sig.nnz() == 0:
        raise ValueError("cannot bound an empty signature")
    return Mbr(*anchor_boxes(anchors, sig.dims, np.zeros(1, dtype=np.int64))[0].tolist())
