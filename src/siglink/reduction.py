"""Signature dimensionality reduction (top-m truncation) and the spatial
bounding box of a reduced signature."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .signatures import KIND_SPATIAL, Signature
from .traces import AnchorSet


@dataclass(frozen=True)
class Mbr:
    """Axis-aligned bounding rectangle in degrees; degenerate boxes allowed."""

    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    def __post_init__(self) -> None:
        if self.min_lon > self.max_lon or self.min_lat > self.max_lat:
            raise ValueError(f"inverted rectangle: {self}")

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


def reduce_signatures(sigs: Sequence[Signature], m: int) -> list[Signature]:
    """``cut_reduce`` of each signature, in one selection over all of them.

    A signature with at most ``m`` dimensions comes back as the same object.
    Each cut one is re-normalized by its own norm, ``sqrt(w.dot(w))``, which
    is how ``np.linalg.norm`` computes it, so its weights are bit-identical
    to reducing it alone.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not all(s.normalized for s in sigs):
        raise ValueError("cut reduction expects a normalized signature")
    out = list(sigs)
    cut = [i for i, s in enumerate(sigs) if s.nnz() > m]
    if not cut:
        return out
    nnz = [sigs[i].nnz() for i in cut]
    rows = np.repeat(np.arange(len(cut)), nnz)
    dims = np.concatenate([sigs[i].dims for i in cut])
    weights = np.concatenate([sigs[i].weights for i in cut])
    keep = top_m(rows, weights, m)
    dims, weights = dims[keep], weights[keep]
    for j, i in enumerate(cut):
        seg = weights[j * m : (j + 1) * m]
        out[i] = Signature(
            dims[j * m : (j + 1) * m], seg / math.sqrt(seg.dot(seg)), sigs[i].kind,
            normalized=True, reduced_m=m,
        )
    return out


def cut_reduce(sig: Signature, m: int) -> Signature:
    """Keep the m heaviest dimensions of a signature, drop the rest and
    re-normalize: the one-signature case of ``reduce_signatures``. Ties at
    the m-th weight break toward the lower dimension id.
    """
    return reduce_signatures([sig], m)[0]


def mbrs_of(sigs: Sequence[Signature], anchors: AnchorSet) -> list[Mbr]:
    """Tight bounding box over the anchor locations of each spatial
    signature, from one pass over all their dimensions."""
    for sig in sigs:
        if sig.kind != KIND_SPATIAL:
            raise ValueError(f"MBR is defined for spatial signatures, got {sig.kind!r}")
        if sig.nnz() == 0:
            raise ValueError("cannot bound an empty signature")
    if not sigs:
        return []
    nnz = np.array([sig.nnz() for sig in sigs])
    starts = np.cumsum(nnz) - nnz
    ids = np.concatenate([sig.dims for sig in sigs])
    lons, lats = anchors.lons[ids], anchors.lats[ids]
    return [
        Mbr(*box)
        for box in zip(
            np.minimum.reduceat(lons, starts).tolist(),
            np.minimum.reduceat(lats, starts).tolist(),
            np.maximum.reduceat(lons, starts).tolist(),
            np.maximum.reduceat(lats, starts).tolist(),
        )
    ]


def mbr_of(sig: Signature, anchors: AnchorSet) -> Mbr:
    """Tight bounding box over the anchor locations in a spatial signature."""
    return mbrs_of([sig], anchors)[0]
