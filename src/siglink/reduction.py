"""Signature dimensionality reduction (top-m truncation) and the spatial
bounding box of a reduced signature."""

from __future__ import annotations

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


def cut_reduce(sig: Signature, m: int) -> Signature:
    """Keep the m heaviest dimensions of a signature, drop the rest and
    re-normalize. Ties at the m-th weight break toward the lower dimension id.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not sig.normalized:
        raise ValueError("cut reduction expects a normalized signature")
    if m >= sig.nnz():
        return sig
    order = np.lexsort((sig.dims, -sig.weights))[:m]
    dims = sig.dims[order]
    weights = sig.weights[order]
    resort = np.argsort(dims)
    dims = dims[resort]
    weights = weights[resort]
    weights = weights / np.linalg.norm(weights)
    return Signature(dims, weights, sig.kind, normalized=True, reduced_m=m)


def mbr_of_ids(anchor_ids, anchors: AnchorSet) -> Mbr:
    if not isinstance(anchor_ids, np.ndarray):
        anchor_ids = list(anchor_ids)
    ids = np.asarray(anchor_ids, dtype=np.int64)
    if len(ids) == 0:
        raise ValueError("cannot bound an empty anchor set")
    lons = anchors.lons[ids]
    lats = anchors.lats[ids]
    return Mbr(float(lons.min()), float(lats.min()), float(lons.max()), float(lats.max()))


def mbr_of(sig: Signature, anchors: AnchorSet) -> Mbr:
    """Tight bounding box over the anchor locations in a spatial signature."""
    if sig.kind != KIND_SPATIAL:
        raise ValueError(f"MBR is defined for spatial signatures, got {sig.kind!r}")
    if sig.nnz() == 0:
        raise ValueError("cannot bound an empty signature")
    return mbr_of_ids(sig.dims, anchors)
