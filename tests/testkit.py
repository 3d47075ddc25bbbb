"""Helpers shared by the test modules: hand-made signatures, anchors on a
line, traces from anchor-id lists, index entries, the bounding box of a set
of anchor ids and a per-row top-m oracle."""

import math

import numpy as np

from siglink.reduction import Mbr, mbr_of
from siglink.signatures import make_signature
from siglink.traces import AnchorSet, Trace


def sig(weights_by_dim, kind="spatial", normalize=True):
    return make_signature(weights_by_dim, kind, normalize=normalize)


def random_signature(rng, n_dims, dim_space=1000, kind="spatial"):
    dims = rng.choice(dim_space, size=n_dims, replace=False)
    weights = rng.uniform(0.05, 1.0, size=n_dims)
    return sig({int(d): float(w) for d, w in zip(dims, weights)}, kind=kind)


def line_anchors(n=100):
    """Anchors at (i, 0) for i in [0, n): dim id == lon coordinate."""
    return AnchorSet(np.arange(n, dtype=float), np.zeros(n))


def mbr_of_ids(anchor_ids, anchors):
    """The bounding box of the anchors with these ids, repeats allowed."""
    ids = np.asarray(list(anchor_ids), dtype=np.int64)
    if len(ids) == 0:
        raise ValueError("cannot bound an empty anchor set")
    lons, lats = anchors.lons[ids], anchors.lats[ids]
    return Mbr(float(lons.min()), float(lats.min()), float(lons.max()), float(lats.max()))


def trace_of(object_id, anchor_ids, t0=1_600_000_000, step=60):
    return Trace(object_id, [(a, t0 + i * step) for i, a in enumerate(anchor_ids)])


def entry(object_id, signature, anchors):
    return (object_id, signature, mbr_of(signature, anchors))


def top_m_row(dims, weights, m):
    """One row's top-m cut by the definition, in plain Python: a row of at
    most ``m`` dims is kept as it is. Otherwise sort by (-weight, dim), keep
    the first ``m``, put them back in dim order and divide by
    ``math.sqrt(seg.dot(seg))``. Returns the dims and the weights."""
    if len(dims) <= m:
        return list(dims), np.asarray(weights, dtype=float)
    kept = sorted(sorted(zip(dims, weights), key=lambda p: (-p[1], p[0]))[:m])
    seg = np.array([w for _, w in kept])
    return [d for d, _ in kept], seg / math.sqrt(seg.dot(seg))
