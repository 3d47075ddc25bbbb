"""Helpers shared by the test modules: hand-made signatures, anchors on a
line, traces from anchor-id lists and index entries."""

import numpy as np

from siglink.reduction import mbr_of
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


def trace_of(object_id, anchor_ids, t0=1_600_000_000, step=60):
    return Trace(object_id, [(a, t0 + i * step) for i, a in enumerate(anchor_ids)])


def entry(object_id, signature, anchors):
    return (object_id, signature, mbr_of(signature, anchors))
