"""Deterministic synthetic trajectory workloads with tunable locality.

Each object keeps most of its visits in a small personal anchor pool around a
home location (heavy-tailed revisit distribution, closest anchors heaviest)
and spreads the rest over shared regional hub anchors. The personal tier makes
TF-IDF weights discriminative and bounding boxes tight; the hub tier gives the
document frequencies a realistic common floor.
"""

from __future__ import annotations

import numpy as np

from .traces import AnchorSet, Trace

# rng.choice's tolerance on the sum of its probabilities
_PROB_ATOL = float(np.sqrt(np.finfo(np.float64).eps))

# Anchors and homes are drawn uniformly in this (min_lon, min_lat, max_lon,
# max_lat) box of WGS84 degrees; every trace's first day starts at this
# UTC timestamp.
_BOX = (0.0, 0.0, 1.0, 1.0)
_START_T = 1_600_041_600
# The most days a workload may span: with up to 86,400 points per object
# every timestamp stays below 2**62, as the trace readers require.
MAX_N_DAYS = (2**62 - _START_T) // 86_400 - 1


def generate_synthetic(
    n_objects: int,
    n_anchors: int,
    locality_radius: float,
    points_per_object: int,
    seed: int = 0,
    *,
    n_days: int = 30,
    personal_pool: int = 40,
    personal_mass: float = 0.35,
    zipf_exponent: float = 1.1,
    hub_fraction: float = 0.2,
    hub_radius_mult: float = 4.0,
    hub_exponent: float = 0.3,
) -> tuple[list[Trace], AnchorSet]:
    """Generate calibrated traces plus their anchor set, reproducibly.

    Anchors and homes lie in ``_BOX``; locality_radius is a distance in
    degrees on the (lon, lat) plane. Traces span n_days from ``_START_T``
    so day-based splits are non-trivial, and consecutive points never
    repeat an anchor. Strictly increasing timestamps may run up to one
    second per point past the last day, so ``n_days`` and
    ``points_per_object`` that could put one at 2**62 are refused.
    """
    if n_objects < 1 or n_anchors < 1 or points_per_object < 1 or n_days < 1:
        raise ValueError("all synthetic workload counts must be >= 1")
    if _START_T + n_days * 86_400 + points_per_object > 2**62:
        raise ValueError(
            f"n_days={n_days} with {points_per_object} points per object could put a"
            " timestamp at 2**62 or beyond"
        )
    if not locality_radius >= 0:
        raise ValueError("locality_radius must be >= 0")
    if personal_pool < 1:
        raise ValueError(f"personal_pool must be >= 1, got {personal_pool}")
    if not hub_radius_mult >= 0:
        raise ValueError(f"hub_radius_mult must be >= 0, got {hub_radius_mult}")
    for name, share in (("personal_mass", personal_mass), ("hub_fraction", hub_fraction)):
        if not 0.0 <= share <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {share}")
    rng = np.random.default_rng(seed)
    min_lon, min_lat, max_lon, max_lat = _BOX

    lons = rng.uniform(min_lon, max_lon, n_anchors)
    lats = rng.uniform(min_lat, max_lat, n_anchors)
    anchors = AnchorSet(lons, lats)
    everywhere = _Discs(np.arange(n_anchors, dtype=np.int64), lons, lats)

    n_hubs = max(1, int(n_anchors * hub_fraction))
    hub_ids = np.sort(rng.permutation(n_anchors)[:n_hubs])
    hubs = _Discs(hub_ids, lons[hub_ids], lats[hub_ids])
    hub_radius = hub_radius_mult * locality_radius

    traces: list[Trace] = []
    for i in range(n_objects):
        x = rng.uniform(min_lon, max_lon)
        y = rng.uniform(min_lat, max_lat)
        personal = everywhere.ranked(x, y, locality_radius)[:personal_pool]
        if len(personal) == 0:
            personal = everywhere.nearest(x, y)
        hub_local = hubs.ranked(x, y, hub_radius)

        pool_ids, probs = _visit_distribution(
            personal, hub_local, personal_mass, zipf_exponent, hub_exponent
        )
        seq = _sample_no_consecutive_repeat(rng, pool_ids, probs, points_per_object)
        times = _sample_times(rng, len(seq), n_days)
        traces.append(Trace.of(f"o{i:05d}", seq, times))
    return traces, anchors


class _Discs:
    """Anchors within a radius of a point, read from one longitude slab.

    The anchors are sorted by longitude once. A disc takes the slab of
    anchors whose longitude lies within the radius, padded so that rounding
    cannot leave out an anchor the exact test keeps, and keeps those with
    ``dx*dx + dy*dy <= r*r``: the inclusion rule of a p=2 KD-tree ball query.
    """

    def __init__(self, ids: np.ndarray, lons: np.ndarray, lats: np.ndarray):
        order = np.argsort(lons, kind="stable")
        self.ids = ids[order]
        self.lons = lons[order]
        self.lats = lats[order]

    def ranked(self, x: float, y: float, r: float) -> np.ndarray:
        """Ids within r of (x, y), closest first, ties by ascending id."""
        rr = r * r
        # the absolute term covers radii whose square underflows; a square
        # that overflows, or a NaN radius, reads every anchor
        reach = r + r * 1e-9 + 1e-150 if rr < np.inf else np.inf
        lo = self.lons.searchsorted(x - reach, side="left")
        hi = self.lons.searchsorted(x + reach, side="right")
        dx = self.lons[lo:hi] - x
        dy = self.lats[lo:hi] - y
        inside = dx * dx + dy * dy <= rr
        ids = self.ids[lo:hi][inside]
        return ids[np.lexsort((ids, np.hypot(dx[inside], dy[inside])))]

    def nearest(self, x: float, y: float) -> np.ndarray:
        """The one anchor nearest (x, y), the lowest id winning a tie."""
        dx = self.lons - x
        dy = self.lats - y
        d2 = dx * dx + dy * dy
        return self.ids[d2 == d2.min()].min(keepdims=True)


def _visit_distribution(
    personal: np.ndarray,
    hubs: np.ndarray,
    personal_mass: float,
    zipf_exponent: float,
    hub_exponent: float,
) -> tuple[np.ndarray, np.ndarray]:
    p_weights = 1.0 / np.arange(1, len(personal) + 1) ** zipf_exponent
    # hubs the object also holds in its personal pool stay personal
    hubs = hubs[~(hubs[:, None] == personal).any(axis=1)]
    if len(hubs) == 0:
        return personal, p_weights / p_weights.sum()
    h_weights = 1.0 / np.arange(1, len(hubs) + 1) ** hub_exponent
    p_weights = p_weights / p_weights.sum() * personal_mass
    h_weights = h_weights / h_weights.sum() * (1.0 - personal_mass)
    ids = np.concatenate([personal, hubs])
    probs = np.concatenate([p_weights, h_weights])
    return ids, probs / probs.sum()


def _sample_no_consecutive_repeat(
    rng: np.random.Generator, pool: np.ndarray, probs: np.ndarray, n: int
) -> np.ndarray:
    """Visits drawn as ``rng.choice(pool, size, p=probs)`` draws them: one
    uniform per visit, looked up in the normalised cumulative distribution.
    A visit repeating its predecessor is redrawn, up to 32 times."""
    if not (probs >= 0).all() or not abs(probs.sum() - 1.0) <= _PROB_ATOL:
        raise ValueError(
            "visit probabilities are not a finite distribution;"
            " check zipf_exponent and hub_exponent"
        )
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    seq = pool[cdf.searchsorted(rng.random(n), side="right")]
    if len(pool) > 1:
        for _ in range(32):
            repeat = np.flatnonzero(seq[1:] == seq[:-1]) + 1
            if len(repeat) == 0:
                break
            seq[repeat] = pool[cdf.searchsorted(rng.random(len(repeat)), side="right")]
    # single-anchor pools (or a stubborn tail) collapse like calibration does
    keep = np.empty(len(seq), dtype=bool)
    keep[0] = True
    np.not_equal(seq[1:], seq[:-1], out=keep[1:])
    return seq[keep]


def _sample_times(rng: np.random.Generator, n: int, n_days: int) -> np.ndarray:
    days = rng.integers(0, n_days, n)
    seconds = rng.integers(0, 86_400, n)
    t = np.sort(_START_T + days * 86_400 + seconds)
    # strictly increasing timestamps keep chronological order unambiguous
    while True:
        dup = np.flatnonzero(t[1:] <= t[:-1]) + 1
        if len(dup) == 0:
            return t
        t[dup] = t[dup - 1] + 1
        t = np.sort(t)
