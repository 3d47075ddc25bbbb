"""Deterministic synthetic trajectory workloads with tunable locality.

Each object keeps most of its visits in a small personal anchor pool around a
home location (heavy-tailed revisit distribution, closest anchors heaviest)
and spreads the rest over shared regional hub anchors. The personal tier makes
TF-IDF weights discriminative and bounding boxes tight; the hub tier gives the
document frequencies a realistic common floor.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .traces import AnchorSet, Trace


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
    box: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
    start_t: int = 1_600_041_600,
) -> tuple[list[Trace], AnchorSet]:
    """Generate calibrated traces plus their anchor set, reproducibly.

    The box is (min_lon, min_lat, max_lon, max_lat) in planar degrees;
    locality_radius is in the same units. Traces span n_days so day-based
    splits are non-trivial, and consecutive points never repeat an anchor.
    """
    if n_objects < 1 or n_anchors < 1 or points_per_object < 1 or n_days < 1:
        raise ValueError("all synthetic workload counts must be >= 1")
    if not locality_radius >= 0:
        raise ValueError("locality_radius must be >= 0")
    for name, share in (("personal_mass", personal_mass), ("hub_fraction", hub_fraction)):
        if not 0.0 <= share <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {share}")
    rng = np.random.default_rng(seed)
    min_lon, min_lat, max_lon, max_lat = box

    lons = rng.uniform(min_lon, max_lon, n_anchors)
    lats = rng.uniform(min_lat, max_lat, n_anchors)
    anchors = AnchorSet(lons, lats)
    coords = np.column_stack([lons, lats])
    tree = cKDTree(coords)

    n_hubs = max(1, int(n_anchors * hub_fraction))
    hub_ids = np.sort(rng.permutation(n_anchors)[:n_hubs])
    hub_tree = cKDTree(coords[hub_ids])

    traces: list[Trace] = []
    for i in range(n_objects):
        home = np.array(
            [rng.uniform(min_lon, max_lon), rng.uniform(min_lat, max_lat)]
        )
        personal = _ranked_ball(tree, coords, home, locality_radius, personal_pool)
        hub_local = hub_ids[
            sorted(hub_tree.query_ball_point(home, hub_radius_mult * locality_radius))
        ]
        hub_local = _rank_by_distance(coords, hub_local, home)

        pool_ids, probs = _visit_distribution(
            personal, hub_local, personal_mass, zipf_exponent, hub_exponent
        )
        seq = _sample_no_consecutive_repeat(rng, pool_ids, probs, points_per_object)
        times = _sample_times(rng, len(seq), n_days, start_t)
        traces.append(Trace.of(f"o{i:05d}", seq, times))
    return traces, anchors


def _ranked_ball(
    tree: cKDTree, coords: np.ndarray, home: np.ndarray, radius: float, cap: int
) -> np.ndarray:
    """Anchor ids within radius of home, closest first, capped; falls back to
    the single nearest anchor when the disc is empty."""
    ids = np.array(sorted(tree.query_ball_point(home, radius)), dtype=np.int64)
    if len(ids) == 0:
        _, nearest = tree.query(home)
        return np.array([int(nearest)], dtype=np.int64)
    return _rank_by_distance(coords, ids, home)[:cap]


def _rank_by_distance(coords: np.ndarray, ids: np.ndarray, home: np.ndarray) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) == 0:
        return ids
    dist = np.hypot(coords[ids, 0] - home[0], coords[ids, 1] - home[1])
    return ids[np.lexsort((ids, dist))]


def _visit_distribution(
    personal: np.ndarray,
    hubs: np.ndarray,
    personal_mass: float,
    zipf_exponent: float,
    hub_exponent: float,
) -> tuple[np.ndarray, np.ndarray]:
    p_weights = 1.0 / np.arange(1, len(personal) + 1) ** zipf_exponent
    # hubs the object also holds in its personal pool stay personal
    hubs = hubs[~np.isin(hubs, personal)]
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
    seq = rng.choice(pool, size=n, p=probs)
    if len(pool) > 1:
        for _ in range(32):
            repeat = np.flatnonzero(seq[1:] == seq[:-1]) + 1
            if len(repeat) == 0:
                break
            seq[repeat] = rng.choice(pool, size=len(repeat), p=probs)
    # single-anchor pools (or a stubborn tail) collapse like calibration does
    keep = np.r_[True, seq[1:] != seq[:-1]]
    return seq[keep]


def _sample_times(
    rng: np.random.Generator, n: int, n_days: int, start_t: int
) -> np.ndarray:
    days = rng.integers(0, n_days, n)
    seconds = rng.integers(0, 86_400, n)
    t = np.sort(start_t + days * 86_400 + seconds)
    # strictly increasing timestamps keep chronological order unambiguous
    while True:
        dup = np.flatnonzero(t[1:] <= t[:-1]) + 1
        if len(dup) == 0:
            return t
        t[dup] = t[dup - 1] + 1
        t = np.sort(t)
