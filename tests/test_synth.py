import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from siglink.linking import reference_signatures
from siglink.reduction import cut_reduce, mbr_of
from siglink.synth import _Discs, generate_synthetic
from siglink.traces import AnchorSet, Trace, local_date

from testkit import mbr_of_ids


def test_same_seed_is_byte_identical():
    a_traces, a_anchors = generate_synthetic(20, 200, 0.1, 80, seed=4)
    b_traces, b_anchors = generate_synthetic(20, 200, 0.1, 80, seed=4)
    assert a_traces == b_traces
    assert np.array_equal(a_anchors.lons, b_anchors.lons)
    assert np.array_equal(a_anchors.lats, b_anchors.lats)


def test_different_seeds_differ():
    a_traces, _ = generate_synthetic(20, 200, 0.1, 80, seed=4)
    b_traces, _ = generate_synthetic(20, 200, 0.1, 80, seed=5)
    assert a_traces != b_traces


def test_zero_locality_radius_pins_each_object_to_one_anchor():
    traces, _ = generate_synthetic(15, 300, 0.0, 50, seed=2)
    for trace in traces:
        assert len({a for a, _ in trace.points}) == 1


def test_invalid_counts_rejected():
    with pytest.raises(ValueError):
        generate_synthetic(0, 10, 0.1, 10)
    with pytest.raises(ValueError):
        generate_synthetic(10, 0, 0.1, 10)
    with pytest.raises(ValueError):
        generate_synthetic(10, 10, 0.1, 0)
    with pytest.raises(ValueError):
        generate_synthetic(10, 10, -0.5, 10)


def test_nan_locality_radius_rejected():
    with pytest.raises(ValueError, match="locality_radius"):
        generate_synthetic(10, 10, float("nan"), 10)


@pytest.mark.parametrize(
    "name, value",
    [("personal_pool", 0), ("personal_pool", -3), ("hub_radius_mult", -1.0),
     ("hub_radius_mult", float("nan"))],
)
def test_personal_pool_and_hub_radius_mult_out_of_range_rejected(name, value):
    with pytest.raises(ValueError, match=name):
        generate_synthetic(10, 50, 0.1, 10, **{name: value})


@pytest.mark.parametrize(
    "name, value",
    [("zipf_exponent", float("nan")), ("zipf_exponent", -1000.0),
     ("hub_exponent", float("nan")), ("hub_exponent", -1000.0)],
)
def test_exponents_giving_nan_visit_probabilities_rejected(name, value):
    # -1000 makes the weights infinite, so normalising them gives NaN
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="visit probabilities"):
        generate_synthetic(10, 50, 0.3, 10, **{name: value})


def _reference_generate(
    n_objects, n_anchors, locality_radius, points_per_object, seed=0, *, n_days=30,
    personal_pool=40, personal_mass=0.35, zipf_exponent=1.1, hub_fraction=0.2,
    hub_radius_mult=4.0, hub_exponent=0.3,
):
    """The generator as first written: KD-tree ball queries and rng.choice."""
    rng = np.random.default_rng(seed)
    lons = rng.uniform(0.0, 1.0, n_anchors)
    lats = rng.uniform(0.0, 1.0, n_anchors)
    coords = np.column_stack([lons, lats])
    tree = cKDTree(coords)
    n_hubs = max(1, int(n_anchors * hub_fraction))
    hub_ids = np.sort(rng.permutation(n_anchors)[:n_hubs])
    hub_tree = cKDTree(coords[hub_ids])

    def ranked(ids, home):
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            return ids
        dist = np.hypot(coords[ids, 0] - home[0], coords[ids, 1] - home[1])
        return ids[np.lexsort((ids, dist))]

    traces = []
    for i in range(n_objects):
        home = np.array([rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)])
        personal = np.array(sorted(tree.query_ball_point(home, locality_radius)), dtype=np.int64)
        if len(personal) == 0:
            personal = np.array([int(tree.query(home)[1])], dtype=np.int64)
        else:
            personal = ranked(personal, home)[:personal_pool]
        hubs = ranked(
            hub_ids[sorted(hub_tree.query_ball_point(home, hub_radius_mult * locality_radius))],
            home,
        )
        p_weights = 1.0 / np.arange(1, len(personal) + 1) ** zipf_exponent
        hubs = hubs[~np.isin(hubs, personal)]
        if len(hubs) == 0:
            pool, probs = personal, p_weights / p_weights.sum()
        else:
            h_weights = 1.0 / np.arange(1, len(hubs) + 1) ** hub_exponent
            p_weights = p_weights / p_weights.sum() * personal_mass
            h_weights = h_weights / h_weights.sum() * (1.0 - personal_mass)
            pool = np.concatenate([personal, hubs])
            probs = np.concatenate([p_weights, h_weights])
            probs = probs / probs.sum()
        seq = rng.choice(pool, size=points_per_object, p=probs)
        if len(pool) > 1:
            for _ in range(32):
                repeat = np.flatnonzero(seq[1:] == seq[:-1]) + 1
                if len(repeat) == 0:
                    break
                seq[repeat] = rng.choice(pool, size=len(repeat), p=probs)
        seq = seq[np.r_[True, seq[1:] != seq[:-1]]]
        days = rng.integers(0, n_days, len(seq))
        seconds = rng.integers(0, 86_400, len(seq))
        t = np.sort(1_600_041_600 + days * 86_400 + seconds)
        while True:
            dup = np.flatnonzero(t[1:] <= t[:-1]) + 1
            if len(dup) == 0:
                break
            t[dup] = t[dup - 1] + 1
            t = np.sort(t)
        traces.append(Trace.of(f"o{i:05d}", seq, t))
    return traces, AnchorSet(lons, lats)


_GOLDEN_CONFIGS = [
    ((8, 120, 0.1, 40), {}),
    ((6, 80, 0.0, 30), {}),
    ((6, 60, math.inf, 30), {}),
    ((5, 1, 0.1, 20), {}),
    ((5, 1, 0.0, 20), {"hub_fraction": 0.0}),
    ((8, 100, 0.1, 40), {"hub_fraction": 0.0}),
    ((8, 100, 0.1, 40), {"hub_fraction": 1.0}),
    ((8, 100, 0.1, 40), {"personal_mass": 0.0}),
    ((8, 100, 0.1, 40), {"personal_mass": 1.0}),
    ((8, 200, 0.3, 40), {"personal_pool": 3}),
    ((8, 100, 0.1, 40), {"hub_radius_mult": 0.0}),
    ((6, 50, 0.0, 20), {"hub_radius_mult": math.inf}),  # a hub radius of inf * 0 = NaN
    ((8, 150, 0.02, 30), {}),
    ((8, 100, 1e-3, 30), {"personal_pool": 1}),  # mostly empty discs
    ((8, 100, 0.2, 30), {"zipf_exponent": 1e10, "hub_exponent": 0.0}),  # zero probabilities
    ((30, 1500, 0.05, 150), {}),
]


@pytest.mark.parametrize("args, kwargs", _GOLDEN_CONFIGS, ids=range(len(_GOLDEN_CONFIGS)))
def test_generator_matches_the_kd_tree_reference_bit_for_bit(args, kwargs):
    with np.errstate(over="ignore"):
        for seed in range(13):
            got, got_anchors = generate_synthetic(*args, seed=seed, **kwargs)
            want, want_anchors = _reference_generate(*args, seed=seed, **kwargs)
            assert got_anchors.lons.tobytes() == want_anchors.lons.tobytes()
            assert got_anchors.lats.tobytes() == want_anchors.lats.tobytes()
            assert [t.object_id for t in got] == [t.object_id for t in want]
            for a, b in zip(got, want):
                assert a.anchor_ids.dtype == b.anchor_ids.dtype and a.t.dtype == b.t.dtype
                assert a.anchor_ids.tobytes() == b.anchor_ids.tobytes(), (seed, a.object_id)
                assert a.t.tobytes() == b.t.tobytes(), (seed, a.object_id)


_coordinate = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(-1e-150, 1e-150),
    st.floats(-1e200, 1e200),
    st.sampled_from([0.0, 5e-324, -5e-324, 0.1, 0.30000000000000004]),
)
_radius = st.one_of(
    st.floats(0.0, 3.0),
    st.sampled_from([0.0, 5e-324, 1e-160, 1e-150, 1e150, 1e160, 1e200, math.inf]),
)


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=40),
    home=st.tuples(_coordinate, _coordinate),
    r=_radius,
)
def test_disc_slab_keeps_every_anchor_the_exact_test_keeps(points, home, r):
    lons = np.array([p[0] for p in points])
    lats = np.array([p[1] for p in points])
    ids = np.arange(len(points), dtype=np.int64)
    x, y = home
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        dx, dy = lons - x, lats - y
        inside = ids[dx * dx + dy * dy <= r * r]
        dist = np.hypot(dx[inside], dy[inside])
        want = inside[np.lexsort((inside, dist))]
        got = _Discs(ids, lons, lats).ranked(x, y, r)
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("name", ["personal_mass", "hub_fraction"])
@pytest.mark.parametrize("share", [-0.5, 1.5, float("nan")])
def test_fractions_outside_unit_interval_rejected(name, share):
    with pytest.raises(ValueError, match=name):
        generate_synthetic(10, 50, 0.1, 10, **{name: share})


@pytest.mark.parametrize("name", ["personal_mass", "hub_fraction"])
@pytest.mark.parametrize("share", [0.0, 1.0])
def test_fraction_bounds_are_accepted(name, share):
    traces, _ = generate_synthetic(10, 50, 0.1, 10, **{name: share})
    assert len(traces) == 10


def test_trace_shape_invariants():
    traces, anchors = generate_synthetic(25, 400, 0.08, 120, seed=6)
    for trace in traces:
        times = [t for _, t in trace.points]
        assert all(b > a for a, b in zip(times, times[1:]))
        ids = [a for a, _ in trace.points]
        assert all(b != a for a, b in zip(ids, ids[1:]))
        assert all(0 <= a < len(anchors) for a in ids)
        assert len({local_date(t) for t in times}) >= 2


def test_revisit_distribution_gives_varied_tfidf_weights():
    traces, _ = generate_synthetic(30, 400, 0.08, 150, seed=8)
    sigs, _, _ = reference_signatures(traces)
    varied = sum(1 for s in sigs.values() if s.nnz() > 3 and s.weights.std() > 1e-4)
    assert varied > len(sigs) * 0.9


def test_reduced_mbrs_overlap_far_less_than_full_mbrs():
    # locality disc covering ~1% of the unit box
    radius = float(np.sqrt(0.01 / np.pi))
    traces, anchors = generate_synthetic(1000, 6000, radius, 150, seed=1)
    sigs, _, _ = reference_signatures(traces)
    ids = sorted(sigs)
    full_boxes = {oid: mbr_of_ids([a for a, _ in t.points], anchors)
                  for oid, t in ((tr.object_id, tr) for tr in traces) if oid in sigs}
    reduced_boxes = {}
    for oid in ids:
        reduced = cut_reduce(sigs[oid], 10)
        reduced_boxes[oid] = mbr_of(reduced, anchors)
    rng = np.random.default_rng(0)
    full_hits = reduced_hits = 0
    n_pairs = 4000
    for _ in range(n_pairs):
        a, b = rng.choice(len(ids), size=2, replace=False)
        oa, ob = ids[a], ids[b]
        full_hits += full_boxes[oa].intersects(full_boxes[ob])
        reduced_hits += reduced_boxes[oa].intersects(reduced_boxes[ob])
    assert reduced_hits < full_hits / 5
