import numpy as np
import pytest

from siglink.linking import reference_signatures
from siglink.reduction import cut_reduce, mbr_of
from siglink.synth import generate_synthetic
from siglink.traces import local_date

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
