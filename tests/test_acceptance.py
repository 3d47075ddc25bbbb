"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured numbers. Run with `pytest tests/test_acceptance.py -v -s`.

The performance and maintenance tests run a genuine 10k-object workload and
take a few minutes between them; everything else is fast.
"""

import itertools
import os
import time

import numpy as np
import pytest

from siglink.linking import (
    accuracy_at_k,
    link_all,
    query_signature,
    reference_signatures,
    stable_marriage,
)
from siglink.privacy import signature_closure
from siglink.reduction import cut_reduce, mbr_of
from siglink.signatures import (
    TemporalHistogram,
    cosine_similarity,
    emd,
    kind_corpus,
    tfidf_signatures,
)
from siglink.synth import generate_synthetic
from siglink.traces import SplitStrategy, split_dataset
from siglink.wrtree import (
    bulk_load,
    insert,
    knn_search,
    linear_knn,
    validate,
)

from testkit import random_signature, sig
from test_emd import bruteforce_emd_counts, hist
from test_linking import (
    _assert_no_blocking_pair,
    _random_instance,
    enumerate_stable_matchings,
    proposer_optimal,
)


def _corpus_entries(n, seed, m, points=90):
    traces, anchors = generate_synthetic(
        n, max(500, 4 * n), 0.08, points, seed=seed
    )
    sigs, _, stats = reference_signatures(traces)
    entries = []
    for oid in sorted(sigs):
        reduced = cut_reduce(sigs[oid], m)
        entries.append((oid, reduced, mbr_of(reduced, anchors)))
    return entries, anchors


def test_exactness_wrtree_equals_linear_oracle():
    t_start = time.perf_counter()
    corpora = 0
    checked = 0
    seed = 0
    for n, m, k in itertools.product((100, 1000), (5, 10, 50), (1, 5)):
        for _ in range(5):
            entries, _ = _corpus_entries(n, seed=seed, m=m)
            seed += 1
            corpora += 1
            tree = bulk_load(entries, capacity=32)
            rng = np.random.default_rng(seed)
            for idx in rng.choice(len(entries), size=20, replace=False):
                oid, s, box = entries[idx]
                got = knn_search(tree, (s, box), k)
                want = linear_knn(entries, (s, box), k)
                assert [g[0] for g in got] == [w[0] for w in want], (n, m, k, oid)
                for (_, gs), (_, ws) in zip(got, want):
                    assert abs(gs - ws) < 1e-9
                checked += 1
    elapsed = time.perf_counter() - t_start
    assert corpora >= 50
    assert elapsed < 120.0, f"exactness suite took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE PASS: exactness - {checked} queries over {corpora} corpora "
        f"identical to the linear oracle in {elapsed:.1f}s"
    )


def test_similarity_bound_and_pruning_guarantees():
    t_start = time.perf_counter()
    rng = np.random.default_rng(7)

    # cosine/Euclidean identity on normalized pairs
    for _ in range(1000):
        a = random_signature(rng, int(rng.integers(1, 40)), dim_space=200)
        b = random_signature(rng, int(rng.integers(1, 40)), dim_space=200)
        union = np.union1d(a.dims, b.dims)
        da = np.zeros(len(union))
        db = np.zeros(len(union))
        da[np.searchsorted(union, a.dims)] = a.weights
        db[np.searchsorted(union, b.dims)] = b.weights
        euc_sq = float(np.sum((da - db) ** 2))
        assert abs(euc_sq - (2.0 - 2.0 * cosine_similarity(a, b))) < 1e-9

    # spatial pruning is sound: disjoint boxes never hide a non-zero pair
    from siglink.traces import AnchorSet

    anchors = AnchorSet(np.linspace(0.0, 1.0, 600), np.zeros(600))
    false_prunes = 0
    disjoint = 0
    for _ in range(1000):
        pair = []
        for _side in range(2):
            start = int(rng.integers(0, 520))
            dims = start + rng.choice(80, size=20, replace=False)
            s = cut_reduce(
                sig({int(d): float(w) for d, w in zip(dims, rng.uniform(0.1, 1, 20))}),
                10,
            )
            pair.append((s, mbr_of(s, anchors)))
        (sa, ba), (sb, bb) = pair
        if not ba.intersects(bb):
            disjoint += 1
            if cosine_similarity(sa, sb) != 0.0:
                false_prunes += 1
    assert disjoint > 100
    assert false_prunes == 0

    # aggregate bound dominates every descendant similarity
    entries, _ = _corpus_entries(300, seed=901, m=10)
    tree = bulk_load(entries, capacity=8)
    internals = []

    def collect(node):
        if node.children is None:
            return
        internals.append(node)
        for child in node.children:
            collect(child)

    collect(tree.root)

    def leaves_under(node):
        if node.children is None:
            return [node]
        out = []
        for child in node.children:
            out.extend(leaves_under(child))
        return out

    pairs_checked = 0
    while pairs_checked < 1000:
        node = internals[int(rng.integers(0, len(internals)))]
        _, q, _box = entries[int(rng.integers(0, len(entries)))]
        q_map = q.as_dict()
        bound = sum(q_map.get(d, 0.0) * w for d, w in node.signature.pairs())
        worst = max(
            cosine_similarity(leaf.signature, q) for leaf in leaves_under(node)
        )
        assert bound >= worst - 1e-12
        pairs_checked += 1

    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0, f"guarantee suite took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE PASS: guarantees - identity x1000, prune soundness x1000 "
        f"({disjoint} disjoint, 0 false prunes), bound dominance x1000 in {elapsed:.1f}s"
    )


def test_emd_exact_against_bruteforce():
    rng = np.random.default_rng(99)
    dt_by_d = {2: 12, 3: 8, 4: 6, 5: None, 6: 4}
    cases = 0
    while cases < 200:
        d = int(rng.choice([2, 3, 4, 6]))
        dt = dt_by_d[d]
        total = int(rng.integers(1, 9))
        a = rng.multinomial(total, np.ones(d) / d)
        b = rng.multinomial(total, np.ones(d) / d)
        expected = bruteforce_emd_counts(a.tolist(), b.tolist(), dt) / total
        got = emd(hist(a, dt), hist(b, dt))
        assert abs(got - expected) < 1e-9, (a, b, dt)
        cases += 1

    triples = 0
    while triples < 500:
        d = int(rng.choice([4, 6, 12, 24]))
        dt = 24 // d
        hs = []
        for _ in range(3):
            raw = rng.uniform(0, 1, d)
            hs.append(TemporalHistogram(raw / raw.sum(), dt, normalized=True))
        a, b, c = hs
        assert emd(a, a) == pytest.approx(0.0, abs=1e-12)
        assert emd(a, b) == pytest.approx(emd(b, a), abs=1e-12)
        assert emd(a, c) <= emd(a, b) + emd(b, c) + 1e-9
        triples += 1
    print(
        f"\nACCEPTANCE PASS: EMD - {cases} brute-force flow enumerations matched "
        f"within 1e-9, metric axioms on {triples} random triples"
    )


def test_cut_reduction_properties():
    rng = np.random.default_rng(5)
    for _ in range(500):
        s = random_signature(rng, int(rng.integers(1, 50)), dim_space=400)
        m1 = int(rng.integers(1, 50))
        m2 = int(rng.integers(m1, 55))
        r1, r2 = cut_reduce(s, m1), cut_reduce(s, m2)
        d1, d2, ds = (
            set(r1.dims.tolist()),
            set(r2.dims.tolist()),
            set(s.dims.tolist()),
        )
        assert d1 <= d2 <= ds
        kept_min = min(w for d, w in s.pairs() if d in d1)
        assert all(kept_min >= w for d, w in s.pairs() if d not in d1)

    corpora = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        from testkit import trace_of

        traces = [
            trace_of(f"o{i}", rng.integers(0, 20, size=rng.integers(2, 25)).tolist())
            for i in range(8)
        ]
        seq_sigs, _, _ = tfidf_signatures(traces, kind_corpus("sequential", q=1))
        spatial_sigs, _, _ = reference_signatures(traces)
        assert seq_sigs.keys() == spatial_sigs.keys()
        for oid, spatial in spatial_sigs.items():
            seq = seq_sigs[oid]
            assert np.array_equal(seq.dims, spatial.dims)
            assert np.allclose(seq.weights, spatial.weights, atol=1e-12)
        corpora += 1
    print(
        f"\nACCEPTANCE PASS: CUT - containment/nesting/dominance x500, "
        f"unit-gram/spatial equivalence on {corpora} corpora"
    )


def test_stable_marriage_against_exhaustive_enumeration():
    rng = np.random.default_rng(77)
    complete_cases = 0
    size_cycle = itertools.cycle([2, 3, 4, 5, 6, 7, 8, 3, 4, 5, 6, 2, 3, 4])
    while complete_cases < 200:
        n = next(size_cycle)
        qd, dq = _random_instance(rng, n, k=n)
        prefs_q = {q: [d for d, _ in res] for q, res in qd.items()}
        prefs_d = {d: [q for q, _ in res] for d, res in dq.items()}
        stable, q_rank = enumerate_stable_matchings(prefs_q, prefs_d)
        assert stable
        got = stable_marriage(qd, dq)
        assert got.stable_pairs == proposer_optimal(stable, q_rank)
        assert not got.fallback_pairs and not got.unmatched
        complete_cases += 1

    incomplete_cases = 0
    while incomplete_cases < 200:
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, n + 1))
        qd, dq = _random_instance(rng, n, k)
        matching = stable_marriage(qd, dq)
        _assert_no_blocking_pair(matching, qd, dq)
        assert matching.n_proposals <= n * k
        incomplete_cases += 1
    print(
        f"\nACCEPTANCE PASS: stable marriage - {complete_cases} exhaustive-oracle "
        f"matches, {incomplete_cases} incomplete-list cases with no blocking pair"
    )


def test_closure_collapses_accuracy_while_data_survives():
    baselines, finals, remains = [], [], []
    for seed in range(10):
        traces, anchors = generate_synthetic(
            500, 12_000, 0.05, 2000, seed=seed,
            personal_mass=0.035, personal_pool=15, zipf_exponent=1.1,
            hub_fraction=0.6, hub_radius_mult=6.0, hub_exponent=0.0,
        )
        _, report = signature_closure(
            traces, anchors, m=10, rounds=3, engine="wrtree", k=5
        )
        baselines.append(report.baseline_accuracy[1])
        finals.append(report.rounds[-1].accuracy[1])
        remains.append(report.rounds[-1].utility.data_remain)
    mean_base = float(np.mean(baselines))
    mean_final = float(np.mean(finals))
    mean_remain = float(np.mean(remains))
    assert mean_final < 0.5 * mean_base, (mean_final, mean_base)
    assert mean_remain >= 0.9, mean_remain
    print(
        f"\nACCEPTANCE PASS: closure - Acc@1 {mean_base:.3f} -> {mean_final:.3f} "
        f"after 3 rounds with data_remain {mean_remain:.3f} (10 seeds)"
    )


def _performance_workload(n, seed=0):
    traces, anchors = generate_synthetic(n, 4 * n, 0.03, 200, seed=seed)
    halves = split_dataset(traces, SplitStrategy.interleaved())
    ref_sigs, _, stats = reference_signatures(halves.d)
    entries = []
    for oid in sorted(ref_sigs):
        reduced = cut_reduce(ref_sigs[oid], 10)
        entries.append((oid, reduced, mbr_of(reduced, anchors)))
    queries = []
    for t in halves.q:
        s = query_signature(t, stats) if t.points else None
        if s is not None:
            reduced = cut_reduce(s, 10)
            queries.append((t.object_id, reduced, mbr_of(reduced, anchors)))
    return entries, queries


def test_performance_wrtree_vs_linear_at_10k():
    entries, queries = _performance_workload(10_000)

    t0 = time.perf_counter()
    tree = bulk_load(entries, capacity=32)
    build_s = time.perf_counter() - t0
    assert build_s < 60.0, f"bulk load took {build_s:.1f}s"

    t0 = time.perf_counter()
    tree_results = [knn_search(tree, (s, box), 1) for _, s, box in queries]
    wrtree_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    linear_results = [linear_knn(entries, (s, box), 1) for _, s, box in queries]
    linear_s = time.perf_counter() - t0

    assert tree_results == linear_results
    assert wrtree_s <= linear_s / 5.0, (wrtree_s, linear_s)
    print(
        f"\nACCEPTANCE PASS: performance - build {build_s:.1f}s, "
        f"wrtree {wrtree_s:.1f}s vs linear {linear_s:.1f}s "
        f"({linear_s / wrtree_s:.0f}x) over {len(queries)} queries"
    )


def test_insert_maintenance_at_scale():
    entries, _ = _performance_workload(12_000, seed=1)
    base, extra = entries[:9000], entries[9000:]

    tree = bulk_load(base, capacity=32)
    t0 = time.perf_counter()
    for e in extra:
        insert(tree, e)
    insert_total = time.perf_counter() - t0
    per_insert = insert_total / len(extra)

    t0 = time.perf_counter()
    rebuilt = bulk_load(entries, capacity=32)
    rebuild_s = time.perf_counter() - t0

    assert validate(tree) == []
    assert per_insert < rebuild_s / 100.0, (per_insert, rebuild_s)

    rng = np.random.default_rng(0)
    for idx in rng.choice(len(entries), size=300, replace=False):
        oid, s, box = entries[idx]
        for k in (1, 5):
            got = knn_search(tree, (s, box), k)
            want = linear_knn(entries, (s, box), k)
            assert [g[0] for g in got] == [w[0] for w in want]
            for (_, gs), (_, ws) in zip(got, want):
                assert abs(gs - ws) < 1e-9
    print(
        f"\nACCEPTANCE PASS: maintenance - 3000 inserts at {per_insert * 1000:.2f}ms "
        f"each vs {rebuild_s:.1f}s rebuild "
        f"({rebuild_s / per_insert:.0f}x); exactness holds on 300 queries"
    )


GEOLIFE_DIR = os.environ.get("GEOLIFE_DIR")


@pytest.mark.skipif(
    not GEOLIFE_DIR, reason="informative check; set GEOLIFE_DIR to the Geolife Data/ directory"
)
def test_geolife_reproduction_informative():
    """Optional real-data check: spatial signatures on the public Geolife
    release, grid-derived anchors (200 m cells, Beijing box), interleaved
    split, full-dimension linking.
    """
    from siglink.geolife import derive_anchors, load_geolife
    from siglink.traces import calibrate_trace, filter_min_points

    raw = load_geolife(GEOLIFE_DIR)
    beijing = (115.5, 39.4, 117.5, 40.8)
    anchors = derive_anchors(raw, cell_m=200.0, min_visits=5, bbox=beijing)
    traces = []
    for oid, pts in sorted(raw.items()):
        pts = [p for p in pts if beijing[0] <= p.lon <= beijing[2] and beijing[1] <= p.lat <= beijing[3]]
        if pts:
            traces.append(calibrate_trace(oid, pts, anchors))
    traces = filter_min_points(traces, 200)
    halves = split_dataset(traces, SplitStrategy.interleaved())
    run = link_all(halves.q, halves.d, anchors, engine="wrtree", k=5, m=None)
    acc1 = accuracy_at_k(run, 1)
    print(f"\nACCEPTANCE INFO: geolife Acc@1 = {acc1:.3f} over {len(run.results)} users")
    assert 0.62 <= acc1 <= 0.74
