import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglink.errors import EmptyTraceError
from siglink.linking import (
    _NO_MBR,
    LinkingRun,
    _index_entries,
    accuracies,
    accuracy_at_k,
    link_all,
    link_signatures,
    matching_accuracy,
    read_results_csv,
    rerank,
    stable_marriage,
    write_results_csv,
)
from siglink.signatures import SignatureTable
from siglink.synth import generate_synthetic
from siglink.traces import SplitStrategy, Trace, split_dataset
from siglink.wrtree import bulk_load, knn_search, linear_knn, rtree_baseline_knn

from testkit import line_anchors, sig


def _run(results, reference_ids=None, k=None):
    k = k or max((len(r) for r in results.values()), default=1)
    return LinkingRun(
        engine="linear",
        k=k,
        reduced_m=None,
        results=results,
        timings={},
        excluded_queries=[],
        excluded_references=[],
        reference_ids=reference_ids or {c for r in results.values() for c, _ in r},
    )


# ---------------------------------------------------------------------------
# link_all


def test_identical_halves_link_perfectly():
    traces, anchors = generate_synthetic(40, 300, 0.08, 80, seed=0)
    run = link_all(traces, traces, anchors, engine="wrtree", k=3, m=10)
    assert accuracy_at_k(run, 1) == 1.0
    for oid, result in run.results.items():
        assert result[0][0] == oid
        assert result[0][1] == pytest.approx(1.0, abs=1e-12)


def test_engine_swap_gives_identical_results():
    traces, anchors = generate_synthetic(60, 500, 0.08, 100, seed=1)
    halves = split_dataset(traces, SplitStrategy.interleaved())
    runs = {
        engine: link_all(halves.q, halves.d, anchors, engine=engine, k=5, m=10)
        for engine in ("linear", "wrtree", "rtree")
    }
    assert runs["linear"].results == runs["wrtree"].results == runs["rtree"].results


_WEIGHTS = st.sampled_from([0.25, 0.5, 1.0, 2.0])


@st.composite
def _kind_signature(draw, kind):
    # two or three of three shared dims plus up to three of its own; few
    # distinct weights make ties common
    shared = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=2, max_size=3, unique=True))
    own = draw(st.lists(st.integers(3, 40), max_size=3, unique=True))
    return sig({d: draw(_WEIGHTS) for d in shared + own}, kind=kind)


@st.composite
def _kind_corpus(draw):
    kind = draw(st.sampled_from(["sequential:q=2", "spatiotemporal:g=40,dt=6"]))
    labels = draw(st.permutations(range(draw(st.integers(1, 40)))))
    refs = {f"o{label:02d}": draw(_kind_signature(kind)) for label in labels}
    probes = draw(st.lists(_kind_signature(kind), min_size=1, max_size=3))
    queries = {oid: refs[oid] for oid in list(refs)[:2]}
    queries.update((f"p{i}", probe) for i, probe in enumerate(probes))
    return queries, refs


def _hexed(result):
    return [(oid, s.hex()) for oid, s in result]


@settings(max_examples=60, deadline=None)
@given(
    corpus=_kind_corpus(),
    anchors=st.sampled_from([None, line_anchors(100)]),
    m=st.sampled_from([None, 3]),
    capacity=st.sampled_from([2, 3, 8, 32]),
)
def test_tree_engines_match_linear_on_nonspatial_kinds(corpus, anchors, m, capacity):
    # a non-spatial signature has no box, with or without an anchor set, so
    # both tree engines search one-point rectangles: through link_signatures'
    # tree, and through trees of every capacity over the same entries
    queries, refs = corpus
    entries = _index_entries(SignatureTable.of(refs), anchors, m)
    assert all(mbr == _NO_MBR for _, _, mbr in entries)
    reduced = {oid: s for oid, s, _ in _index_entries(SignatureTable.of(queries), anchors, m)}
    tree = bulk_load(entries, capacity)
    for k in (1, 5, len(refs) + 1):
        expect = {oid: _hexed(linear_knn(entries, (s, _NO_MBR), k)) for oid, s in reduced.items()}
        for search in (knn_search, rtree_baseline_knn):
            got = {oid: _hexed(search(tree, (s, _NO_MBR), k)) for oid, s in reduced.items()}
            assert got == expect
        for engine in ("wrtree", "rtree"):
            run = link_signatures(queries, refs, anchors, engine=engine, k=k, m=m)
            assert {oid: _hexed(r) for oid, r in run.results.items()} == expect


def test_empty_query_set():
    traces, anchors = generate_synthetic(10, 100, 0.1, 40, seed=3)
    run = link_all([], traces, anchors, engine="linear", k=2, m=5)
    assert run.results == {}
    assert accuracy_at_k(run, 1) == 0.0


def test_empty_reference_set_rejected():
    traces, anchors = generate_synthetic(5, 100, 0.1, 40, seed=4)
    with pytest.raises(EmptyTraceError):
        link_all(traces, [Trace("x", [])], anchors)


def test_unknown_engine_rejected():
    traces, anchors = generate_synthetic(5, 100, 0.1, 40, seed=5)
    with pytest.raises(ValueError):
        link_all(traces, traces, anchors, engine="quantum")


def test_empty_half_objects_excluded_from_denominator():
    run = _run(
        {"a": [("a", 0.9)], "b": [("x", 0.8)], "ghost": [("x", 0.5)]},
        reference_ids={"a", "b", "x"},
    )
    # 'ghost' has no reference counterpart: judged on a and b only
    assert accuracy_at_k(run, 1) == pytest.approx(1 / 2)


# ---------------------------------------------------------------------------
# Accuracy


def test_accuracy_hand_count():
    run = _run(
        {"a": [("a", 0.9)], "b": [("x", 0.8)], "c": [("c", 0.7)]},
        reference_ids={"a", "b", "c", "x"},
    )
    assert accuracy_at_k(run, 1) == pytest.approx(2 / 3)


def test_accuracy_monotone_in_k():
    traces, anchors = generate_synthetic(50, 400, 0.08, 90, seed=7)
    halves = split_dataset(traces, SplitStrategy.interleaved())
    run = link_all(halves.q, halves.d, anchors, engine="wrtree", k=5, m=10)
    accs = [accuracy_at_k(run, kk) for kk in range(1, 6)]
    assert all(b >= a for a, b in zip(accs, accs[1:]))


def test_accuracies_equal_a_scan_per_k():
    # a hit needs the query's own id in its first k candidates; a query
    # without a counterpart among the references is not judged
    rng = np.random.default_rng(5)
    ids = [f"o{i}" for i in range(8)]
    for _ in range(50):
        results = {
            q: [(c, 1.0) for c in rng.choice(ids, size=int(rng.integers(0, 6)), replace=False)]
            for q in ids[: int(rng.integers(0, 8))]
        }
        run = _run(results, reference_ids=set(ids[2:]), k=5)
        judged = [q for q in results if q in run.reference_ids]
        for kk, acc in accuracies(results, run.reference_ids, 5).items():
            hits = sum(any(c == q for c, _ in results[q][:kk]) for q in judged)
            assert acc == (hits / len(judged) if judged else 0.0) == accuracy_at_k(run, kk)
        assert list(accuracies(results, run.reference_ids, 5)) == [1, 2, 3, 4, 5]


def test_accuracy_k_bounds_checked():
    run = _run({"a": [("a", 1.0)]}, k=3)
    with pytest.raises(ValueError):
        accuracy_at_k(run, 4)
    with pytest.raises(ValueError):
        accuracy_at_k(run, 0)


# ---------------------------------------------------------------------------
# Re-ranking


def test_rerank_keeps_candidate_sets_and_stabilizes_ties():
    run = _run({"q": [("a", 0.9), ("b", 0.8), ("c", 0.7)]})
    large = {"a": sig({1: 1.0}), "b": sig({1: 1.0}), "c": sig({1: 1.0})}
    query_large = {"q": sig({1: 1.0})}
    out = rerank(run.results, query_large, large)
    # all rescored similarities are equal, so the original order survives
    assert [c for c, _ in out["q"]] == ["a", "b", "c"]
    assert {c for c, _ in out["q"]} == {"a", "b", "c"}


def test_rerank_reorders_by_large_similarity():
    run = _run({"q": [("a", 0.9), ("b", 0.8)]})
    query_large = {"q": sig({1: 1.0, 2: 1.0})}
    large = {"a": sig({1: 1.0, 3: 1.0}), "b": sig({1: 1.0, 2: 1.0})}
    out = rerank(run.results, query_large, large)
    assert [c for c, _ in out["q"]] == ["b", "a"]


def test_rerank_drops_a_candidate_the_large_signatures_score_0():
    # like every engine, rerank reports only positive similarities
    results = {"q": [("q", 0.9), ("a", 0.1)], "e": []}
    query_large = {"q": sig({0: 1.0})}
    large = {"a": sig({1: 1.0}), "q": sig({0: 1.0})}
    assert rerank(results, query_large, large) == {"q": [("q", 1.0)], "e": []}


def test_rerank_missing_signature_errors():
    run = _run({"q": [("a", 0.9)]})
    with pytest.raises(ValueError):
        rerank(run.results, {"q": sig({1: 1.0})}, {})
    with pytest.raises(ValueError):
        rerank(run.results, {}, {"a": sig({1: 1.0})})


def test_rerank_with_link_signatures_reproduces_linear_similarities():
    from siglink.linking import query_signature, reference_signatures

    traces, anchors = generate_synthetic(60, 500, 0.08, 90, seed=4)
    halves = split_dataset(traces, SplitStrategy.interleaved())
    run = link_all(halves.q, halves.d, anchors, engine="linear", k=5, m=None)
    ref_sigs, _, stats = reference_signatures(halves.d)
    query_sigs = {t.object_id: query_signature(t, stats) for t in halves.q if t.points}
    # same signatures and the same kernel: floats and order are bit-identical
    assert rerank(run.results, query_sigs, ref_sigs) == run.results


def test_rerank_mean_gain_nonnegative_over_seeds():
    from siglink.linking import query_signature, reference_signatures

    gains = []
    for seed in range(20):
        traces, anchors = generate_synthetic(60, 500, 0.08, 90, seed=seed)
        halves = split_dataset(traces, SplitStrategy.interleaved())
        run = link_all(halves.q, halves.d, anchors, engine="wrtree", k=5, m=3)
        ref_sigs, _, stats = reference_signatures(halves.d)
        query_sigs = {
            t.object_id: s
            for t in halves.q
            if t.points and (s := query_signature(t, stats)) is not None
        }
        improved = rerank(run.results, query_sigs, ref_sigs)
        gains.append(accuracies(improved, run.reference_ids, 5)[1] - accuracy_at_k(run, 1))
    assert float(np.mean(gains)) >= 0.0


# ---------------------------------------------------------------------------
# Stable marriage


def enumerate_stable_matchings(prefs_q, prefs_d):
    """Brute force: all stable perfect matchings for complete preference lists."""
    q_ids = sorted(prefs_q)
    d_ids = sorted(prefs_d)
    q_rank = {q: {d: i for i, d in enumerate(prefs_q[q])} for q in q_ids}
    d_rank = {d: {q: i for i, q in enumerate(prefs_d[d])} for d in d_ids}
    stable = []
    for perm in itertools.permutations(d_ids):
        match = dict(zip(q_ids, perm))
        partner = {d: q for q, d in match.items()}
        blocked = False
        for q in q_ids:
            for d in d_ids:
                if d == match[q]:
                    continue
                if q_rank[q][d] < q_rank[q][match[q]] and d_rank[d][q] < d_rank[d][partner[d]]:
                    blocked = True
                    break
            if blocked:
                break
        if not blocked:
            stable.append(match)
    return stable, q_rank


def proposer_optimal(stable, q_rank):
    return {
        q: min((m[q] for m in stable), key=lambda d: ranks[d])
        for q, ranks in q_rank.items()
    }


def _random_instance(rng, n, k):
    """Random similarity tables -> two KnnResult maps over ids q0.. / d0.."""
    q_ids = [f"q{i}" for i in range(n)]
    d_ids = [f"d{i}" for i in range(n)]
    sims = rng.uniform(0.01, 1.0, size=(n, n))
    qd = {}
    for i, q in enumerate(q_ids):
        order = np.argsort(-sims[i])[:k]
        qd[q] = [(d_ids[j], float(sims[i, j])) for j in order]
    dq = {}
    for j, d in enumerate(d_ids):
        order = np.argsort(-sims[:, j])[:k]
        dq[d] = [(q_ids[i], float(sims[i, j])) for i in order]
    return qd, dq


def test_mutual_top_one_matched():
    qd = {"q1": [("d1", 0.9), ("d2", 0.1)], "q2": [("d1", 0.5), ("d2", 0.4)]}
    dq = {"d1": [("q1", 0.9), ("q2", 0.5)], "d2": [("q2", 0.4), ("q1", 0.1)]}
    matching = stable_marriage(qd, dq)
    assert matching.stable_pairs == {"q1": "d1", "q2": "d2"}
    assert not matching.fallback_pairs
    assert not matching.unmatched


def test_three_by_three_contested_matches_unique_stable():
    rng = np.random.default_rng(17)
    qd, dq = _random_instance(rng, 3, 3)
    prefs_q = {q: [d for d, _ in res] for q, res in qd.items()}
    prefs_d = {d: [q for q, _ in res] for d, res in dq.items()}
    stable, q_rank = enumerate_stable_matchings(prefs_q, prefs_d)
    assert stable, "instance must admit a stable matching"
    got = stable_marriage(qd, dq)
    assert got.stable_pairs == proposer_optimal(stable, q_rank)


def test_isolated_query_falls_back_to_top_one():
    qd = {
        "q1": [("d1", 0.9)],
        "q2": [("d1", 0.8)],
    }
    dq = {"d1": [("q1", 0.9), ("q2", 0.8)]}
    matching = stable_marriage(qd, dq)
    assert matching.stable_pairs == {"q1": "d1"}
    assert matching.fallback_pairs == {"q2": "d1"}
    assert matching.fallback_collisions() == {"d1": ["q2"]}


def test_query_with_empty_list_unmatched():
    matching = stable_marriage({"q1": []}, {})
    assert matching.unmatched == ["q1"]
    assert matching.pairs == {}


def test_proposal_phase_injective_and_terminates():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, min(n, 5) + 1))
        qd, dq = _random_instance(rng, n, k)
        matching = stable_marriage(qd, dq)
        targets = list(matching.stable_pairs.values())
        assert len(targets) == len(set(targets))
        assert matching.n_proposals <= n * k


def _assert_no_blocking_pair(matching, qd, dq):
    q_rank = {q: {d: i for i, (d, _) in enumerate(res)} for q, res in qd.items()}
    d_rank = {d: {q: i for i, (q, _) in enumerate(res)} for d, res in dq.items()}
    pairs = matching.stable_pairs
    partner = {d: q for q, d in pairs.items()}
    for q, ranks in q_rank.items():
        for d in ranks:
            if q not in d_rank.get(d, {}):
                continue
            match_q = pairs.get(q)
            q_prefers = match_q is None or ranks[d] < ranks.get(match_q, 1 << 30)
            held = partner.get(d)
            d_prefers = held is None or d_rank[d].get(q, 1 << 30) < d_rank[d].get(
                held, 1 << 30
            )
            assert not (q_prefers and d_prefers and match_q != d), (q, d)


def test_no_blocking_pairs_on_incomplete_lists():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, n + 1))
        qd, dq = _random_instance(rng, n, k)
        matching = stable_marriage(qd, dq)
        _assert_no_blocking_pair(matching, qd, dq)


def test_matching_accuracy_and_sm_gain_over_seeds():
    gains = []
    for seed in range(20):
        traces, anchors = generate_synthetic(50, 400, 0.08, 90, seed=100 + seed)
        halves = split_dataset(traces, SplitStrategy.interleaved())
        qd = link_all(halves.q, halves.d, anchors, engine="wrtree", k=5, m=3)
        dq = link_all(halves.d, halves.q, anchors, engine="wrtree", k=5, m=3)
        matching = stable_marriage(qd, dq)
        gains.append(matching_accuracy(matching) - accuracy_at_k(qd, 1))
    assert float(np.mean(gains)) >= 0.0


def test_rerank_then_stable_marriage_composition():
    from siglink.linking import query_signature, reference_signatures

    traces, anchors = generate_synthetic(40, 300, 0.08, 80, seed=31)
    halves = split_dataset(traces, SplitStrategy.interleaved())
    qd = link_all(halves.q, halves.d, anchors, engine="wrtree", k=5, m=3)
    dq = link_all(halves.d, halves.q, anchors, engine="wrtree", k=5, m=3)
    d_sigs, _, d_stats = reference_signatures(halves.d)
    q_sigs, _, q_stats = reference_signatures(halves.q)
    q_in_d = {
        t.object_id: s
        for t in halves.q
        if t.points and (s := query_signature(t, d_stats)) is not None
    }
    d_in_q = {
        t.object_id: s
        for t in halves.d
        if t.points and (s := query_signature(t, q_stats)) is not None
    }
    matching = stable_marriage(rerank(qd.results, q_in_d, d_sigs),
                               rerank(dq.results, d_in_q, q_sigs))
    targets = list(matching.stable_pairs.values())
    assert len(targets) == len(set(targets))


# ---------------------------------------------------------------------------
# Result files


def test_results_csv_round_trip(tmp_path):
    results = {"q1": [("d1", 0.5), ("d2", 0.123456789012345)], "q2": []}
    path = tmp_path / "results.csv"
    write_results_csv(path, results)
    back = read_results_csv(path)
    assert back == results  # an empty list survives as one rank-0 row
    assert "q2,0,," in path.read_text().splitlines()
