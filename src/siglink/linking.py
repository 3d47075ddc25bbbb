"""End-to-end linking: batch k-NN of a query dataset against a reference
dataset, accuracy scoring, re-ranking with larger signatures, and a
stable-marriage refinement of the top-k lists."""

from __future__ import annotations

import csv
import json
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import EmptySignatureError, EmptyTraceError
from .reduction import Mbr, cut_reduce, mbr_of
from .signatures import (
    KIND_SPATIAL,
    CorpusStats,
    Signature,
    build_corpus_stats,
    build_spatial_signature,
    tfidf_signature,
)
from .traces import AnchorSet, Trace
from .wrtree import (
    IndexEntry,
    KnnResult,
    WrTree,
    _leaf_sim,
    _query_map,
    bulk_load,
    knn_search,
    linear_knn,
    rtree_baseline_knn,
)

ENGINES = ("linear", "rtree", "wrtree")


@dataclass
class LinkingRun:
    """One batch of k-NN queries plus everything needed to score it."""

    engine: str
    k: int
    reduced_m: int | None
    results: dict[str, KnnResult]
    timings: dict[str, float]
    excluded_queries: list[str]
    excluded_references: list[str]
    reference_ids: set[str]
    rerank_m: int | None = None


def reference_signatures(
    traces: Sequence[Trace], stats: CorpusStats | None = None
) -> tuple[dict[str, Signature], list[str], CorpusStats]:
    """Spatial signatures for a reference corpus; objects whose every visited
    anchor is corpus-wide (zero discriminative weight) are reported, not
    indexed."""
    usable = [t for t in traces if t.points]
    empty = [t.object_id for t in traces if not t.points]
    if not usable:
        raise EmptyTraceError("reference corpus has no non-empty traces")
    if stats is None:
        stats = build_corpus_stats(usable)
    sigs: dict[str, Signature] = {}
    degenerate: list[str] = []
    for trace in usable:
        try:
            sigs[trace.object_id] = build_spatial_signature(trace, stats)
        except EmptySignatureError:
            degenerate.append(trace.object_id)
    return sigs, empty + degenerate, stats


def query_signature(trace: Trace, stats: CorpusStats) -> Signature | None:
    """Query-side signature in the reference corpus's weight space; anchors
    unseen there are dropped (see ``tfidf_signature``), and ``None`` means
    nothing usable remains."""
    try:
        return tfidf_signature(trace.anchor_counts(), stats, KIND_SPATIAL)
    except EmptySignatureError:
        return None


_NO_MBR = Mbr(0.0, 0.0, 0.0, 0.0)


def _reduce_entry(
    object_id: str, sig: Signature, anchors: AnchorSet | None, m: int | None
) -> IndexEntry:
    if not sig.normalized:
        # cosine scores and the pruning bounds hold only for unit vectors
        raise ValueError(f"signature of {object_id!r} is not normalized")
    reduced = cut_reduce(sig, m) if m is not None and m < sig.nnz() else sig
    mbr = mbr_of(reduced, anchors) if anchors is not None else _NO_MBR
    return (object_id, reduced, mbr)


def link_signatures(
    query_sigs: Mapping[str, Signature],
    ref_sigs: Mapping[str, Signature],
    anchors: AnchorSet | None,
    *,
    engine: str = "wrtree",
    k: int = 5,
    m: int | None = 10,
    capacity: int = 32,
    excluded_queries: Sequence[str] = (),
    excluded_references: Sequence[str] = (),
) -> LinkingRun:
    """Batch k-NN of prepared query signatures against reference signatures.

    Every engine is exact and returns the same lists: ``linear`` scans every
    reference (the oracle), ``wrtree`` searches the weighted tree best-first
    with rectangle and aggregate-bound pruning, and ``rtree`` range-queries
    the same tree by rectangle alone (the baseline without the weight bound).
    The tree engines need an anchor set to derive bounding boxes, so they
    only work on spatial signatures; ``linear`` accepts any cosine-comparable
    kind. Every signature must be normalized; an unnormalized one raises
    ``ValueError`` naming its object.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine in ("wrtree", "rtree") and anchors is None:
        raise ValueError(f"engine {engine!r} needs an anchor set for bounding boxes")
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    entries = [_reduce_entry(oid, sig, anchors, m) for oid, sig in ref_sigs.items()]
    query_items = [
        (oid, _reduce_entry(oid, sig, anchors, m)) for oid, sig in query_sigs.items()
    ]
    timings["reduce"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    tree: WrTree | None = None
    if engine != "linear":
        tree = bulk_load(entries, capacity)
    timings["index_build"] = time.perf_counter() - t0

    def run_query(item: tuple[str, IndexEntry]) -> tuple[str, KnnResult]:
        oid, (_, sig, mbr) = item
        if engine == "linear":
            return oid, linear_knn(entries, (sig, mbr), k)
        if engine == "wrtree":
            return oid, knn_search(tree, (sig, mbr), k)
        return oid, rtree_baseline_knn(tree, (sig, mbr), k)

    t0 = time.perf_counter()
    results = dict(map(run_query, query_items))
    timings["link"] = time.perf_counter() - t0

    return LinkingRun(
        engine=engine,
        k=k,
        reduced_m=m,
        results=results,
        timings=timings,
        excluded_queries=list(excluded_queries),
        excluded_references=list(excluded_references),
        reference_ids=set(ref_sigs),
    )


def link_all(
    queries: Sequence[Trace],
    references: Sequence[Trace],
    anchors: AnchorSet,
    *,
    engine: str = "wrtree",
    k: int = 5,
    m: int | None = 10,
    capacity: int = 32,
) -> LinkingRun:
    """Run one k-NN linking query per usable query trace against the
    reference corpus, under the chosen engine, at reduction level m.

    Reference IDF statistics come from the reference corpus alone; query
    traces are projected into that weight space.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    ref_sigs, excluded_refs, stats = reference_signatures(references)
    query_sigs: dict[str, Signature] = {}
    excluded_queries: list[str] = []
    for trace in queries:
        sig = query_signature(trace, stats) if trace.points else None
        if sig is None:
            excluded_queries.append(trace.object_id)
        else:
            query_sigs[trace.object_id] = sig
    sig_time = time.perf_counter() - t0

    run = link_signatures(
        query_sigs,
        ref_sigs,
        anchors,
        engine=engine,
        k=k,
        m=m,
        capacity=capacity,
        excluded_queries=excluded_queries,
        excluded_references=excluded_refs,
    )
    run.timings = {"signatures": sig_time, **run.timings}
    return run


def accuracy_at_k(run: LinkingRun, k: int) -> float:
    """Fraction of query objects finding their own id within their top-k.

    Queries whose counterpart is absent from the reference index cannot be
    judged and are excluded from the denominator.
    """
    if k < 1 or k > run.k:
        raise ValueError(f"k must be in [1, {run.k}]")
    judged = 0
    hits = 0
    for oid, result in run.results.items():
        if oid not in run.reference_ids:
            continue
        judged += 1
        if any(cand == oid for cand, _ in result[:k]):
            hits += 1
    return hits / judged if judged else 0.0


def rerank(
    run: LinkingRun,
    query_sigs: Mapping[str, Signature],
    reference_sigs: Mapping[str, Signature],
) -> LinkingRun:
    """Re-order each query's candidate set using larger signatures.

    The candidate sets are unchanged as sets; ordering is a stable re-sort by
    the richer similarity, so all-equal similarities keep the original order.
    Both maps must cover every query and candidate involved.
    """
    new_results: dict[str, KnnResult] = {}
    for oid, result in run.results.items():
        if not result:
            new_results[oid] = []
            continue
        q_sig = query_sigs.get(oid)
        if q_sig is None:
            raise ValueError(f"missing large signature for query {oid!r}")
        q_map = _query_map(q_sig)
        rescored: list[tuple[str, float]] = []
        for cand, _ in result:
            c_sig = reference_sigs.get(cand)
            if c_sig is None:
                raise ValueError(f"missing large signature for candidate {cand!r}")
            rescored.append((cand, _leaf_sim(q_map, c_sig)))
        rescored.sort(key=lambda pair: -pair[1])
        new_results[oid] = rescored
    rerank_m = next(iter(reference_sigs.values())).reduced_m if reference_sigs else None
    return LinkingRun(
        engine=run.engine,
        k=run.k,
        reduced_m=run.reduced_m,
        results=new_results,
        timings=dict(run.timings),
        excluded_queries=list(run.excluded_queries),
        excluded_references=list(run.excluded_references),
        reference_ids=set(run.reference_ids),
        rerank_m=rerank_m,
    )


# ---------------------------------------------------------------------------
# Stable-marriage refinement


@dataclass
class Matching:
    """Outcome of the proposal phase plus fallback assignments.

    ``stable_pairs`` is injective (one reference per query). Queries that
    exhaust their candidate list fall back to their original top-1, which may
    collide; queries with no candidates at all end up unmatched.
    """

    stable_pairs: dict[str, str]
    fallback_pairs: dict[str, str]
    unmatched: list[str]
    n_proposals: int

    @property
    def pairs(self) -> dict[str, str]:
        combined = dict(self.stable_pairs)
        combined.update(self.fallback_pairs)
        return combined

    def fallback_collisions(self) -> dict[str, list[str]]:
        by_ref: dict[str, list[str]] = {}
        taken = {d: q for q, d in self.stable_pairs.items()}
        for q, d in sorted(self.fallback_pairs.items()):
            by_ref.setdefault(d, []).append(q)
        return {
            d: qs
            for d, qs in by_ref.items()
            if len(qs) > 1 or d in taken
        }


def _result_map(run: LinkingRun | Mapping[str, KnnResult]) -> Mapping[str, KnnResult]:
    return run.results if isinstance(run, LinkingRun) else run


def stable_marriage(
    run_qd: LinkingRun | Mapping[str, KnnResult],
    run_dq: LinkingRun | Mapping[str, KnnResult],
) -> Matching:
    """Proposal-based one-to-one matching over the two directions' top-k lists.

    Queries propose down their candidate lists; a proposed reference keeps
    whichever proposer ranks higher in its own list (proposers absent from the
    list rank below every listed one, ties by ascending id).
    """
    qd = _result_map(run_qd)
    dq = _result_map(run_dq)
    prefs = {q: [cand for cand, _ in result] for q, result in qd.items()}
    rank: dict[str, dict[str, int]] = {
        d: {q: i for i, (q, _) in enumerate(result)} for d, result in dq.items()
    }

    def rank_key(d: str, q: str) -> tuple[int, str]:
        return (rank.get(d, {}).get(q, 1 << 30), q)

    next_choice = {q: 0 for q in prefs}
    engaged: dict[str, str] = {}
    queue = deque(sorted(prefs))
    fallback: dict[str, str] = {}
    unmatched: list[str] = []
    n_proposals = 0
    while queue:
        q = queue.popleft()
        i = next_choice[q]
        if i >= len(prefs[q]):
            if prefs[q]:
                fallback[q] = prefs[q][0]
            else:
                unmatched.append(q)
            continue
        d = prefs[q][i]
        next_choice[q] = i + 1
        n_proposals += 1
        holder = engaged.get(d)
        if holder is None:
            engaged[d] = q
            continue
        if rank_key(d, q) < rank_key(d, holder):
            engaged[d] = q
            queue.append(holder)
        else:
            queue.append(q)
    stable_pairs = {q: d for d, q in engaged.items()}
    return Matching(stable_pairs, fallback, unmatched, n_proposals)


def matching_accuracy(matching: Matching) -> float:
    """Fraction of queries whose final assignment is their own id."""
    total = len(matching.stable_pairs) + len(matching.fallback_pairs) + len(
        matching.unmatched
    )
    if total == 0:
        return 0.0
    hits = sum(1 for q, d in matching.pairs.items() if q == d)
    return hits / total


# ---------------------------------------------------------------------------
# Result files


def write_results_csv(path: str | Path, run: LinkingRun | Mapping[str, KnnResult]) -> None:
    """One row per candidate; a query with an empty list gets one
    ``query_id,0,,`` row, so it survives a round trip and is judged as a
    miss rather than dropped."""
    results = _result_map(run)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "rank", "candidate_id", "similarity"])
        for oid in sorted(results):
            if not results[oid]:
                writer.writerow([oid, 0, "", ""])
            for rank_no, (cand, sim) in enumerate(results[oid], start=1):
                writer.writerow([oid, rank_no, cand, repr(sim)])


def read_results_csv(path: str | Path) -> dict[str, KnnResult]:
    """Result lists by query id; a rank-0 row reads back as an empty list."""
    out: dict[str, KnnResult] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["query_id", "rank", "candidate_id", "similarity"]:
            raise ValueError(f"bad results header in {path}: {header}")
        for row in reader:
            if not row:
                continue
            oid, rank_no, cand, sim = row
            result = out.setdefault(oid, [])
            if rank_no != "0":
                result.append((cand, float(sim)))
    return out


def write_metrics_json(path: str | Path, run: LinkingRun) -> dict:
    metrics = {
        "engine": run.engine,
        "k": run.k,
        "m": run.reduced_m,
        "rerank_m": run.rerank_m,
        "acc": {str(kk): accuracy_at_k(run, kk) for kk in range(1, run.k + 1)},
        "timings": run.timings,
        "n_queries": len(run.results),
        "excluded_queries": sorted(run.excluded_queries),
        "excluded_references": sorted(run.excluded_references),
    }
    Path(path).write_text(json.dumps(metrics, indent=2) + "\n", encoding="utf-8")
    return metrics
