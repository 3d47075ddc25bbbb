"""End-to-end linking: batch k-NN of a query dataset against a reference
dataset, accuracy scoring, re-ranking with larger signatures, and a
stable-marriage refinement of the top-k lists."""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Container, Mapping, Sequence

from .errors import EmptySignatureError, EmptyTraceError
from .reduction import Mbr, anchor_boxes, cut_table
from .signatures import (
    KIND_SPATIAL,
    Corpus,
    Signature,
    SignatureTable,
    _leaf_sim,
    tfidf_signatures,
)
from .traces import AnchorSet, Trace, _csv_rows, _object_id, write_csv
from .wrtree import (
    IndexEntry,
    KnnResult,
    WrTree,
    bulk_load,
    knn_search,
    linear_knn,
    rtree_baseline_knn,
)

# Names perfbench's tracer wraps in this module. Linking reduces and bounds
# signatures in batches and calls neither of them.
from .reduction import cut_reduce, mbr_of  # noqa: F401, E402

ENGINES = ("linear", "rtree", "wrtree")


@dataclass
class LinkingRun:
    """One batch of k-NN queries plus everything needed to score it, as
    ``link_signatures`` returns it; the steps after linking take its
    ``results`` lists."""

    engine: str
    k: int
    reduced_m: int | None
    results: dict[str, KnnResult]
    timings: dict[str, float]
    excluded_queries: list[str]
    excluded_references: list[str]
    reference_ids: set[str]


def reference_signatures(
    traces: Sequence[Trace],
    corpus: Corpus | None = None,
) -> tuple[SignatureTable, list[str], Corpus]:
    """Spatial signatures of traces, weighted by a corpus fitted to their own
    non-empty traces or, given a fitted ``corpus``, projected into its
    weight space (the query side of ``link_all``): the spatial case of
    ``tfidf_signatures``. Returns the signatures by id, the ids of traces
    left without one, and the corpus used."""
    return tfidf_signatures(traces, Corpus(KIND_SPATIAL) if corpus is None else corpus)


def query_signature(trace: Trace, corpus: Corpus) -> Signature | None:
    """One trace's spatial signature in the fitted reference corpus's weight
    space; ``None`` when nothing usable remains."""
    return tfidf_signatures([trace], corpus)[0].get(trace.object_id)


def build_corpus_stats(traces: Sequence[Trace]) -> Corpus:
    """The spatial corpus fitted to the non-empty traces: how many of them
    visit each anchor."""
    return tfidf_signatures(traces, Corpus(KIND_SPATIAL))[2]


def build_spatial_signature(trace: Trace, corpus: Corpus) -> Signature:
    """``query_signature`` that raises ``EmptyTraceError`` for an empty
    trace and ``EmptySignatureError`` when no anchor carries weight."""
    if not len(trace):
        raise EmptyTraceError(f"object {trace.object_id!r} has an empty trace")
    sig = query_signature(trace, corpus)
    if sig is None:
        raise EmptySignatureError("signature has no positive-weight dimensions")
    return sig


# the rectangle of a signature without a box: one point, so STR tiling keeps
# input order and every rectangle test passes
_NO_MBR = Mbr(0.0, 0.0, 0.0, 0.0)


def _index_entries(
    sigs: SignatureTable, anchors: AnchorSet | None, m: int | None
) -> list[IndexEntry]:
    """Each signature cut to its top ``m`` dimensions and given its
    rectangle, in one pass over the table: ``link_signatures`` makes the
    tree's leaves, the scan's entries and the queries with it. Given an
    anchor set, spatial signatures get their anchors' bounding boxes; any
    other rectangle is ``_NO_MBR``."""
    table = sigs if m is None else cut_table(sigs, m)
    if anchors is not None and table.kind == KIND_SPATIAL and len(table):
        mbrs = [Mbr(*b) for b in anchor_boxes(anchors, table.dims, table.indptr[:-1]).tolist()]
    else:
        mbrs = [_NO_MBR] * len(table)
    return [(oid, sig, mbr) for (oid, sig), mbr in zip(table.items(), mbrs)]


def link_signatures(
    query_sigs: Mapping[str, Signature],
    ref_sigs: Mapping[str, Signature],
    anchors: AnchorSet | None,
    *,
    engine: str = "wrtree",
    k: int = 5,
    m: int | None = 10,
    excluded_queries: Sequence[str] = (),
    excluded_references: Sequence[str] = (),
) -> LinkingRun:
    """Batch k-NN of prepared query signatures against reference signatures.

    Every engine is exact and returns the same lists, on every kind:
    ``linear`` scans every reference (the oracle), ``wrtree`` searches the
    weighted tree best-first with aggregate-bound pruning, and ``rtree``
    range-queries the same tree by rectangle alone (the baseline without the
    weight bound). Both tree engines search one tree built by ``bulk_load``
    at its default node capacity. Rectangles follow ``_index_entries``: only
    spatial signatures with an anchor set have boxes, so without them
    ``rtree`` scores every reference. Each side is made a ``SignatureTable``
    (``SignatureTable.of``), which refuses an unnormalized signature, naming
    its object; both sides must be of one kind.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    queries, refs = SignatureTable.of(query_sigs), SignatureTable.of(ref_sigs)
    if len(queries) and len(refs) and queries.kind != refs.kind:
        raise ValueError(f"signature kind mismatch: {queries.kind!r} vs {refs.kind!r}")
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    entries = _index_entries(refs, anchors, m)
    query_items = _index_entries(queries, anchors, m)
    timings["reduce"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    tree: WrTree | None = None
    if engine != "linear":
        tree = bulk_load(entries)
    timings["index_build"] = time.perf_counter() - t0

    def run_query(item: IndexEntry) -> tuple[str, KnnResult]:
        oid, sig, mbr = item
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
) -> LinkingRun:
    """Run one k-NN linking query per usable query trace against the
    reference corpus, under the chosen engine, at reduction level m; see
    ``link_signatures`` for the engines.

    The corpus is fitted to the references alone; query traces are
    projected into its weight space. Each side is weighted in one batch
    (``reference_signatures``), which refuses a repeated object id.
    """
    t0 = time.perf_counter()
    ref_sigs, excluded_refs, corpus = reference_signatures(references)
    query_sigs, excluded_queries, _ = reference_signatures(queries, corpus)
    sig_time = time.perf_counter() - t0

    run = link_signatures(
        query_sigs,
        ref_sigs,
        anchors,
        engine=engine,
        k=k,
        m=m,
        excluded_queries=excluded_queries,
        excluded_references=excluded_refs,
    )
    run.timings = {"signatures": sig_time, **run.timings}
    return run


def accuracies(
    results: Mapping[str, KnnResult], reference_ids: Container[str], k: int
) -> dict[int, float]:
    """Accuracy at every k from 1 to ``k``: the fraction of query objects
    finding their own id within their top-k list of ``results``.

    Queries whose counterpart is absent from ``reference_ids`` cannot be
    judged and are excluded from the denominator. Each judged query's list
    is scanned once, for the rank of its own id.
    """
    # hits[r]: judged queries whose own id sits at 0-based rank r < k
    hits = [0] * (k + 1)
    judged = 0
    for oid, result in results.items():
        if oid not in reference_ids:
            continue
        judged += 1
        rank = next((r for r, (cand, _) in enumerate(result[:k]) if cand == oid), k)
        hits[rank] += 1
    found = accumulate(hits[:k])
    return {kk: (n / judged if judged else 0.0) for kk, n in enumerate(found, start=1)}


def accuracy_at_k(run: LinkingRun, k: int) -> float:
    """Fraction of a run's query objects finding their own id within their
    top-k; see ``accuracies``."""
    if k < 1 or k > run.k:
        raise ValueError(f"k must be in [1, {run.k}]")
    return accuracies(run.results, run.reference_ids, run.k)[k]


def rerank(
    results: Mapping[str, KnnResult],
    query_sigs: Mapping[str, Signature],
    reference_sigs: Mapping[str, Signature],
) -> dict[str, KnnResult]:
    """Each query's list of ``results`` re-ordered by larger signatures.

    The candidate sets are unchanged, less any candidate the larger
    signatures score 0: like every engine, rerank reports only positive
    similarities. Ordering is a stable re-sort by the richer similarity, so
    equal similarities keep the k-NN order rather than ascending id. Both
    maps must cover every query and candidate involved; each is made a
    ``SignatureTable`` (``SignatureTable.of``), which refuses an
    unnormalized signature, naming its object.
    """
    query_sigs, reference_sigs = SignatureTable.of(query_sigs), SignatureTable.of(reference_sigs)
    new_results: dict[str, KnnResult] = {}
    for oid, result in results.items():
        if not result:
            new_results[oid] = []
            continue
        q_sig = query_sigs.get(oid)
        if q_sig is None:
            raise ValueError(f"missing large signature for query {oid!r}")
        q_map = q_sig.as_dict()
        rescored: list[tuple[str, float]] = []
        for cand, _ in result:
            c_sig = reference_sigs.get(cand)
            if c_sig is None:
                raise ValueError(f"missing large signature for candidate {cand!r}")
            sim = _leaf_sim(q_map, c_sig)
            if sim > 0.0:
                rescored.append((cand, sim))
        rescored.sort(key=lambda pair: -pair[1])
        new_results[oid] = rescored
    return new_results


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


def stable_marriage(
    run_qd: LinkingRun | Mapping[str, KnnResult],
    run_dq: LinkingRun | Mapping[str, KnnResult],
) -> Matching:
    """Proposal-based one-to-one matching over the two directions' top-k lists.

    Queries propose down their candidate lists; a proposed reference keeps
    whichever proposer ranks higher in its own list (proposers absent from the
    list rank below every listed one, ties by ascending id). Each side is a
    run or its result lists.
    """
    qd, dq = (run.results if isinstance(run, LinkingRun) else run for run in (run_qd, run_dq))
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


def write_results_csv(path: str | Path, results: Mapping[str, KnnResult]) -> None:
    """One row per candidate of each query's list, by ascending query id; a
    query with an empty list gets one ``query_id,0,,`` row, so it survives a
    round trip and is judged as a miss rather than dropped."""
    rows = []
    for oid in sorted(results):
        if not results[oid]:
            rows.append([oid, 0, "", ""])
        ranked = enumerate(results[oid], start=1)
        rows += ([oid, rank_no, cand, repr(sim)] for rank_no, (cand, sim) in ranked)
    write_csv(path, list(_RESULTS_COLUMNS), rows)


def _similarity(field: str) -> float | None:
    """A results CSV column type: a finite float, or None where a rank-0 row
    leaves the field empty."""
    if not field:
        return None
    value = float(field)
    if not math.isfinite(value):
        raise ValueError(f"{field!r} is not a finite number")
    return value


_RESULTS_COLUMNS = {
    "query_id": _object_id, "rank": int, "candidate_id": str, "similarity": _similarity,
}


def read_results_csv(path: str | Path) -> dict[str, KnnResult]:
    """Result lists by query id, as ``write_results_csv`` writes them. A
    query's rows rank distinct candidates 1, 2, ... in file order, each with
    a positive similarity no higher than the rank before's, or are one
    rank-0 row with neither, which reads back as an empty list. Any other
    row raises ``ValueError`` naming the file and line."""
    out: dict[str, KnnResult] = {}
    empty: set[str] = set()  # queries read from a rank-0 row
    listed: set[tuple[str, str]] = set()  # (query, candidate) pairs read
    for line, (oid, rank_no, cand, sim) in _csv_rows(path, _RESULTS_COLUMNS, "results"):
        result = out.setdefault(oid, [])
        if rank_no == 0 and not result and oid not in empty:
            if cand or sim is not None:
                raise ValueError(f"{path}:{line}: query {oid!r} lists a candidate at rank 0")
            empty.add(oid)
            continue
        if oid in empty or rank_no != len(result) + 1:
            raise ValueError(
                f"{path}:{line}: rank {rank_no} of query {oid!r} breaks its order;"
                " ranks run 1, 2, ... or are one rank-0 row"
            )
        if not cand or sim is None:
            raise ValueError(
                f"{path}:{line}: rank {rank_no} of query {oid!r} has no candidate or no similarity"
            )
        if sim <= 0.0 or (result and sim > result[-1][1]):
            raise ValueError(
                f"{path}:{line}: rank {rank_no} of query {oid!r} has similarity {sim!r};"
                " similarities are positive and never rise down a list"
            )
        if (oid, cand) in listed:
            raise ValueError(f"{path}:{line}: query {oid!r} lists candidate {cand!r} twice")
        listed.add((oid, cand))
        result.append((cand, sim))
    return out


def run_metrics(run: LinkingRun) -> dict:
    """What ``metrics.json`` holds for a run."""
    acc = accuracies(run.results, run.reference_ids, run.k)
    return {
        "engine": run.engine,
        "k": run.k,
        "m": run.reduced_m,
        "acc": {str(kk): a for kk, a in acc.items()},
        "timings": run.timings,
        "n_queries": len(run.results),
        "excluded_queries": sorted(run.excluded_queries),
        "excluded_references": sorted(run.excluded_references),
    }
