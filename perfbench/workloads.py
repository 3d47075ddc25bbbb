"""The three benchmark workloads: ``pipeline``, ``churn`` and ``closure``.

Each part of a workload makes its inputs from its seed in ``setup`` (untimed
by the job clock, timed as set-up), runs one job in ``job`` (the timed region)
and checks a job's outputs in ``check``. siglink is only reached through its public
functions, looked up on the ``siglink`` package or ``siglink.linking`` at call
time, so a tracer that wraps those attributes sees every call. README.md says
why each workload exists and which layers it stresses or bypasses.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import siglink

K = 5
M = 10
CLOSURE_ROUNDS = 2
CLOSURE_FULL_SIZE = 3000


def _anchors_for(n_objects: int) -> int:
    # the generator settings of the repository's 10k acceptance workload
    return 4 * n_objects


def _generate(n_objects: int, seed: int, radius: float = 0.03):
    return siglink.generate_synthetic(n_objects, _anchors_for(n_objects), radius, 200, seed)


def _radius_as_at(full_size: int, n_objects: int) -> float:
    """The locality radius at which n_objects have as many anchors, and as
    many other objects' homes, within reach as full_size objects at 0.03:
    both counts grow with n_objects * radius**2."""
    return 0.03 * (full_size / n_objects) ** 0.5


def _entry(oid: str, sig, anchors) -> tuple:
    reduced = siglink.cut_reduce(sig, M)
    return (oid, reduced, siglink.mbr_of(reduced, anchors))


def _sample(ids, n: int, seed: int) -> list:
    ids = sorted(ids)
    return sorted(random.Random(seed).sample(ids, min(n, len(ids))))


class Workload:
    """One part of a workload: set-up, a repeatable job, and the checks on its
    output. A run measures ``PARTS`` equal parts with inputs of their own."""

    name = ""
    PARTS = 4

    def __init__(self, seed: int, n_objects: int, oracle_sample: int = 40):
        self.seed = seed
        self.n_objects = n_objects
        self.oracle_sample = oracle_sample
        self.run_seed = seed

    @classmethod
    def parts(cls, seed: int, n_parts: int | None = None, **sizes) -> list["Workload"]:
        """The parts of the run with seed ``seed``; part p makes its inputs
        from seed ``seed * n_parts + p``, so runs of distinct seeds share none."""
        n_parts = n_parts or cls.PARTS
        parts = [cls(seed * n_parts + p, **sizes) for p in range(n_parts)]
        for wl in parts:
            wl.run_seed = seed
        return parts

    def sizes(self) -> dict[str, int]:
        return {"n_objects": self.n_objects, "n_anchors": _anchors_for(self.n_objects)}

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> int:
        """Operations one job performs: the unit of ``ops_per_s``."""
        raise NotImplementedError

    def job(self) -> Any:
        raise NotImplementedError

    def fingerprint(self, out: Any) -> Any:
        """Everything a job computed except timings; repeats must agree."""
        raise NotImplementedError

    def check(self, out: Any) -> list[str]:
        """Correctness failures of one job's output, one message each."""
        raise NotImplementedError

    def quality(self, out: Any) -> dict[str, float]:
        """Result quality: ``acc_at_1`` and ``acc_at_5``, plus extras."""
        raise NotImplementedError

    def errors(self, out: Any) -> list[str]:
        """Operations that raised inside a job that kept running."""
        return []

    def samples(self, out: Any) -> dict[str, list[float]]:
        """Per-operation latencies in seconds, by metric prefix."""
        return {}


# ---------------------------------------------------------------------------
# pipeline: raw GPS -> calibrate -> split -> link both ways -> marry


@dataclass
class PipelineOut:
    halves: Any
    qd: Any
    dq: Any
    matching: Any


class Pipeline(Workload):
    name = "pipeline"

    def __init__(self, seed: int, n_objects: int = 200, oracle_sample: int = 40):
        super().__init__(seed, n_objects, oracle_sample)

    def setup(self) -> None:
        traces, anchors = _generate(self.n_objects, self.seed)
        # Jitter each visit into a raw fix. sigma is a tenth of the mean
        # nearest-neighbour spacing of uniform anchors, so most fixes snap
        # back to their anchor and calibration still has real work to do.
        sigma = 0.1 * 0.5 / np.sqrt(len(anchors))
        rng = np.random.default_rng([1, self.seed])
        raw = {}
        for trace in traces:
            ids = np.fromiter((a for a, _ in trace.points), dtype=np.int64)
            lons = anchors.lons[ids] + rng.normal(0.0, sigma, len(ids))
            lats = anchors.lats[ids] + rng.normal(0.0, sigma, len(ids))
            raw[trace.object_id] = [
                siglink.RawPoint(lon, lat, t)
                for lon, lat, (_, t) in zip(lons.tolist(), lats.tolist(), trace.points)
            ]
        self.raw = raw
        self.anchors = anchors

    def ops(self) -> int:
        return self.n_objects

    def job(self) -> PipelineOut:
        anchors = self.anchors
        traces = [siglink.calibrate_trace(oid, raw, anchors) for oid, raw in self.raw.items()]
        halves = siglink.split_dataset(traces, siglink.SplitStrategy.interleaved())
        qd = siglink.link_all(halves.q, halves.d, anchors)
        dq = siglink.link_all(halves.d, halves.q, anchors)
        return PipelineOut(halves, qd, dq, siglink.stable_marriage(qd, dq))

    def fingerprint(self, out: PipelineOut) -> Any:
        m = out.matching
        return (out.qd.results, out.dq.results, m.stable_pairs, m.fallback_pairs, m.unmatched)

    def check(self, out: PipelineOut) -> list[str]:
        failures = []
        for label, run, queries, refs in (
            ("q->d", out.qd, out.halves.q, out.halves.d),
            ("d->q", out.dq, out.halves.d, out.halves.q),
        ):
            failures += _check_run_against_oracle(
                label, run, queries, refs, self.anchors, self.oracle_sample, self.seed
            )
        return failures

    def quality(self, out: PipelineOut) -> dict[str, float]:
        return {
            "acc_at_1": siglink.accuracy_at_k(out.qd, 1),
            "acc_at_5": siglink.accuracy_at_k(out.qd, 5),
            "match_acc": siglink.matching_accuracy(out.matching),
        }


def _check_run_against_oracle(label, run, queries, refs, anchors, n_sample, seed) -> list[str]:
    """Compare a sample of one link_all run's queries with linear_knn over the
    same reduced entries, similarity floats and tie order included."""
    failures = []
    ref_sigs, _excluded, stats = siglink.linking.reference_signatures(refs)
    m = run.reduced_m
    entries = []
    for oid, sig in ref_sigs.items():
        reduced = sig if m is None else siglink.cut_reduce(sig, m)
        entries.append((oid, reduced, siglink.mbr_of(reduced, anchors)))
    all_ids = {t.object_id for t in queries}
    if set(run.results) | set(run.excluded_queries) != all_ids:
        failures.append(f"{label}: linked and excluded queries do not cover the query set")
    by_id = {t.object_id: t for t in queries}
    for qid in _sample(run.results, n_sample, seed):
        sig = siglink.linking.query_signature(by_id[qid], stats)
        reduced = sig if m is None else siglink.cut_reduce(sig, m)
        expect = siglink.linear_knn(entries, (reduced, siglink.mbr_of(reduced, anchors)), run.k)
        if run.results[qid] != expect:
            failures.append(f"{label} query {qid}: {run.results[qid]} != linear {expect}")
    return failures


# ---------------------------------------------------------------------------
# churn: a bulk-loaded index under a shuffled stream of inserts and lookups


@dataclass
class ChurnOut:
    tree: Any
    inserted: list = field(default_factory=list)  # entries, in arrival order
    # (object id, result, arrivals inserted before it, reduced sig, mbr)
    lookups: list = field(default_factory=list)
    lookup_s: list = field(default_factory=list)
    insert_s: list = field(default_factory=list)
    errors: list = field(default_factory=list)


class Churn(Workload):
    name = "churn"
    BASE_FRACTION = 0.75

    def __init__(self, seed: int, n_objects: int = 400, oracle_sample: int = 40):
        super().__init__(seed, n_objects, oracle_sample)

    def sizes(self) -> dict[str, int]:
        n_base = int(self.n_objects * self.BASE_FRACTION)
        return {
            **super().sizes(),
            "base": n_base,
            "arrivals": self.n_objects - n_base,
            "lookups": self.n_objects,
        }

    def setup(self) -> None:
        traces, anchors = _generate(self.n_objects, self.seed)
        halves = siglink.split_dataset(traces, siglink.SplitStrategy.interleaved())
        rng = random.Random(self.seed)
        order = list(range(self.n_objects))
        rng.shuffle(order)
        n_base = self.sizes()["base"]
        base_refs = [halves.d[i] for i in order[:n_base]]
        ref_sigs, _excluded, stats = siglink.linking.reference_signatures(base_refs)
        self.base = [_entry(oid, ref_sigs[oid], anchors) for oid in sorted(ref_sigs)]
        stream = [("insert", halves.d[i]) for i in order[n_base:]]
        stream += [("lookup", t) for t in halves.q]
        rng.shuffle(stream)
        self.stream = stream
        self.stats = stats
        self.anchors = anchors

    def ops(self) -> int:
        return len(self.stream)

    def job(self) -> ChurnOut:
        query_signature = siglink.linking.query_signature
        cut_reduce, mbr_of = siglink.cut_reduce, siglink.mbr_of
        insert, knn_search = siglink.insert, siglink.knn_search
        stats, anchors = self.stats, self.anchors
        out = ChurnOut(siglink.bulk_load(self.base))
        clock = time.perf_counter
        for kind, trace in self.stream:
            oid = trace.object_id
            start = clock()
            try:
                sig = query_signature(trace, stats)
                if sig is None:
                    raise ValueError("no signature under the base statistics")
                reduced = cut_reduce(sig, M)
                box = mbr_of(reduced, anchors)
                if kind == "insert":
                    insert(out.tree, (oid, reduced, box))
                else:
                    result = knn_search(out.tree, (reduced, box), K)
            except Exception as exc:  # one failed operation must not stop the stream
                out.errors.append(f"{kind} {oid}: {type(exc).__name__}: {exc}")
                continue
            elapsed = clock() - start
            if kind == "insert":
                out.insert_s.append(elapsed)
                out.inserted.append((oid, reduced, box))
            else:
                out.lookup_s.append(elapsed)
                out.lookups.append((oid, result, len(out.inserted), reduced, box))
        return out

    def fingerprint(self, out: ChurnOut) -> Any:
        return ([(oid, result, n) for oid, result, n, _s, _b in out.lookups], out.errors)

    def errors(self, out: ChurnOut) -> list[str]:
        return out.errors

    def samples(self, out: ChurnOut) -> dict[str, list[float]]:
        return {"lookup_ms": out.lookup_s, "insert_ms": out.insert_s}

    def check(self, out: ChurnOut) -> list[str]:
        failures = []
        pick = set(_sample(range(len(out.lookups)), self.oracle_sample, self.seed))
        for i in sorted(pick):
            oid, result, n_inserted, reduced, box = out.lookups[i]
            present = self.base + out.inserted[:n_inserted]
            expect = siglink.linear_knn(present, (reduced, box), K)
            if result != expect:
                failures.append(f"lookup {oid}: {result} != linear {expect}")
        failures += [f"validate: {p}" for p in siglink.validate(out.tree)]
        if out.tree.n_objects != len(self.base) + len(out.inserted):
            failures.append(f"tree holds {out.tree.n_objects} objects")
        return failures

    def quality(self, out: ChurnOut) -> dict[str, float]:
        # A lookup is judged when its object's reference half was in the
        # index at that moment, the same rule accuracy_at_k applies.
        base_ids = {e[0] for e in self.base}
        arrival_pos = {e[0]: i for i, e in enumerate(out.inserted)}
        present = {
            oid
            for oid, _r, n_inserted, _s, _b in out.lookups
            if oid in base_ids or arrival_pos.get(oid, n_inserted) < n_inserted
        }
        run = siglink.LinkingRun(
            engine="wrtree",
            k=K,
            reduced_m=M,
            results={oid: result for oid, result, _n, _s, _b in out.lookups},
            timings={},
            excluded_queries=[],
            excluded_references=[],
            reference_ids=present,
        )
        return {
            "acc_at_1": siglink.accuracy_at_k(run, 1),
            "acc_at_5": siglink.accuracy_at_k(run, 5),
            "judged_lookups": len(present),
        }


# ---------------------------------------------------------------------------
# closure: iterative suppression and the linking it defeats


class Closure(Workload):
    name = "closure"
    # A part's job time varies by a third from one seed to another; six
    # parts average that out of a run's job_s.
    PARTS = 6

    def __init__(self, seed: int, n_objects: int = 150):
        super().__init__(seed, n_objects)

    def sizes(self) -> dict[str, float]:
        radius = _radius_as_at(CLOSURE_FULL_SIZE, self.n_objects)
        return {**super().sizes(), "rounds": CLOSURE_ROUNDS, "radius": radius}

    def setup(self) -> None:
        # At the repository's usual radius a small part is so sparse that
        # each object's top-m anchors are all it has, and the second round
        # suppresses nearly every point (data_remain 0.001 at 300 objects).
        # The radius keeps the density of a 3000-object closure.
        self.traces, self.anchors = _generate(self.n_objects, self.seed, self.sizes()["radius"])

    def ops(self) -> int:
        return self.n_objects * CLOSURE_ROUNDS

    def job(self) -> Any:
        return siglink.signature_closure(self.traces, self.anchors, m=M, rounds=CLOSURE_ROUNDS)

    def fingerprint(self, out) -> Any:
        current, report = out
        return (current, report)

    def check(self, out) -> list[str]:
        _current, report = out
        failures = []
        if len(report.rounds) != CLOSURE_ROUNDS:
            failures.append(f"{len(report.rounds)} rounds, expected {CLOSURE_ROUNDS}")
        remain = [r.utility.data_remain for r in report.rounds]
        if not all(0.0 < x <= 1.0 for x in remain):
            failures.append(f"data_remain outside (0, 1]: {remain}")
        if any(later > earlier for earlier, later in zip(remain, remain[1:])):
            failures.append(f"data_remain increased between rounds: {remain}")
        k = max(report.baseline_accuracy)
        halves = siglink.split_dataset(
            [t for t in self.traces if t.points], siglink.SplitStrategy.interleaved()
        )
        run = siglink.link_all(halves.q, halves.d, self.anchors, k=k, m=M)
        expect = {kk: siglink.accuracy_at_k(run, kk) for kk in range(1, k + 1)}
        if report.baseline_accuracy != expect:
            failures.append(f"baseline accuracy {report.baseline_accuracy} != link_all {expect}")
        return failures

    def quality(self, out) -> dict[str, float]:
        _current, report = out
        final = report.rounds[-1]
        return {
            "acc_at_1": report.baseline_accuracy[1],
            "acc_at_5": report.baseline_accuracy[5],
            "suppressed_acc_at_1": final.accuracy[1],
            "data_remain": final.utility.data_remain,
            "emptied": len(report.emptied),
        }


WORKLOADS = {w.name: w for w in (Pipeline, Churn, Closure)}
