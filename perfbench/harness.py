"""Run one workload for a fixed time and turn what it measured into metrics.

A workload runs as a few equal parts, each with its own inputs; a round runs
one job per part. An untraced run (``trace=False``) gives the end-to-end
metrics. A traced run alternates untraced and traced rounds: the traced ones
give the per-layer metrics, and the fastest jobs of each kind give the tracing
overhead.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from typing import Any

import numpy as np
import scipy

from tracer import Tracer, summarize

SETUP_REPS = 5
TAILS = (99, 90, 50)
LAYERS = ("synth", "traces", "signatures", "reduction", "wrtree", "linking", "privacy")

# The metrics BENCHMARK.json lists. Every workload reports each of them, so
# per-layer metrics of layers only some workloads drive stay in ``detail``.
END_TO_END = ("setup_s", "job_s", "ops_per_s", "peak_rss_mb", "acc_at_1", "acc_at_5")
PER_LAYER = (
    "synth.generate_s",
    "signatures.query_s",
    "signatures.built",
    "reduction.cut_reduce_s",
    "reduction.cut_reduce_calls",
    "reduction.mbr_s",
    "wrtree.build_s",
    "wrtree.knn_s",
    "wrtree.knn_calls",
    "wrtree.knn_us_p50",
    "wrtree.knn_us_p99",
    "wrtree.nodes",
    "wrtree.height",
    "wrtree.aggregate_nnz_mean",
    "process.cpu_s",
    "trace.spans",
    "trace.overhead_frac",
    "trace.unattributed_frac",
)


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    for unit in ("ms", "us"):
        if f"_{unit}_p" in name:
            return unit
    if name.endswith(("_frac", "acc", "remain")) or "acc_at_" in name:
        return "fraction"
    return "count"


# ---------------------------------------------------------------------------
# Percentiles


def nearest_rank(values: list[float], p: float) -> float:
    """The smallest sample with at least p% of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def tail_percentile(n: int) -> int | None:
    """The highest of p99, p90 and p50 with at least ten samples beyond it."""
    for p in TAILS:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return None


def latency_metrics(prefix: str, values: list[float], scale: float) -> dict[str, float]:
    """Median and tail of per-operation times, scaled, plus the sample count.

    The tail is the highest percentile with at least ten samples beyond it,
    so its name says which percentile it is.
    """
    out: dict[str, float] = {f"{prefix}_n": len(values)}
    if values:
        out[f"{prefix}_p50"] = nearest_rank(values, 50) * scale
        tail = tail_percentile(len(values))
        if tail is not None and tail != 50:
            out[f"{prefix}_p{tail}"] = nearest_rank(values, tail) * scale
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced job


def layer_metrics(tracer: Tracer, job_s: float, cpu_s: float) -> dict[str, float]:
    spans = tracer.spans
    own, durations, covered = summarize(spans)
    c = tracer.counters

    def self_s(name: str) -> float:
        return own.get(name, 0.0)

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    raw = c["traces.raw_fixes"]
    m = {
        "traces.calibrate_s": self_s("traces.calibrate"),
        "traces.calibrate_calls": calls("traces.calibrate"),
        "traces.points_kept_frac": c["traces.points_kept"] / raw if raw else 0.0,
        "traces.split_s": self_s("traces.split"),
        "traces.split_points": c["traces.split_points"],
        "signatures.ref_s": self_s("signatures.ref"),
        "signatures.query_s": self_s("signatures.query"),
        "signatures.stats_s": self_s("signatures.stats"),
        "signatures.spatial_s": self_s("signatures.spatial"),
        "signatures.built": c["signatures.built"],
        "signatures.excluded": c["signatures.excluded"],
        "reduction.cut_reduce_s": self_s("reduction.cut_reduce"),
        "reduction.cut_reduce_calls": calls("reduction.cut_reduce"),
        "reduction.mbr_s": self_s("reduction.mbr"),
        "wrtree.build_s": self_s("wrtree.build"),
        "wrtree.knn_s": self_s("wrtree.knn"),
        "wrtree.knn_calls": calls("wrtree.knn"),
        "wrtree.insert_s": self_s("wrtree.insert"),
        "wrtree.insert_calls": calls("wrtree.insert"),
        "linking.link_all_self_s": self_s("linking.link_all"),
        "linking.link_signatures_self_s": self_s("linking.link_signatures"),
        "linking.marry_s": self_s("linking.marry"),
        "linking.marry_proposals": c["linking.marry_proposals"],
        "linking.results_empty": c["linking.results_empty"],
        "privacy.closure_self_s": self_s("privacy.closure"),
        "privacy.utility_s": self_s("privacy.utility"),
        "privacy.points_removed": c["privacy.points_removed"],
        "process.cpu_s": cpu_s,
        "trace.spans": len(spans),
        "trace.unattributed_frac": 1.0 - covered / job_s if job_s > 0 else 0.0,
    }
    for layer in LAYERS:
        m[f"layer.{layer}_self_s"] = sum(
            t for name, t in own.items() if name.split(".", 1)[0] == layer
        )
    return m


def tree_metrics(trees: list[Any]) -> dict[str, float]:
    """Internal nodes, levels of internal nodes, and mean aggregate size over
    every tree a job built, walked after the job."""
    nodes = 0
    height = 0
    nnz = 0
    for tree in trees:
        if tree.root is None:
            continue
        stack = [(tree.root, 0)]
        while stack:
            node, depth = stack.pop()
            if node.is_leaf:
                height = max(height, depth)
                continue
            nodes += 1
            nnz += node.signature.nnz()
            stack.extend((child, depth + 1) for child in node.children)
    return {
        "wrtree.nodes": nodes,
        "wrtree.height": height,
        "wrtree.aggregate_nnz_mean": nnz / nodes if nodes else 0.0,
    }


# ---------------------------------------------------------------------------
# The run


def git_sha(root: Path) -> str:
    """HEAD's commit from the .git directory, or "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(parts: list, root: Path, seconds: float, trace: bool) -> dict[str, Any]:
    return {
        "workload": parts[0].name,
        "seed": parts[0].run_seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": {**parts[0].sizes(), "parts": len(parts)},
        "part_seeds": [wl.seed for wl in parts],
        "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def machine_probe_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran around
    the run, so that runs far apart in time can be compared."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def best_job(times: list[list[float]]) -> float:
    """The sum over parts of each part's fastest job; ``times[p]`` holds
    part p's job times. 0 if a part has none."""
    if not times or not all(times):
        return 0.0
    return sum(min(t) for t in times)


def run_workload(parts: list, seconds: float, trace: bool, import_s: float, root: Path) -> dict[str, Any]:
    """Set the parts up, repeat rounds of one job per part for ``seconds``,
    check each part's first output, and return
    ``{correct, attempted, failed, metrics, detail, record, spans}``.

    ``job_s`` is the sum over parts of each part's fastest job: on a shared
    host whose speed swings for seconds at a time, that is what the code
    costs, and a median mostly says how long the run spent in a slow state.
    """
    tracer = Tracer() if trace else None
    ctx = tracer if trace else nullcontext()

    setup_s, synth_s = [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        start = time.perf_counter()
        with ctx:
            for wl in parts:
                wl.setup()
        setup_s.append(time.perf_counter() - start)
        if tracer is not None:
            synth_s.append(summarize(tracer.spans)[0].get("synth.generate", 0.0))
            tracer.reset()
    # The inputs of every part stay alive for the whole run. Frozen, they are
    # not walked by the collections inside a job, so a job's collector work
    # does not grow with the number of parts held.
    gc.collect()
    gc.freeze()
    cpus = os.sched_getaffinity(0)
    try:
        return _measure(parts, seconds, trace, tracer, import_s, setup_s, synth_s, root)
    finally:
        os.sched_setaffinity(0, cpus)
        gc.unfreeze()


def _measure(parts, seconds, trace, tracer, import_s, setup_s, synth_s, root) -> dict[str, Any]:
    attempted = failed = 0
    failures: list[str] = []
    plain_s: list[list[float]] = [[] for _ in parts]
    traced_s: list[list[float]] = [[] for _ in parts]
    per_round: list[dict[str, float]] = []
    call_s: dict[str, list[float]] = defaultdict(list)
    samples: dict[str, list[float]] = defaultdict(list)
    trees: dict[str, float] = {}
    last_spans: list = []
    first: list[Any] = [None] * len(parts)
    fingerprints: list[Any] = [None] * len(parts)
    # Each vCPU of a shared host slows down on its own, as its host core's
    # other thread gets busy and idle; rounds take turns on the vCPUs the run
    # may use, so that the fastest job is looked for on each of them.
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        os.sched_setaffinity(0, {cpus[(rounds // 2) % len(cpus)]})
        traced = trace and rounds % 2 == 1
        rounds += 1
        round_s = round_cpu = 0.0
        for p, wl in enumerate(parts):
            gc.collect()
            attempted += wl.ops()
            try:
                with tracer if traced else nullcontext():
                    cpu0 = time.process_time()
                    start = time.perf_counter()
                    out = wl.job()
                    elapsed = time.perf_counter() - start
                    cpu = time.process_time() - cpu0
            except Exception:
                failed += wl.ops()
                failures.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
                continue
            (traced_s if traced else plain_s)[p].append(elapsed)
            round_s += elapsed
            round_cpu += cpu
            errors = wl.errors(out)
            failed += len(errors)
            failures += errors[:3]
            for prefix, values in wl.samples(out).items():
                samples[prefix] += values
            fp = wl.fingerprint(out)
            if first[p] is None:
                first[p], fingerprints[p] = out, fp
            elif fp != fingerprints[p]:
                failed += 1
                failures.append(f"part {p}: job output differs between repetitions")
            out = None
        if traced:
            per_round.append(layer_metrics(tracer, round_s, round_cpu))
            _, durations, _ = summarize(tracer.spans)
            for name in ("wrtree.knn", "wrtree.insert"):
                call_s[name] += durations.get(name, [])
            trees = tree_metrics(tracer.trees)
            last_spans = list(tracer.spans)
        if tracer is not None:
            tracer.reset()
        if time.perf_counter() >= deadline and (not trace or rounds >= 2):
            break

    probe_ms = machine_probe_ms()
    for p, (wl, out) in enumerate(zip(parts, first)):
        if out is not None:
            check_failures = wl.check(out)
            failed += len(check_failures)
            failures += [f"part {p}: {msg}" for msg in check_failures[:5]]
    failed = min(failed, attempted)
    complete = all(out is not None for out in first)

    job_s = best_job(plain_s)
    ops = sum(wl.ops() for wl in parts)
    detail: dict[str, float] = {
        "import_s": import_s,
        "setup_reps": len(setup_s),
        "setup_s_each": setup_s,
        "job_reps": min(len(t) for t in plain_s),
        "job_s_median": sum(_median(t) for t in plain_s),
        "part_best_s": [min(t) if t else 0.0 for t in plain_s],
        "part_median_s": [_median(t) for t in plain_s],
        "part_s_each": plain_s,
        "fail_frac": failed / attempted,
        "machine_probe_ms": probe_ms,
    }
    for prefix, values in samples.items():
        detail.update(latency_metrics(prefix, values, 1e3))
    e2e: dict[str, float] = {
        "setup_s": import_s + _median(setup_s),
        "job_s": job_s,
        "ops_per_s": ops / job_s if job_s > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if complete:
        # every part has the same size, so the mean over parts is the
        # quality of the whole workload
        qualities = [wl.quality(out) for wl, out in zip(parts, first)]
        quality = {k: statistics.fmean(q[k] for q in qualities) for k in qualities[0]}
        e2e.update({k: v for k, v in quality.items() if k in END_TO_END})
        detail.update({k: v for k, v in quality.items() if k not in END_TO_END})

    if trace:
        layers = {key: _median([r[key] for r in per_round]) for key in per_round[0]} if per_round else {}
        layers["synth.generate_s"] = _median(synth_s)
        layers.update(trees)
        layers.update(latency_metrics("wrtree.knn_us", call_s["wrtree.knn"], 1e6))
        layers.update(latency_metrics("wrtree.insert_us", call_s["wrtree.insert"], 1e6))
        traced_best = best_job(traced_s)
        layers["trace.overhead_frac"] = traced_best / job_s - 1.0 if job_s > 0 and traced_best > 0 else 0.0
        layers["trace.traced_reps"] = len(per_round)
        job_layers = {k: v for k, v in layers.items() if k.startswith("layer.") and k != "layer.synth_self_s"}
        detail["top_layer"] = max(job_layers, key=job_layers.get)[6:-7] if job_layers else ""
        detail["missing_patches"] = tracer.missing
        metrics = {k: layers[k] for k in PER_LAYER if k in layers}
        detail.update({k: v for k, v in layers.items() if k not in metrics})
        detail.update(e2e)
    else:
        metrics = {k: e2e[k] for k in END_TO_END if k in e2e}
        detail.update({k: v for k, v in e2e.items() if k not in metrics})

    wanted = PER_LAYER if trace else END_TO_END
    missing = [k for k in wanted if k not in metrics]
    if missing:
        failures.append(f"metrics not measured: {missing}")

    record = run_record(parts, root, seconds, trace)
    return {
        "correct": failed == 0 and not missing and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
        "failures": failures,
        "record": record,
        "spans": last_spans,
    }
