"""Tests of the benchmark's helpers, plus a small run of each workload.

    python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import siglink
from siglink.signatures import make_signature
from harness import (
    END_TO_END,
    PER_LAYER,
    best_job,
    latency_metrics,
    nearest_rank,
    run_workload,
    tail_percentile,
    unit_of,
)
from tracer import PATCHES, Tracer, self_times, summarize
from workloads import WORKLOADS, Churn, Closure, Pipeline

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize(
    "n, tail",
    [(1000, 99), (5000, 99), (999, 90), (100, 90), (99, 50), (20, 50), (19, None), (0, None)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, tail):
    assert tail_percentile(n) == tail


def test_nearest_rank_and_latency_names():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert nearest_rank(values, 50) == 50.0
    assert nearest_rank(values, 90) == 90.0
    assert nearest_rank(values, 100) == 100.0
    assert nearest_rank([7.0], 99) == 7.0
    # 100 samples: p90 has 10 beyond it, p99 only 1
    m = latency_metrics("lookup_ms", [v / 1e3 for v in reversed(values)], 1e3)
    assert m == {"lookup_ms_n": 100, "lookup_ms_p50": 50.0, "lookup_ms_p90": 90.0}
    assert latency_metrics("x", [], 1.0) == {"x_n": 0}


def test_best_job_sums_each_parts_fastest_job():
    assert best_job([[2.0, 1.5, 2.0], [6.0, 3.0, 6.0]]) == 4.5
    assert best_job([[1.0], []]) == 0.0
    assert best_job([]) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("linking.link_all", -1, 0.0, 10.0),
        ("signatures.ref", 0, 1.0, 4.0),
        ("signatures.stats", 1, 2.0, 3.0),
        ("wrtree.knn", 0, 5.0, 9.0),
        ("wrtree.knn", -1, 11.0, 12.5),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]
    own, durations, covered = summarize(spans)
    assert own == {
        "linking.link_all": 3.0,
        "signatures.ref": 2.0,
        "signatures.stats": 1.0,
        "wrtree.knn": 5.5,
    }
    assert durations["wrtree.knn"] == [4.0, 1.5]
    assert covered == 11.5
    # the self times of a tree of spans add up to the roots' durations
    assert sum(self_times(spans)) == covered


def _originals():
    return {
        (mod, attr): getattr(importlib.import_module(mod), attr) for mod, attr, _, _ in PATCHES
    }


def test_tracer_records_nested_spans_and_restores_originals():
    before = _originals()
    traces, anchors = siglink.generate_synthetic(40, 160, 0.1, 60, seed=3)
    halves = siglink.split_dataset(traces, siglink.SplitStrategy.interleaved())
    plain = siglink.link_all(halves.q, halves.d, anchors)

    with Tracer() as tracer:
        assert siglink.linking.knn_search is not before[("siglink.linking", "knn_search")]
        traced = siglink.link_all(halves.q, halves.d, anchors)
    assert _originals() == before
    assert traced.results == plain.results

    spans = tracer.spans
    names = [s[0] for s in spans]
    assert names[0] == "linking.link_all" and spans[0][1] == -1
    assert names.count("wrtree.knn") == len(traced.results)
    assert names.count("wrtree.build") == 1
    by_index = dict(enumerate(spans))
    for name, parent, start, end in spans[1:]:
        assert parent >= 0 and by_index[parent][2] <= start <= end <= by_index[parent][3]
    knn_parent = by_index[spans[names.index("wrtree.knn")][1]][0]
    assert knn_parent == "linking.link_signatures"
    assert tracer.counters["signatures.built"] == len(traced.results) + len(traced.reference_ids)
    assert len(tracer.trees) == 1 and tracer.trees[0].n_objects == len(traced.reference_ids)


def test_tracer_restores_originals_when_the_traced_call_raises():
    before = _originals()
    sig = make_signature({1: 1.0, 2: 0.5}, "spatial")
    with pytest.raises(ValueError):
        with Tracer() as tracer:
            siglink.cut_reduce(sig, 0)
    assert _originals() == before
    assert tracer.spans[0][0] == "reduction.cut_reduce"


def test_tracer_skips_targets_a_module_does_not_have():
    patches = PATCHES[:1] + (("siglink.linking", "no_such_function", "linking.none", None),)
    before = _originals()
    with Tracer(patches) as tracer:
        pass
    assert tracer.missing == ["siglink.linking.no_such_function"]
    assert _originals() == before


# Sizes at which each workload makes at least 1000 k-NN calls per traced
# round of two parts, so the per-layer p99 exists, while a run still takes a
# few seconds.
SMALL = [
    (Pipeline, {"n_objects": 250, "oracle_sample": 10}),
    (Churn, {"n_objects": 500, "oracle_sample": 10}),
    (Closure, {"n_objects": 350}),
]


@pytest.mark.parametrize("cls, sizes", SMALL, ids=[c.name for c, _ in SMALL])
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_small_run_of_each_workload(cls, sizes, trace):
    before = _originals()
    parts = cls.parts(1, n_parts=2, **sizes)
    assert [wl.seed for wl in parts] == [2, 3]
    res = run_workload(parts, 0.01, trace, 0.0, ROOT)
    assert res["failures"] == []
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == list(PER_LAYER if trace else END_TO_END)
    assert all(isinstance(v, (int, float)) for v in res["metrics"].values())
    assert res["detail"]["fail_frac"] == 0.0
    assert res["record"]["seed"] == 1 and res["record"]["sizes"]["parts"] == 2
    assert len(res["detail"]["part_best_s"]) == 2
    if trace:
        assert res["detail"]["top_layer"]
        assert res["spans"]
    else:
        assert res["metrics"]["job_s"] > 0 and 0 < res["metrics"]["acc_at_1"] <= 1
    assert _originals() == before


def test_benchmark_json_lists_what_a_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # churn runs by hand only; README.md says why it is not gated
    assert [w["name"] for w in spec["workloads"]] == [n for n in WORKLOADS if n != "churn"]
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [m["name"] for m in spec[key]] == list(names)
        assert all(m["unit"] == unit_of(m["name"]) for m in spec[key])


def test_run_fails_without_a_result_where_siglink_is_absent(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
