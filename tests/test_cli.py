import csv
import json
import re
from pathlib import Path

import pytest

from siglink.cli import main
from siglink.linking import ENGINES, read_results_csv, write_results_csv
from siglink.signatures import check_row, read_signatures_jsonl
from siglink.synth import generate_synthetic
from siglink.traces import (
    AnchorSet,
    RawPoint,
    SplitStrategy,
    Trace,
    read_anchor_csv,
    read_raw_csv,
    read_trace_csv,
    split_dataset,
    write_anchor_csv,
    write_raw_csv,
    write_trace_csv,
)


def run(args):
    return main([str(a) for a in args])


def test_pipeline_smoke_writes_metrics(tmp_path):
    out = tmp_path / "run"
    assert run(["pipeline", "--synthetic", "n=100", "--engine", "wrtree",
                "--m", "10", "--k", "5", "--out", out]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics["acc"]) == {"1", "2", "3", "4", "5"}
    assert metrics["engine"] == "wrtree"
    assert list(metrics["timings"]) == ["signatures", "reduce", "index_build", "link"]
    assert (out / "results.csv").exists()
    assert (out / "config.used").exists()


KIND_FLAGS = {
    "spatial": [],
    **{f"sequential-q{q}": ["--kind", "sequential", "--q", q] for q in (1, 2, 3)},
    "spatiotemporal-g40-dt6": ["--kind", "spatiotemporal", "--grid", 40, "--dt", 6],
    "spatiotemporal-g100-dt1": ["--kind", "spatiotemporal", "--grid", 100, "--dt", 1],
}


def test_pipeline_engine_swap_byte_identical_results(tmp_path):
    # every engine runs every kind: a signature without a box gets a
    # one-point rectangle
    for name, flags in KIND_FLAGS.items():
        results = set()
        for engine in ("linear", "rtree", "wrtree"):
            out = tmp_path / f"{name}-{engine}"
            assert run(["pipeline", "--synthetic", "n=100,seed=3", *flags,
                        "--engine", engine, "--out", out]) == 0
            results.add((out / "results.csv").read_bytes())
        assert len(results) == 1, name


def test_pipeline_invalid_dt_exits_2(tmp_path, capsys):
    code = run(["pipeline", "--synthetic", "n=20", "--dt", "5", "--out", tmp_path / "x"])
    assert code == 2
    err = capsys.readouterr().err
    assert "divide 24" in err


def test_pipeline_sequential_kind_with_linear_engine(tmp_path):
    out = tmp_path / "seq"
    assert run(["pipeline", "--synthetic", "n=60", "--kind", "sequential", "--q", "2",
                "--engine", "linear", "--m", "10", "--out", out]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["acc"]["5"] > 0.0


def test_pipeline_spatiotemporal_excludes_empty_half_objects(tmp_path):
    # at this radius many objects keep no point in one half; each must be
    # excluded, not fail the run
    out = tmp_path / "st"
    assert run(["pipeline", "--synthetic", "n=150,seed=1,radius=0.01", "--engine", "linear",
                "--m", "3", "--kind", "spatiotemporal", "--dt", "6", "--out", out]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    traces, _ = generate_synthetic(150, 1000, 0.01, 200, seed=1)
    halves = split_dataset(traces, SplitStrategy.interleaved())
    empty_q = {t.object_id for t in halves.q if not t.points}
    empty_d = {t.object_id for t in halves.d if not t.points}
    assert empty_q and empty_d
    assert empty_q <= set(metrics["excluded_queries"])
    assert empty_d <= set(metrics["excluded_references"])


def test_pipeline_missing_inputs_exits_2(tmp_path):
    assert run(["pipeline", "--out", tmp_path / "x"]) == 2


def test_bad_flag_exits_2(tmp_path):
    assert run(["pipeline", "--engine", "warp", "--out", tmp_path / "x"]) == 2


def test_missing_input_path_is_config_failure(tmp_path):
    assert run(["split", "--traces", tmp_path / "absent.csv", "--out", tmp_path / "o"]) == 2


def test_corrupt_input_is_runtime_failure(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("object_id,anchor_id\nx,1\n")
    assert run(["split", "--traces", bad, "--out", tmp_path / "o"]) == 1


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["synth", "--out", out, "--n-objects", "30", "--n-anchors", "200",
                    "--points", "50", "--seed", "5"]) == 0
    assert (a / "traces.csv").read_bytes() == (b / "traces.csv").read_bytes()
    assert (a / "anchors.csv").read_bytes() == (b / "anchors.csv").read_bytes()


def test_full_verb_chain(tmp_path):
    base = tmp_path
    assert run(["synth", "--out", base, "--n-objects", "60", "--n-anchors", "500",
                "--points", "90", "--seed", "2"]) == 0
    assert run(["split", "--out", base, "--traces", base / "traces.csv"]) == 0
    assert run(["signature", "--out", base / "sd", "--traces", base / "d.csv"]) == 0
    assert run(["signature", "--out", base / "sq", "--traces", base / "q.csv",
                "--corpus", base / "d.csv"]) == 0
    assert run(["reduce", "--out", base / "rd", "--signatures", base / "sd/signatures.jsonl",
                "--m", "10"]) == 0
    reduced = (base / "rd/signatures.jsonl").read_text().splitlines()
    assert all(len(json.loads(line)["sig"]) <= 10 for line in reduced)
    assert run(["link", "--out", base / "lk", "--queries", base / "sq/signatures.jsonl",
                "--references", base / "sd/signatures.jsonl",
                "--anchors", base / "anchors.csv", "--m", "10", "--k", "5"]) == 0
    assert run(["link", "--out", base / "lkdq", "--queries", base / "sd/signatures.jsonl",
                "--references", base / "sq/signatures.jsonl",
                "--anchors", base / "anchors.csv", "--m", "10", "--k", "5"]) == 0
    assert run(["eval", "--out", base / "ev", "--results", base / "lk/results.csv",
                "--references", base / "sd/signatures.jsonl", "--k", "5"]) == 0
    assert run(["rerank", "--out", base / "rr", "--results", base / "lk/results.csv",
                "--queries-large", base / "sq/signatures.jsonl",
                "--references-large", base / "sd/signatures.jsonl"]) == 0
    assert run(["marry", "--out", base / "mm", "--results-qd", base / "rr/results.csv",
                "--results-dq", base / "lkdq/results.csv"]) == 0
    marry = json.loads((base / "mm/marry.json").read_text())
    assert marry["stable"] > 0
    ev = json.loads((base / "ev/eval.json").read_text())
    assert 0.0 <= ev["acc"]["1"] <= 1.0


def test_pipeline_equals_the_single_verbs(tmp_path):
    # pipeline and the verbs share each stage; this run excludes 71 queries
    # and 39 references, so the exclusion paths are compared too
    p = tmp_path / "p"
    assert run(["pipeline", "--synthetic", "n=150,seed=1,radius=0.01", "--m", "3",
                "--out", p]) == 0
    metrics = json.loads((p / "metrics.json").read_text())
    assert (len(metrics["excluded_queries"]), len(metrics["excluded_references"])) == (71, 39)
    assert run(["signature", "--traces", p / "d.csv", "--out", tmp_path / "sd"]) == 0
    assert run(["signature", "--traces", p / "q.csv", "--corpus", p / "d.csv",
                "--out", tmp_path / "sq"]) == 0
    assert run(["link", "--queries", tmp_path / "sq/signatures.jsonl",
                "--references", tmp_path / "sd/signatures.jsonl",
                "--anchors", p / "anchors.csv", "--m", "3", "--out", tmp_path / "lk"]) == 0
    for name, verb in (("signatures_d.jsonl", "sd/signatures.jsonl"),
                       ("signatures_q.jsonl", "sq/signatures.jsonl"),
                       ("results.csv", "lk/results.csv")):
        assert (p / name).read_bytes() == (tmp_path / verb).read_bytes()
    assert json.loads((tmp_path / "lk/metrics.json").read_text())["acc"] == metrics["acc"]


def test_marry_quotes_ids_with_commas(tmp_path):
    results = {"a,1": [("a,1", 0.9), ("b", 0.5)], "b": [("a,1", 0.8)], "c": []}
    write_results_csv(tmp_path / "qd.csv", results)
    write_results_csv(tmp_path / "dq.csv", results)
    assert run(["marry", "--results-qd", tmp_path / "qd.csv", "--results-dq", tmp_path / "dq.csv",
                "--out", tmp_path / "mm"]) == 0
    with open(tmp_path / "mm/matching.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["query_id", "candidate_id", "phase"], ["a,1", "a,1", "stable"],
                    ["b", "a,1", "fallback"], ["c", "", "unmatched"]]


def test_every_csv_written_ends_its_lines_alike(tmp_path):
    p, m, c = tmp_path / "p", tmp_path / "m", tmp_path / "c"
    assert run(["pipeline", "--synthetic", "n=30,seed=1", "--out", p]) == 0
    assert run(["marry", "--results-qd", p / "results.csv", "--results-dq", p / "results.csv",
                "--out", m]) == 0
    assert run(["closure", "--traces", p / "d.csv", "--anchors", p / "anchors.csv",
                "--out", c]) == 0
    written = [path for out in (p, m, c) for path in out.glob("*.csv")]
    assert sorted(path.name for path in written) == [
        "anchors.csv", "closure.csv", "d.csv", "matching.csv", "q.csv", "results.csv", "traces.csv"
    ]
    for path in written:
        raw = path.read_bytes()
        assert raw.count(b"\n") == raw.count(b"\r\n") > 0, path.name


def test_eval_agrees_with_metrics_json(tmp_path):
    # a small radius and m=1 leave some references without a signature and
    # some queries without any overlapping candidate
    out = tmp_path / "run"
    assert run(["pipeline", "--synthetic", "n=60,seed=1,radius=0.01", "--m", "1",
                "--out", out]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["excluded_references"]
    assert ",0,," in (out / "results.csv").read_text()
    assert run(["eval", "--out", tmp_path / "ev", "--results", out / "results.csv",
                "--references", out / "signatures_d.jsonl", "--k", "5"]) == 0
    ev = json.loads((tmp_path / "ev/eval.json").read_text())
    assert ev["acc"] == metrics["acc"]


def test_link_without_anchors_reads_its_inputs_on_every_engine(tmp_path, capsys):
    # no engine needs --anchors, so each reads the garbage signature files
    # and fails at run time
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    for engine in ("linear", "rtree", "wrtree"):
        capsys.readouterr()
        assert run(["link", "--out", tmp_path / "x", "--queries", bad, "--references", bad,
                    "--engine", engine]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}:1: ")


@pytest.mark.parametrize("engine", ENGINES)
def test_link_refuses_mixed_kinds_on_every_engine(tmp_path, capsys, small_run, engine):
    # spatial and sequential q=1 dims are both anchor ids, so the pair could
    # be scored; every engine refuses it instead
    seq = tmp_path / "seq"
    assert run(["signature", "--traces", small_run / "d.csv", "--kind", "sequential", "--q", "1",
                "--out", seq]) == 0
    capsys.readouterr()
    assert run(["link", "--queries", small_run / "signatures_q.jsonl",
                "--references", seq / "signatures.jsonl", "--engine", engine,
                "--out", tmp_path / "x"]) == 1
    assert capsys.readouterr().err == (
        "error: signature kind mismatch: 'spatial' vs 'sequential:q=1'\n"
    )


def test_signature_file_mixing_kinds_is_refused_naming_its_line(tmp_path, capsys, small_run):
    lines = (small_run / "signatures_d.jsonl").read_text().splitlines()
    record = json.loads(lines[2])
    record["kind"] = "sequential:q=1"
    lines[2] = json.dumps(record)
    bad = tmp_path / "mixed.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    for argv in (["reduce", "--signatures", bad, "--m", "3"],
                 ["eval", "--results", small_run / "results.csv", "--references", bad],
                 ["link", "--queries", small_run / "signatures_q.jsonl", "--references", bad,
                  "--engine", "linear"]):
        capsys.readouterr()
        assert run([*argv, "--out", tmp_path / "x"]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}:3: signature kind mismatch: 'sequential:q=1' vs 'spatial'\n"
        )


def _write_traces(path, visits):
    """A trace CSV of (object id, anchor ids) visits, one a minute."""
    rows = [f"{oid},{a},{1_600_000_000 + 60 * i}"
            for oid, ids in visits for i, a in enumerate(ids)]
    path.write_text("object_id,anchor_id,timestamp\n" + "\n".join(rows) + "\n")


@pytest.mark.parametrize("huge,corpus", [(2**62 - 1, False), (2**61, True)],
                         ids=["largest-id-in-every-object", "overflowing-key-unseen"])
def test_signature_of_huge_anchor_ids_equals_a_renamed_small_id(tmp_path, capsys, huge, corpus):
    # the huge id carries no weight: it is in every object of the fitted
    # corpus, or absent from the --corpus file. Ids that large once sized an
    # array by the id (array is too big) or wrapped int64 pair keys (q4 and
    # q5 excluded)
    visits = [(f"q{i}", [1 + i % 2] * (i + 1) + [huge] + [3 + i % 3] * (6 - i))
              for i in range(6)]
    small = [("c0", [1, 1, 3]), ("c1", [2, 3]), ("c2", [3, 4])]
    outputs = []
    for name, anchor in (("huge", huge), ("renamed", 7)):
        traces = tmp_path / f"{name}.csv"
        _write_traces(traces, [(oid, [anchor if a == huge else a for a in ids])
                               for oid, ids in visits])
        extra = []
        if corpus:
            _write_traces(tmp_path / "small.csv", small)
            extra = ["--corpus", tmp_path / "small.csv"]
        capsys.readouterr()
        assert run(["signature", "--traces", traces, *extra, "--out", tmp_path / name]) == 0
        outputs.append(((tmp_path / name / "signatures.jsonl").read_bytes(),
                        capsys.readouterr().out.replace(str(tmp_path / name), "")))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].endswith("(0 excluded)\n")
    assert len(outputs[0][0].splitlines()) == 6


@pytest.fixture(scope="module")
def sequential_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("seq")
    assert run(["pipeline", "--synthetic", "n=60,seed=4", "--kind", "sequential", "--q", "2",
                "--out", out]) == 0
    return out


def test_link_sequential_signatures_with_anchors(tmp_path, sequential_run):
    # with an anchor set only spatial signatures are boxed; every engine, with
    # or without --anchors, writes the pipeline's own results
    p = sequential_run
    for engine in ("linear", "rtree", "wrtree"):
        for anchors in ([], ["--anchors", p / "anchors.csv"]):
            out = tmp_path / f"{engine}-{len(anchors)}"
            assert run(["link", "--queries", p / "signatures_q.jsonl",
                        "--references", p / "signatures_d.jsonl", *anchors,
                        "--engine", engine, "--m", "10", "--out", out]) == 0
            assert (out / "results.csv").read_bytes() == (p / "results.csv").read_bytes()


def test_link_rejects_unnormalized_signature(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["pipeline", "--synthetic", "n=40,seed=2", "--engine", "linear",
                "--out", out]) == 0
    lines = (out / "signatures_d.jsonl").read_text().splitlines()
    record = json.loads(lines[3])
    record["normalized"] = False
    lines[3] = json.dumps(record)
    edited = tmp_path / "edited.jsonl"
    edited.write_text("\n".join(lines) + "\n")
    for engine in ("linear", "wrtree"):
        capsys.readouterr()
        assert run(["link", "--out", tmp_path / engine, "--queries", out / "signatures_q.jsonl",
                    "--references", edited, "--anchors", out / "anchors.csv",
                    "--engine", engine]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {edited}:4: signature of {record['object_id']!r} is not normalized\n"


def test_rerank_rejects_unnormalized_signature(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["pipeline", "--synthetic", "n=40,seed=2", "--engine", "linear",
                "--out", out]) == 0
    results = (out / "results.csv").read_text().splitlines()
    candidate = results[1].split(",")[2]
    lines = (out / "signatures_d.jsonl").read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record["object_id"] == candidate:
            record["normalized"] = False
            record["sig"] = [[d, 3.0 * w] for d, w in record["sig"]]
            lines[i] = json.dumps(record)
    edited = tmp_path / "edited.jsonl"
    edited.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["rerank", "--out", tmp_path / "rr", "--results", out / "results.csv",
                "--queries-large", out / "signatures_q.jsonl",
                "--references-large", edited]) == 1
    err = capsys.readouterr().err
    assert candidate in err and "normalized" in err and len(err.strip().splitlines()) == 1


def test_closure_verb(tmp_path):
    base = tmp_path
    assert run(["synth", "--out", base, "--n-objects", "50", "--n-anchors", "800",
                "--points", "150", "--seed", "6"]) == 0
    assert run(["closure", "--out", base / "cl", "--traces", base / "traces.csv",
                "--anchors", base / "anchors.csv", "--m", "5", "--rounds", "2",
                "--engine", "linear"]) == 0
    report = json.loads((base / "cl/closure.json").read_text())
    assert len(report["rounds"]) == 2
    assert (base / "cl/closure.csv").read_text().startswith("round,acc1")
    assert (base / "cl/traces.csv").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# pipeline defaults\nsynthetic = n=60,seed=1\nengine = linear\nm = 5\n")
    out1 = tmp_path / "r1"
    assert run(["--config", cfg, "pipeline", "--out", out1]) == 0
    used = (out1 / "config.used").read_text()
    assert "engine = linear" in used and "m = 5" in used
    out2 = tmp_path / "r2"
    assert run(["--config", cfg, "pipeline", "--m", "10", "--out", out2]) == 0
    assert "m = 10" in (out2 / "config.used").read_text()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("synthetic = n=20\nengin = linear\n")
    assert run(["--config", cfg, "pipeline", "--out", tmp_path / "x"]) == 2
    assert "engin" in capsys.readouterr().err
    for key in ("threads = 2", "lsh_planes = 64", "metric = haversine"):
        cfg.write_text(f"synthetic = n=20\n{key}\n")
        assert run(["--config", cfg, "pipeline", "--out", tmp_path / "x"]) == 2
    cfg.write_text("seed = 3\n")
    assert run(["--config", cfg, "link", "--out", tmp_path / "x", "--queries", cfg,
                "--references", cfg]) == 2


def test_captured_config_reloads(tmp_path):
    # every verb with --out, run again from its own config.used with only
    # --out typed, writes the same files, timings apart
    def reloads(name, words, *flags):
        first, again = tmp_path / name, tmp_path / f"{name}-again"
        assert run([*words, *flags, "--out", first]) == 0
        assert run(["--config", first / "config.used", *words, "--out", again]) == 0
        assert sorted(p.name for p in first.iterdir()) == sorted(p.name for p in again.iterdir())
        for path in first.iterdir():
            a, b = path.read_bytes(), (again / path.name).read_bytes()
            if path.name == "config.used":
                a = a.replace(f"out = {first}\n".encode(), f"out = {again}\n".encode())
            elif path.name == "metrics.json":
                a, b = (dict(json.loads(x), timings=None) for x in (a, b))
            assert a == b, path.name
        return first

    reloads("pipeline", ["pipeline"], "--synthetic", "n=40,seed=2", "--engine", "linear")

    syn = reloads("synth", ["synth"], "--n-objects", 30, "--n-anchors", 300, "--points", 60,
                  "--seed", 4, "--personal-pool", 20)
    raw = tmp_path / "raw.csv"
    raw.write_text("object_id,lon,lat,timestamp\n" + "".join(
        f"r{o},{0.1 * j},{0.3 * o},{1_600_041_600 + 3600 * j}\n"
        for o in range(3) for j in range(4 + o)
    ))
    reloads("ingest", ["ingest"], "--raw", raw, "--anchors", syn / "anchors.csv",
            "--min-points", 5)
    halves = reloads("split", ["split"], "--traces", syn / "traces.csv",
                     "--strategy", "random", "--q-days", 10, "--split-seed", 3)
    sd = reloads("sig-d", ["signature"], "--traces", halves / "d.csv")
    sq = reloads("sig-q", ["signature"], "--traces", halves / "q.csv", "--corpus", halves / "d.csv")
    reloads("sig-st", ["signature"], "--traces", halves / "q.csv", "--kind", "spatiotemporal",
            "--dt", 8, "--grid", 20, "--anchors", syn / "anchors.csv", "--utc-offset", -5)
    reloads("reduce", ["reduce"], "--signatures", sd / "signatures.jsonl", "--m", 10)
    qd = reloads("link-qd", ["link"], "--queries", sq / "signatures.jsonl",
                 "--references", sd / "signatures.jsonl", "--anchors", syn / "anchors.csv",
                 "--m", 10, "--k", 3, "--capacity", 5)
    dq = reloads("link-dq", ["link"], "--queries", sd / "signatures.jsonl",
                 "--references", sq / "signatures.jsonl", "--engine", "linear")
    reloads("eval", ["eval"], "--results", qd / "results.csv",
            "--references", sd / "signatures.jsonl", "--k", 2)
    rr = reloads("rerank", ["rerank"], "--results", qd / "results.csv",
                 "--queries-large", sq / "signatures.jsonl",
                 "--references-large", sd / "signatures.jsonl")
    reloads("marry", ["marry"], "--results-qd", rr / "results.csv",
            "--results-dq", dq / "results.csv")
    reloads("closure", ["closure"], "--traces", syn / "traces.csv", "--anchors", syn / "anchors.csv",
            "--m", 5, "--rounds", 1, "--engine", "linear", "--strategy", "serial", "--q-days", 15)


def test_bad_config_value_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = lots\n")
    assert run(["--config", cfg, "pipeline", "--synthetic", "n=20", "--out", tmp_path / "x"]) == 2


# (case, config file bytes, the error after "config error: FILE:")
BAD_CONFIGS = [
    ("not-key-value", b"synthetic = n=20\nengine linear\n", "2: expected 'key = value'"),
    ("not-utf8", b"synthetic = n=20\r\nengine = lin\xffear\n", "2: not UTF-8"),
]


@pytest.mark.parametrize("text,error", [c[1:] for c in BAD_CONFIGS],
                         ids=[c[0] for c in BAD_CONFIGS])
def test_bad_config_file_exits_2_naming_file_and_line(tmp_path, capsys, text, error):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text)
    capsys.readouterr()
    assert run(["--config", cfg, "pipeline", "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}:{error}\n"


def test_no_verb_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_kind_without_dt_is_config_error(tmp_path, capsys):
    assert run(["synth", "--out", tmp_path, "--n-objects", 10, "--n-anchors", 100,
                "--points", 30]) == 0
    traces, anchors = tmp_path / "traces.csv", tmp_path / "anchors.csv"
    for argv in (
        ["signature", "--kind", "temporal", "--traces", traces],
        ["signature", "--kind", "spatiotemporal", "--traces", traces, "--anchors", anchors],
        ["pipeline", "--kind", "spatiotemporal", "--traces", traces, "--anchors", anchors,
         "--engine", "linear"],
    ):
        capsys.readouterr()
        assert run([*argv, "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err == f"config error: the {argv[2]} kind needs --dt\n"


def test_temporal_kind_with_a_corpus_is_config_error(tmp_path, capsys):
    # histograms take no IDF, so a corpus would go unused; refused before
    # the corpus path is read
    assert run(["synth", "--out", tmp_path, "--n-objects", 10, "--n-anchors", 100,
                "--points", 30]) == 0
    capsys.readouterr()
    assert run(["signature", "--kind", "temporal", "--dt", 4, "--traces", tmp_path / "traces.csv",
                "--corpus", tmp_path / "missing.csv", "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err == "config error: the temporal kind takes no --corpus\n"


# (verb words, flag, bad value, the rule stderr's last line states): every
# ranged flag on every verb that has it, then flags no verb takes
BAD_FLAGS = [
    *((["synth"], flag, "0", ">= 1")
      for flag in ("n-objects", "n-anchors", "points", "n-days", "personal-pool")),
    (["synth"], "seed", "-1", ">= 0"),
    (["synth"], "locality-radius", "-0.5", ">= 0.0"),
    (["synth"], "locality-radius", "nan", ">= 0.0"),
    *((["synth"], flag, value, "must be in [0, 1]")
      for flag in ("personal-mass", "hub-fraction") for value in ("1.5", "-0.5", "nan")),
    (["ingest"], "min-points", "-1", ">= 0"),
    (["split"], "q-days", "0", ">= 1"),
    (["split"], "utc-offset", "10000000000000000", "must be in [-12, 14]"),
    (["split"], "utc-offset", "15", "must be in [-12, 14]"),
    (["split"], "utc-offset", "1.5", "expected int"),
    (["signature"], "utc-offset", "-13", "must be in [-12, 14]"),
    (["closure"], "utc-offset", "2000000000000000", "must be in [-12, 14]"),
    (["pipeline"], "utc-offset", "-24", "must be in [-12, 14]"),
    (["signature"], "q", "0", ">= 1"),
    (["signature"], "grid", "0", ">= 1"),
    (["signature"], "dt", "5", "divide 24"),
    (["reduce"], "m", "0", ">= 1"),
    (["link"], "k", "0", ">= 1"),
    (["link"], "m", "0", ">= 1"),
    (["link"], "capacity", "1", ">= 2"),
    (["eval"], "k", "0", ">= 1"),
    (["closure"], "m", "0", ">= 1"),
    (["closure"], "rounds", "0", ">= 1"),
    (["closure"], "k", "0", ">= 1"),
    (["closure"], "capacity", "1", ">= 2"),
    (["closure"], "q-days", "0", ">= 1"),
    (["pipeline"], "min-points", "-1", ">= 0"),
    (["pipeline"], "m", "0", ">= 1"),
    (["pipeline"], "k", "0", ">= 1"),
    (["pipeline"], "capacity", "1", ">= 2"),
    (["pipeline"], "q", "0", ">= 1"),
    (["pipeline"], "grid", "0", ">= 1"),
    (["pipeline"], "dt", "0", "divide 24"),
    (["pipeline"], "q-days", "0", ">= 1"),
    (["pipeline"], "synthetic", "n=0", "n: must be >= 1"),
    (["pipeline"], "synthetic", "n=abc", "n: expected int"),
    (["pipeline"], "synthetic", "n=20,radius=nan", "radius: must be >= 0.0"),
    (["pipeline"], "synthetic", "n=20,radus=0.5", "unknown key 'radus'"),
    (["pipeline"], "synthetic", "radius=0.5", "needs at least n="),
    (["pipeline"], "engin", "linear", "unrecognized"),
    (["pipeline"], "seed", "1", "unrecognized"),
]


@pytest.mark.parametrize("source", ["line", "config"])
@pytest.mark.parametrize(
    "words,flag,value,rule", BAD_FLAGS,
    ids=[f"{' '.join(w)}--{f}={v}" for w, f, v, _ in BAD_FLAGS],
)
def test_bad_flag_value_exits_2_naming_flag(tmp_path, capsys, words, flag, value, rule, source):
    if source == "line":
        argv = [*words, f"--{flag}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag.replace('-', '_')} = {value}\n")
        argv = ["--config", cfg, *words]
    assert run([*argv, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert f"--{flag}" in last and rule in last


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert run(["pipeline", "--synthetic", "n=20,seed=2", "--engine", "linear",
                "--out", out]) == 0
    return out


def _edited_record(edit):
    """The reference signatures of a run with its first record edited."""

    def text(run_dir):
        lines = (run_dir / "signatures_d.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        assert len(record["sig"]) >= 2
        lines[0] = json.dumps(edit(record))
        return "\n".join(lines) + "\n"

    return text


def _with(key, value):
    return _edited_record(lambda record: {**record, key: value})


def _pairs(edit):
    return _edited_record(lambda record: {**record, "sig": edit(record["sig"])})


def _first_pair(dim=None, weight=None):
    """The first [dim, weight] pair replaced, in whole or in part."""
    return _pairs(lambda p: [[p[0][0] if dim is None else dim,
                              p[0][1] if weight is None else weight], *p[1:]])


def _anchor_lon(value):
    """The anchors of a run with the longitude of an anchor its traces use
    set to ``value``."""

    def text(run_dir):
        used = (run_dir / "d.csv").read_text().splitlines()[1].split(",")[1]
        header, *rows = (run_dir / "anchors.csv").read_text().splitlines()
        rows = [f"{used},{value},{row.split(',')[2]}" if row.split(",")[0] == used else row
                for row in rows]
        return "\n".join([header, *rows]) + "\n"

    return text


def _results(edit):
    """The results of a run, each row a list of fields, with ``edit``
    applied; the first query's first two rows are its ranks 1 and 2."""

    def text(run_dir):
        header, *rows = (run_dir / "results.csv").read_text().splitlines()
        rows = [row.split(",") for row in rows]
        assert rows[0][:2] == [rows[1][0], "1"] and rows[1][1] == "2"
        return "\n".join([header, *(",".join(row) for row in edit(rows))]) + "\n"

    return text


def _first_rows_swapped(run_dir):
    """The reference traces of a run with its first object's first two rows
    swapped, so that its timestamps run backwards."""
    header, first, second, *rows = (run_dir / "d.csv").read_text().splitlines()
    (a, _, t1), (b, _, t2) = first.split(","), second.split(",")
    assert a == b and int(t1) < int(t2)
    return "\n".join([header, second, first, *rows]) + "\n"


def _first_record_repeated(run_dir):
    """The reference signatures of a run with its first record appended
    again."""
    text = (run_dir / "signatures_d.jsonl").read_text()
    return text + text.splitlines(keepends=True)[0]


_RANKS_SWAPPED = _results(lambda r: [r[1], r[0], *r[2:]])

# (case, input the bad file replaces, its text from a good run's directory)
MALFORMED = [
    ("trace-row-short", "traces", lambda d: "object_id,anchor_id,timestamp\no1,5\n"),
    ("trace-row-long", "traces", lambda d: "object_id,anchor_id,timestamp\no1,5,6,7\n"),
    ("trace-anchor-not-int", "traces",
     lambda d: "object_id,anchor_id,timestamp\na,1,10\nb,x1,20\n"),
    ("trace-timestamp-not-int", "traces", lambda d: "object_id,anchor_id,timestamp\na,1,1.5\n"),
    ("trace-timestamp-beyond-int64", "traces",
     lambda d: f"object_id,anchor_id,timestamp\na,1,10\na,2,{2**63}\n"),
    ("trace-timestamp-near-int64-limit", "traces",
     lambda d: f"object_id,anchor_id,timestamp\na,1,10\na,2,{2**63 - 1000}\n"),
    ("trace-anchor-beyond-int64", "traces",
     lambda d: f"object_id,anchor_id,timestamp\na,{2**64},10\n"),
    ("trace-last-row-cut", "traces", lambda d: "object_id,anchor_id,timestamp\na,1,10\nb,2,16"),
    ("anchor-row-short", "anchors", lambda d: "anchor_id,lon,lat\n0,1.0\n"),
    ("anchor-last-row-cut", "anchors", lambda d: "anchor_id,lon,lat\n0,1.0,2.0\n1,1.0,2"),
    ("anchor-id-not-int", "anchors", lambda d: "anchor_id,lon,lat\nz,1.0,2.0\n"),
    ("anchor-lon-nan", "anchors", _anchor_lon("nan")),
    ("anchor-lon-inf", "anchors", _anchor_lon("-inf")),
    ("anchor-lon-text", "anchors", _anchor_lon("east")),
    ("anchor-lon-outside-wgs84", "anchors", _anchor_lon("181.0")),
    ("link-anchor-lon-nan", "link-anchors", _anchor_lon("nan")),
    ("raw-lon-nan", "raw", lambda d: "object_id,lon,lat,timestamp\na,1.0,2.0,10\na,nan,2.0,20\n"),
    ("raw-lat-text", "raw", lambda d: "object_id,lon,lat,timestamp\na,1.0,zz,10\n"),
    ("raw-last-row-cut", "raw", lambda d: "object_id,lon,lat,timestamp\na,1.0,2.0,1"),
    ("raw-timestamp-not-int", "raw", lambda d: "object_id,lon,lat,timestamp\na,1.0,2.0,t\n"),
    ("raw-timestamp-beyond-int64", "raw",
     lambda d: f"object_id,lon,lat,timestamp\na,1.0,2.0,{-(2**63) - 1}\n"),
    ("results-ranks-swapped", "results", _RANKS_SWAPPED),
    ("results-rank-skipped", "results", _results(lambda r: [r[0], *r[2:]])),
    ("results-rank-not-int", "results", _results(lambda r: [[r[0][0], "x", *r[0][2:]], *r[1:]])),
    ("results-rank-0-then-1", "results", _results(lambda r: [[r[0][0], "0", "", ""], *r])),
    ("results-rank-1-then-0", "results",
     _results(lambda r: [r[0], [r[0][0], "0", "", ""], *r[1:]])),
    ("results-similarity-empty", "results", _results(lambda r: [[*r[0][:3], ""], *r[1:]])),
    ("results-similarity-text", "results", _results(lambda r: [[*r[0][:3], "high"], *r[1:]])),
    ("rerank-ranks-swapped", "rerank-results", _RANKS_SWAPPED),
    ("marry-ranks-swapped", "marry-results", _RANKS_SWAPPED),
    ("record-without-sig", "signatures",
     _edited_record(lambda r: {k: v for k, v in r.items() if k != "sig"})),
    ("record-is-array", "signatures", _edited_record(lambda r: r["sig"])),
    ("record-not-json", "signatures", lambda d: "{oops\n"),
    ("dims-reversed", "signatures", _pairs(lambda p: p[::-1])),
    ("dim-repeated", "signatures", _pairs(lambda p: [p[0], *p])),
    ("dim-negative", "signatures", _first_pair(dim=-1)),
    ("dim-not-int", "signatures", _first_pair(dim=0.5)),
    ("weight-nan", "signatures", _first_pair(weight=float("nan"))),
    ("weight-inf", "signatures", _first_pair(weight=float("inf"))),
    ("weight-zero", "signatures", _first_pair(weight=0.0)),
    ("weight-text", "signatures", _first_pair(weight="1")),
    ("normalized-off-norm", "signatures", _pairs(lambda p: [[d, 3.0 * w] for d, w in p])),
    ("normalized-not-bool", "signatures", _with("normalized", "yes")),
    ("no-record", "signatures", lambda d: ""),
    ("blank-lines-only", "reduce-signatures", lambda d: "\n \n"),
    ("trace-rows-out-of-time-order", "traces", _first_rows_swapped),
    ("id-repeated", "signatures", _first_record_repeated),
    ("reduce-not-normalized", "reduce-signatures", _with("normalized", False)),
    ("rerank-not-normalized", "rerank-signatures", _with("normalized", False)),
]


@pytest.mark.parametrize("what,text", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED])
def test_malformed_input_exits_1_with_one_line(tmp_path, capsys, small_run, what, text):
    bad = tmp_path / "bad"
    bad.write_text(text(small_run))
    argv = {
        "traces": ["split", "--traces", bad],
        "anchors": ["closure", "--traces", small_run / "d.csv", "--anchors", bad],
        "link-anchors": ["link", "--queries", small_run / "signatures_q.jsonl",
                         "--references", small_run / "signatures_d.jsonl", "--anchors", bad],
        "raw": ["ingest", "--raw", bad, "--anchors", small_run / "anchors.csv"],
        "signatures": ["link", "--queries", small_run / "signatures_q.jsonl",
                       "--references", bad, "--engine", "linear"],
        "results": ["eval", "--results", bad, "--references", small_run / "signatures_d.jsonl"],
        "rerank-results": ["rerank", "--results", bad,
                           "--queries-large", small_run / "signatures_q.jsonl",
                           "--references-large", small_run / "signatures_d.jsonl"],
        "marry-results": ["marry", "--results-qd", small_run / "results.csv",
                          "--results-dq", bad],
        "reduce-signatures": ["reduce", "--signatures", bad, "--m", "3"],
        "rerank-signatures": ["rerank", "--results", small_run / "results.csv",
                              "--queries-large", small_run / "signatures_q.jsonl",
                              "--references-large", bad],
    }[what]
    capsys.readouterr()
    assert run([*argv, "--out", tmp_path / "x"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert re.search(rf"{re.escape(str(bad))}:\d+: ", err)


@pytest.mark.parametrize(
    "anchor_lat, fix_lat, where",
    [("95.00", "39.902", "anchors.csv:5: lat: "), ("40.00", "219.902", "raw.csv:3: lat: ")],
)
def test_ingest_refuses_a_coordinate_outside_wgs84(tmp_path, capsys, anchor_lat, fix_lat, where):
    (tmp_path / "anchors.csv").write_text(
        "anchor_id,lon,lat\n0,116.30,39.90\n1,116.40,39.90\n2,116.30,40.00\n"
        f"3,116.40,{anchor_lat}\n"
    )
    (tmp_path / "raw.csv").write_text(
        "object_id,lon,lat,timestamp\na,116.301,39.901,1600000000\n"
        f"a,116.399,{fix_lat},1600000600\n"
    )
    capsys.readouterr()
    assert run(["ingest", "--raw", tmp_path / "raw.csv", "--anchors", tmp_path / "anchors.csv",
                "--out", tmp_path / "r"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and where in err
    assert not (tmp_path / "r" / "calibrated.csv").exists()


def _fuzz_inputs(base):
    """Good files for the commands below to read besides the fuzzed one,
    by the names the commands give them: three anchors, traces within them
    and one signature."""
    write_anchor_csv(base / "anchors.csv", AnchorSet([0.0, 1.0, 0.0], [0.0, 0.0, 1.0]))
    write_trace_csv(base / "traces.csv", [Trace("a", [(1, 1_600_000_000), (2, 1_600_086_400)])])
    (base / "sigs.jsonl").write_text(json.dumps(
        {"object_id": "a", "kind": "spatial", "normalized": True, "sig": [[1, 1.0]]}) + "\n")
    return {"A": base / "anchors.csv", "T": base / "traces.csv", "S": base / "sigs.jsonl"}


def _anchor_rows(path):
    anchors = read_anchor_csv(path)
    return list(zip(anchors.lons.tolist(), anchors.lats.tolist()))


# (reader, writer of the good file, the file read back as rows in file order,
# the command that reads BAD, whether a file of its header alone reads)
CSV_READERS = {
    "trace": (
        lambda p: write_trace_csv(p, [Trace("a", [(1, 1_600_000_000), (12, 1_600_000_060)]),
                                      Trace("b", [(3, 1_600_000_000), (0, 1_600_086_400)])]),
        lambda p: [(t.object_id, *pt) for t in read_trace_csv(p) for pt in t.points],
        ["split", "--traces", "BAD"], True,
    ),
    "results": (
        lambda p: write_results_csv(p, {"a": [("a", 0.9), ("b", 0.5)], "b": [("a", 0.8)],
                                        "c": []}),
        lambda p: [(q, *r) for q, res in read_results_csv(p).items() for r in res or [()]],
        ["eval", "--results", "BAD", "--references", "S"], True,
    ),
    "raw": (
        lambda p: write_raw_csv(p, {"a": [RawPoint(0.1, 0.2, 1_600_000_000),
                                          RawPoint(0.9, 0.1, 1_600_000_600)],
                                    "b": [RawPoint(0.2, 0.8, 1_600_086_400)]}),
        lambda p: [(oid, *pt) for oid, pts in read_raw_csv(p).items() for pt in pts],
        ["ingest", "--raw", "BAD", "--anchors", "A"], True,
    ),
    "anchor": (
        lambda p: write_anchor_csv(p, AnchorSet([0.0, 1.0, 0.0], [0.0, 0.0, 1.5])),
        _anchor_rows, ["closure", "--traces", "T", "--anchors", "BAD"], False,
    ),
}


@pytest.mark.parametrize("reader", CSV_READERS)
def test_cut_or_byte_flipped_csv_fails_on_a_named_line_or_reads_a_prefix(tmp_path, capsys,
                                                                         reader):
    # every truncation and every byte flipped: either the reader and the
    # command refuse the file naming file:line, or it reads as a prefix of
    # its rows
    write, read_rows, argv, header_reads = CSV_READERS[reader]
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    names = {**_fuzz_inputs(tmp_path), "BAD": bad}
    argv = [names.get(word, word) for word in argv]
    write(good)
    raw = good.read_bytes()
    rows = read_rows(good)
    cases = [raw[:cut] for cut in range(len(raw) + 1)]
    cases += [raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:] for at in range(len(raw))]
    read = 0
    for case in cases:
        bad.write_bytes(case)
        try:
            got = read_rows(bad)
        except ValueError as exc:
            assert str(exc).startswith(f"{bad}:"), str(exc)
            assert re.match(r"\d+: ", str(exc)[len(f"{bad}:"):]), str(exc)
            capsys.readouterr()
            assert run([*argv, "--out", tmp_path / "x"]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {exc}\n"
        else:
            assert got == rows[: len(got)], case
            read += 1
    # what reads: the header before, inside and after its CRLF where the
    # reader takes a file without rows, and each row up to its CR or its LF
    assert read == 3 * header_reads + 2 * len(rows)


def test_cut_or_byte_flipped_signature_jsonl_fails_on_a_named_line_or_reads_valid_rows(
        tmp_path, capsys):
    # every truncation, and every byte flipped to non-UTF-8 (^ 0xFF) or to a
    # neighbouring ASCII character (^ 0x01: digits, quotes, brackets, commas,
    # line breaks): either the reader and three commands that read
    # signature files refuse it naming file:line, or every row it reads is
    # one the readers' row rules accept. An uncaught exception fails the test.
    good = tmp_path / "sigs.jsonl"
    # records as older files hold them, with a reduced_m key the reader ignores
    records = [
        {"object_id": "a", "kind": "spatial", "normalized": True, "reduced_m": None,
         "sig": [[0, 0.6], [2, 0.8]]},
        {"object_id": "b", "kind": "spatial", "normalized": True, "reduced_m": 2,
         "sig": [[1, 0.8], [3, 0.6]]},
    ]
    good.write_text("".join(json.dumps(r) + "\n" for r in records))
    raw = good.read_bytes()
    bad = tmp_path / "bad.jsonl"
    results = tmp_path / "results.csv"
    write_results_csv(results, {"a": [("a", 1.0), ("b", 0.48)], "b": [("b", 1.0)]})
    commands = [
        ["link", "--queries", good, "--references", bad, "--engine", "linear"],
        ["reduce", "--signatures", bad, "--m", "1"],
        ["eval", "--results", results, "--references", bad],
    ]
    cases = [raw[:cut] for cut in range(len(raw) + 1)]
    cases += [raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:]
              for mask in (0x01, 0xFF) for at in range(len(raw))]
    refused, kept_cuts = 0, []
    for at, case in enumerate(cases):
        bad.write_bytes(case)
        try:
            table = read_signatures_jsonl(bad)
        except ValueError as exc:
            assert str(exc).startswith(f"{bad}:"), str(exc)
            assert re.match(r"\d+: ", str(exc)[len(f"{bad}:"):]), str(exc)
            for argv in commands:
                capsys.readouterr()
                assert run([*argv, "--out", tmp_path / "x"]) == 1, (case, argv)
                assert capsys.readouterr().err == f"error: {exc}\n", (case, argv)
            refused += 1
            continue
        if at <= len(raw):
            kept_cuts.append(at)
        for oid in table:
            row = table[oid]
            check_row(row.dims, row.weights)
        for argv in commands:
            capsys.readouterr()
            code = run([*argv, "--out", tmp_path / "x"])
            err = capsys.readouterr().err
            assert code == 0 and not err or code == 1 and err.count("\n") == 1, (case, argv, err)
    # every non-UTF-8 flip is refused, and so is every cut but those just
    # after a line break
    assert refused >= len(raw) + len(raw) + 1 - len(records)
    assert kept_cuts == [at + 1 for at, byte in enumerate(raw) if byte == ord("\n")]


def test_signature_line_nested_past_the_json_parser_depth_fails_on_its_line(tmp_path, capsys):
    # json.loads raises RecursionError, not ValueError, on deep nesting
    bad = tmp_path / "deep.jsonl"
    bad.write_text("\n" + "[" * 100_000 + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}:2: maximum recursion depth"):
        read_signatures_jsonl(bad)
    capsys.readouterr()
    assert run(["reduce", "--signatures", bad, "--m", "1", "--out", tmp_path / "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:2: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def three_anchors(tmp_path_factory):
    """Three anchors, and traces and spatial signatures within them."""
    base = tmp_path_factory.mktemp("three")
    (base / "anchors.csv").write_text("anchor_id,lon,lat\n0,0.0,0.0\n1,1.0,0.0\n2,0.0,1.0\n")
    rows = [f"{oid},{a},{86400 * day}" for oid in "abc" for day, a in enumerate([0, 1, 2, 1])]
    (base / "traces.csv").write_text("object_id,anchor_id,timestamp\n" + "\n".join(rows) + "\n")
    records = [{"object_id": oid, "kind": "spatial", "normalized": True,
                "sig": [[i, 0.6], [2, 0.8]]} for i, oid in enumerate("ab")]
    (base / "sigs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    return base


# (case, the file made bad, its record for object 'x', the other flags, the
# error's start): each command holding both anchors and anchor ids, and the
# negative id every trace reader refuses
_NAMED = "{BAD}: object 'x' names anchor 3, beyond the 3 anchors of {A}"
OUT_OF_RANGE = [
    ("signature-negative", "traces", "x,-1,5", ["signature", "--traces", "BAD"],
     "{BAD}:14: anchor id -1 is negative"),
    ("signature-spatial", "traces", "x,3,5",
     ["signature", "--traces", "BAD", "--anchors", "A"], _NAMED),
    ("signature-sequential", "traces", "x,3,5",
     ["signature", "--kind", "sequential", "--traces", "BAD", "--anchors", "A"], _NAMED),
    ("signature-spatiotemporal", "traces", "x,3,5",
     ["signature", "--kind", "spatiotemporal", "--dt", "6", "--traces", "BAD", "--anchors", "A"],
     _NAMED),
    ("signature-corpus", "traces", "x,3,5",
     ["signature", "--traces", "T", "--corpus", "BAD", "--anchors", "A"], _NAMED),
    ("pipeline", "traces", "x,3,5",
     ["pipeline", "--traces", "BAD", "--anchors", "A", "--engine", "linear"], _NAMED),
    ("closure", "traces", "x,3,5", ["closure", "--traces", "BAD", "--anchors", "A"], _NAMED),
    ("link-wrtree", "signatures", [[1, 0.6], [3, 0.8]],
     ["link", "--queries", "S", "--references", "BAD", "--anchors", "A"], _NAMED),
    ("link-linear", "signatures", [[1, 0.6], [3, 0.8]],
     ["link", "--queries", "BAD", "--references", "S", "--anchors", "A", "--engine", "linear"],
     _NAMED),
]


@pytest.mark.parametrize("what,bad_record,argv,error", [c[1:] for c in OUT_OF_RANGE],
                         ids=[c[0] for c in OUT_OF_RANGE])
def test_anchor_id_outside_anchor_set_exits_1(tmp_path, capsys, three_anchors, what, bad_record,
                                              argv, error):
    base = three_anchors
    bad = tmp_path / "bad"
    if what == "traces":
        bad.write_text((base / "traces.csv").read_text() + bad_record + "\n")
    else:
        record = {"object_id": "x", "kind": "spatial", "normalized": True, "sig": bad_record}
        bad.write_text((base / "sigs.jsonl").read_text() + json.dumps(record) + "\n")
    names = {"BAD": str(bad), "A": str(base / "anchors.csv"), "T": base / "traces.csv",
             "S": base / "sigs.jsonl"}
    capsys.readouterr()
    assert run([*(names.get(a, a) for a in argv), "--out", tmp_path / "x"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {error.format(**names)}\n"


def test_anchor_file_with_misplaced_id_exits_1(tmp_path, capsys, three_anchors):
    bad = tmp_path / "anchors.csv"
    bad.write_text("anchor_id,lon,lat\n0,0.0,0.0\n2,0.0,1.0\n")
    capsys.readouterr()
    assert run(["closure", "--traces", three_anchors / "traces.csv", "--anchors", bad,
                "--out", tmp_path / "x"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}:3: anchor id 2 where 1 was due; ids run 0, 1, 2, ... in file order\n"


# per side left without a signature: each object's anchors on 1 January
# (the query half, an odd day of the month) and on 2 January (the reference
# half)
EMPTY_SIDES = {
    "reference": ("d", [[0, 1, 2]] * 3, [[0, 1, 2]] * 3),
    "query": ("q", [[0]] * 3, [[0, 1], [0, 2], [0, 1]]),
}


@pytest.mark.parametrize("side", EMPTY_SIDES)
def test_pipeline_refuses_a_side_without_signatures(tmp_path, capsys, three_anchors, side):
    # an anchor every reference object visits weighs 0, so a side whose
    # objects visit only such anchors has no signature; no signature file
    # is written, since link would refuse it
    half, first, second = EMPTY_SIDES[side]
    rows = [f"{oid},{a},{86400 * day + 60 * i}"
            for oid, *days in zip("abc", first, second)
            for day, anchors in enumerate(days) for i, a in enumerate(anchors)]
    traces = tmp_path / "t.csv"
    traces.write_text("object_id,anchor_id,timestamp\n" + "\n".join(rows) + "\n")
    out = tmp_path / "p"
    capsys.readouterr()
    assert run(["pipeline", "--traces", traces, "--anchors", three_anchors / "anchors.csv",
                "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error: no {side} signature: every object of {out / half}.csv is excluded\n")
    assert not list(out.glob("signatures_*"))


def test_readme_verb_table_matches_parser(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = set(re.findall(r"^\| `([a-z]+)` \|", readme, re.M))

    def help_text(words):
        capsys.readouterr()
        assert main([*words, "--help"]) == 0
        return capsys.readouterr().out

    registered = set(re.search(r"\{([a-z,]+)\}", help_text([])).group(1).split(","))
    assert listed == registered
    for verb in registered:
        help_text([verb])
