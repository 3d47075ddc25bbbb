import csv
import dataclasses
import json
import re
from pathlib import Path

import pytest

from siglink.cli import main
from siglink.linking import write_results_csv
from siglink.synth import generate_synthetic
from siglink.traces import SplitStrategy, split_dataset
from siglink.wrtree import load_index, save_index


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
    assert all(json.loads(line)["reduced_m"] == 10 or len(json.loads(line)["sig"]) <= 10
               for line in reduced)
    assert run(["index", "build", "--out", base / "idx",
                "--signatures", base / "rd/signatures.jsonl",
                "--anchors", base / "anchors.csv"]) == 0
    assert run(["index", "validate", "--index", base / "idx/index.bin"]) == 0
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


def test_index_sequential_signatures(tmp_path, sequential_run):
    p = sequential_run
    lines = (p / "signatures_d.jsonl").read_text().splitlines(keepends=True)
    (tmp_path / "first.jsonl").write_text("".join(lines[:40]))
    (tmp_path / "extra.jsonl").write_text("".join(lines[40:]))
    assert run(["index", "build", "--signatures", tmp_path / "first.jsonl", "--capacity", "4",
                "--anchors", p / "anchors.csv", "--out", tmp_path / "idx"]) == 0
    assert run(["index", "insert", "--index", tmp_path / "idx/index.bin",
                "--signatures", tmp_path / "extra.jsonl", "--anchors", p / "anchors.csv",
                "--out", tmp_path / "idx2"]) == 0
    tree = load_index(tmp_path / "idx2/index.bin")
    assert tree.kind == "sequential:q=2" and tree.n_objects == len(lines)
    assert run(["index", "validate", "--index", tmp_path / "idx2/index.bin"]) == 0


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


def test_unweighted_index_fails_validation(tmp_path, capsys):
    base = tmp_path
    assert run(["synth", "--out", base, "--n-objects", "20", "--n-anchors", "300",
                "--points", "60", "--seed", "4"]) == 0
    assert run(["signature", "--out", base / "s", "--traces", base / "traces.csv"]) == 0
    assert run(["index", "build", "--out", base / "idx", "--signatures",
                base / "s/signatures.jsonl", "--anchors", base / "anchors.csv"]) == 0
    path = base / "idx/index.bin"
    raw = bytearray(path.read_bytes())
    raw[24] = 0  # the header's weighted byte, after magic, version, capacity, n_objects
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert run(["index", "validate", "--index", path]) == 1
    err = capsys.readouterr().err
    assert "corrupt index" in err and len(err.strip().splitlines()) == 1


def test_index_insert_grows_index(tmp_path):
    base = tmp_path
    assert run(["synth", "--out", base, "--n-objects", "40", "--n-anchors", "300",
                "--points", "60", "--seed", "4"]) == 0
    assert run(["signature", "--out", base / "s", "--traces", base / "traces.csv"]) == 0
    sigs = (base / "s/signatures.jsonl").read_text().splitlines()
    (base / "first.jsonl").write_text("\n".join(sigs[:30]) + "\n")
    (base / "extra.jsonl").write_text("\n".join(sigs[30:]) + "\n")
    assert run(["index", "build", "--out", base / "idx", "--signatures", base / "first.jsonl",
                "--anchors", base / "anchors.csv"]) == 0
    assert run(["index", "insert", "--out", base / "idx2", "--index", base / "idx/index.bin",
                "--signatures", base / "extra.jsonl", "--anchors", base / "anchors.csv"]) == 0
    assert run(["index", "validate", "--index", base / "idx2/index.bin"]) == 0


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
    for key in ("threads = 2", "lsh_planes = 64"):
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

    pipe = reloads("pipeline", ["pipeline"], "--synthetic", "n=40,seed=2", "--engine", "linear")
    idx = reloads("index", ["index", "build"], "--capacity", "4",
                  "--signatures", pipe / "signatures_d.jsonl", "--anchors", pipe / "anchors.csv")
    # the sub-verb's parser takes the config: capacity applies, a stray key fails
    used = idx / "config.used"
    used.write_text(used.read_text() + "engine = linear\n")
    assert run(["--config", used, "index", "build", "--out", tmp_path / "i3"]) == 2

    syn = reloads("synth", ["synth"], "--n-objects", 30, "--n-anchors", 300, "--points", 60,
                  "--seed", 4, "--personal-pool", 20)
    raw = tmp_path / "raw.csv"
    raw.write_text("object_id,lon,lat,timestamp\n" + "".join(
        f"r{o},{0.1 * j},{0.3 * o},{1_600_041_600 + 3600 * j}\n"
        for o in range(3) for j in range(4 + o)
    ))
    reloads("ingest", ["ingest"], "--raw", raw, "--anchors", syn / "anchors.csv",
            "--metric", "planar", "--min-points", 5)
    halves = reloads("split", ["split"], "--traces", syn / "traces.csv",
                     "--strategy", "random", "--q-days", 10, "--split-seed", 3)
    sd = reloads("sig-d", ["signature"], "--traces", halves / "d.csv")
    sq = reloads("sig-q", ["signature"], "--traces", halves / "q.csv", "--corpus", halves / "d.csv")
    reloads("sig-st", ["signature"], "--traces", halves / "q.csv", "--kind", "spatiotemporal",
            "--dt", 8, "--grid", 20, "--anchors", syn / "anchors.csv", "--utc-offset", -5)
    rd = reloads("reduce", ["reduce"], "--signatures", sd / "signatures.jsonl", "--m", 10)
    lines = (rd / "signatures.jsonl").read_text().splitlines(keepends=True)
    (tmp_path / "first.jsonl").write_text("".join(lines[:20]))
    (tmp_path / "extra.jsonl").write_text("".join(lines[20:]))
    built = reloads("built", ["index", "build"], "--signatures", tmp_path / "first.jsonl",
                    "--anchors", syn / "anchors.csv")
    reloads("insert", ["index", "insert"], "--index", built / "index.bin",
            "--signatures", tmp_path / "extra.jsonl", "--anchors", syn / "anchors.csv")
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
    (["index", "build"], "capacity", "1", ">= 2"),
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
    ("anchor-row-short", "anchors", lambda d: "anchor_id,lon,lat\n0,1.0\n"),
    ("anchor-id-not-int", "anchors", lambda d: "anchor_id,lon,lat\nz,1.0,2.0\n"),
    ("anchor-lon-nan", "anchors", _anchor_lon("nan")),
    ("anchor-lon-inf", "anchors", _anchor_lon("-inf")),
    ("anchor-lon-text", "anchors", _anchor_lon("east")),
    ("index-anchor-lon-nan", "index-anchors", _anchor_lon("nan")),
    ("raw-lon-nan", "raw", lambda d: "object_id,lon,lat,timestamp\na,1.0,2.0,10\na,nan,2.0,20\n"),
    ("raw-lat-text", "raw", lambda d: "object_id,lon,lat,timestamp\na,1.0,zz,10\n"),
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
    ("reduced-m-zero", "signatures", _with("reduced_m", 0)),
    ("reduced-m-negative", "index-signatures", _with("reduced_m", -4)),
    ("reduced-m-beyond-int32", "index-signatures", _with("reduced_m", 3_000_000_000)),
    ("trace-rows-out-of-time-order", "traces", _first_rows_swapped),
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
        "index-anchors": ["index", "build", "--signatures", small_run / "signatures_d.jsonl",
                          "--anchors", bad],
        "index-signatures": ["index", "build", "--signatures", bad,
                             "--anchors", small_run / "anchors.csv"],
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


@pytest.fixture(scope="module")
def three_anchors(tmp_path_factory):
    """Three anchors, traces and spatial signatures within them, and an
    index built from those signatures."""
    base = tmp_path_factory.mktemp("three")
    (base / "anchors.csv").write_text("anchor_id,lon,lat\n0,0.0,0.0\n1,1.0,0.0\n2,0.0,1.0\n")
    rows = [f"{oid},{a},{86400 * day}" for oid in "abc" for day, a in enumerate([0, 1, 2, 1])]
    (base / "traces.csv").write_text("object_id,anchor_id,timestamp\n" + "\n".join(rows) + "\n")
    records = [{"object_id": oid, "kind": "spatial", "normalized": True, "reduced_m": None,
                "sig": [[i, 0.6], [2, 0.8]]} for i, oid in enumerate("ab")]
    (base / "sigs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(["index", "build", "--signatures", base / "sigs.jsonl",
                "--anchors", base / "anchors.csv", "--out", base / "idx"]) == 0
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
    ("index-build", "signatures", [[3, 1.0]],
     ["index", "build", "--signatures", "BAD", "--anchors", "A"], _NAMED),
    ("index-insert", "signatures", [[3, 1.0]],
     ["index", "insert", "--index", "I", "--signatures", "BAD", "--anchors", "A"], _NAMED),
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
             "S": base / "sigs.jsonl", "I": base / "idx/index.bin"}
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


def test_index_refuses_unnormalized_signature_and_validate_reports_one(tmp_path, capsys,
                                                                      three_anchors):
    base = three_anchors
    record = {"object_id": "u", "kind": "spatial", "normalized": False, "reduced_m": None,
              "sig": [[0, 3.0]]}
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(record) + "\n")
    for argv in (["index", "build"], ["index", "insert", "--index", base / "idx/index.bin"]):
        capsys.readouterr()
        assert run([*argv, "--signatures", bad, "--anchors", base / "anchors.csv",
                    "--out", tmp_path / "x"]) == 1
        assert capsys.readouterr().err == f"error: {bad}:1: signature of 'u' is not normalized\n"
    # an index file written before bulk load refused such a leaf
    tree = load_index(base / "idx/index.bin")
    leaf = tree.root.children[0]
    leaf._leaf_sig = dataclasses.replace(leaf.signature, normalized=False)
    save_index(tree, tmp_path / "old.bin")
    capsys.readouterr()
    assert run(["index", "validate", "--index", tmp_path / "old.bin"]) == 1
    out, err = capsys.readouterr()
    assert out == f"INVALID: signature of leaf {leaf.object_id!r} is not normalized\n"
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_readme_verb_table_matches_parser(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = set()
    for cell in re.findall(r"^\| `([a-z /]+)` \|", readme, re.M):
        verb, _, subs = cell.partition(" ")
        listed |= {f"{verb} {sub}" for sub in subs.split("/")} if subs else {verb}

    def help_text(words):
        capsys.readouterr()
        assert main([*words, "--help"]) == 0
        return capsys.readouterr().out

    def choices(words):
        return re.search(r"\{([a-z,]+)\}", help_text(words)).group(1).split(",")

    registered = set()
    for verb in choices([]):
        registered |= {f"{verb} {sub}" for sub in choices([verb])} if verb == "index" else {verb}
    assert listed == registered
    for verb in registered:
        help_text(verb.split())
