import json

from siglink.cli import main
from siglink.synth import generate_synthetic
from siglink.traces import SplitStrategy, split_dataset


def run(args):
    return main([str(a) for a in args])


def test_pipeline_smoke_writes_metrics(tmp_path):
    out = tmp_path / "run"
    assert run(["pipeline", "--synthetic", "n=100", "--engine", "wrtree",
                "--m", "10", "--k", "5", "--out", out]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics["acc"]) == {"1", "2", "3", "4", "5"}
    assert metrics["engine"] == "wrtree"
    assert {"reduce", "index_build", "link"} <= set(metrics["timings"])
    assert (out / "results.csv").exists()
    assert (out / "config.used").exists()


def test_pipeline_engine_swap_byte_identical_results(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["pipeline", "--synthetic", "n=100,seed=3", "--engine", "linear", "--out", a]) == 0
    assert run(["pipeline", "--synthetic", "n=100,seed=3", "--engine", "wrtree", "--out", b]) == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


def test_pipeline_invalid_dt_exits_2(tmp_path, capsys):
    code = run(["pipeline", "--synthetic", "n=20", "--dt", "5", "--out", tmp_path / "x"])
    assert code == 2
    err = capsys.readouterr().err
    assert "divide 24" in err


def test_pipeline_nonspatial_kind_needs_cosine_engine(tmp_path):
    code = run(["pipeline", "--synthetic", "n=20", "--kind", "sequential",
                "--engine", "wrtree", "--out", tmp_path / "x"])
    assert code == 2


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


def test_link_tree_engine_without_anchors_exits_2(tmp_path, capsys):
    # the signature files are garbage: reading them would be a runtime failure
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    for engine in ("wrtree", "rtree"):
        capsys.readouterr()
        assert run(["link", "--out", tmp_path / "x", "--queries", bad, "--references", bad,
                    "--engine", engine]) == 2
        assert "--anchors" in capsys.readouterr().err
    assert run(["link", "--out", tmp_path / "x", "--queries", bad, "--references", bad,
                "--engine", "linear"]) == 1


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
        assert record["object_id"] in err and len(err.strip().splitlines()) == 1


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
    first = tmp_path / "r1"
    assert run(["pipeline", "--synthetic", "n=40,seed=2", "--engine", "linear",
                "--out", first]) == 0
    second = tmp_path / "r2"
    assert run(["--config", first / "config.used", "pipeline", "--out", second]) == 0
    assert (first / "results.csv").read_bytes() == (second / "results.csv").read_bytes()
    assert run(["index", "build", "--out", tmp_path / "i1", "--capacity", "4",
                "--signatures", first / "signatures_d.jsonl",
                "--anchors", first / "anchors.csv"]) == 0
    # the sub-verb's parser takes the config: capacity applies, a stray key fails
    used = tmp_path / "i1/config.used"
    assert run(["--config", used, "index", "build", "--out", tmp_path / "i2"]) == 0
    assert (tmp_path / "i1/index.bin").read_bytes() == (tmp_path / "i2/index.bin").read_bytes()
    used.write_text(used.read_text() + "engine = linear\n")
    assert run(["--config", used, "index", "build", "--out", tmp_path / "i3"]) == 2


def test_bad_config_value_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = lots\n")
    assert run(["--config", cfg, "pipeline", "--synthetic", "n=20", "--out", tmp_path / "x"]) == 2


def test_no_verb_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()
