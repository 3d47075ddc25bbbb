"""Command-line front end.

Every verb wraps one library stage, validates its configuration (exit code 2
on bad config, 1 on runtime failure), writes machine-readable artifacts into
the output directory, captures the resolved configuration there, and prints a
console table.

Config files are flat `key = value` documents ('#' starts a comment); keys
match the long flag names with '-' replaced by '_', and a key matching no
flag of the verb is a config error. Flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .errors import ConfigError, EmptySignatureError, EmptyTraceError, SiglinkError
from .linking import (
    ENGINES,
    LinkingRun,
    accuracy_at_k,
    link_signatures,
    matching_accuracy,
    read_results_csv,
    rerank,
    stable_marriage,
    write_metrics_json,
    write_results_csv,
)
from .privacy import signature_closure
from .reduction import cut_reduce, mbr_of
from .signatures import (
    Grid,
    build_corpus_stats,
    build_sequential_corpus,
    build_sequential_signature,
    build_spatial_signature,
    build_spatiotemporal_corpus,
    build_spatiotemporal_signature,
    build_temporal_histogram,
    read_signatures_jsonl,
    write_signatures_jsonl,
)
from .synth import generate_synthetic
from .traces import (
    DEFAULT_UTC_OFFSET_HOURS,
    SplitStrategy,
    calibrate_trace,
    filter_min_points,
    read_anchor_csv,
    read_raw_csv,
    read_trace_csv,
    split_dataset,
    write_anchor_csv,
    write_trace_csv,
)
from .wrtree import bulk_load, insert, load_index, save_index, validate

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

_VALID_DT = (1, 2, 3, 4, 6, 8, 12, 24)


# ---------------------------------------------------------------------------
# Shared plumbing


def parse_config_file(path: str | Path) -> dict[str, str]:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    cfg: dict[str, str] = {}
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


# keys config.used records besides the verb's own flags
_CAPTURED_KEYS = {"verb", "index_verb"}


def _apply_config(sub: argparse.ArgumentParser, cfg: dict[str, str]) -> None:
    unknown = sorted(set(cfg) - {a.dest for a in sub._actions} - _CAPTURED_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s) for {sub.prog}: {', '.join(unknown)}")
    for action in sub._actions:
        if action.dest not in cfg:
            continue
        raw = cfg[action.dest]
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            value: object = raw.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            try:
                value = action.type(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad config value for {action.dest}: {raw!r}") from exc
        else:
            value = raw
        if action.choices is not None and value not in action.choices:
            raise ConfigError(
                f"bad config value for {action.dest}: {raw!r} (choices: {sorted(action.choices)})"
            )
        action.default = value
        action.required = False


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _capture_config(out: Path, verb: str, args: argparse.Namespace) -> None:
    lines = [f"verb = {verb}"]
    for key in sorted(vars(args)):
        if key in ("handler", "verb", "config"):
            continue
        value = getattr(args, key)
        if value is None or callable(value):
            continue
        lines.append(f"{key} = {value}")
    (out / "config.used").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _print_table(headers: list[str], rows: list[list]) -> None:
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print(line)
    print("  ".join("-" * w for w in widths))
    for row in cells:
        print("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))


def _strategy(args: argparse.Namespace) -> SplitStrategy:
    name = args.strategy.replace("-", "_")
    try:
        if name in ("serial", "random"):
            if args.q_days is None:
                raise ConfigError(f"--q-days is required for the {name} split")
            if name == "serial":
                return SplitStrategy.serial(args.q_days)
            return SplitStrategy.random(args.q_days, getattr(args, "split_seed", 0) or 0)
        return SplitStrategy(name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_dt(dt: int) -> int:
    if dt not in _VALID_DT:
        raise ConfigError(
            f"dt must divide 24 exactly (one of {_VALID_DT}), got {dt}"
        )
    return dt


def _check_positive(value: int, name: str) -> int:
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")
    return value


def _load_signature_map(path: str) -> dict:
    return dict(read_signatures_jsonl(path))


# ---------------------------------------------------------------------------
# Verb handlers


def _cmd_synth(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    _check_positive(args.n_objects, "n-objects")
    _check_positive(args.n_anchors, "n-anchors")
    _check_positive(args.points, "points")
    traces, anchors = generate_synthetic(
        args.n_objects,
        args.n_anchors,
        args.locality_radius,
        args.points,
        seed=args.seed,
        n_days=args.n_days,
        personal_mass=args.personal_mass,
        personal_pool=args.personal_pool,
        hub_fraction=args.hub_fraction,
    )
    write_anchor_csv(out / "anchors.csv", anchors)
    write_trace_csv(out / "traces.csv", traces)
    meta = {
        "n_objects": args.n_objects,
        "n_anchors": args.n_anchors,
        "locality_radius": args.locality_radius,
        "points_per_object": args.points,
        "seed": args.seed,
        "total_points": sum(len(t) for t in traces),
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    _capture_config(out, "synth", args)
    print(f"wrote {len(traces)} traces over {len(anchors)} anchors to {out}")
    return EXIT_OK


def _cmd_ingest(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    anchors = read_anchor_csv(args.anchors)
    raw = read_raw_csv(args.raw)
    traces = [
        calibrate_trace(oid, pts, anchors, metric=args.metric)
        for oid, pts in raw.items()
    ]
    before = len(traces)
    traces = filter_min_points(traces, args.min_points)
    write_trace_csv(out / "calibrated.csv", traces)
    report = {
        "objects_in": before,
        "objects_kept": len(traces),
        "min_points": args.min_points,
        "metric": args.metric,
        "total_points": sum(len(t) for t in traces),
    }
    (out / "ingest_report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    _capture_config(out, "ingest", args)
    print(f"calibrated {len(traces)}/{before} objects into {out / 'calibrated.csv'}")
    return EXIT_OK


def _cmd_split(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    traces = read_trace_csv(args.traces)
    result = split_dataset(traces, _strategy(args), utc_offset_hours=args.utc_offset)
    write_trace_csv(out / "q.csv", result.q)
    write_trace_csv(out / "d.csv", result.d)
    report = {
        "strategy": args.strategy,
        "objects": len(traces),
        "flagged_empty_half": sorted(result.flagged),
    }
    (out / "split_report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    _capture_config(out, "split", args)
    print(
        f"split {len(traces)} objects into {out / 'q.csv'} / {out / 'd.csv'}"
        f" ({len(result.flagged)} flagged with an empty half)"
    )
    return EXIT_OK


def _kind_builder(args, corpus_traces, anchors):
    """The signature function of the requested TF-IDF kind, weighted by
    statistics over the non-empty traces of `corpus_traces`."""
    usable_corpus = [t for t in corpus_traces if t.points]
    if not usable_corpus:
        raise ConfigError("corpus has no non-empty traces")
    if args.kind == "spatial":
        stats = build_corpus_stats(usable_corpus)
        return lambda t: build_spatial_signature(t, stats)
    if args.kind == "sequential":
        corpus = build_sequential_corpus(usable_corpus, _check_positive(args.q, "q"))
        return lambda t: build_sequential_signature(t, corpus)
    if args.kind == "spatiotemporal":
        if anchors is None:
            raise ConfigError("spatiotemporal signatures need --anchors")
        _check_dt(args.dt)
        grid = Grid.fit(anchors, _check_positive(args.grid, "grid"))
        corpus = build_spatiotemporal_corpus(
            usable_corpus, anchors, grid, args.dt, args.utc_offset
        )
        return lambda t: build_spatiotemporal_signature(t, anchors, corpus)
    raise ConfigError(f"unsupported signature kind {args.kind!r}")


def _build_kind_signatures(build, traces):
    """Signatures of `traces` by the function `_kind_builder` picked. Returns
    (sigs, excluded): an object with an empty trace or no dimension left
    after weighting is excluded."""
    sigs: dict[str, object] = {}
    excluded: list[str] = []
    for t in traces:
        try:
            sigs[t.object_id] = build(t)
        except (EmptySignatureError, EmptyTraceError):
            excluded.append(t.object_id)
    return sigs, excluded


def _cmd_signature(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    traces = read_trace_csv(args.traces)
    anchors = read_anchor_csv(args.anchors) if args.anchors else None
    if args.kind == "temporal":
        _check_dt(args.dt)
        records = []
        for t in traces:
            if not t.points:
                continue
            hist = build_temporal_histogram(t, args.dt, args.utc_offset)
            records.append(
                {
                    "object_id": t.object_id,
                    "dt_hours": hist.dt_hours,
                    "bins": [float(b) for b in hist.bins],
                }
            )
        path = out / "histograms.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        _capture_config(out, "signature", args)
        print(f"wrote {len(records)} temporal histograms to {path}")
        return EXIT_OK
    corpus_traces = read_trace_csv(args.corpus) if args.corpus else traces
    build = _kind_builder(args, corpus_traces, anchors)
    sigs, excluded = _build_kind_signatures(build, traces)
    path = out / "signatures.jsonl"
    write_signatures_jsonl(path, sorted(sigs.items()))
    _capture_config(out, "signature", args)
    print(f"wrote {len(sigs)} {args.kind} signatures to {path} ({len(excluded)} excluded)")
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    _check_positive(args.m, "m")
    entries = read_signatures_jsonl(args.signatures)
    reduced = [(oid, cut_reduce(sig, args.m)) for oid, sig in entries]
    path = out / "signatures.jsonl"
    write_signatures_jsonl(path, reduced)
    _capture_config(out, "reduce", args)
    print(f"reduced {len(reduced)} signatures to top-{args.m} at {path}")
    return EXIT_OK


def _cmd_index_build(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    anchors = read_anchor_csv(args.anchors)
    entries = [
        (oid, sig, mbr_of(sig, anchors))
        for oid, sig in read_signatures_jsonl(args.signatures)
    ]
    t0 = time.perf_counter()
    tree = bulk_load(entries, _check_positive(args.capacity, "capacity"))
    build_s = time.perf_counter() - t0
    path = out / "index.bin"
    save_index(tree, path)
    _capture_config(out, "index build", args)
    print(f"built index over {tree.n_objects} objects in {build_s:.3f}s -> {path}")
    return EXIT_OK


def _cmd_index_insert(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    anchors = read_anchor_csv(args.anchors)
    tree = load_index(args.index)
    added = 0
    for oid, sig in read_signatures_jsonl(args.signatures):
        insert(tree, (oid, sig, mbr_of(sig, anchors)))
        added += 1
    path = out / "index.bin"
    save_index(tree, path)
    _capture_config(out, "index insert", args)
    print(f"inserted {added} objects; index now holds {tree.n_objects} -> {path}")
    return EXIT_OK


def _cmd_index_validate(args: argparse.Namespace) -> int:
    tree = load_index(args.index)
    problems = validate(tree)
    if problems:
        for p in problems:
            print(f"INVALID: {p}")
        raise SiglinkError(f"index {args.index} failed validation ({len(problems)} problems)")
    print(f"index {args.index} valid: {tree.n_objects} objects, capacity {tree.capacity}")
    return EXIT_OK


def _cmd_link(args: argparse.Namespace) -> int:
    if args.engine != "linear" and not args.anchors:
        raise ConfigError(f"engine {args.engine!r} needs --anchors for bounding boxes")
    out = _out_dir(args)
    queries = _load_signature_map(args.queries)
    references = _load_signature_map(args.references)
    anchors = read_anchor_csv(args.anchors) if args.anchors else None
    run = link_signatures(
        queries,
        references,
        anchors,
        engine=args.engine,
        k=_check_positive(args.k, "k"),
        m=args.m,
        capacity=args.capacity,
    )
    write_results_csv(out / "results.csv", run)
    metrics = write_metrics_json(out / "metrics.json", run)
    _capture_config(out, "link", args)
    _print_table(
        ["k", "acc"],
        [[kk, f"{metrics['acc'][str(kk)]:.4f}"] for kk in range(1, run.k + 1)],
    )
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    k = _check_positive(args.k, "k")
    run = LinkingRun(
        engine="file",
        k=k,
        reduced_m=None,
        results=read_results_csv(args.results),
        timings={},
        excluded_queries=[],
        excluded_references=[],
        reference_ids=set(_load_signature_map(args.references)),
    )
    acc = {str(kk): accuracy_at_k(run, kk) for kk in range(1, k + 1)}
    (out / "eval.json").write_text(json.dumps({"acc": acc}, indent=2) + "\n", encoding="utf-8")
    _capture_config(out, "eval", args)
    _print_table(["k", "acc"], [[kk, f"{v:.4f}"] for kk, v in acc.items()])
    return EXIT_OK


def _cmd_rerank(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    results = read_results_csv(args.results)
    run = LinkingRun(
        engine="file",
        k=max((len(r) for r in results.values()), default=1),
        reduced_m=None,
        results=results,
        timings={},
        excluded_queries=[],
        excluded_references=[],
        reference_ids={c for res in results.values() for c, _ in res},
    )
    reranked = rerank(
        run,
        _load_signature_map(args.queries_large),
        _load_signature_map(args.references_large),
    )
    write_results_csv(out / "results.csv", reranked)
    _capture_config(out, "rerank", args)
    print(f"reranked {len(results)} result lists -> {out / 'results.csv'}")
    return EXIT_OK


def _cmd_marry(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    qd = read_results_csv(args.results_qd)
    dq = read_results_csv(args.results_dq)
    matching = stable_marriage(qd, dq)
    with open(out / "matching.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("query_id,candidate_id,phase\n")
        for q in sorted(matching.stable_pairs):
            fh.write(f"{q},{matching.stable_pairs[q]},stable\n")
        for q in sorted(matching.fallback_pairs):
            fh.write(f"{q},{matching.fallback_pairs[q]},fallback\n")
        for q in sorted(matching.unmatched):
            fh.write(f"{q},,unmatched\n")
    summary = {
        "accuracy": matching_accuracy(matching),
        "stable": len(matching.stable_pairs),
        "fallback": len(matching.fallback_pairs),
        "unmatched": len(matching.unmatched),
        "proposals": matching.n_proposals,
        "fallback_collisions": {
            d: qs for d, qs in matching.fallback_collisions().items()
        },
    }
    (out / "marry.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    _capture_config(out, "marry", args)
    print(
        f"matched {summary['stable']} stable / {summary['fallback']} fallback"
        f" / {summary['unmatched']} unmatched; accuracy {summary['accuracy']:.4f}"
    )
    return EXIT_OK


def _cmd_closure(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    traces = read_trace_csv(args.traces)
    anchors = read_anchor_csv(args.anchors)
    modified, report = signature_closure(
        traces,
        anchors,
        m=_check_positive(args.m, "m"),
        rounds=_check_positive(args.rounds, "rounds"),
        split=_strategy(args),
        engine=args.engine,
        k=_check_positive(args.k, "k"),
        capacity=args.capacity,
        utc_offset_hours=args.utc_offset,
    )
    write_trace_csv(out / "traces.csv", modified)
    report.to_json(out / "closure.json")
    with open(out / "closure.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("round,acc1,acc_k,data_remain,mbr_overlap,grid_large,grid_small\n")
        fh.write(f"0,{report.baseline_accuracy[1]!r},{report.baseline_accuracy[args.k]!r},1.0,1.0,1.0,1.0\n")
        for r in report.rounds:
            u = r.utility
            fh.write(
                f"{r.round_no},{r.accuracy[1]!r},{r.accuracy[args.k]!r},"
                f"{u.data_remain!r},{u.mbr_overlap!r},{u.grid_coverage_large!r},{u.grid_coverage_small!r}\n"
            )
    _capture_config(out, "closure", args)
    rows = [["0", f"{report.baseline_accuracy[1]:.4f}", "1.000", "1.000"]]
    for r in report.rounds:
        rows.append(
            [
                str(r.round_no),
                f"{r.accuracy[1]:.4f}",
                f"{r.utility.data_remain:.3f}",
                f"{r.utility.grid_coverage_small:.3f}",
            ]
        )
    _print_table(["round", "acc@1", "data_remain", "grid_small"], rows)
    return EXIT_OK


def _pipeline_traces(args: argparse.Namespace):
    if args.synthetic:
        params: dict[str, float] = {}
        for part in args.synthetic.split(","):
            if not part:
                continue
            if "=" not in part:
                raise ConfigError(f"--synthetic expects k=v pairs, got {part!r}")
            key, _, value = part.partition("=")
            params[key.strip()] = float(value)
        if "n" not in params:
            raise ConfigError("--synthetic needs at least n=<objects>")
        n = int(params["n"])
        n_anchors = int(params.get("anchors", 0)) or max(1000, 4 * n)
        traces, anchors = generate_synthetic(
            n,
            n_anchors,
            float(params.get("radius", 0.05)),
            int(params.get("points", 200)),
            seed=int(params.get("seed", args.seed)),
        )
        return traces, anchors
    if not args.anchors:
        raise ConfigError("pipeline needs --synthetic or --anchors with --raw/--traces")
    anchors = read_anchor_csv(args.anchors)
    if args.raw:
        raw = read_raw_csv(args.raw)
        traces = [
            calibrate_trace(oid, pts, anchors, metric=args.metric)
            for oid, pts in raw.items()
        ]
    elif args.traces:
        traces = read_trace_csv(args.traces)
    else:
        raise ConfigError("pipeline needs one of --synthetic, --raw, or --traces")
    return traces, anchors


def _cmd_pipeline(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    if args.dt is not None:
        _check_dt(args.dt)
    _check_positive(args.k, "k")
    _check_positive(args.m, "m")
    if args.kind == "temporal":
        raise ConfigError(
            "temporal histograms are compared with EMD and have no k-NN engine;"
            " use the signature verb to export them"
        )
    if args.kind != "spatial" and args.engine in ("wrtree", "rtree"):
        raise ConfigError(
            f"{args.kind} signatures have no spatial bounding boxes;"
            " use --engine linear"
        )

    traces, anchors = _pipeline_traces(args)
    if args.min_points:
        traces = filter_min_points(traces, args.min_points)
    if args.synthetic:
        write_anchor_csv(out / "anchors.csv", anchors)

    halves = split_dataset(traces, _strategy(args), utc_offset_hours=args.utc_offset)
    write_trace_csv(out / "q.csv", halves.q)
    write_trace_csv(out / "d.csv", halves.d)

    build = _kind_builder(args, halves.d, anchors)
    ref_sigs, excluded_refs = _build_kind_signatures(build, halves.d)
    query_sigs, excluded_queries = _build_kind_signatures(build, halves.q)
    write_signatures_jsonl(out / "signatures_d.jsonl", sorted(ref_sigs.items()))
    write_signatures_jsonl(out / "signatures_q.jsonl", sorted(query_sigs.items()))

    run = link_signatures(
        query_sigs,
        ref_sigs,
        anchors if args.kind == "spatial" else None,
        engine=args.engine,
        k=args.k,
        m=args.m,
        capacity=args.capacity,
        excluded_queries=excluded_queries,
        excluded_references=excluded_refs,
    )
    write_results_csv(out / "results.csv", run)
    metrics = write_metrics_json(out / "metrics.json", run)
    _capture_config(out, "pipeline", args)
    print(f"pipeline: engine={args.engine} kind={args.kind} m={args.m} k={args.k}")
    _print_table(
        ["k", "acc"],
        [[kk, f"{metrics['acc'][str(kk)]:.4f}"] for kk in range(1, args.k + 1)],
    )
    _print_table(
        ["phase", "seconds"],
        [[phase, f"{secs:.3f}"] for phase, secs in run.timings.items()],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly


def _add_split_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--strategy",
        default="interleaved",
        choices=["interleaved", "serial", "random", "weekday-weekend"],
    )
    sub.add_argument("--q-days", type=int, default=None)
    sub.add_argument("--split-seed", type=int, default=0)
    sub.add_argument("--utc-offset", type=int, default=DEFAULT_UTC_OFFSET_HOURS)


def _add_kind_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--kind",
        default="spatial",
        choices=["spatial", "sequential", "temporal", "spatiotemporal"],
    )
    sub.add_argument("--q", type=int, default=2, help="gram length for sequential kind")
    sub.add_argument("--dt", type=int, default=None, help="interval hours, must divide 24")
    sub.add_argument("--grid", type=int, default=100, help="grid resolution per axis")


def build_parser() -> tuple[argparse.ArgumentParser, argparse._SubParsersAction]:
    parser = argparse.ArgumentParser(
        prog="siglink",
        description="Movement-signature linking of trajectory datasets.",
    )
    parser.add_argument("--config", default=None, help="key = value config file; flags win")
    subparsers = parser.add_subparsers(dest="verb")

    p = subparsers.add_parser("synth", help="generate a synthetic workload")
    p.add_argument("--out", required=True)
    p.add_argument("--n-objects", type=int, default=500)
    p.add_argument("--n-anchors", type=int, default=2000)
    p.add_argument("--locality-radius", type=float, default=0.05)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-days", type=int, default=30)
    p.add_argument("--personal-mass", type=float, default=0.35)
    p.add_argument("--personal-pool", type=int, default=40)
    p.add_argument("--hub-fraction", type=float, default=0.2)
    p.set_defaults(handler=_cmd_synth)

    p = subparsers.add_parser("ingest", help="calibrate raw GPS traces to anchors")
    p.add_argument("--out", required=True)
    p.add_argument("--raw", required=True)
    p.add_argument("--anchors", required=True)
    p.add_argument("--metric", default="haversine", choices=["haversine", "planar"])
    p.add_argument("--min-points", type=int, default=0)
    p.set_defaults(handler=_cmd_ingest)

    p = subparsers.add_parser("split", help="split calibrated traces into Q and D")
    p.add_argument("--out", required=True)
    p.add_argument("--traces", required=True)
    _add_split_flags(p)
    p.set_defaults(handler=_cmd_split)

    p = subparsers.add_parser("signature", help="build signatures from traces")
    p.add_argument("--out", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--anchors", default=None)
    p.add_argument("--corpus", default=None, help="traces CSV to take IDF statistics from")
    p.add_argument("--utc-offset", type=int, default=DEFAULT_UTC_OFFSET_HOURS)
    _add_kind_flags(p)
    p.set_defaults(handler=_cmd_signature)

    p = subparsers.add_parser("reduce", help="truncate signatures to their top-m dims")
    p.add_argument("--out", required=True)
    p.add_argument("--signatures", required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_cmd_reduce)

    p = subparsers.add_parser("index", help="build, extend, or check an index")
    index_sub = p.add_subparsers(dest="index_verb", required=True)
    b = index_sub.add_parser("build")
    b.add_argument("--out", required=True)
    b.add_argument("--signatures", required=True)
    b.add_argument("--anchors", required=True)
    b.add_argument("--capacity", type=int, default=32)
    b.set_defaults(handler=_cmd_index_build)
    i = index_sub.add_parser("insert")
    i.add_argument("--out", required=True)
    i.add_argument("--index", required=True)
    i.add_argument("--signatures", required=True)
    i.add_argument("--anchors", required=True)
    i.set_defaults(handler=_cmd_index_insert)
    v = index_sub.add_parser("validate")
    v.add_argument("--index", required=True)
    v.set_defaults(handler=_cmd_index_validate)

    p = subparsers.add_parser("link", help="batch k-NN of query signatures against references")
    p.add_argument("--out", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--anchors", default=None)
    p.add_argument("--engine", default="wrtree", choices=list(ENGINES))
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--capacity", type=int, default=32)
    p.set_defaults(handler=_cmd_link)

    p = subparsers.add_parser("eval", help="accuracy table from a results CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--results", required=True)
    p.add_argument(
        "--references", required=True,
        help="signature JSONL the run linked against; queries absent from it are not judged",
    )
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(handler=_cmd_eval)

    p = subparsers.add_parser("rerank", help="re-order results with larger signatures")
    p.add_argument("--out", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--queries-large", required=True)
    p.add_argument("--references-large", required=True)
    p.set_defaults(handler=_cmd_rerank)

    p = subparsers.add_parser("marry", help="stable-marriage refinement of two result sets")
    p.add_argument("--out", required=True)
    p.add_argument("--results-qd", required=True)
    p.add_argument("--results-dq", required=True)
    p.set_defaults(handler=_cmd_marry)

    p = subparsers.add_parser("closure", help="iterative signature suppression")
    p.add_argument("--out", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--anchors", required=True)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--engine", default="wrtree", choices=list(ENGINES))
    p.add_argument("--capacity", type=int, default=32)
    _add_split_flags(p)
    p.set_defaults(handler=_cmd_closure)

    p = subparsers.add_parser("pipeline", help="ingest -> split -> sign -> reduce -> index -> link -> score")
    p.add_argument("--out", required=True)
    p.add_argument("--synthetic", default=None, help="n=500[,anchors=2000,radius=0.05,points=200,seed=0]")
    p.add_argument("--raw", default=None)
    p.add_argument("--traces", default=None)
    p.add_argument("--anchors", default=None)
    p.add_argument("--metric", default="haversine", choices=["haversine", "planar"])
    p.add_argument("--min-points", type=int, default=0)
    p.add_argument("--engine", default="wrtree", choices=list(ENGINES))
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--capacity", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    _add_split_flags(p)
    _add_kind_flags(p)
    p.set_defaults(handler=_cmd_pipeline)

    return parser, subparsers


def _verb_parser(
    subparsers: argparse._SubParsersAction, words: list[str]
) -> argparse.ArgumentParser | None:
    """The parser of the verb the leading words name, descending into
    sub-verbs (``index build``); None if the words name no verb."""
    sub = None
    for word in words:
        if subparsers is None or word not in subparsers.choices:
            break
        sub = subparsers.choices[word]
        subparsers = next(
            (a for a in sub._actions if isinstance(a, argparse._SubParsersAction)), None
        )
    return sub


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        config_path = None
        words: list[str] = []
        skip_next = False
        for i, token in enumerate(argv):
            if skip_next:
                skip_next = False
                continue
            if token == "--config" and i + 1 < len(argv):
                config_path = argv[i + 1]
                skip_next = True
            elif token.startswith("--config="):
                config_path = token.split("=", 1)[1]
            elif token.startswith("-"):
                break
            else:
                words.append(token)
        if config_path:
            cfg = parse_config_file(config_path)
            sub = _verb_parser(subparsers, words)
            if sub is not None:
                _apply_config(sub, cfg)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        if not hasattr(args, "handler"):
            parser.print_help()
            return EXIT_CONFIG
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        # referenced paths must exist at validation time
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SiglinkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
