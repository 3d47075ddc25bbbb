"""Command-line front end.

Every verb wraps one library stage, validates its configuration (exit code 2
on bad config, 1 on runtime failure), writes machine-readable artifacts into
the output directory, captures the resolved configuration there, and prints a
console table.

Each flag's rule lives in the parser: a ranged flag carries its range as its
argparse type. `--config FILE` names a flat `key = value` document ('#'
starts a comment) whose keys are read as long flags (`_` read as `-`) placed
right after the verb, so a file meets the same checks as the command
line and a flag typed on the line wins. Flags and keys are spelled in full.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import astuple
from pathlib import Path

from .errors import ConfigError, SiglinkError
from .linking import (
    ENGINES,
    LinkingRun,
    accuracies,
    link_signatures,
    matching_accuracy,
    read_results_csv,
    rerank,
    run_metrics,
    stable_marriage,
    write_results_csv,
)
from .privacy import signature_closure
from .reduction import cut_table
from .signatures import (
    KIND_SPATIAL,
    Corpus,
    SignatureTable,
    check_dt,
    kind_corpus,
    read_signatures_jsonl,
    temporal_histograms,
    tfidf_signatures,
    write_signatures_jsonl,
)
from .synth import generate_synthetic
from .traces import (
    DEFAULT_UTC_OFFSET_HOURS,
    SplitResult,
    SplitStrategy,
    Trace,
    _utf8_text,
    calibrate_trace,
    filter_min_points,
    read_anchor_csv,
    read_raw_csv,
    read_trace_csv,
    split_dataset,
    write_anchor_csv,
    write_csv,
    write_json,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


# ---------------------------------------------------------------------------
# Shared plumbing


# keys config.used records besides the verb's own flags, spelled as flags
_CAPTURED_KEYS = {"verb"}


def _config_flags(path: str) -> list[str]:
    """The `key = value` lines of a config file as `--key=value` flags."""
    if not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = _utf8_text(path)
    except ValueError as exc:  # names the file and line
        raise ConfigError(str(exc)) from None
    flags = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if key not in _CAPTURED_KEYS:
            flags.append(f"--{key}={value.strip()}")
    return flags


def _with_config(argv: list[str]) -> list[str]:
    """argv with `--config FILE` taken out and the file's flags put in right
    after the verb, where a flag typed later on the line wins."""
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path, rest = argv[i + 1], argv[:i] + argv[i + 2:]
        elif token.startswith("--config="):
            path, rest = token.partition("=")[2], argv[:i] + argv[i + 1:]
        else:
            continue
        n_words = next((j for j, t in enumerate(rest) if t.startswith("-")), len(rest))
        return rest[:n_words] + _config_flags(path) + rest[n_words:]
    return argv


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _capture_config(args: argparse.Namespace) -> None:
    lines = [f"verb = {args.verb}"]
    for key in sorted(vars(args)):
        if key in ("handler", "verb"):
            continue
        value = getattr(args, key)
        if value is None or callable(value):
            continue
        lines.append(f"{key} = {value}")
    (Path(args.out) / "config.used").write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    if name in ("serial", "random"):
        if args.q_days is None:
            raise ConfigError(f"--q-days is required for the {name} split")
        if name == "serial":
            return SplitStrategy.serial(args.q_days)
        return SplitStrategy.random(args.q_days, args.split_seed)
    return SplitStrategy(name)


def _require_dt(args: argparse.Namespace) -> None:
    if args.kind in ("temporal", "spatiotemporal") and args.dt is None:
        raise ConfigError(f"the {args.kind} kind needs --dt")


def _check_anchor_ids(path: str, tops, args: argparse.Namespace, anchors) -> None:
    """Refuse an object of ``path`` that names an anchor id beyond
    ``--anchors``; ``tops`` holds each object's id and largest anchor id."""
    for oid, top in tops:
        if top >= len(anchors):
            raise SiglinkError(
                f"{path}: object {oid!r} names anchor {top},"
                f" beyond the {len(anchors)} anchors of {args.anchors}"
            )


def _read_traces(path: str, args: argparse.Namespace, anchors=None) -> list[Trace]:
    traces = read_trace_csv(path)
    if anchors is not None:
        tops = ((t.object_id, int(t.anchor_ids.max())) for t in traces if len(t))
        _check_anchor_ids(path, tops, args, anchors)
    return traces


def _read_signatures(path: str, args: argparse.Namespace, anchors=None) -> SignatureTable:
    """The signatures of ``path`` (see ``read_signatures_jsonl``); spatial
    ones are checked against ``anchors`` when given."""
    sigs = read_signatures_jsonl(path)
    if anchors is not None and sigs.kind == KIND_SPATIAL:
        tops = sigs.dims[sigs.indptr[1:] - 1].tolist()  # a row's dims ascend
        _check_anchor_ids(path, zip(sigs.ids, tops), args, anchors)
    return sigs


def _calibrated(args: argparse.Namespace, anchors) -> list[Trace]:
    raw = read_raw_csv(args.raw)
    return [calibrate_trace(oid, pts, anchors) for oid, pts in raw.items()]


def _split_to(out: Path, traces: list[Trace], args: argparse.Namespace) -> SplitResult:
    halves = split_dataset(traces, _strategy(args), utc_offset_hours=args.utc_offset)
    write_trace_csv(out / "q.csv", halves.q)
    write_trace_csv(out / "d.csv", halves.d)
    return halves


def _link_to(out: Path, args, queries, references, anchors, timings, excluded=((), ())):
    """Link by the link flags and write results.csv, metrics.json and the
    accuracy table. ``timings`` lead the run's phases; ``excluded`` holds the
    query and reference ids left without a signature."""
    run = link_signatures(
        queries, references, anchors, engine=args.engine, k=args.k, m=args.m,
        capacity=args.capacity, excluded_queries=excluded[0], excluded_references=excluded[1],
    )
    run.timings = {**timings, **run.timings}
    write_results_csv(out / "results.csv", run)
    metrics = run_metrics(run)
    write_json(out / "metrics.json", metrics)
    _print_table(["k", "acc"], [[kk, f"{acc:.4f}"] for kk, acc in metrics["acc"].items()])
    return run


def _file_run(results: dict, k: int, reference_ids: set[str]) -> LinkingRun:
    """A run read back from a results file."""
    return LinkingRun(
        engine="file", k=k, reduced_m=None, results=results, timings={},
        excluded_queries=[], excluded_references=[], reference_ids=reference_ids,
    )


# ---------------------------------------------------------------------------
# Verb handlers


def _cmd_synth(args: argparse.Namespace) -> None:
    out = _out_dir(args)
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
    write_json(out / "meta.json", meta)
    print(f"wrote {len(traces)} traces over {len(anchors)} anchors to {out}")


def _cmd_ingest(args: argparse.Namespace) -> None:
    out = _out_dir(args)
    traces = _calibrated(args, read_anchor_csv(args.anchors))
    before = len(traces)
    traces = filter_min_points(traces, args.min_points)
    write_trace_csv(out / "calibrated.csv", traces)
    report = {
        "objects_in": before,
        "objects_kept": len(traces),
        "min_points": args.min_points,
        "total_points": sum(len(t) for t in traces),
    }
    write_json(out / "ingest_report.json", report)
    print(f"calibrated {len(traces)}/{before} objects into {out / 'calibrated.csv'}")


def _cmd_split(args: argparse.Namespace) -> None:
    out = _out_dir(args)
    traces = read_trace_csv(args.traces)
    result = _split_to(out, traces, args)
    report = {
        "strategy": args.strategy,
        "objects": len(traces),
        "flagged_empty_half": sorted(result.flagged),
    }
    write_json(out / "split_report.json", report)
    print(
        f"split {len(traces)} objects into {out / 'q.csv'} / {out / 'd.csv'}"
        f" ({len(result.flagged)} flagged with an empty half)"
    )


def _kind_corpus(args: argparse.Namespace, anchors) -> Corpus:
    return kind_corpus(
        args.kind,
        q=args.q,
        anchors=anchors,
        g=args.grid,
        dt_hours=args.dt,
        utc_offset_hours=args.utc_offset,
    )


def _cmd_signature(args: argparse.Namespace) -> None:
    out = _out_dir(args)
    _require_dt(args)
    if args.kind == "temporal" and args.corpus:
        raise ConfigError("the temporal kind takes no --corpus")
    if args.kind == "spatiotemporal" and not args.anchors:
        raise ConfigError("spatiotemporal signatures need --anchors")
    anchors = read_anchor_csv(args.anchors) if args.anchors else None
    traces = _read_traces(args.traces, args, anchors)
    if args.kind == "temporal":
        bins = temporal_histograms(traces, args.dt, args.utc_offset).tolist()
        lines = [
            json.dumps({"object_id": t.object_id, "dt_hours": args.dt, "bins": b}) + "\n"
            for t, b in zip(traces, bins)
            if len(t)
        ]
        path = out / "histograms.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        print(f"wrote {len(lines)} temporal histograms to {path}")
        return
    corpus = _kind_corpus(args, anchors)
    if args.corpus:
        _, _, corpus = tfidf_signatures(_read_traces(args.corpus, args, anchors), corpus)
    sigs, excluded, _ = tfidf_signatures(traces, corpus)
    path = out / "signatures.jsonl"
    write_signatures_jsonl(path, sigs)
    print(f"wrote {len(sigs)} {args.kind} signatures to {path} ({len(excluded)} excluded)")


def _cmd_reduce(args: argparse.Namespace) -> None:
    out = _out_dir(args)
    reduced = cut_table(_read_signatures(args.signatures, args), args.m)
    path = out / "signatures.jsonl"
    write_signatures_jsonl(path, reduced)
    print(f"reduced {len(reduced)} signatures to top-{args.m} at {path}")


def _cmd_link(args: argparse.Namespace) -> None:
    out = _out_dir(args)
    anchors = read_anchor_csv(args.anchors) if args.anchors else None
    queries = _read_signatures(args.queries, args, anchors)
    references = _read_signatures(args.references, args, anchors)
    _link_to(out, args, queries, references, anchors, {})


def _cmd_eval(args: argparse.Namespace) -> None:
    out = _out_dir(args)
    references = set(read_signatures_jsonl(args.references))
    run = _file_run(read_results_csv(args.results), args.k, references)
    acc = {str(kk): v for kk, v in accuracies(run).items()}
    write_json(out / "eval.json", {"acc": acc})
    _print_table(["k", "acc"], [[kk, f"{v:.4f}"] for kk, v in acc.items()])


def _cmd_rerank(args: argparse.Namespace) -> None:
    out = _out_dir(args)
    results = read_results_csv(args.results)
    run = _file_run(
        results,
        max((len(r) for r in results.values()), default=1),
        {c for res in results.values() for c, _ in res},
    )
    reranked = rerank(
        run,
        _read_signatures(args.queries_large, args),
        _read_signatures(args.references_large, args),
    )
    write_results_csv(out / "results.csv", reranked)
    print(f"reranked {len(results)} result lists -> {out / 'results.csv'}")


def _cmd_marry(args: argparse.Namespace) -> None:
    out = _out_dir(args)
    qd = read_results_csv(args.results_qd)
    dq = read_results_csv(args.results_dq)
    matching = stable_marriage(qd, dq)
    stable, fallback = matching.stable_pairs, matching.fallback_pairs
    records = [[q, stable[q], "stable"] for q in sorted(stable)]
    records += [[q, fallback[q], "fallback"] for q in sorted(fallback)]
    records += [[q, "", "unmatched"] for q in sorted(matching.unmatched)]
    write_csv(out / "matching.csv", ["query_id", "candidate_id", "phase"], records)
    summary = {
        "accuracy": matching_accuracy(matching),
        "stable": len(matching.stable_pairs),
        "fallback": len(matching.fallback_pairs),
        "unmatched": len(matching.unmatched),
        "proposals": matching.n_proposals,
        "fallback_collisions": matching.fallback_collisions(),
    }
    write_json(out / "marry.json", summary)
    print(
        f"matched {summary['stable']} stable / {summary['fallback']} fallback"
        f" / {summary['unmatched']} unmatched; accuracy {summary['accuracy']:.4f}"
    )


def _cmd_closure(args: argparse.Namespace) -> None:
    out = _out_dir(args)
    anchors = read_anchor_csv(args.anchors)
    traces = _read_traces(args.traces, args, anchors)
    modified, report = signature_closure(
        traces,
        anchors,
        m=args.m,
        rounds=args.rounds,
        split=_strategy(args),
        engine=args.engine,
        k=args.k,
        capacity=args.capacity,
        utc_offset_hours=args.utc_offset,
    )
    write_trace_csv(out / "traces.csv", modified)
    write_json(out / "closure.json", report.summary())
    header = ["round", "acc1", "acc_k", "data_remain", "mbr_overlap", "grid_large", "grid_small"]
    records = [[0, report.baseline_accuracy[1], report.baseline_accuracy[args.k], *[1.0] * 4]]
    for r in report.rounds:
        records.append([r.round_no, r.accuracy[1], r.accuracy[args.k], *astuple(r.utility)])
    write_csv(out / "closure.csv", header, records)
    _print_table(
        ["round", "acc@1", "data_remain", "grid_small"],
        [[no, f"{acc1:.4f}", f"{remain:.3f}", f"{small:.3f}"]
         for no, acc1, _, remain, _, _, small in records],
    )


def _pipeline_traces(args: argparse.Namespace):
    if args.synthetic:
        params = _synthetic_params(args.synthetic)
        n = params["n"]
        return generate_synthetic(
            n,
            params.get("anchors", max(1000, 4 * n)),
            params.get("radius", 0.05),
            params.get("points", 200),
            seed=params.get("seed", 0),
        )
    if not args.anchors:
        raise ConfigError("pipeline needs --synthetic or --anchors with --raw/--traces")
    anchors = read_anchor_csv(args.anchors)
    if args.raw:
        traces = _calibrated(args, anchors)
    elif args.traces:
        traces = _read_traces(args.traces, args, anchors)
    else:
        raise ConfigError("pipeline needs one of --synthetic, --raw, or --traces")
    return traces, anchors


def _cmd_pipeline(args: argparse.Namespace) -> None:
    out = _out_dir(args)
    if args.kind == "temporal":
        raise ConfigError(
            "temporal histograms are compared with EMD and have no k-NN engine;"
            " use the signature verb to export them"
        )
    _require_dt(args)

    traces, anchors = _pipeline_traces(args)
    if args.min_points:
        traces = filter_min_points(traces, args.min_points)
    if args.synthetic:
        write_anchor_csv(out / "anchors.csv", anchors)

    halves = _split_to(out, traces, args)

    t0 = time.perf_counter()
    ref_sigs, excluded_refs, corpus = tfidf_signatures(halves.d, _kind_corpus(args, anchors))
    query_sigs, excluded_queries, _ = tfidf_signatures(halves.q, corpus)
    sig_s = time.perf_counter() - t0
    # `link` refuses a signature file with no record, so none is written
    for side, half, sigs in (("reference", "d", ref_sigs), ("query", "q", query_sigs)):
        if not len(sigs):
            raise SiglinkError(
                f"no {side} signature: every object of {out / half}.csv is excluded"
            )
    write_signatures_jsonl(out / "signatures_d.jsonl", ref_sigs)
    write_signatures_jsonl(out / "signatures_q.jsonl", query_sigs)

    print(f"pipeline: engine={args.engine} kind={args.kind} m={args.m} k={args.k}")
    run = _link_to(out, args, query_sigs, ref_sigs, anchors, {"signatures": sig_s},
                   (excluded_queries, excluded_refs))
    _print_table(
        ["phase", "seconds"],
        [[phase, f"{secs:.3f}"] for phase, secs in run.timings.items()],
    )


# ---------------------------------------------------------------------------
# Parser assembly


def _number(raw: str, number):
    try:
        return number(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {number.__name__}, got {raw!r}") from None


def _at_least(low, number=int):
    """An argparse type: a `number` no smaller than `low`."""

    def parse(raw: str):
        value = _number(raw, number)
        if not value >= low:  # refuses nan too
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {raw}")
        return value

    return parse


def _between(low, high, number=int):
    """An argparse type: a `number` in [low, high]."""

    def parse(raw: str):
        value = _number(raw, number)
        if not low <= value <= high:  # refuses nan too
            raise argparse.ArgumentTypeError(f"must be in [{low}, {high}], got {raw}")
        return value

    return parse


_POSITIVE = _at_least(1)
# bulk_load's rule: a node holds at least two children
_CAPACITY = _at_least(2)
_RADIUS = _at_least(0.0, float)
_FRACTION = _between(0, 1, float)
# whole hours east of UTC, from the westernmost to the easternmost zone
_UTC_OFFSET = _between(-12, 14)


def _dt(raw: str) -> int:
    try:
        return check_dt(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# the --synthetic keys and each one's rule
_SYNTHETIC_KEYS = {
    "n": _POSITIVE,
    "anchors": _POSITIVE,
    "radius": _RADIUS,
    "points": _POSITIVE,
    "seed": _at_least(0),
}


def _synthetic_params(spec: str) -> dict:
    params = {}
    for part in filter(None, spec.split(",")):
        key, eq, value = (s.strip() for s in part.partition("="))
        if not eq:
            raise argparse.ArgumentTypeError(f"expects key=value pairs, got {part!r}")
        if key not in _SYNTHETIC_KEYS:
            raise argparse.ArgumentTypeError(
                f"unknown key {key!r} (keys: {', '.join(_SYNTHETIC_KEYS)})"
            )
        try:
            params[key] = _SYNTHETIC_KEYS[key](value)
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(f"{key}: {exc}") from None
    if "n" not in params:
        raise argparse.ArgumentTypeError("needs at least n=<objects>")
    return params


def _synthetic(spec: str) -> str:
    """--synthetic's type: the spec is checked and kept as typed, so
    config.used records it as it was given."""
    _synthetic_params(spec)
    return spec


class _Parser(argparse.ArgumentParser):
    """A parser that refuses abbreviated flags; the parsers of its verbs are
    built from this class too."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)


def _add_split_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--strategy",
        default="interleaved",
        choices=["interleaved", "serial", "random", "weekday-weekend"],
    )
    sub.add_argument("--q-days", type=_POSITIVE, default=None)
    sub.add_argument("--split-seed", type=int, default=0)
    sub.add_argument("--utc-offset", type=_UTC_OFFSET, default=DEFAULT_UTC_OFFSET_HOURS)


def _add_kind_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--kind",
        default="spatial",
        choices=["spatial", "sequential", "temporal", "spatiotemporal"],
    )
    sub.add_argument("--q", type=_POSITIVE, default=2, help="gram length for sequential kind")
    sub.add_argument("--dt", type=_dt, default=None, help="interval hours, must divide 24")
    sub.add_argument("--grid", type=_POSITIVE, default=100, help="grid resolution per axis")


def _verb(subparsers, name: str, handler, **kwargs) -> argparse.ArgumentParser:
    """The parser of verb ``name``, run by ``handler``. Every verb writes
    files and takes a required ``--out`` as its first flag."""
    p = subparsers.add_parser(name, **kwargs)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="siglink",
        description="Movement-signature linking of trajectory datasets.",
        epilog="--config FILE reads the file's `key = value` lines as flags"
        " placed after the verb; flags typed on the line win.",
    )
    subparsers = parser.add_subparsers(dest="verb")

    p = _verb(subparsers, "synth", _cmd_synth, help="generate a synthetic workload")
    p.add_argument("--n-objects", type=_POSITIVE, default=500)
    p.add_argument("--n-anchors", type=_POSITIVE, default=2000)
    p.add_argument("--locality-radius", type=_RADIUS, default=0.05)
    p.add_argument("--points", type=_POSITIVE, default=200)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--n-days", type=_POSITIVE, default=30)
    p.add_argument("--personal-mass", type=_FRACTION, default=0.35)
    p.add_argument("--personal-pool", type=_POSITIVE, default=40)
    p.add_argument("--hub-fraction", type=_FRACTION, default=0.2)

    p = _verb(subparsers, "ingest", _cmd_ingest, help="calibrate raw GPS traces to anchors")
    p.add_argument("--raw", required=True)
    p.add_argument("--anchors", required=True)
    p.add_argument("--min-points", type=_at_least(0), default=0)

    p = _verb(subparsers, "split", _cmd_split, help="split calibrated traces into Q and D")
    p.add_argument("--traces", required=True)
    _add_split_flags(p)

    p = _verb(subparsers, "signature", _cmd_signature, help="build signatures from traces")
    p.add_argument("--traces", required=True)
    p.add_argument("--anchors", default=None)
    p.add_argument("--corpus", default=None, help="traces CSV to take IDF statistics from")
    p.add_argument("--utc-offset", type=_UTC_OFFSET, default=DEFAULT_UTC_OFFSET_HOURS)
    _add_kind_flags(p)

    p = _verb(subparsers, "reduce", _cmd_reduce, help="truncate signatures to their top-m dims")
    p.add_argument("--signatures", required=True)
    p.add_argument("--m", type=_POSITIVE, required=True)

    p = _verb(subparsers, "link", _cmd_link,
              help="batch k-NN of query signatures against references")
    p.add_argument("--queries", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--anchors", default=None)
    p.add_argument("--engine", default="wrtree", choices=list(ENGINES))
    p.add_argument("--k", type=_POSITIVE, default=5)
    p.add_argument("--m", type=_POSITIVE, default=None)
    p.add_argument("--capacity", type=_CAPACITY, default=32)

    p = _verb(subparsers, "eval", _cmd_eval, help="accuracy table from a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument(
        "--references", required=True,
        help="signature JSONL the run linked against; queries absent from it are not judged",
    )
    p.add_argument("--k", type=_POSITIVE, default=5)

    p = _verb(subparsers, "rerank", _cmd_rerank, help="re-order results with larger signatures")
    p.add_argument("--results", required=True)
    p.add_argument("--queries-large", required=True)
    p.add_argument("--references-large", required=True)

    p = _verb(subparsers, "marry", _cmd_marry,
              help="stable-marriage refinement of two result sets")
    p.add_argument("--results-qd", required=True)
    p.add_argument("--results-dq", required=True)

    p = _verb(subparsers, "closure", _cmd_closure, help="iterative signature suppression")
    p.add_argument("--traces", required=True)
    p.add_argument("--anchors", required=True)
    p.add_argument("--m", type=_POSITIVE, default=10)
    p.add_argument("--rounds", type=_POSITIVE, default=1)
    p.add_argument("--k", type=_POSITIVE, default=5)
    p.add_argument("--engine", default="wrtree", choices=list(ENGINES))
    p.add_argument("--capacity", type=_CAPACITY, default=32)
    _add_split_flags(p)

    p = _verb(subparsers, "pipeline", _cmd_pipeline,
              help="ingest -> split -> sign -> reduce -> index -> link -> score")
    p.add_argument(
        "--synthetic", type=_synthetic, default=None,
        help="n=500[,anchors=2000,radius=0.05,points=200,seed=0]",
    )
    p.add_argument("--raw", default=None)
    p.add_argument("--traces", default=None)
    p.add_argument("--anchors", default=None)
    p.add_argument("--min-points", type=_at_least(0), default=0)
    p.add_argument("--engine", default="wrtree", choices=list(ENGINES))
    p.add_argument("--m", type=_POSITIVE, default=10)
    p.add_argument("--k", type=_POSITIVE, default=5)
    p.add_argument("--capacity", type=_CAPACITY, default=32)
    _add_split_flags(p)
    _add_kind_flags(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(_with_config(argv))
        except SystemExit as exc:
            return int(exc.code or 0)
        if not hasattr(args, "handler"):
            parser.print_help()
            return EXIT_CONFIG
        # a handler that returns has succeeded; failures raise
        args.handler(args)
        _capture_config(args)
        return EXIT_OK
    except (ConfigError, FileNotFoundError) as exc:
        # referenced paths must exist at validation time
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SiglinkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
