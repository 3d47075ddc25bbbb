"""Run one siglink benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout: the siglink under ``src/`` is the one
measured. It prints one line per metric (name, value, unit), a JSON line with
the run record and every other measured number, and, as its last line, the
JSON result ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they are
the per-layer ones from traced jobs, and the spans of the last traced job are
written to ``perfbench/out/``. A failed check shows as ``"correct": false``
with exit code 0; the exit code is 2 when siglink cannot be imported from the
checkout, and then no result is printed.
"""

from __future__ import annotations

import os

# Each workload is one single-threaded process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_siglink(root: Path):
    """Import siglink from ``root/src`` and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import siglink

    if src.resolve() not in Path(siglink.__file__).resolve().parents:
        raise ImportError(f"siglink was imported from {siglink.__file__}, not {src}")
    return siglink


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    start = time.perf_counter()
    try:
        import_siglink(ROOT)
    except ImportError as exc:
        print(f"perfbench: cannot import siglink from the checkout: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    from harness import run_workload, unit_of
    from workloads import WORKLOADS

    args = parse_args(argv)
    parts = WORKLOADS[args.workload].parts(args.seed)
    res = run_workload(parts, args.seconds, bool(args.trace), import_s, ROOT)

    for name, value in res["metrics"].items():
        print(f"{name:32s} {value:>16.6g} {unit_of(name)}")
    for message in res["failures"]:
        print(f"FAILED: {message}")
    report = {"record": res["record"], "detail": res["detail"]}
    print(json.dumps(report, sort_keys=True))
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{args.workload}-seed{args.seed}-trace.json"
        path.write_text(json.dumps({**report, "spans": res["spans"]}) + "\n")
    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in res["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
