"""Check that siglink loads scipy's KD-tree module only to calibrate raw fixes.

Run it as a script with the siglink to be checked on the path:

    python tests/scipy_spatial_probe.py

It imports siglink and its CLI, then generates, splits, links and closes a
small synthetic workload, and fails if ``scipy.spatial`` is loaded by then.
It then calibrates one raw trace and fails unless that loaded the module.
It prints one line and exits 0 when both hold.
"""

import sys

import siglink
import siglink.cli  # noqa: F401  (the CLI's imports count too)


def main() -> int:
    traces, anchors = siglink.generate_synthetic(40, 160, 0.1, 60, seed=2)
    halves = siglink.split_dataset(traces, siglink.SplitStrategy.interleaved())
    siglink.link_all(halves.q, halves.d, anchors)
    siglink.signature_closure(traces, anchors)
    if "scipy.spatial" in sys.modules:
        print("scipy.spatial was loaded before any calibration", file=sys.stderr)
        return 1
    raw = [siglink.RawPoint(0.5, 0.5, 0), siglink.RawPoint(0.2, 0.7, 60)]
    siglink.calibrate_trace("o", raw, anchors)
    if "scipy.spatial" not in sys.modules:
        print("calibrate_trace did not load scipy.spatial", file=sys.stderr)
        return 1
    print(f"scipy.spatial loaded only on calibration ({siglink.__file__})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
