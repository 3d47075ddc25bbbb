"""Spans around siglink's public functions, recorded from outside the library.

A :class:`Tracer` replaces chosen module attributes (``siglink.linking.knn_search``
and the like) with wrappers that record one span per call: its name, the
index of the span that was open when it started (its parent) and its start
and end times. Each call site in siglink looks the function up in its own
module's namespace, so a function is wrapped once per module that calls it.
The originals are put back when the ``with`` block ends, even on error.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Sequence

# Counter hook: (tracer, call args, call result) -> None. It runs after the
# span has closed, so its cost lands in the caller's self time.
Hook = Callable[["Tracer", tuple, Any], None]


def _points(traces) -> int:
    return sum(len(t.points) for t in traces)


def _calibrated(tracer: "Tracer", args: tuple, trace: Any) -> None:
    tracer.add("traces.raw_fixes", len(args[1]))
    tracer.add("traces.points_kept", len(trace.points))


def _split(tracer: "Tracer", args: tuple, halves: Any) -> None:
    tracer.add("traces.split_points", _points(halves.q) + _points(halves.d))


def _ref_signatures(tracer: "Tracer", args: tuple, result: tuple) -> None:
    sigs, excluded, _stats = result
    tracer.add("signatures.built", len(sigs))
    tracer.add("signatures.excluded", len(excluded))


def _query_signature(tracer: "Tracer", args: tuple, sig: Any) -> None:
    tracer.add("signatures.built" if sig is not None else "signatures.excluded", 1)


def _spatial_signature(tracer: "Tracer", args: tuple, sig: Any) -> None:
    tracer.add("signatures.built", 1)


def _kept_tree(tracer: "Tracer", args: tuple, tree: Any) -> None:
    tracer.trees.append(tree)


def _linked(tracer: "Tracer", args: tuple, run: Any) -> None:
    tracer.add("linking.results_empty", sum(1 for res in run.results.values() if not res))


def _married(tracer: "Tracer", args: tuple, matching: Any) -> None:
    tracer.add("linking.marry_proposals", matching.n_proposals)


def _closed(tracer: "Tracer", args: tuple, result: tuple) -> None:
    tracer.add("privacy.points_removed", _points(args[0]) - _points(result[0]))


# (module, attribute, span name, counter hook). A function the benchmark
# calls is wrapped in the ``siglink`` package namespace it is called through;
# a function siglink calls internally is wrapped in the calling module.
# Targets a later version of siglink no longer has are skipped and listed in
# ``Tracer.missing``.
PATCHES: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("siglink", "generate_synthetic", "synth.generate", None),
    ("siglink", "calibrate_trace", "traces.calibrate", _calibrated),
    ("siglink", "split_dataset", "traces.split", _split),
    ("siglink.privacy", "split_dataset", "traces.split", _split),
    ("siglink.linking", "reference_signatures", "signatures.ref", _ref_signatures),
    ("siglink.linking", "query_signature", "signatures.query", _query_signature),
    ("siglink.linking", "build_corpus_stats", "signatures.stats", None),
    ("siglink.privacy", "build_corpus_stats", "signatures.stats", None),
    ("siglink.privacy", "build_spatial_signature", "signatures.spatial", _spatial_signature),
    ("siglink", "cut_reduce", "reduction.cut_reduce", None),
    ("siglink.linking", "cut_reduce", "reduction.cut_reduce", None),
    ("siglink.privacy", "cut_reduce", "reduction.cut_reduce", None),
    ("siglink", "mbr_of", "reduction.mbr", None),
    ("siglink.linking", "mbr_of", "reduction.mbr", None),
    ("siglink", "bulk_load", "wrtree.build", _kept_tree),
    ("siglink.linking", "bulk_load", "wrtree.build", _kept_tree),
    ("siglink", "insert", "wrtree.insert", None),
    ("siglink", "knn_search", "wrtree.knn", None),
    ("siglink.linking", "knn_search", "wrtree.knn", None),
    ("siglink", "link_all", "linking.link_all", _linked),
    ("siglink.privacy", "link_all", "linking.link_all", _linked),
    ("siglink.linking", "link_signatures", "linking.link_signatures", None),
    ("siglink", "stable_marriage", "linking.marry", _married),
    ("siglink", "signature_closure", "privacy.closure", _closed),
    ("siglink.privacy", "utility_metrics", "privacy.utility", None),
)

# (name, parent index or -1, start, end)
Span = tuple[str, int, float, float]


class Tracer:
    """Records spans and counters while its ``with`` block has siglink patched."""

    def __init__(self, patches: Sequence[tuple[str, str, str, Hook | None]] = PATCHES):
        self.patches = patches
        self.spans: list[Span | None] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.trees: list[Any] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] += value

    def reset(self) -> None:
        """Forget recorded spans, counters and trees; patches stay in place."""
        self.spans.clear()
        self.counters.clear()
        self.trees.clear()
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        self.missing = []
        try:
            for module_name, attr, span_name, hook in self.patches:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name, hook))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn: Callable, name: str, hook: Hook | None) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_n, _p, start, end) in enumerate(spans)]


def summarize(spans: Sequence[Span]) -> tuple[dict[str, float], dict[str, list[float]], float]:
    """Per-name self time, per-name call durations, and the time covered by
    root spans (those opened while no other span was open)."""
    self_by_name: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    covered = 0.0
    for span, own in zip(spans, self_times(spans)):
        name, parent, start, end = span
        self_by_name[name] += own
        durations[name].append(end - start)
        if parent < 0:
            covered += end - start
    return dict(self_by_name), dict(durations), covered
