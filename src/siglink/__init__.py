"""siglink: movement-signature extraction, weighted R-tree indexing, and
k-NN entity linking across trajectory datasets."""

from .errors import ConfigError, EmptySignatureError, EmptyTraceError, SiglinkError
from .traces import (
    AnchorSet,
    RawPoint,
    SplitResult,
    SplitStrategy,
    Trace,
    TraceTable,
    calibrate_trace,
    filter_min_points,
    split_dataset,
)
from .synth import generate_synthetic
from .signatures import (
    Corpus,
    Signature,
    cosine_similarity,
    emd,
    emd_similarity,
    kind_corpus,
    temporal_cost,
    tfidf_signatures,
)
from .reduction import Mbr, cut_reduce, mbr_of
from .wrtree import (
    WrTree,
    aggregate_signatures,
    bulk_load,
    insert,
    knn_search,
    linear_knn,
    merge_node,
    rtree_baseline_knn,
    validate,
)
from .linking import (
    LinkingRun,
    Matching,
    accuracy_at_k,
    build_corpus_stats,
    build_spatial_signature,
    link_all,
    matching_accuracy,
    rerank,
    stable_marriage,
)
from .privacy import ClosureReport, UtilityMetrics, signature_closure, utility_metrics

__version__ = "0.1.0"

__all__ = [
    "AnchorSet",
    "ClosureReport",
    "ConfigError",
    "Corpus",
    "EmptySignatureError",
    "EmptyTraceError",
    "LinkingRun",
    "Matching",
    "Mbr",
    "RawPoint",
    "Signature",
    "SiglinkError",
    "SplitResult",
    "SplitStrategy",
    "Trace",
    "TraceTable",
    "UtilityMetrics",
    "WrTree",
    "accuracy_at_k",
    "aggregate_signatures",
    "build_corpus_stats",
    "build_spatial_signature",
    "bulk_load",
    "calibrate_trace",
    "cosine_similarity",
    "cut_reduce",
    "emd",
    "emd_similarity",
    "filter_min_points",
    "generate_synthetic",
    "insert",
    "kind_corpus",
    "knn_search",
    "linear_knn",
    "link_all",
    "matching_accuracy",
    "mbr_of",
    "merge_node",
    "rerank",
    "rtree_baseline_knn",
    "signature_closure",
    "split_dataset",
    "stable_marriage",
    "temporal_cost",
    "tfidf_signatures",
    "utility_metrics",
    "validate",
]
