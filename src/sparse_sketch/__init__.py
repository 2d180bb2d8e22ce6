"""Beyond-worst-case dimensionality reduction for sparse non-negative
vectors: max-pool hash embeddings, the linear sum-hash baseline, probes for
the matching lower bounds, and downstream geometric applications."""

from .embeddings import (
    EmbedParams,
    StackedEmbedding,
    estimate_distance,
    estimate_sum_norm,
    plan_params,
    stack_embed,
)
from .errors import (
    DimensionMismatch,
    EmbeddingMismatch,
    InternalCheckError,
    NonNegativeRequired,
    ParseError,
    PreconditionColumns,
    PreconditionError,
    PreconditionShape,
    SketchError,
)
from .hashing import HashSpec, hash_bucket, mix64
from .vectors import (
    INF,
    Dataset,
    SparseVector,
    diff_vectors,
    lp_dist,
    lp_norm,
    sum_vectors,
)

__version__ = "0.1.0"

__all__ = [
    "EmbedParams", "StackedEmbedding", "estimate_distance", "estimate_sum_norm", "plan_params",
    "stack_embed",
    "DimensionMismatch", "EmbeddingMismatch", "InternalCheckError", "NonNegativeRequired",
    "ParseError", "PreconditionColumns", "PreconditionError",
    "PreconditionShape", "SketchError",
    "HashSpec", "hash_bucket", "mix64",
    "INF", "Dataset", "SparseVector", "diff_vectors", "lp_dist", "lp_norm", "sum_vectors",
]
