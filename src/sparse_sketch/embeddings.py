"""Hash-and-pool embeddings: the linear sum map, the max-pool map, stacks.

Two pooling rules over the same bucket hash:

* sum pooling (``BirthdayMap``): linear; collision-free with high
  probability once the bucket count is quadratic in the sparsity.
* max pooling (``MaxHashMap``): non-linear; never expands distances
  between non-negative vectors, at any bucket count.

Every max pool runs one kernel, ``pairwise._max_pool_keys``: it is
``landed_buckets`` (the sparse image of one copy) and ``max_pool`` scatters
it into a dense row. ``pairwise.stacked_image`` is the one stacking
function; ``stack_embed`` scatters it into a dense row.

A ``StackedEmbedding`` concatenates independent max-pool copies; the
parameter planner turns (mode, sparsity, dataset size, accuracy) into a
concrete (bucket count m, copy count T). The planner's leading constants
are this library's choices, fixed so the desk-scale guarantees hold with
margin.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import EmbeddingMismatch, ParseError, PreconditionError
from .hashing import HashSpec, bucket_array
from .pairwise import _max_pool_keys, pair_copy_tables, stacked_image
from .vectors import INF, SparseVector, _check_p, require_nonneg

MODES = ("all-p", "linf-exact", "sum-linf", "discrete")

# Largest float64 array (2^26 cells, 512 MiB) a stacked row, the
# estimator's tables or a diameter sketch may take; the tests and
# benchmarks stay below 2^22.
CELL_BUDGET = 1 << 26


def require_cells(cells: int, what: str) -> None:
    """PreconditionError unless `cells` fits in CELL_BUDGET."""
    if cells > CELL_BUDGET:
        raise PreconditionError(f"{what} needs {cells} cells, above the budget of {CELL_BUDGET}")


def sum_pool(buckets, values, m: int) -> np.ndarray:
    """Dense length-m vector whose bucket b holds the sum of landed values."""
    out = np.zeros(m, dtype=np.float64)
    np.add.at(out, np.asarray(buckets, dtype=np.int64), np.asarray(values, dtype=np.float64))
    return out


def _scatter(keys: np.ndarray, values: np.ndarray, width: int) -> np.ndarray:
    """Dense length-`width` row of a sparse image: `values` at `keys`, 0 elsewhere."""
    out = np.zeros(width, dtype=np.float64)
    out[keys] = values
    return out


def max_pool(buckets, values, m: int) -> np.ndarray:
    """Dense length-m vector whose bucket b holds the max of landed support
    values, 0 when no support lands there.

    The max is over stored (non-zero) values only, so a bucket receiving a
    single negative value reports that negative value, not 0.
    """
    return _scatter(*_max_pool_keys(np.asarray(buckets, dtype=np.int64),
                                   np.asarray(values, dtype=np.float64)), m)


@dataclass(frozen=True)
class BirthdayMap:
    """Linear hash-and-sum map to `spec.m` buckets."""

    spec: HashSpec


def birthday_embed(bmap: BirthdayMap, x: SparseVector) -> np.ndarray:
    buckets = bucket_array(bmap.spec, np.asarray(x.indices, dtype=np.uint64))
    return sum_pool(buckets, x.values, bmap.spec.m)


@dataclass(frozen=True)
class MaxHashMap:
    """Non-linear hash-and-max map to `spec.m` buckets.

    Total on any input, but its distance guarantees hold only for
    non-negative vectors. A bucket can expand a distance only when it pools
    two or more coordinates and at least one of them holds a negative
    stored entry; opposite signs are not needed. With m = 1, x = -e_i,
    y = e_j doubles their max-norm distance, and x = {0: -1, 1: -5},
    y = {1: -5} gives an image l1 distance of 4 against a true one of 1.
    """

    spec: HashSpec


def landed_buckets(mmap: MaxHashMap, x: SparseVector) -> tuple[np.ndarray, np.ndarray]:
    """Sparse image of x: sorted unique buckets and their pooled maxima."""
    buckets = bucket_array(mmap.spec, np.asarray(x.indices, dtype=np.uint64))
    return _max_pool_keys(buckets, np.asarray(x.values, dtype=np.float64))


def max_embed(mmap: MaxHashMap, x: SparseVector) -> np.ndarray:
    return _scatter(*landed_buckets(mmap, x), mmap.spec.m)


@dataclass(frozen=True)
class EmbedParams:
    """Planned embedding shape. Field names match the serialized schema."""

    mode: str
    s: int
    n: int
    eps: float
    delta: int | None
    p: float | None
    m: int
    T: int

    def __post_init__(self):
        if self.m < 1 or self.T < 1:
            raise ValueError("m and T must be >= 1")

    def to_json_dict(self, seed: int) -> dict:
        return {**asdict(self), "seed": seed}

    @staticmethod
    def from_json_dict(obj: dict) -> tuple["EmbedParams", int]:
        """Params and seed from their JSON object. A missing or ill-typed key,
        a mode outside MODES or a non-integral s, n, delta, m, T or seed is
        a ParseError; m or T below 1 is a ValueError, as for overrides."""
        if not isinstance(obj, dict):
            raise ParseError("params JSON must be an object")

        def integral(key):
            value = obj[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or int(value) != value:
                raise TypeError(f"non-integral {key!r}: {value!r}")
            return int(value)

        try:
            fields = dict(
                mode=obj["mode"],
                s=integral("s"),
                n=integral("n"),
                eps=float(obj["eps"]),
                delta=None if obj.get("delta") is None else integral("delta"),
                p=None if obj.get("p") is None else float(obj["p"]),
                m=integral("m"),
                T=integral("T"),
            )
            seed = integral("seed")
        except KeyError as e:
            raise ParseError(f"params JSON lacks key {e}")
        except (TypeError, ValueError, OverflowError) as e:
            raise ParseError(f"params JSON has an ill-typed value: {e}")
        if fields["mode"] not in MODES:
            raise ParseError(f"params JSON has an unknown mode {fields['mode']!r}")
        return EmbedParams(**fields), seed


def plan_params(mode: str, s: int, n: int, eps: float, delta: int | None = None,
                p: float | None = None) -> EmbedParams:
    """Concrete (m, T) for an embedding mode.

    The leading constants are library choices, not canonical values:

    * all-p:      m = ceil(200 s / eps),            T = ceil(50 ln(n s) / eps)
    * linf-exact: m = 20 s,                         T = ceil(3 ln n) + 1
    * sum-linf:   m = 1,                            T = 1
    * discrete:   m = ceil(100 s^2 base^p / eps),   T = ceil(50 ln(n) base^p / eps)
      with base = 2 delta.

    Discrete mode is two-sided: signed entries void max pooling's
    non-expansion, and the base^p range factor sizes (m, T) so that, with
    high probability over the seed, stacked p-th power distances land in
    [(1 - eps) T, (1 + eps) T] times the true ones. Any excess above T
    comes from buckets pooling a negative entry (see ``MaxHashMap``).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if s < 1:
        raise ValueError(f"sparsity must be >= 1, got {s}")
    if n < 2:
        raise ValueError(f"dataset size must be >= 2, got {n}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"accuracy must be in (0, 1), got {eps}")

    try:  # a size beyond float range raises OverflowError
        if mode == "all-p":
            m = math.ceil(200.0 * s / eps)
            T = math.ceil(50.0 * math.log(n * s) / eps)
        elif mode == "linf-exact":
            m = math.ceil(20.0 * s)
            T = math.ceil(3.0 * math.log(n)) + 1
        elif mode == "sum-linf":
            m, T = 1, 1
        else:  # discrete
            if delta is None or delta < 1:
                raise ValueError("discrete mode requires an integer delta >= 1")
            if p is None or p < 1:
                raise ValueError("discrete mode requires p >= 1")
            growth = float(2 * delta) ** p
            m = math.ceil(100.0 * s * s * growth / eps)
            T = math.ceil(50.0 * math.log(n) * growth / eps)
    except OverflowError:
        raise PreconditionError(f"{mode} sizes overflow at eps = {eps}, p = {p}") from None
    return EmbedParams(mode=mode, s=s, n=n, eps=eps, delta=delta,
                       p=None if p is None else float(p), m=m, T=T)


@dataclass(frozen=True)
class StackedEmbedding:
    """T independent max-pool copies sharing a seed, concatenated."""

    params: EmbedParams
    seed: int

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def T(self) -> int:
        return self.params.T

    def map_for(self, copy_index: int) -> MaxHashMap:
        if not 0 <= copy_index < self.params.T:
            raise IndexError(f"copy index {copy_index} outside 0..{self.params.T - 1}")
        return MaxHashMap(HashSpec(self.seed, copy_index, self.params.m))


def stack_embed(stack: StackedEmbedding, x: SparseVector) -> np.ndarray:
    """Dense concatenation of the T copy outputs, copy 0 first: the
    ``stacked_image`` of x scattered into one row."""
    require_cells(stack.m * stack.T, "stacked embedding")
    return _scatter(*stacked_image(x, stack.m, stack.T, stack.seed), stack.m * stack.T)


def estimate_distance(stack: StackedEmbedding, x: SparseVector, y: SparseVector, p) -> float:
    """Distance estimate from the stacked embedding.

    Finite p: (||F(x) - F(y)||_p^p / T)^(1/p), i.e. the per-copy average of
    p-th powers. p = INF: the plain max over all coordinates, no
    normalization. For non-negative inputs the estimate never exceeds the
    true distance (up to float roundoff).
    """
    p = _check_p(p)
    if x.dim != y.dim:
        raise EmbeddingMismatch(f"ambient dimensions differ: {x.dim} vs {y.dim}")
    if p == INF:
        per_copy = pair_copy_tables(x, y, stack.m, stack.T, stack.seed, with_linf=True)["inf"]
        return float(per_copy.max(initial=0.0))
    tables = pair_copy_tables(x, y, stack.m, stack.T, stack.seed, ps=(p,))
    total = float(tables[p].sum())
    return (total / stack.T) ** (1.0 / p)


def estimate_distance_embedded(params: EmbedParams, seed_a: int, ea: np.ndarray,
                               seed_b: int, eb: np.ndarray, p) -> float:
    """Same estimate computed from already-embedded rows; validates that both
    rows came from the same map."""
    p = _check_p(p)
    if seed_a != seed_b:
        raise EmbeddingMismatch(f"embeddings use different seeds: {seed_a} vs {seed_b}")
    width = params.m * params.T
    if ea.shape != (width,) or eb.shape != (width,):
        raise EmbeddingMismatch(
            f"expected embedded rows of length {width}, got {ea.shape} and {eb.shape}"
        )
    d = np.abs(ea - eb)
    if p == INF:
        return float(d.max(initial=0.0))
    return float((np.sum(d ** p) / params.T) ** (1.0 / p))


def estimate_sum_norm(stack: StackedEmbedding, x: SparseVector, y: SparseVector) -> float:
    """Scalar-mode estimate of ||x + y||_inf: F(x) + F(y) with m = T = 1.

    For non-negative inputs the result lands in [||x+y||_inf, 2||x+y||_inf]
    deterministically; the upper end is achieved by disjoint singletons.
    """
    if stack.m != 1 or stack.T != 1:
        raise PreconditionError(
            f"sum estimate needs m = 1 and T = 1, got m={stack.m}, T={stack.T}"
        )
    if x.dim != y.dim:
        raise EmbeddingMismatch(f"ambient dimensions differ: {x.dim} vs {y.dim}")
    require_nonneg(x, y, what="sum estimate")
    return x.max_value() + y.max_value()


def with_overrides(params: EmbedParams, m: int | None = None, T: int | None = None) -> EmbedParams:
    """Manual (m, T) overrides, e.g. for fixed-budget experiments."""
    return replace(params, m=params.m if m is None else int(m),
                   T=params.T if T is None else int(T))
