"""Max-pool embeddings: stacks of hash-and-max copies and their planner.

A copy hashes each coordinate to one of m buckets and keeps, per bucket,
the max of the stored values landing there. ``pairwise.stacked_image`` is
the one map of a vector into T stacked copies (sorted keys copy * m +
bucket and their pooled maxima); ``stack_embed`` scatters it into a dense
row, and ``estimate_distance`` merges two images: the per-pair definition
of what ``pairwise.stacked_linf`` and ``stacked_power_sums`` give for all
pairs. The linear hash-and-sum baseline is ``probes.birthday_matrix``.

Max pooling is total on any input, but its guarantee that no distance
expands holds only between non-negative vectors. A bucket can expand a
distance only when it pools two or more coordinates and at least one of
them holds a negative stored entry; opposite signs are not needed. With
m = 1, x = -e_i, y = e_j doubles their max-norm distance, and
x = {0: -1, 1: -5}, y = {1: -5} gives an image l1 distance of 4 against a
true one of 1.

A ``StackedEmbedding`` names T copies sharing a seed; the parameter planner
turns (mode, sparsity, dataset size, accuracy) into a concrete (bucket
count m, copy count T). The planner's leading constants are this library's
choices, fixed so the desk-scale guarantees hold with margin.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import EmbeddingMismatch, ParseError, PreconditionError
from .pairwise import stacked_image
from .vectors import SparseVector, _check_p, _norms, require_cells, require_nonneg

MODES = ("all-p", "linf-exact", "sum-linf", "discrete")

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
    comes from buckets pooling a negative entry (see the module docstring).
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


def stack_embed(stack: StackedEmbedding, x: SparseVector) -> np.ndarray:
    """Dense concatenation of the T copy outputs, copy 0 first: the
    ``stacked_image`` of x scattered into one row."""
    width = stack.m * stack.T
    require_cells(width, "stacked embedding")
    keys, values = stacked_image(x, stack.m, stack.T, stack.seed)
    out = np.zeros(width, dtype=np.float64)
    out[keys] = values
    return out


def estimate_distance(stack: StackedEmbedding, x: SparseVector, y: SparseVector, p) -> float:
    """Distance estimate from the stacked embedding.

    Finite p: (||F(x) - F(y)||_p^p / T)^(1/p), i.e. the per-copy average of
    p-th powers, scaled by the largest difference so that it is finite at
    any p. p = INF: the plain max over all coordinates, no normalization.
    For non-negative inputs the estimate never exceeds the true distance
    (up to float roundoff). PreconditionError when it leaves float range.
    """
    p = _check_p(p)
    if x.dim != y.dim:
        raise EmbeddingMismatch(f"ambient dimensions differ: {x.dim} vs {y.dim}")
    (kx, vx), (ky, vy) = (stacked_image(v, stack.m, stack.T, stack.seed) for v in (x, y))
    keys, inv = np.unique(np.concatenate([kx, ky]), return_inverse=True)
    d = np.bincount(inv, weights=np.concatenate([vx, -vy]), minlength=len(keys))
    return _norms(d, [p], stack.T)[0]


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
    return _norms(ea - eb, [p], params.T)[0]


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
