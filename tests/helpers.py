"""Shared independent oracles for the test suite.

Everything here recomputes quantities from definitions, deliberately not
reusing the library's optimized paths, so tests cross two routes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from sparse_sketch.embeddings import EmbedParams, StackedEmbedding
from sparse_sketch.hashing import HashSpec, hash_bucket
from sparse_sketch.vectors import INF, SparseVector


def dense(vec: SparseVector) -> np.ndarray:
    out = np.zeros(vec.dim)
    for i, v in vec.items():
        out[i] = v
    return out


def dense_lp(arr: np.ndarray, p) -> float:
    a = np.abs(np.asarray(arr, dtype=np.float64))
    if p == INF:
        return float(a.max(initial=0.0))
    return float(np.sum(a ** p) ** (1.0 / p))


def manual_params(m: int, T: int) -> EmbedParams:
    return EmbedParams(mode="all-p", s=1, n=2, eps=0.5, delta=None, p=None, m=m, T=T)


def stack_of(m: int, T: int, seed: int) -> StackedEmbedding:
    return StackedEmbedding(manual_params(m, T), seed)


@lru_cache(maxsize=4096)
def pooled_copy(x: SparseVector, m: int, seed: int, copy: int) -> dict[int, float]:
    """Copy `copy` of the max-pool image of x, from the scalar hash and a
    Python max: bucket -> max stored value landing there."""
    spec = HashSpec(seed, copy, m)
    out: dict[int, float] = {}
    for j, v in x.items():
        b = hash_bucket(spec, j)
        out[b] = max(out.get(b, v), v)
    return out


def copy_diffs(x, y, m, T, seed) -> list[float]:
    """|f_c(x)_b - f_c(y)_b| over every copy c and every bucket b either lands in."""
    diffs = []
    for c in range(T):
        fx, fy = pooled_copy(x, m, seed, c), pooled_copy(y, m, seed, c)
        diffs.extend(abs(fx.get(b, 0.0) - fy.get(b, 0.0)) for b in fx.keys() | fy.keys())
    return diffs


def naive_stack_pair_powers(x, y, m, T, seed, p) -> float:
    """sum over copies of ||f_c(x) - f_c(y)||_p^p."""
    return float(sum(d ** p for d in copy_diffs(x, y, m, T, seed)))


def naive_stack_linf(x, y, m, T, seed) -> float:
    return max(copy_diffs(x, y, m, T, seed), default=0.0)


def random_sparse(rng, d, s, signed=False, delta=3) -> SparseVector:
    s = min(s, d)
    if s == 0:
        return SparseVector.zero(d)
    sup = np.sort(rng.choice(d, size=s, replace=False))
    if signed:
        vals = (rng.integers(1, delta + 1, size=s) * (rng.integers(0, 2, size=s) * 2 - 1)).astype(float)
    else:
        vals = 1.0 - rng.random(s)
    return SparseVector.from_pairs(zip(sup.tolist(), vals.tolist()), d)

