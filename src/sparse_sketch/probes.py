"""Empirical probes for linear maps on random sparse inputs.

The hard input distribution picks a uniformly random size-t support and
fills it with centered Gaussians of variance r. Probes measure how often a
given dense linear map preserves norms of such draws, expose the
Gram-overlap statistic that drives the anti-concentration argument, and
construct an explicit max-norm-stretching witness for wide maps with
bounded columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalCheckError,
    PreconditionColumns,
    PreconditionError,
    PreconditionShape,
)
from .hashing import HashSpec, bucket_grid, derive_seed
from .vectors import INF, SparseVector, _check_p, _dense_norm, _read_only

_EXACT_RTOL = 1e-9
_SUPPORT_DENSE_BUDGET = 20_000_000


@dataclass(frozen=True, eq=False)
class DenseLinearMap:
    """Explicit m x d matrix acting on sparse vectors by multiplication."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.size == 0:
            raise ValueError("matrix must be 2-D and non-empty")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "matrix", _read_only(mat))

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def apply_sparse(self, x: SparseVector) -> np.ndarray:
        if x.dim != self.cols:
            raise PreconditionError(f"map expects dimension {self.cols}, got {x.dim}")
        if x.sparsity == 0:
            return np.zeros(self.rows)
        idx = np.asarray(x.indices, dtype=np.int64)
        return self.matrix[:, idx] @ np.asarray(x.values)


@dataclass(frozen=True)
class UnifSpec:
    """Random-support sparse Gaussians: t non-zeros, variance r, dimension d."""

    t: int
    r: float
    d: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.t <= self.d:
            raise PreconditionError(f"need 1 <= t <= d, got t={self.t}, d={self.d}")
        if not 0 < self.r < math.inf:  # False for nan too
            raise PreconditionError(f"variance must be finite and positive, got {self.r}")


def _support_matrix(rng: np.random.Generator, trials: int, d: int, t: int) -> np.ndarray:
    if t == d:
        return np.tile(np.arange(d, dtype=np.int64), (trials, 1))
    if trials * d <= _SUPPORT_DENSE_BUDGET:
        scores = rng.random((trials, d))
        picks = np.argpartition(scores, t - 1, axis=1)[:, :t]
        return np.sort(picks, axis=1).astype(np.int64)
    rows = [np.sort(rng.choice(d, size=t, replace=False)) for _ in range(trials)]
    return np.asarray(rows, dtype=np.int64)


def unif_draws(spec: UnifSpec, trials: int, shard: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """`trials` draws as (supports, values) arrays of shape (trials, t).

    The stream is a pure function of (spec.seed, shard): identical inputs
    reproduce identical draws, across runs and processes.
    """
    if trials < 1:
        raise PreconditionError("need at least one trial")
    rng = np.random.default_rng(derive_seed(spec.seed, 0xD14A, shard))
    supports = _support_matrix(rng, trials, spec.d, spec.t)
    values = rng.normal(0.0, math.sqrt(spec.r), size=(trials, spec.t))
    return supports, values


def preservation_trials(
    lin_map: DenseLinearMap,
    spec: UnifSpec,
    p,
    gamma: float,
    trials: int,
    jobs: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial relative deviation statistics and pass flags.

    gamma = 0 tests exact preservation of the p-norm at relative tolerance
    1e-9 (float reordering slack). gamma > 0 tests the relative deviation of
    p-th powers for finite p (so p = 2 compares squared Euclidean norms),
    and of the plain max norm for p = INF.

    Trials are sharded deterministically by (seed, shard); `jobs` only
    changes the shard count, never the results.
    """
    p = _check_p(p)
    if lin_map.cols != spec.d:
        raise PreconditionError(f"map has {lin_map.cols} columns but draws live in dimension {spec.d}")
    if gamma < 0:
        raise PreconditionError("gamma must be >= 0")
    jobs = max(1, min(jobs, trials))
    sizes = [trials // jobs + (1 if i < trials % jobs else 0) for i in range(jobs)]

    stats_parts, pass_parts = [], []
    use_gram = p == 2 and lin_map.cols <= 4096
    gram = lin_map.matrix.T @ lin_map.matrix if use_gram else None
    for shard, size in enumerate(sizes):
        supports, values = unif_draws(spec, size, shard=shard)
        if use_gram:
            sub = gram[supports[:, :, None], supports[:, None, :]]
            emb_sq = np.einsum("bi,bij,bj->b", values, sub, values)
            emb_sq = np.maximum(emb_sq, 0.0)
            true_sq = np.sum(values * values, axis=1)
            if gamma == 0.0:
                stat = np.abs(np.sqrt(emb_sq) - np.sqrt(true_sq)) / np.sqrt(true_sq)
                ok = stat <= _EXACT_RTOL
            else:
                stat = np.abs(emb_sq - true_sq) / true_sq
                ok = stat <= gamma
        else:
            stat = np.empty(size)
            ok = np.empty(size, dtype=bool)
            for i in range(size):
                emb = lin_map.matrix[:, supports[i]] @ values[i]
                ne, nt = _dense_norm(emb, p), _dense_norm(values[i], p)
                if nt == 0.0:
                    stat[i], ok[i] = (0.0, ne == 0.0)
                elif gamma == 0.0:
                    stat[i] = abs(ne - nt) / nt
                    ok[i] = stat[i] <= _EXACT_RTOL
                elif p == INF:
                    stat[i] = abs(ne - nt) / nt
                    ok[i] = stat[i] <= gamma
                else:
                    with np.errstate(over="ignore"):  # inf beyond float range: a fail
                        stat[i] = abs(np.float64(ne / nt) ** p - 1.0)
                    ok[i] = stat[i] <= gamma
        stats_parts.append(stat)
        pass_parts.append(ok)
    return np.concatenate(stats_parts), np.concatenate(pass_parts)


def preservation_rate(lin_map, spec, p, gamma, trials, jobs: int = 1) -> float:
    """Fraction of draws whose norm the map preserves to tolerance gamma."""
    _, ok = preservation_trials(lin_map, spec, p, gamma, trials, jobs=jobs)
    return float(ok.mean())


def gram_overlap_Z(lin_map: DenseLinearMap, u: SparseVector) -> float:
    """Sum over ordered support pairs i != j of <A_i, A_j>^2.

    Zero when the touched columns are orthogonal or the support is a
    singleton; always non-negative.
    """
    if u.dim != lin_map.cols:
        raise PreconditionError(f"map has {lin_map.cols} columns but vector lives in {u.dim}")
    if u.sparsity < 2:
        return 0.0
    cols = lin_map.matrix[:, np.asarray(u.indices, dtype=np.int64)]
    g = cols.T @ cols
    sq = g * g
    return float(sq.sum() - np.trace(sq))


def find_linf_violation(lin_map: DenseLinearMap) -> SparseVector:
    """A 10-sparse 0/1 vector x with ||Ax||_inf >= 5 = 5 ||x||_inf.

    Requires m < d/100 and every column to carry an entry of absolute value
    at least 1/2. Construction: the row holding the most same-signed large
    entries (ties: lowest row, then positive sign) donates 10 of them; the
    returned witness is re-verified before being handed back.
    """
    mat = lin_map.matrix
    m, d = mat.shape
    if m >= d / 100:
        raise PreconditionShape(f"need m < d/100, got m={m}, d={d}")
    large_pos = mat >= 0.5
    large_neg = mat <= -0.5
    if not (large_pos | large_neg).any(axis=0).all():
        bad = int(np.flatnonzero(~(large_pos | large_neg).any(axis=0))[0])
        raise PreconditionColumns(f"column {bad} has no entry with |value| >= 1/2")
    pos_counts = large_pos.sum(axis=1)
    neg_counts = large_neg.sum(axis=1)
    best_row, best_sign, best_count = -1, 0.0, -1
    for row in range(m):
        for sign, count in ((1.0, pos_counts[row]), (-1.0, neg_counts[row])):
            if count > best_count:
                best_row, best_sign, best_count = row, sign, int(count)
    if best_count < 10:
        raise InternalCheckError(
            f"pigeonhole failed: best same-signed row has only {best_count} large entries"
        )
    mask = large_pos[best_row] if best_sign > 0 else large_neg[best_row]
    cols = np.flatnonzero(mask)[:10]
    witness = SparseVector(tuple(int(c) for c in cols), (1.0,) * 10, d)
    image = mat[:, cols].sum(axis=1)
    attained = float(np.abs(image).max())
    if attained < 5.0 - 1e-9 or witness.max_value() != 1.0:
        raise InternalCheckError(
            f"witness re-verification failed: ||Ax||_inf = {attained}"
        )
    return witness


def birthday_matrix(spec: HashSpec, d: int) -> DenseLinearMap:
    """The hash-and-sum map as an explicit m x d matrix (column j has a
    single 1 in row h(j))."""
    buckets = bucket_grid(spec.seed, 1, np.arange(d), spec.m, start=spec.copy_index)[0]
    mat = np.zeros((spec.m, d))
    mat[buckets, np.arange(d)] = 1.0
    return DenseLinearMap(mat)


def gaussian_map(rows: int, cols: int, seed: int) -> DenseLinearMap:
    """Random Gaussian matrix with unit-normalized columns."""
    rng = np.random.default_rng(derive_seed(seed, 0x6A55))
    mat = rng.standard_normal((rows, cols))
    mat /= np.linalg.norm(mat, axis=0, keepdims=True)
    return DenseLinearMap(mat)
