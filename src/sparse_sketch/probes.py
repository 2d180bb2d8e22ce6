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
from .vectors import INF, SparseVector, _check_p, _norms, _read_only, require_cells

_EXACT_RTOL = 1e-9
_GRAM_CELLS = 1 << 20  # Gram entries or support scores per block of trials (8 MB)


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
    """Sorted supports of `trials` draws: per row, the t smallest of d uniform
    scores. The scores come in blocks of max(_GRAM_CELLS, d) cells (one row
    per block once d > _GRAM_CELLS), which read the stream exactly as one
    (trials, d) draw would."""
    if t == d:
        return np.tile(np.arange(d, dtype=np.int64), (trials, 1))
    out = np.empty((trials, t), dtype=np.int64)
    step = max(1, _GRAM_CELLS // d)
    for lo in range(0, trials, step):
        scores = rng.random((min(step, trials - lo), d))
        out[lo:lo + step] = np.argpartition(scores, t - 1, axis=1)[:, :t]
    out.sort(axis=1)
    return out


def unif_draws(spec: UnifSpec, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """`trials` draws as (supports, values) arrays of shape (trials, t).

    The stream is a pure function of (spec, trials): identical inputs
    reproduce identical draws, across runs and processes. Each draw reads d
    uniform scores, so d may be at most CELL_BUDGET and the time grows with
    trials * d; the (trials, t) arrays may hold at most CELL_BUDGET cells.
    """
    if trials < 1:
        raise PreconditionError("need at least one trial")
    require_cells(spec.d, "support scores")
    require_cells(trials * spec.t, "draws")
    rng = np.random.default_rng(derive_seed(spec.seed, 0xD14A, 0))
    supports = _support_matrix(rng, trials, spec.d, spec.t)
    values = rng.normal(0.0, math.sqrt(spec.r), size=(trials, spec.t))
    return supports, values


def _gram_norms(lin_map: DenseLinearMap, supports: np.ndarray, values: np.ndarray) -> np.ndarray:
    """||A x|| of each draw as top * sqrt(u^T G_s u), u = x / top, with G the
    Gram matrix A^T A; scaled as `vectors._norms` is, so it is finite wherever
    the norm is. At most _GRAM_CELLS entries of G are gathered at once."""
    gram = lin_map.matrix.T @ lin_map.matrix
    top = np.abs(values).max(axis=1)
    u = values / np.where(top > 0.0, top, 1.0)[:, None]
    quad = np.empty(len(values))
    step = max(1, _GRAM_CELLS // values.shape[1] ** 2)
    for lo in range(0, len(values), step):
        s, ub = supports[lo:lo + step], u[lo:lo + step]
        quad[lo:lo + step] = np.einsum("bi,bij,bj->b", ub, gram[s[:, :, None], s[:, None, :]], ub)
    return top * np.sqrt(np.maximum(quad, 0.0))


def preservation_trials(
    lin_map: DenseLinearMap,
    spec: UnifSpec,
    p,
    gamma: float,
    trials: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial relative deviation statistics and pass flags.

    gamma = 0 tests exact preservation of the p-norm at relative tolerance
    1e-9 (float reordering slack). gamma > 0 tests the relative deviation of
    p-th powers for finite p (so p = 2 compares squared Euclidean norms),
    and of the plain max norm for p = INF.

    The draws are one `unif_draws(spec, trials)` stream, so the results are
    a pure function of the arguments. At p = 2 on at most 4096 columns the
    embedded norms come from the Gram matrix, in blocks of trials of bounded
    size; elsewhere from one `A[:, s] @ x` product per trial.
    """
    p = _check_p(p)
    if lin_map.cols != spec.d:
        raise PreconditionError(f"map has {lin_map.cols} columns but draws live in dimension {spec.d}")
    if not gamma >= 0:  # nan too
        raise PreconditionError("gamma must be >= 0")
    supports, values = unif_draws(spec, trials)
    nt = _norms(values, [p])[0]
    if p == 2 and lin_map.cols <= 4096:
        ne = _gram_norms(lin_map, supports, values)
    else:
        ne = np.array([_norms(lin_map.matrix[:, s] @ v, [p])[0]
                       for s, v in zip(supports, values)])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # nt = 0: set below
        if gamma == 0.0 or p == INF:
            stat = np.abs(ne - nt) / nt
        else:
            stat = np.abs(np.float_power(ne / nt, p) - 1.0)  # inf beyond float range: a fail
    ok = stat <= (_EXACT_RTOL if gamma == 0.0 else gamma)
    zero = nt == 0.0
    stat[zero], ok[zero] = 0.0, ne[zero] == 0.0
    return stat, ok


def preservation_rate(lin_map, spec, p, gamma, trials) -> float:
    """Fraction of draws whose norm the map preserves to tolerance gamma."""
    _, ok = preservation_trials(lin_map, spec, p, gamma, trials)
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
    # (row 0 +, row 0 -, row 1 +, ...): the first maximum is the tie rule
    counts = np.stack([large_pos.sum(axis=1), large_neg.sum(axis=1)], axis=1).ravel()
    best = int(np.argmax(counts))
    best_row, negative = divmod(best, 2)
    if counts[best] < 10:
        raise InternalCheckError(
            f"pigeonhole failed: best same-signed row has only {counts[best]} large entries"
        )
    mask = (large_neg if negative else large_pos)[best_row]
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
