"""Shared independent oracles for the test suite.

Everything here recomputes quantities from definitions, deliberately not
reusing the library's optimized paths, so tests cross two routes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from sparse_sketch.embeddings import EmbedParams, StackedEmbedding
from sparse_sketch.hashing import (_GOLDEN, _MASK64, _MIX_A, _MIX_B, HashSpec, bucket_grid,
                                   hash_bucket)
from sparse_sketch.io import config_line
from sparse_sketch.pairwise import _pool_grid, require_hashes, stacked_image
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


def pooled_image(x: SparseVector, m: int, seed: int, copy: int) -> tuple[np.ndarray, np.ndarray]:
    """``pooled_copy`` as sorted (buckets, maxima) arrays."""
    image = sorted(pooled_copy(x, m, seed, copy).items())
    return np.array([b for b, _ in image], dtype=np.int64), np.array([v for _, v in image])


def pooled_row(x: SparseVector, m: int, seed: int, copy: int) -> np.ndarray:
    """``pooled_copy`` as a dense length-m row, 0 where nothing lands."""
    row = np.zeros(m)
    for b, v in pooled_copy(x, m, seed, copy).items():
        row[b] = v
    return row


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


def _unshift(y: int, s: int) -> int:
    """x with x ^ (x >> s) == y, for 64-bit x."""
    x = y
    for _ in range(64 // s):
        x = y ^ (x >> s)
    return x


def unmix64(z: int) -> int:
    """Inverse of ``hashing.mix64``: its xor-shifts and odd multiplies undone
    in reverse order."""
    z = _unshift(z, 31)
    z = z * pow(_MIX_B, -1, 1 << 64) & _MASK64
    z = _unshift(z, 27)
    z = z * pow(_MIX_A, -1, 1 << 64) & _MASK64
    z = _unshift(z, 30)
    return (z - _GOLDEN) & _MASK64


def index_hashing_to(spec: HashSpec, h: int) -> int:
    """The coordinate j whose 64-bit hash under `spec` is h, so that
    ``hash_bucket(spec, j) == h % spec.m``: collisions on demand at any m."""
    return unmix64(h) ^ spec.key()


def cut_value(powers: np.ndarray, mask: int) -> float:
    """Value of the bipartition encoded by mask bits over a pair-power matrix."""
    n = powers.shape[0]
    side = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
    return float(powers[np.ix_(side, ~side)].sum())


def two_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All assignments of n items into exactly 2 non-empty clusters, item 0
    pinned to cluster 0 (so each partition appears once)."""
    for code in range(1, 1 << (n - 1)):
        yield tuple(0 if i == 0 else (code >> (i - 1)) & 1 for i in range(n))


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


def pair_copy_tables(
    x: SparseVector,
    y: SparseVector,
    m: int,
    copies: int,
    seed: int,
    ps: Sequence[float] = (),
    with_linf: bool = False,
) -> dict:
    """Per-copy distances between the images of x and y.

    Returns {p: array of length `copies` holding ||f_c(x) - f_c(y)||_p^p}
    plus key "inf" (per-copy max-norm distances) when requested.
    """
    shift = copies * m
    require_hashes(copies, 2 * m, len(set(x.indices) | set(y.indices)))  # keys below 2 * shift
    # one grid for both images, y's buckets shifted up by copies * m so that
    # its keys pool apart from x's and sort after them
    grid = bucket_grid(seed, copies, np.asarray(x.indices + y.indices, dtype=np.uint64), m)
    grid[:, x.sparsity:] += shift
    pooled, vals = _pool_grid(grid, x.values + y.values, m)
    y_side = pooled >= shift
    # 0.0 + x - y per key, x's entry first; an absent side counts as 0
    keys, inv = np.unique(pooled - shift * y_side, return_inverse=True)
    d = np.abs(np.bincount(inv, weights=np.where(y_side, -vals, vals), minlength=len(keys)))
    seg_copy = keys // m
    out: dict = {p: np.zeros(copies) for p in ps}  # np.bincount of nothing is int64
    for p in ps:
        out[p] += np.bincount(seg_copy, weights=d ** float(p), minlength=copies)
    if with_linf:
        out["inf"] = np.zeros(copies)
        np.maximum.at(out["inf"], seg_copy, d)
    return out


def two_image_tables(x, y, m, T, seed, ps) -> dict:
    """`pair_copy_tables` as a merge of two separate `stacked_image` calls:
    {p: per-copy p-th powers, "inf": per-copy max-norm distances}."""
    kx, vx = stacked_image(x, m, T, seed)
    ky, vy = stacked_image(y, m, T, seed)
    keys, inv = np.unique(np.concatenate([kx, ky]), return_inverse=True)
    d = np.abs(np.bincount(inv, weights=np.concatenate([vx, -vy]), minlength=len(keys)))
    out = {p: np.zeros(T) + np.bincount(keys // m, weights=d ** p, minlength=T) for p in ps}
    out["inf"] = np.zeros(T)
    np.maximum.at(out["inf"], keys // m, d)
    return out


def dense_tables(est) -> np.ndarray:
    """The estimator's (R, m, p + 1) power-sum table, every key's row read
    through its slot, the absent row where no coordinate lands."""
    return est.rows[est.slots].reshape(est.R, est.m, est.p + 1)


def dense_dot_query(est, y) -> tuple[float, float]:
    """The estimator's query as (R, p + 1) dense dots: y's stacked image
    scattered into an (R, m) row, sum_k (-1)^k C(p, k) (z^k . S_{p-k}) per
    repetition, the lower median, no clamp. Also returns the largest
    per-repetition sum of |terms|, the scale of either query's rounding."""
    keys, v = stacked_image(y, est.m, est.R, est.seed)
    z = np.zeros(est.R * est.m)
    z[keys] = v
    z = z.reshape(est.R, est.m)
    tables = dense_tables(est)
    estimates, scales = [], []
    for rep in range(est.R):
        total = scale = 0.0
        zk = np.ones(est.m)  # z^0, with 0^0 = 1
        for k in range(est.p + 1):
            term = math.comb(est.p, k) * float(zk @ tables[rep, :, est.p - k])
            total += -term if k % 2 else term
            scale += term  # z and S are non-negative, so is every term
            zk = zk * z[rep]
        estimates.append(total)
        scales.append(scale)
    return sorted(estimates)[(est.R - 1) // 2], max(scales)


def cell_by_cell(row) -> str:
    """A float row formatted one cell at a time, each as repr(float(v))."""
    return ",".join(repr(float(v)) for v in row)


def embedding_header(width: int) -> str:
    return ",".join(["id"] + [f"v{i}" for i in range(width)])


def embedding_csv_text(config: dict, ids, rows, width: int) -> str:
    """The embedding CSV as the cell-by-cell writer produced it."""
    lines = [config_line(config), embedding_header(width)]
    lines += [vec_id + "," + cell_by_cell(row) for vec_id, row in zip(ids, rows)]
    return "".join(line + "\n" for line in lines)
