"""Bulk pairwise distance evaluation: exact distances and distances under
stacked max-pool embeddings.

``lp_dists`` is the one exact-distance kernel: ``vectors.lp_dist`` over
all pairs, equal bit for bit, behind every exact distance the package
reports. Each pair's supports become one sorted row of ranks into the
distinct indices (padded with a higher rank and value 0.0; a shared
coordinate merged into one slot as |x - y|). The row takes ``_reduce_abs``'s
scaled sum with ``np.float_power`` (numpy's ``**`` differs from Python's in
the last bit), added slot by slot in index order. ``lp_dist`` stays as the
scalar definition that the tests and the benchmark check against.

``_max_pool_keys`` is the package's one max-pool kernel (sorted distinct
keys, the max of the values on each), and ``_pool_grid`` the one place that
turns a grid of buckets into keys copy * m + bucket for it. ``stacked_image``
is the one map of a vector into stacked copies: one ``bucket_grid`` and one
``_pool_grid``. ``embeddings.stack_embed`` scatters it into a dense row, and
the distance estimator's R repetitions are its R copies.
``embeddings.landed_buckets`` is the single-copy image.

Two evaluation strategies, both exact (up to float roundoff) and
cross-checked against the dense definition in the test suite:

* ``pair_copy_tables``: merges the stacked images of one pair, key by key,
  into |f_c(x) - f_c(y)| (an absent side counts as 0). Both images come from
  one ``bucket_grid`` and one ``_pool_grid``, y's keys shifted up by
  copies * m. Memory O(T * union).
  Also gives the per-copy max-norm distances, which nothing else computes.
* ``stacked_power_sums``: all pairs of a dataset at once, for finite p. A
  copy without collisions contributes exactly the true distance, so the
  T-fold sum is T * D plus corrections at the (copy, bucket) groups that
  receive two or more distinct coordinates. The copies are hashed
  ``_BLOCK`` at a time; a row sort flags the copies with a shared bucket
  and only those are argsorted into groups. Each group member is expanded
  to its (group, owner vector, value) entries, and three corrections are
  summed with segmented reductions and ``np.bincount``, with no Python
  loop per group. The first two are added up block by block, so every
  array scales with ``_BLOCK``, not with the copy count:

  - per (group, vector): |t_u|^p - sum |x_u|^p over its landed entries,
    where t_u is the pooled max; it applies to every pair of u;
  - per owner pair in a group: |t_u - t_v|^p - |t_u|^p - |t_v|^p;
  - per coordinate owned by both u and v: |x_u - x_v|^p - |x_u|^p -
    |x_v|^p, subtracted once per copy in which that coordinate collides.

  For a pair with both vectors in a group the three add up to
  |t_u - t_v|^p - sum |x_u - x_v|^p, the exact correction; with only u in
  it, u's row term is. Sums are clamped at 0, and pairs with a zero true
  distance (equal vectors, so equal images) are set to exactly 0.

Both power-sum functions raise PreconditionError when a p-th power
overflows (a large p), rather than return inf or nan.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, PreconditionError
from .hashing import bucket_grid
from .vectors import INF, SparseVector, _check_p

_POS_LIMIT = 1 << 62
#: Hash evaluations (copies x distinct coordinates) one call may make.
HASH_BUDGET = 1 << 24
_BLOCK = 64  # copies per block; bounds every array of the correction phase
_CHUNK = 1 << 16  # cells per chunk of lp_dists


def require_hashes(copies: int, m: int, coords: int) -> None:
    """ValueError unless copy * m + bucket keys fit in int64, and
    PreconditionError unless copies x coords (at least 1 per copy, the size
    of the per-copy outputs) fits in HASH_BUDGET; checked before hashing."""
    if copies * m >= _POS_LIMIT:
        raise ValueError("copies * m too large to key")
    if copies * max(1, coords) > HASH_BUDGET:
        raise PreconditionError(f"{copies} copies of {coords} coordinates exceed the hash "
                                f"budget of {HASH_BUDGET}")


def stacked_image(x: SparseVector, m: int, copies: int,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse image of x under `copies` max-pool copies of m buckets: sorted
    keys copy * m + bucket and the pooled maximum on each."""
    require_hashes(copies, m, x.sparsity)
    grid = bucket_grid(seed, copies, np.asarray(x.indices, dtype=np.uint64), m)
    return _pool_grid(grid, x.values, m)


def _pool_grid(grid: np.ndarray, values, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Max pool of a (copies, k) grid of buckets whose column j holds
    values[j]: sorted keys copy * m + bucket and the maximum on each."""
    keys = np.arange(grid.shape[0], dtype=np.int64)[:, None] * m + grid
    return _max_pool_keys(keys.ravel(),
                          np.tile(np.asarray(values, dtype=np.float64), grid.shape[0]))


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


def lp_dists(xs: Sequence[SparseVector], ys: Sequence[SparseVector], p) -> np.ndarray:
    """(len(xs), len(ys)) matrix of ``lp_dist(x, y, p)``, equal bit for bit."""
    p = _check_p(p)
    if len({v.dim for v in (*xs, *ys)}) > 1:
        raise DimensionMismatch("ambient dimensions differ")
    idx = np.array([i for v in (*xs, *ys) for i in v.indices], dtype=np.uint64)
    rank = np.unique(idx, return_inverse=True)[1]
    nx = sum(v.sparsity for v in xs)
    xr, xv = _padded(xs, rank[:nx], len(idx), 1.0)
    yr, yv = _padded(ys, rank[nx:], len(idx), -1.0)  # x - y is then a sum
    out = np.zeros(len(xs) * len(ys))
    step = _CHUNK // (xr.shape[1] + yr.shape[1]) + 1
    for lo in range(0, len(out), step):
        i, j = np.divmod(np.arange(lo, min(lo + step, len(out))), len(ys))
        key = np.hstack([xr[i], yr[j]])
        order = np.argsort(key, axis=1, kind="stable")
        key = np.take_along_axis(key, order, 1)
        val = np.take_along_axis(np.hstack([xv[i], yv[j]]), order, 1)
        d = np.abs(val)
        shared = key[:, 1:] == key[:, :-1]  # x's entry, then y's
        d[:, :-1][shared] = np.abs(val[:, :-1] + val[:, 1:])[shared]
        d[:, 1:][shared] = 0.0
        top = d.max(axis=1)
        if p != INF:
            with np.errstate(invalid="ignore"):  # 0/0 on rows that np.where zeroes
                acc = np.add.accumulate(np.float_power(d / top[:, None], p), axis=1)[:, -1]
            top = np.where(top > 0.0, top * np.float_power(acc, 1.0 / p), 0.0)
        out[lo:lo + len(top)] = top
    return out.reshape(len(xs), len(ys))


def _padded(vectors: Sequence[SparseVector], rank: np.ndarray, pad: int, sign: float):
    """(rows, max(1, max sparsity)) arrays of the vectors' index ranks, padded
    with `pad` (above every rank), and of their signed values, padded with 0.0."""
    lens = np.array([v.sparsity for v in vectors], dtype=np.int64)
    rows = np.full((len(vectors), int(lens.max(initial=1))), pad, dtype=np.int64)
    real = np.arange(rows.shape[1]) < lens[:, None]
    rows[real] = rank
    val = np.zeros(rows.shape)
    val[real] = [x * sign for v in vectors for x in v.values]
    return rows, val


def pairwise_power_dists(vectors: Sequence[SparseVector], ps: Sequence[float]) -> dict:
    """Exact {p: (n, n) matrix of ||x_i - x_j||_p^p} over the raw vectors."""
    dists = {p: lp_dists(vectors, vectors, p) for p in ps}
    with np.errstate(over="ignore"):  # reported by _require_finite
        return _require_finite({p: np.float_power(d, float(p)) for p, d in dists.items()})


def _require_finite(powers: dict) -> dict:
    """`powers`, or PreconditionError when a matrix holds an overflowed p-th
    power (inf, or the nan of inf - inf)."""
    for p, mat in powers.items():
        if not np.isfinite(mat).all():
            raise PreconditionError(f"p = {p:g}: p-th powers of these distances overflow a float")
    return powers


def _ownership(vectors: Sequence[SparseVector]):
    """Distinct coordinate indices plus, per index, its (vector, value) owners."""
    vec_ids, idxs, vals = [], [], []
    for vid, v in enumerate(vectors):
        vec_ids.extend([vid] * v.sparsity)
        idxs.extend(v.indices)
        vals.extend(v.values)
    idx_arr = np.asarray(idxs, dtype=np.uint64)
    distinct, inverse = np.unique(idx_arr, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    owner_vec = np.asarray(vec_ids, dtype=np.int64)[order]
    owner_val = np.asarray(vals, dtype=np.float64)[order]
    sorted_inv = inverse[order]
    starts = _run_starts(sorted_inv)
    counts = np.diff(np.r_[starts, len(sorted_inv)])
    return distinct, owner_vec, owner_val, starts.astype(np.int64), counts.astype(np.int64)


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Positions where the runs of equal values of a sorted array begin."""
    return np.flatnonzero(np.concatenate(([len(a) > 0], a[1:] != a[:-1])))


def _max_pool_keys(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The max-pool kernel: sorted distinct keys and the max of the values
    landing on each. A 2-D `values` is pooled column by column."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = _run_starts(keys)
    return keys[starts], np.maximum.reduceat(values[order], starts)


def _expand(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) over the (start, count) pairs."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.int64) + np.repeat(starts - ends + counts, counts)


def _run_pairs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j inside each run of consecutive positions whose
    lengths are `counts`."""
    ends = np.repeat(np.cumsum(counts), counts)
    idx = np.arange(len(ends), dtype=np.int64)
    partners = ends - idx - 1
    i = np.repeat(idx, partners)
    return i, i + 1 + _expand(np.zeros_like(partners), partners)


def _collision_blocks(seed: int, copies: int, distinct: np.ndarray, m: int):
    """Per block of ``_BLOCK`` copies, (group id, coordinate position) of every
    member of a (copy, bucket) group holding two or more distinct coordinates.
    Group ids count from 0 in each block; blocks without collisions are skipped."""
    for start in range(0, copies, _BLOCK):
        grid = bucket_grid(seed, min(_BLOCK, copies - start), distinct, m, start=start)
        if m <= np.iinfo(np.int32).max:
            grid = grid.astype(np.int32)  # halves the sort's memory traffic
        # cheap detection first: a copy needs corrections only when two distinct
        # coordinates share a bucket, which row-sorted values expose directly
        gs = np.sort(grid, axis=1)
        same = gs[:, 1:] == gs[:, :-1]
        dup = np.flatnonzero(same.any(axis=1))
        if len(dup) == 0:
            continue
        # order inside a group is free: the corrections are sums and maxima
        order = np.argsort(grid[dup], axis=1)
        same = same[dup]
        edge = np.zeros((len(dup), 1), dtype=bool)
        after = np.hstack([edge, same]).ravel()  # same bucket as the previous
        member = after | np.hstack([same, edge]).ravel()
        # a group opens at a member whose `after` is off
        yield np.cumsum(~after[member]) - 1, order.ravel()[member]


def stacked_power_sums(
    vectors: Sequence[SparseVector],
    m: int,
    copies: int,
    seed: int,
    ps: Sequence[float],
    base: dict | None = None,
) -> dict:
    """{p: (n, n) matrix of sum_c ||f_c(x_i) - f_c(x_j)||_p^p} for all pairs.

    `base` may supply precomputed ``pairwise_power_dists(vectors, ps)`` when
    the same dataset is evaluated under many seeds.
    """
    n = len(vectors)
    ps = [float(p) for p in ps]
    distinct, owner_vec, owner_val, ostarts, ocounts = _ownership(vectors)
    require_hashes(copies, m, len(distinct))
    if base is None:
        base = pairwise_power_dists(vectors, ps)
    totals = {p: base[p] * float(copies) for p in ps}
    if len(distinct) == 0:
        return totals

    rows = {p: np.zeros(n) for p in ps}
    pairs = {p: np.zeros(n * n) for p in ps}
    hits = np.zeros(len(distinct), dtype=np.int64)  # copies in which a coordinate collides
    for group, coord in _collision_blocks(seed, copies, distinct, m):
        hits += np.bincount(coord, minlength=len(distinct))
        # one entry per (group, owner vector, value), segmented by (group, vector)
        pos = _expand(ostarts[coord], ocounts[coord])
        key = np.repeat(group, ocounts[coord]) * n + owner_vec[pos]
        order = np.argsort(key, kind="stable")
        key, val = key[order], owner_val[pos][order]
        seg = _run_starts(key)
        seg_vec, seg_group = key[seg] % n, key[seg] // n
        top = np.maximum.reduceat(val, seg)
        gi, gj = _run_pairs(np.diff(_run_starts(seg_group), append=len(seg)))
        pair_key = seg_vec[gi] * n + seg_vec[gj]
        for p in ps:
            # an overflowed power (inf, or nan from inf - inf) is reported by _require_finite
            with np.errstate(over="ignore", invalid="ignore"):
                tp = np.abs(top) ** p
                rows[p] += np.bincount(seg_vec, minlength=n,
                                       weights=tp - np.add.reduceat(np.abs(val) ** p, seg))
                pairs[p] += np.bincount(pair_key, minlength=n * n,
                                        weights=np.abs(top[gi] - top[gj]) ** p - tp[gi] - tp[gj])

    # owner pairs of each shared coordinate, weighted by the copies it collides in
    shared = np.flatnonzero((hits > 0) & (ocounts > 1))
    opos = _expand(ostarts[shared], ocounts[shared])
    ci, cj = _run_pairs(ocounts[shared])
    c_hits = np.repeat(hits[shared], ocounts[shared])[ci].astype(np.float64)
    cx, cy = owner_val[opos[ci]], owner_val[opos[cj]]
    c_key = owner_vec[opos[ci]] * n + owner_vec[opos[cj]]
    for p in ps:
        with np.errstate(over="ignore", invalid="ignore"):
            pairs[p] += np.bincount(c_key, minlength=n * n,
                                    weights=c_hits * (np.abs(cx) ** p + np.abs(cy) ** p
                                                      - np.abs(cx - cy) ** p))
            pair = pairs[p].reshape(n, n)
            t = totals[p]
            t += rows[p][:, None]
            t += rows[p][None, :]
            t += pair
            t += pair.T
        t[base[p] == 0.0] = 0.0  # equal vectors have equal images
        np.fill_diagonal(t, 0.0)
        np.maximum(t, 0.0, out=t)  # a sum of powers; drops negative roundoff
    return _require_finite(totals)
