"""Downstream applications of the max-pool embedding, each with a
brute-force oracle at desk scale: diameter, max-cut, clustering cost, and
sublinear distance-sum estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import PatternBudgetError, PreconditionError
from .hashing import bucket_grid
from .pairwise import (
    _entries,
    _max_pool_keys,
    _run_starts,
    lp_dists,
    pairwise_power_dists,
    stacked_image,
    stacked_power_sums,
)
from .vectors import (
    INF,
    Dataset,
    SparseVector,
    _check_p,
    _read_only,
    require_cells,
    require_nonneg,
)

OBJECTIVES = ("median", "means", "center")

_MAXCUT_LIMIT = 22
_PATTERN_BUDGET = 24
_IMAGE_BLOCK = 1 << 16  # (stored entry, repetition) cells per estimator build block


# ---------------------------------------------------------------------------
# diameter


def diameter_exact(dataset: Dataset, p) -> float:
    """Exact diameter: the largest entry of the ``lp_dists`` matrix; the
    oracle for both sketched variants."""
    if len(dataset) < 2:
        raise PreconditionError("diameter needs at least two vectors")
    return float(lp_dists(dataset.vectors, dataset.vectors, p).max())


def diameter_linf_stream(vectors: Iterable[SparseVector], s: int, seed: int) -> float:
    """Single-pass max-norm diameter sketch over non-negative s-sparse input.

    Projects each vector through one max-pool map with m = 100 s buckets and
    keeps a per-bucket running max and min of the projected values; the
    answer is the largest per-bucket range. Never exceeds the true max-norm
    diameter; memory is O(m) words regardless of stream length.
    """
    m = 100 * max(1, s)
    require_cells(m, "max-norm diameter sketch")
    hi = np.full(m, -np.inf)
    lo = np.full(m, np.inf)
    count = np.zeros(m, dtype=np.int64)
    n = 0
    for vec in vectors:
        require_nonneg(vec, what="max-norm diameter stream")
        if vec.sparsity > s:
            raise PreconditionError(f"vector has {vec.sparsity} non-zeros, budget is {s}")
        b, v = stacked_image(vec, m, 1, seed)
        np.maximum.at(hi, b, v)
        np.minimum.at(lo, b, v)
        count[b] += 1
        n += 1
    touched = count > 0
    if n == 0 or not touched.any():
        return 0.0
    floor = np.where(count == n, lo, 0.0)
    return float(np.max((hi - floor)[touched], initial=0.0))


def max_sign_range(rows: np.ndarray) -> float:
    """max over sign patterns S of (max_v S.v - min_v S.v); equals the
    largest pairwise l1 distance among the rows.

    The 2^k patterns go through in blocks of 2^14, fewer above 256 rows, so
    a block's (rows, patterns) product holds at most 2^22 floats."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    n, k = rows.shape
    if n < 2:
        return 0.0
    total = 1 << k
    block = max(1, min(1 << 14, (1 << 22) // n))
    best = 0.0
    for start in range(0, total, block):
        codes = np.arange(start, min(start + block, total), dtype=np.int64)
        bits = (codes[:, None] >> np.arange(k, dtype=np.int64)[None, :]) & 1
        signs = 1.0 - 2.0 * bits
        dots = rows @ signs.T
        best = max(best, float((dots.max(axis=0) - dots.min(axis=0)).max()))
    return best


def diameter_l1(dataset: Dataset, s: int, seed: int, k: int | None = None) -> float:
    """l1 diameter sketch: max-pool to k buckets, then reduce l1 to the
    max norm by enumerating all 2^k sign patterns.

    Never exceeds the true l1 diameter for non-negative input. k defaults
    to min(3 s, 24); a k above 24 raises PatternBudgetError, since the
    pattern pass walks all 2^k sign rows.

    Equality holds when some witness pair (one at the true diameter) has
    its union support land in distinct buckets; for continuous values any
    collision inside that support strictly lowers the pair's image
    distance, so that is also the only way. A union of u coordinates lands
    collision-free with probability prod_{i<u} (1 - i/k), e.g. 0.019 for
    u = 10, k = 15, so exact answers are the exception, not the rule.
    """
    if k is None:
        k = min(3 * max(1, s), _PATTERN_BUDGET)
    if k < 1:
        raise PreconditionError("need at least one projected dimension")
    if k > _PATTERN_BUDGET:
        raise PatternBudgetError(f"k={k} exceeds the 2^k enumeration budget of {_PATTERN_BUDGET}")
    if len(dataset) < 2:
        return 0.0
    rows = np.zeros((len(dataset), k))
    for i, (_, vec) in enumerate(dataset):
        require_nonneg(vec, what="l1 diameter sketch")
        if vec.sparsity > s:
            raise PreconditionError(f"vector has {vec.sparsity} non-zeros, budget is {s}")
        keys, vals = stacked_image(vec, k, 1, seed)
        rows[i, keys] = vals
    return max_sign_range(rows)


# ---------------------------------------------------------------------------
# max-cut


def maxcut_from_pair_powers(powers: np.ndarray) -> tuple[float, int]:
    """Exact max-cut by enumerating the 2^(n-1) bipartitions (last vector
    pinned outside the cut side). Ties resolve to the smallest mask."""
    n = powers.shape[0]
    if n < 2:
        return 0.0, 0
    best_val, best_mask = 0.0, 0
    total = 1 << (n - 1)
    chunk = 1 << 12
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        side = ((codes[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1).astype(np.float64)
        vals = np.einsum("bi,ij,bj->b", side, powers, 1.0 - side)
        top = int(np.argmax(vals))
        if vals[top] > best_val:
            best_val = float(vals[top])
            best_mask = int(codes[top])
    return best_val, best_mask


def maxcut_brute(dataset: Dataset, p) -> tuple[float, int]:
    """Exact optimum of sum-over-cut-edges of ||x - y||_p^p, with a witness mask."""
    p = _check_p(p)
    if p == INF:
        raise PreconditionError("max-cut uses finite p")
    n = len(dataset)
    if n > _MAXCUT_LIMIT:
        raise PreconditionError(f"brute-force max-cut capped at n = {_MAXCUT_LIMIT}, got {n}")
    return maxcut_from_pair_powers(pairwise_power_dists(dataset.vectors, [p])[p])


def sketch_buckets(s: int, eps: float) -> int:
    """m = ceil(200 s / eps^2), the bucket count of the max-cut sketch and
    the distance estimator, for eps in (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise PreconditionError(f"eps must be in (0, 1), got {eps}")
    try:
        return math.ceil(200.0 * s / (eps * eps))
    except (OverflowError, ZeroDivisionError):  # m is infinite, or eps^2 is 0
        raise PreconditionError(f"eps = {eps} is too small to size a sketch") from None


def sketched_pair_powers(dataset: Dataset, p: float, eps: float, seed: int) -> np.ndarray:
    """Pairwise p-th-power distances after one max-pool map with
    ``sketch_buckets`` buckets."""
    require_nonneg(*dataset.vectors, what="max-pool sketch")
    m = sketch_buckets(max(1, dataset.max_sparsity), eps)
    return stacked_power_sums(dataset.vectors, m, 1, seed, [p])[float(p)]


def maxcut_sketched(dataset: Dataset, p, eps: float, seed: int) -> float:
    """Max-cut of the projected dataset; never exceeds the true optimum."""
    p = _check_p(p)
    if p == INF:
        raise PreconditionError("max-cut uses finite p")
    if len(dataset) > _MAXCUT_LIMIT:
        raise PreconditionError(f"oracle-verifiable mode capped at n = {_MAXCUT_LIMIT}")
    value, _ = maxcut_from_pair_powers(sketched_pair_powers(dataset, p, eps, seed))
    return value


# ---------------------------------------------------------------------------
# clustering cost


@dataclass(frozen=True)
class Clustering:
    """A partition of dataset indices into k non-empty clusters plus the
    objective it is scored under."""

    assignment: tuple[int, ...]
    k: int
    objective: str
    p: float

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        _check_p(self.p)
        if self.k < 1:
            raise ValueError("need k >= 1")
        seen = set(self.assignment)
        if seen != set(range(self.k)):
            raise ValueError(f"assignment must use every label in 0..{self.k - 1}")

    def clusters(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for i, c in enumerate(self.assignment):
            out[c].append(i)
        return out


def _cluster_cost_around(center_dists: np.ndarray, objective: str) -> np.ndarray:
    """The cost of a cluster around a center from the members' distances to
    it, reduced along the last axis: a matrix gives one cost per row."""
    if objective == "median":
        return center_dists.sum(axis=-1)
    if objective == "means":
        return (center_dists ** 2).sum(axis=-1)
    return center_dists.max(axis=-1, initial=0.0)


def _total_cost(per_cluster: list, objective: str) -> float:
    """The largest cluster cost for ``center``, else the float sum of them."""
    return float(max(per_cluster)) if objective == "center" else float(sum(per_cluster))


def clustering_cost_from_pair_dists(dists: np.ndarray, clustering: Clustering) -> float:
    """Basic-mode cost (centers restricted to members) from a distance matrix."""
    return _total_cost([_cluster_cost_around(dists[np.ix_(members, members)],
                                             clustering.objective).min()
                        for members in clustering.clusters()], clustering.objective)


def continuous_center(members: Sequence[SparseVector], objective: str, p) -> SparseVector:
    """Closed-form optimal center for the supported (objective, p) pairs:
    coordinate-wise median (median, p=1), centroid (means, p=2), and
    coordinate-wise midrange (center, p=INF)."""
    p = _check_p(p)
    supported = {("median", 1.0), ("means", 2.0), ("center", INF)}
    if (objective, p) not in supported:
        raise PreconditionError(
            f"no closed-form center for objective={objective!r} with p={p}"
        )
    dim = members[0].dim
    union = sorted(set().union(*(set(v.indices) for v in members)))
    entries = [v.to_dict() for v in members]
    pairs = []
    for coord in union:
        col = np.asarray([e.get(coord, 0.0) for e in entries])  # 0.0 where absent
        if objective == "median":
            val = float(np.median(col))
        elif objective == "means":
            val = float(col.mean())
        else:
            val = (float(col.max()) + float(col.min())) / 2.0
        pairs.append((coord, val))
    return SparseVector.from_pairs(pairs, dim)


def clustering_cost(dataset: Dataset, clustering: Clustering, centers: str = "basic") -> float:
    """Cost of a fixed partition, with centers restricted to members
    ("basic") or chosen optimally in the ambient space ("continuous").

    Basic never undercuts continuous, and overshoots it by at most a factor
    of 2 (median/center) or 4 (means).
    """
    if len(clustering.assignment) != len(dataset):
        raise PreconditionError("assignment length must match dataset size")
    if centers not in ("basic", "continuous"):
        raise ValueError("centers must be 'basic' or 'continuous'")
    vecs = dataset.vectors
    if centers == "basic":
        return clustering_cost_from_pair_dists(lp_dists(vecs, vecs, clustering.p), clustering)
    per_cluster = []
    for members in clustering.clusters():
        group = [vecs[i] for i in members]
        u = continuous_center(group, clustering.objective, clustering.p)
        per_cluster.append(_cluster_cost_around(lp_dists(group, [u], clustering.p)[:, 0],
                                                clustering.objective))
    return _total_cost(per_cluster, clustering.objective)


# ---------------------------------------------------------------------------
# distance estimation


@dataclass(frozen=True)
class DistanceEstimator:
    """Sublinear estimator of sum_x ||x - y||_p^p for even p.

    Per repetition j, bucket i and exponent e <= p the tables hold the
    dataset power sums S_e = sum_x f_j(x)_i^e (with 0^0 := 1, so S_0 is the
    dataset size). A query expands sum_x ||f_j(x) - f_j(y)||_p^p binomially
    as sum_i sum_k (-1)^k C(p, k) f_j(y)_i^k S_{p-k}. The k = 0 term, S_p
    summed over all buckets, does not depend on y and is kept per repetition
    in `totals`; the k >= 1 terms vanish off the buckets y lands in. So a
    query reads R totals and p cells per landed bucket (`query_cells`),
    clamps each repetition's estimate at 0 and returns the lower median over
    repetitions.

    Only the keys rep * m + bucket that some dataset coordinate lands on
    have a row of their own in `rows`, in key order after row 0, the absent
    row (n, 0, ..., 0) that every other key shares. `slots` holds each of
    the R * m keys' row, so a query gathers its cells in one step.
    """

    p: int
    eps: float
    R: int
    seed: int
    m: int
    dim: int
    slots: np.ndarray  # (R * m,) int32; the row of each key
    rows: np.ndarray  # (landed keys + 1, p + 1); [:, e] = S_e
    totals: np.ndarray  # (R,) the k = 0 terms

    def __post_init__(self):
        # read-only, so the totals cannot go stale
        for name in ("slots", "rows", "totals"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    def _landed_cells(self, y: SparseVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """y's stacked image (keys rep * m + bucket, pooled values) and the
        table cells S_0..S_{p-1} at each key, one row per key."""
        require_nonneg(y, what="distance estimation query")
        if y.dim != self.dim:
            raise PreconditionError(f"estimator built over dimension {self.dim}, got {y.dim}")
        keys, z = stacked_image(y, self.m, self.R, self.seed)  # repetition r is copy r
        return keys, z, np.take(self.rows, self.slots[keys], axis=0)[:, :self.p]

    def query_cells(self, y: SparseVector) -> int:
        """Table cells a query of y reads: the R totals plus p per key of
        y's image, at most R * m * (p + 1)."""
        return self.R + self._landed_cells(y)[2].size

    def query(self, y: SparseVector) -> float:
        keys, z, cells = self._landed_cells(y)
        terms = np.zeros(len(keys))
        zk = z
        for k in range(1, self.p + 1):
            sign = -1.0 if k % 2 else 1.0
            terms += sign * math.comb(self.p, k) * zk * cells[:, self.p - k]
            if k < self.p:
                zk = zk * z
        # bincount adds each repetition's terms in key order
        sparse = np.bincount(keys // self.m, weights=terms, minlength=self.R)
        # a sum of p-th powers; binomial cancellation can leave it just below 0
        estimates = np.maximum(self.totals + sparse, 0.0)
        return float(np.sort(estimates)[(self.R - 1) // 2])


def build_estimator(dataset: Dataset, p: int, eps: float, seed: int) -> DistanceEstimator:
    """Preprocess a non-negative dataset into a DistanceEstimator with
    R = ceil(8 ln n) repetitions of m = ceil(200 s / eps^2) buckets."""
    if p % 2 != 0 or not 2 <= p <= 1028:  # above 1028, comb(p, p / 2) overflows a float
        raise PreconditionError(f"estimator needs an even p in [2, 1028], got {p}")
    require_nonneg(*dataset.vectors, what="distance estimator build")
    n = len(dataset)
    if n < 1:
        raise PreconditionError("estimator needs a non-empty dataset")
    reps = max(1, math.ceil(8.0 * math.log(max(2, n))))
    m = sketch_buckets(max(1, dataset.max_sparsity), eps)
    width = reps * m
    require_cells(width, "estimator tables")  # `slots`
    # every stored entry in vector order: its vector, coordinate rank and value
    vec, col, val, distinct = _entries(dataset.vectors)
    # a coordinate lands on one key per repetition, so at most
    # reps * min(m, distinct) keys get a row after the absent row 0
    bound = 1 + reps * min(m, len(distinct))
    require_cells(bound * (p + 1), "estimator rows")
    rows = np.zeros((bound, p + 1))
    slots = np.zeros(width, dtype=np.int32)
    totals = np.empty(reps)
    dense = np.empty(m)
    landed = 1
    # blocks of repetitions hold at most _IMAGE_BLOCK (stored entry, repetition)
    # cells; a key's row sums only its own repetition, so blocking is exact
    step = max(1, _IMAGE_BLOCK // max(1, len(col)))
    for start in range(0, reps, step):
        copies = min(step, reps - start)
        grid = bucket_grid(seed, copies, distinct, m, start=start)
        # every vector's stacked image in vector order, from keys vec * copies
        # * m + rep * m + bucket (below n * 2^26, CELL_BUDGET, inside int64);
        # one row per entry, ascending in rep, so the sort merges short runs
        keys = (vec * (copies * m))[:, None] + (np.arange(copies) * m + grid[:, col].T)
        keys, v = _max_pool_keys(keys.ravel(), np.repeat(val, copies))
        keys %= copies * m
        block = np.sort(keys)
        block = block[_run_starts(block)]  # the block's landed keys
        here = slots[start * m:(start + copies) * m]
        here[block] = np.arange(landed, landed + len(block), dtype=np.int32)
        inverse = here[keys] - landed
        span = slice(landed, landed + len(block))
        # bincount adds in input order, so each key's powers in vector order
        ve = v
        for e in range(1, p + 1):
            rows[span, e] = np.bincount(inverse, weights=ve, minlength=len(block))
            if e < p:
                ve = ve * v
        # S_p summed over each repetition's m buckets as a dense row would be,
        # in one reused row
        ends = np.searchsorted(block, np.arange(1, copies + 1) * m).tolist()
        for r, (lo, hi) in enumerate(zip([0] + ends, ends)):
            dense[:] = 0.0
            dense[block[lo:hi] - r * m] = rows[landed + lo:landed + hi, p]
            totals[start + r] = dense.sum()
        landed = span.stop
    rows = rows[:landed]
    rows[:, 0] = float(n)  # 0^0 := 1 for every bucket and vector
    return DistanceEstimator(p=p, eps=eps, R=reps, seed=seed, m=m, dim=dataset.dim,
                             slots=slots, rows=rows, totals=totals)


def distance_sums(dataset: Dataset, ys: Sequence[SparseVector], p) -> list[float]:
    """Brute-force sum_x ||x - y||_p^p for each y of ys, from one
    ``lp_dists`` matrix: a Python sum of d ** p down each column, inf where
    a p-th power leaves float range. ``lp_dists`` checks the len(dataset) x
    len(ys) matrix against CELL_BUDGET before allocating it."""
    p = _check_p(p)
    out = []
    for column in lp_dists(dataset.vectors, ys, p).T.tolist():
        try:
            out.append(float(sum(d ** p for d in column)))
        except OverflowError:
            out.append(math.inf)
    return out


def direct_distance_sum(dataset: Dataset, y: SparseVector, p) -> float:
    """Brute-force sum_x ||x - y||_p^p; the estimator's oracle."""
    return distance_sums(dataset, [y], p)[0]
