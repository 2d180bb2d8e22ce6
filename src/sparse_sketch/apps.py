"""Downstream applications of the max-pool embedding, each with a
brute-force oracle at desk scale: diameter, max-cut, clustering cost, and
sublinear distance-sum estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .embeddings import MaxHashMap, _scatter, landed_buckets, max_embed, require_cells
from .errors import ParseError, PatternBudgetError, PreconditionError
from .hashing import HashSpec
from .pairwise import lp_dists, pairwise_power_dists, stacked_image, stacked_power_sums
from .vectors import (
    INF,
    Dataset,
    SparseVector,
    _check_p,
    require_nonneg,
)

OBJECTIVES = ("median", "means", "center")

_MAXCUT_LIMIT = 22
_PATTERN_BUDGET = 24


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
    mmap = MaxHashMap(HashSpec(seed, 0, m))
    hi = np.full(m, -np.inf)
    lo = np.full(m, np.inf)
    count = np.zeros(m, dtype=np.int64)
    n = 0
    for vec in vectors:
        require_nonneg(vec, what="max-norm diameter stream")
        if vec.sparsity > s:
            raise PreconditionError(f"vector has {vec.sparsity} non-zeros, budget is {s}")
        b, v = landed_buckets(mmap, vec)
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
    mmap = MaxHashMap(HashSpec(seed, 0, k))
    rows = []
    for _, vec in dataset:
        require_nonneg(vec, what="l1 diameter sketch")
        if vec.sparsity > s:
            raise PreconditionError(f"vector has {vec.sparsity} non-zeros, budget is {s}")
        rows.append(max_embed(mmap, vec))
    return max_sign_range(np.stack(rows))


# ---------------------------------------------------------------------------
# max-cut


def cut_value(powers: np.ndarray, mask: int) -> float:
    """Value of the bipartition encoded by mask bits over a pair-power matrix."""
    n = powers.shape[0]
    side = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
    return float(powers[np.ix_(side, ~side)].sum())


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


def _cluster_cost_around(center_dists: np.ndarray, objective: str) -> float:
    if objective == "median":
        return float(center_dists.sum())
    if objective == "means":
        return float((center_dists ** 2).sum())
    return float(center_dists.max(initial=0.0))


def clustering_cost_from_pair_dists(dists: np.ndarray, clustering: Clustering) -> float:
    """Basic-mode cost (centers restricted to members) from a distance matrix."""
    per_cluster = []
    for members in clustering.clusters():
        sub = dists[np.ix_(members, members)]
        best = math.inf
        for row in range(len(members)):
            best = min(best, _cluster_cost_around(sub[row], clustering.objective))
        per_cluster.append(best)
    if clustering.objective == "center":
        return max(per_cluster)
    return float(sum(per_cluster))


def _padded_column(members: Sequence[SparseVector], coord: int) -> np.ndarray:
    vals = [v.to_dict().get(coord, 0.0) for v in members]
    return np.asarray(vals)


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
    pairs = []
    for coord in union:
        col = _padded_column(members, coord)
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
    if clustering.objective == "center":
        return max(per_cluster)
    return float(sum(per_cluster))


def two_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All assignments of n items into exactly 2 non-empty clusters, item 0
    pinned to cluster 0 (so each partition appears once)."""
    for code in range(1, 1 << (n - 1)):
        yield tuple(0 if i == 0 else (code >> (i - 1)) & 1 for i in range(n))


# ---------------------------------------------------------------------------
# distance estimation


@dataclass(frozen=True)
class DistanceEstimator:
    """Sublinear estimator of sum_x ||x - y||_p^p for even p.

    Per repetition j it stores, for every bucket i and exponent e <= p, the
    dataset power sums sum_x f_j(x)_i^e (with 0^0 := 1, so the e = 0 slot
    is the dataset size). A query expands sum_x ||f_j(x) - f_j(y)||_p^p
    binomially from those sums, touching m * (p + 1) coefficients per
    repetition, and returns the lower median over repetitions.
    """

    p: int
    eps: float
    R: int
    seed: int
    m: int
    power_sums: np.ndarray  # (R, m, p + 1); [..., e] = sum of e-th powers
    dim: int

    @property
    def n(self) -> int:
        return int(round(self.power_sums[0, 0, 0]))

    @property
    def last_query_ops(self) -> int:
        """Coefficients a query touches: m * (p + 1) per repetition."""
        return self.R * self.m * (self.p + 1)

    def map_for(self, rep: int) -> MaxHashMap:
        return MaxHashMap(HashSpec(self.seed, rep, self.m))

    def query(self, y: SparseVector) -> float:
        require_nonneg(y, what="distance estimation query")
        if y.dim != self.dim:
            raise PreconditionError(f"estimator built over dimension {self.dim}, got {y.dim}")
        z = _scatter(*stacked_image(y, self.m, self.R, self.seed), self.R * self.m)
        z = z.reshape(self.R, self.m)  # repetition r is copy r
        estimates = np.empty(self.R)
        binoms = [math.comb(self.p, k) for k in range(self.p + 1)]
        for rep in range(self.R):
            total = 0.0
            zk = np.ones(self.m)  # z^0, with 0^0 = 1
            for k in range(self.p + 1):
                sign = -1.0 if k % 2 else 1.0
                total += sign * binoms[k] * float(zk @ self.power_sums[rep, :, self.p - k])
                if k < self.p:
                    zk = zk * z[rep]
            estimates[rep] = total
        order = np.sort(estimates)
        return float(order[(self.R - 1) // 2])

    def to_json_dict(self) -> dict:
        tables = self.power_sums[:, :, ::-1]  # exponent e -> slot k = p - e
        return {
            "p": self.p,
            "eps": self.eps,
            "R": self.R,
            "seed": self.seed,
            "m": self.m,
            "dim": self.dim,
            "tables": tables.tolist(),
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "DistanceEstimator":
        """Inverse of `to_json_dict`; a missing key is a ParseError."""
        try:
            tables = np.asarray(obj["tables"], dtype=np.float64)
            return DistanceEstimator(
                p=int(obj["p"]),
                eps=float(obj["eps"]),
                R=int(obj["R"]),
                seed=int(obj["seed"]),
                m=int(obj["m"]),
                power_sums=tables[:, :, ::-1].copy(),
                dim=int(obj["dim"]),
            )
        except KeyError as e:
            raise ParseError(f"estimator JSON lacks key {e}")


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
    require_cells(reps * m * (p + 1), "estimator tables")
    # repetition r is copy r; vector order keeps each cell's summation order
    power_sums = np.zeros((reps * m, p + 1))
    power_sums[:, 0] = float(n)  # 0^0 := 1 for every bucket and vector
    for vec in dataset.vectors:
        keys, v = stacked_image(vec, m, reps, seed)
        ve = v
        for e in range(1, p + 1):
            np.add.at(power_sums[:, e], keys, ve)
            if e < p:
                ve = ve * v
    return DistanceEstimator(p=p, eps=eps, R=reps, seed=seed, m=m,
                             power_sums=power_sums.reshape(reps, m, p + 1), dim=dataset.dim)


def direct_distance_sum(dataset: Dataset, y: SparseVector, p) -> float:
    """Brute-force sum_x ||x - y||_p^p; the estimator's oracle."""
    p = _check_p(p)
    try:
        return float(sum(d ** p for d in lp_dists(dataset.vectors, [y], p)[:, 0].tolist()))
    except OverflowError:  # a p-th power beyond float range
        return math.inf
