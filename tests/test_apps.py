import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sparse_sketch
from sparse_sketch.apps import (
    Clustering,
    build_estimator,
    clustering_cost,
    clustering_cost_from_pair_dists,
    diameter_exact,
    diameter_l1,
    diameter_linf_stream,
    direct_distance_sum,
    distance_sums,
    maxcut_brute,
    maxcut_from_pair_powers,
    maxcut_sketched,
    max_sign_range,
    sketched_pair_powers,
)
from sparse_sketch.datagen import random_nonneg_dataset
from sparse_sketch.errors import (
    NonNegativeRequired,
    PatternBudgetError,
    PreconditionError,
)
from sparse_sketch.vectors import INF, Dataset, SparseVector, lp_dist

from helpers import (cut_value, dense, dense_dot_query, dense_tables, pooled_copy, pooled_image,
                     pooled_row, two_partitions)


def sv(pairs, d=100):
    return SparseVector.from_pairs(pairs, d)


def ds(vectors, d=100):
    return Dataset.from_items([(f"v{i}", v) for i, v in enumerate(vectors)], d)


# --- exact diameter


def test_diameter_two_points():
    data = ds([sv({0: 1.0}), sv({1: 2.0})])
    assert diameter_exact(data, 2) == pytest.approx(math.sqrt(5))


def test_diameter_zero_and_basis_vector_max_norm():
    data = ds([SparseVector.zero(100), sv({0: 1.0})])
    assert diameter_exact(data, INF) == 1.0


def test_diameter_matches_independent_dense_scan():
    data = random_nonneg_dataset(20, 4, 60, seed=1)
    p = 3
    rows = np.stack([dense(v) for v in data.vectors])
    best = max(
        float(np.sum(np.abs(rows[i] - rows[j]) ** p) ** (1 / p))
        for i in range(20) for j in range(i + 1, 20)
    )
    assert diameter_exact(data, p) == pytest.approx(best, rel=1e-12)


def test_diameter_needs_two_vectors():
    with pytest.raises(PreconditionError):
        diameter_exact(ds([sv({0: 1.0})]), 2)


# --- streaming max-norm diameter


def test_stream_single_zero_vector():
    assert diameter_linf_stream([SparseVector.zero(10)], s=3, seed=0) == 0.0


def test_stream_two_disjoint_basis_vectors():
    # m large enough that the two support coordinates rarely collide; pick a
    # seed where they land apart and trace the two bucket extremes
    x, y = sv({0: 1.0}), sv({1: 1.0})
    from sparse_sketch.hashing import HashSpec, hash_bucket
    seed = next(s for s in range(100)
                if hash_bucket(HashSpec(s, 0, 100), 0) != hash_bucket(HashSpec(s, 0, 100), 1))
    assert diameter_linf_stream([x, y], s=1, seed=seed) == 1.0


def test_stream_never_exceeds_and_usually_equals():
    data = random_nonneg_dataset(50, 5, 10**4, seed=2)
    exact = diameter_exact(data, INF)
    equal = 0
    for seed in range(200):
        out = diameter_linf_stream(data.vectors, s=5, seed=seed)
        assert out <= exact + 1e-9
        equal += out == exact
    assert equal >= 190


def test_stream_rejects_negatives_and_oversparse():
    with pytest.raises(NonNegativeRequired):
        diameter_linf_stream([sv({0: -1.0})], s=2, seed=0)
    with pytest.raises(PreconditionError):
        diameter_linf_stream([sv({0: 1.0, 1: 1.0, 2: 1.0})], s=2, seed=0)


# --- l1 diameter via sign patterns


def test_sign_range_is_l1_isometry_on_one_vector():
    # rows 0 and (1, -2): patterns ++, +-, -+, -- give max 3 = |1| + |-2|
    rows = np.array([[0.0, 0.0], [1.0, -2.0]])
    assert max_sign_range(rows) == 3.0


def test_sign_range_spans_several_pattern_blocks():
    # 4097 rows cap a pattern block at 2^22 // 4097 = 1023, so the 2^12
    # patterns take five blocks; the planted diameter pair +-3 S is reached
    # only by S (code 1500, second block) and -S (code 2595, third block)
    rng = np.random.default_rng(5)
    rows = rng.uniform(-1.0, 1.0, (4097, 12))
    signs = 1.0 - 2.0 * ((1500 >> np.arange(12)) & 1)
    rows[0], rows[1] = 3.0 * signs, -3.0 * signs
    best = max(float(np.abs(rows[i + 1:] - rows[i]).sum(axis=1).max())
               for i in range(len(rows) - 1))
    assert best == 72.0
    assert max_sign_range(rows) == pytest.approx(best, rel=1e-12)


def test_sign_range_matches_pairwise_l1():
    rng = np.random.default_rng(6)
    rows = rng.standard_normal((7, 9))
    best = max(
        float(np.abs(rows[i] - rows[j]).sum())
        for i in range(7) for j in range(i + 1, 7)
    )
    assert max_sign_range(rows) == pytest.approx(best, rel=1e-12)


def test_l1_diameter_single_point_is_zero():
    assert diameter_l1(ds([sv({0: 2.0})]), s=1, seed=0) == 0.0


def test_l1_diameter_never_exceeds_exact():
    data = random_nonneg_dataset(30, 4, 5000, seed=3)
    exact = diameter_exact(data, 1)
    for seed in range(60):
        assert diameter_l1(data, s=4, seed=seed) <= exact + 1e-9


def test_l1_diameter_equals_projected_space_oracle():
    # the pattern machinery must compute exactly the pairwise l1 diameter
    # of the bucketed vectors
    data = random_nonneg_dataset(12, 3, 400, seed=4)
    k = 9
    for seed in (0, 1, 2):
        rows = np.stack([pooled_row(v, k, seed, 0) for v in data.vectors])
        oracle = max(
            float(np.abs(rows[i] - rows[j]).sum())
            for i in range(12) for j in range(i + 1, 12)
        )
        assert diameter_l1(data, s=3, seed=seed, k=k) == pytest.approx(oracle, rel=1e-12)


def test_l1_diameter_budget_enforced():
    data = random_nonneg_dataset(4, 2, 100, seed=5)
    with pytest.raises(PatternBudgetError):
        diameter_l1(data, s=2, seed=0, k=30)


# --- max-cut


def test_maxcut_two_points():
    data = ds([sv({0: 1.0}), sv({1: 2.0})])
    value, mask = maxcut_brute(data, 2)
    assert value == pytest.approx(5.0)  # 1 + 4
    assert mask == 1  # vector 0 alone on one side


def test_maxcut_three_collinear_points_hand_enumerated():
    # points 0, 1, 2 on one axis, p = 1: cuts {0}->3, {1}->2, {2}->3; best 3
    data = ds([SparseVector.zero(100), sv({0: 1.0}), sv({0: 2.0})])
    value, mask = maxcut_brute(data, 1)
    assert value == 3.0
    assert mask in (1, 2)  # either endpoint alone achieves it


def test_maxcut_duplicate_symmetry():
    x, y = sv({0: 1.0}), sv({5: 3.0})
    v1, _ = maxcut_brute(ds([x, x, y]), 2)
    v2, _ = maxcut_brute(ds([x, y, x]), 2)
    assert v1 == pytest.approx(v2)


def test_maxcut_size_guard():
    data = random_nonneg_dataset(23, 2, 100, seed=6)
    with pytest.raises(PreconditionError):
        maxcut_brute(data, 2)


def test_maxcut_sketched_exact_when_injective():
    data = random_nonneg_dataset(6, 3, 10**6, seed=7)
    # enormous bucket count: collisions have probability ~1e-4 per seed
    true, _ = maxcut_brute(data, 2)
    sk = maxcut_sketched(data, 2, eps=0.01, seed=11)
    assert sk == pytest.approx(true, rel=1e-9)


def test_maxcut_sketched_never_exceeds_even_at_one_bucket():
    data = random_nonneg_dataset(8, 3, 100, seed=8)
    true, _ = maxcut_brute(data, 2)
    powers = sketched_pair_powers(data, 2.0, eps=0.9, seed=0)
    # force total collision separately: a single bucket cannot expand cuts
    rows = [pooled_row(v, 1, 0, 0) for v in data.vectors]
    n = len(rows)
    one_bucket = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            one_bucket[i, j] = float(np.abs(rows[i][0] - rows[j][0])) ** 2
    v_one, _ = maxcut_from_pair_powers(one_bucket)
    assert v_one <= true + 1e-9
    assert maxcut_sketched(data, 2, eps=0.25, seed=3) <= true + 1e-9


def test_maxcut_sketched_sandwich():
    # sketched optimum is at least the true optimal cut re-scored in the
    # projected space, and at most the true optimum
    data = random_nonneg_dataset(9, 4, 3000, seed=9)
    true, true_mask = maxcut_brute(data, 2)
    for seed in range(10):
        powers = sketched_pair_powers(data, 2.0, eps=0.25, seed=seed)
        sk, _ = maxcut_from_pair_powers(powers)
        lower = cut_value(powers, true_mask)
        assert lower - 1e-9 <= sk <= true + 1e-9


# --- clustering cost


def test_cluster_cost_median_line_pair():
    # one cluster {0, 2} on a line: continuous median center costs 2,
    # member-restricted center also costs 2
    data = ds([SparseVector.zero(100), sv({0: 2.0})])
    part = Clustering((0, 0), 1, "median", 1.0)
    assert clustering_cost(data, part, centers="continuous") == pytest.approx(2.0)
    assert clustering_cost(data, part, centers="basic") == pytest.approx(2.0)


def test_cluster_cost_singletons_are_free():
    data = ds([sv({0: 1.0}), sv({1: 5.0})])
    part = Clustering((0, 1), 2, "median", 1.0)
    for centers in ("basic", "continuous"):
        assert clustering_cost(data, part, centers=centers) == 0.0


def test_cluster_cost_means_centroid():
    # {0, e0}: centroid e0/2 costs 2 * (1/2)^2 = 0.5; member center costs 1
    data = ds([SparseVector.zero(100), sv({0: 1.0})])
    part = Clustering((0, 0), 1, "means", 2.0)
    assert clustering_cost(data, part, centers="continuous") == pytest.approx(0.5)
    assert clustering_cost(data, part, centers="basic") == pytest.approx(1.0)


def test_cluster_cost_center_midrange():
    data = ds([SparseVector.zero(100), sv({0: 4.0})])
    part = Clustering((0, 0), 1, "center", INF)
    assert clustering_cost(data, part, centers="continuous") == pytest.approx(2.0)
    assert clustering_cost(data, part, centers="basic") == pytest.approx(4.0)


def test_cluster_cost_unsupported_continuous_pair():
    data = ds([sv({0: 1.0}), sv({1: 1.0})])
    part = Clustering((0, 0), 1, "median", 2.0)
    with pytest.raises(PreconditionError):
        clustering_cost(data, part, centers="continuous")


@pytest.mark.parametrize("objective,p,factor", [
    ("median", 1.0, 2.0),
    ("center", INF, 2.0),
    ("means", 2.0, 4.0),
])
def test_basic_within_factor_of_continuous(objective, p, factor):
    rng = np.random.default_rng(13)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        data = random_nonneg_dataset(n, 4, 200, seed=100 + trial)
        labels = tuple(int(v) for v in rng.integers(0, 2, size=n))
        if len(set(labels)) < 2:
            labels = (0,) * (n - 1) + (1,)
        part = Clustering(labels, 2, objective, p)
        basic = clustering_cost(data, part, centers="basic")
        cont = clustering_cost(data, part, centers="continuous")
        assert cont <= basic + 1e-9
        assert basic <= factor * cont + 1e-9


def test_cluster_cost_from_matrix_matches_direct():
    data = random_nonneg_dataset(7, 3, 100, seed=14)
    n = len(data)
    for objective, p in (("median", 1.0), ("means", 2.0), ("center", INF)):
        dists = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                dists[i, j] = lp_dist(data.vectors[i], data.vectors[j], p)
        part = Clustering((0, 0, 1, 1, 1, 0, 1), 2, objective, p)
        assert clustering_cost_from_pair_dists(dists, part) == pytest.approx(
            clustering_cost(data, part, centers="basic"), rel=1e-12)


def test_two_partition_enumeration_count():
    # n items split into 2 non-empty clusters: 2^(n-1) - 1 partitions
    parts = list(two_partitions(9))
    assert len(parts) == 2 ** 8 - 1
    assert all(len(set(a)) == 2 for a in parts)
    assert len(set(parts)) == len(parts)


def test_stacked_embedding_preserves_every_partition_cost():
    # all 2-partitions of a small dataset keep their member-restricted costs
    # within 1 +- eps; ambient-optimal costs then agree within the chained
    # factor bounds
    from sparse_sketch.embeddings import StackedEmbedding, estimate_distance, plan_params

    eps = 0.3
    data = random_nonneg_dataset(6, 3, 2000, seed=15)
    params = plan_params("all-p", s=3, n=6, eps=eps)
    stack = StackedEmbedding(params, seed=23)
    n = len(data)
    for objective, p, factor in (("median", 1.0, 2.0), ("means", 2.0, 4.0), ("center", INF, 2.0)):
        true_d = np.zeros((n, n))
        emb_d = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                true_d[i, j] = true_d[j, i] = lp_dist(data.vectors[i], data.vectors[j], p)
                emb_d[i, j] = emb_d[j, i] = estimate_distance(
                    stack, data.vectors[i], data.vectors[j], p)
        for labels in two_partitions(n):
            part = Clustering(labels, 2, objective, p)
            basic_true = clustering_cost_from_pair_dists(true_d, part)
            basic_emb = clustering_cost_from_pair_dists(emb_d, part)
            assert (1 - eps) * basic_true - 1e-9 <= basic_emb <= (1 + eps) * basic_true + 1e-9
            cont_true = clustering_cost(data, part, centers="continuous")
            sq = 2.0 if objective == "means" else 1.0
            chained = factor ** sq * (1 + eps)
            if cont_true > 0:
                ratio = basic_emb / cont_true
                assert 1.0 / chained - 1e-9 <= ratio <= chained + 1e-9


# --- distance estimation


def test_estimator_two_basis_vectors_zero_query():
    data = ds([sv({0: 1.0}, d=10**6), sv({1: 1.0}, d=10**6)], d=10**6)
    est = build_estimator(data, p=2, eps=0.5, seed=1)
    # enormous ambient dimension: supports essentially never collide
    assert est.query(SparseVector.zero(10**6)) == pytest.approx(2.0)


def test_estimator_query_of_sole_member_is_zero():
    x = sv({3: 2.0})
    data = ds([x])
    est = build_estimator(data, p=2, eps=0.5, seed=2)
    assert est.query(x) == pytest.approx(0.0, abs=1e-12)


def test_estimator_matches_direct_sum_on_small_data():
    data = random_nonneg_dataset(30, 4, 10**5, seed=16)
    est = build_estimator(data, p=4, eps=0.3, seed=3)
    rng = np.random.default_rng(17)
    for _ in range(10):
        sup = np.sort(rng.choice(10**5, size=4, replace=False))
        y = SparseVector.from_pairs(
            zip(sup.tolist(), (1.0 - rng.random(4)).tolist()), 10**5)
        direct = direct_distance_sum(data, y, 4)
        assert est.query(y) == pytest.approx(direct, rel=0.3)


def test_estimator_power_table_constant_slot():
    # exponent-zero slot counts the dataset in every bucket: sums to n * m
    data = random_nonneg_dataset(12, 3, 1000, seed=18)
    est = build_estimator(data, p=2, eps=0.4, seed=4)
    tables = dense_tables(est)
    for rep in range(est.R):
        assert float(tables[rep, :, 0].sum()) == pytest.approx(12.0 * est.m)


def test_estimator_repetition_count_and_width():
    data = random_nonneg_dataset(200, 5, 10**4, seed=19)
    est = build_estimator(data, p=4, eps=0.25, seed=5)
    assert est.R == math.ceil(8 * math.log(200)) == 43
    assert est.m == math.ceil(200 * 5 / 0.25 ** 2) == 16000


def test_estimator_query_op_count():
    # R totals plus p cells per landed bucket, counted here one repetition
    # at a time; the bound R * m * (p + 1) does not grow with n
    data = random_nonneg_dataset(20, 3, 1000, seed=20)
    est = build_estimator(data, p=2, eps=0.5, seed=6)
    for y in (*data.vectors[:5], SparseVector.zero(1000)):
        landed = sum(len(pooled_copy(y, est.m, est.seed, rep)) for rep in range(est.R))
        assert est.query_cells(y) == est.R + est.p * landed <= est.R * est.m * (est.p + 1)


def test_estimator_lower_median_rule():
    data = random_nonneg_dataset(10, 2, 500, seed=21)
    est = build_estimator(data, p=2, eps=0.5, seed=7)
    # recompute the median by hand from per-repetition estimates
    y = data.vectors[0]
    tables = dense_tables(est)
    per_rep = []
    for rep in range(est.R):
        z = pooled_row(y, est.m, est.seed, rep)
        total = 0.0
        for k in range(est.p + 1):
            sign = -1.0 if k % 2 else 1.0
            total += sign * math.comb(est.p, k) * float(
                (z ** k) @ tables[rep, :, est.p - k])
        per_rep.append(total)
    expect = sorted(per_rep)[(est.R - 1) // 2]
    assert est.query(y) == pytest.approx(expect, rel=1e-12)


def per_copy_estimator(est, data):
    """Tables and per-rep query estimates built one repetition at a time from
    ``pooled_image``, adding the vectors in order, with repeated
    multiplication for the powers; returns the tables, the per-repetition
    estimates before the clamp at 0, the query and the number of images in
    which two coordinates collided."""
    tables = np.zeros((est.R, est.m, est.p + 1))
    tables[:, :, 0] = float(len(data))
    collided = 0
    for rep in range(est.R):
        for vec in data.vectors:
            b, v = pooled_image(vec, est.m, est.seed, rep)
            collided += len(b) < vec.sparsity
            ve = v
            for e in range(1, est.p + 1):
                np.add.at(tables[rep, :, e], b, ve)
                if e < est.p:
                    ve = ve * v

    def per_rep(y):
        # the k = 0 term over all buckets, then the k >= 1 terms of each
        # landed bucket added one by one in bucket order
        out = []
        for rep in range(est.R):
            b, z = pooled_image(y, est.m, est.seed, rep)
            terms, zk = np.zeros(len(b)), z
            for k in range(1, est.p + 1):
                terms += (-1.0 if k % 2 else 1.0) * math.comb(est.p, k) * zk * tables[rep, b, est.p - k]
                zk = zk * z
            landed = 0.0
            for term in terms.tolist():
                landed += term
            out.append(float(tables[rep, :, est.p].sum()) + landed)
        return out

    def query(y):
        return sorted(max(e, 0.0) for e in per_rep(y))[(est.R - 1) // 2]

    return tables, per_rep, query, collided


# Per query, an allowance of (p + 2) roundings of the largest per-repetition
# sum of |terms|: k - 1 products form z^k, two scale it, one adds it. The
# sparse and the dense query each get one; both stay under 0.35 of one here
# and at the criterion-13 shape.
_ROUNDINGS = 2


@pytest.mark.parametrize("p", [2, 4, 6])
@pytest.mark.parametrize("n, s, d, eps", [(1, 3, 100, 0.5), (60, 5, 40, 0.95)],
                         ids=["single-vector", "shared-coordinates"])
def test_estimator_equals_the_per_copy_build(p, n, s, d, eps):
    # 60 vectors over 40 coordinates put many vectors in each table cell,
    # where the order of the additions shows in the last bits
    data = random_nonneg_dataset(n, s, d, seed=40 + p)
    est = build_estimator(data, p=p, eps=eps, seed=p)
    tables, _, query, collided = per_copy_estimator(est, data)
    assert (dense_tables(est) == tables).all()
    assert n == 1 or collided > 0
    for y in random_nonneg_dataset(5, s, d, seed=50 + p).vectors + data.vectors[:2]:
        answer = est.query(y)
        assert answer == query(y)
        # the dense dots sum in another order; each query stays within its
        # rounding allowance of the exact value
        dense_answer, scale = dense_dot_query(est, y)
        assert abs(answer - dense_answer) <= _ROUNDINGS * (p + 2) * 2.0 ** -52 * scale


@pytest.mark.parametrize("p", [2, 4, 6])
def test_estimator_clamps_a_cancelled_self_query_to_zero(p):
    # eight coordinates in one vector: the binomial terms of its own query
    # cancel to a few units in the last place below 0 in every repetition
    data = random_nonneg_dataset(1, 8, 100, seed=0)
    est = build_estimator(data, p=p, eps=0.5, seed=p)
    _, per_rep, _, _ = per_copy_estimator(est, data)
    y = data.vectors[0]
    assert sorted(per_rep(y))[(est.R - 1) // 2] < 0.0
    assert est.query(y) == 0.0


def test_estimator_build_memory_follows_the_landed_keys():
    # at the criterion-13 data with p = 16, fewer than 6% of the R * m keys
    # hold a coordinate; a dense table would take R * m * (p + 1) floats
    data = random_nonneg_dataset(200, 5, 10**4, seed=1313)
    tracemalloc.start()
    try:
        est = build_estimator(data, p=16, eps=0.25, seed=1323)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < est.R * est.m * (est.p + 1) * 8 / 4


def test_estimator_rows_are_checked_against_the_cell_budget():
    # R * m = 6 * 4,400,000 keys fit the budget, but 11,000 distinct
    # coordinates can land on 66,000 of them, and 66,001 rows of p + 1 = 1029
    # cells do not
    halves = [{j: 1.0 for j in range(k, 11000, 2)} for k in (0, 1)]
    data = ds([sv(h, d=11000) for h in halves], d=11000)
    with pytest.raises(PreconditionError, match="estimator rows needs 67915029 cells"):
        build_estimator(data, p=1028, eps=0.5, seed=0)


def test_distance_sums_equal_the_per_query_sums():
    data = random_nonneg_dataset(20, 4, 300, seed=25)
    queries = (random_nonneg_dataset(6, 4, 300, seed=26).vectors
               + (SparseVector.zero(300), data.vectors[0], sv({0: 1e200, 5: 2.0}, d=300)))

    def python_sum(y, p):  # Python's float power and sum, in dataset order
        try:
            return sum(lp_dist(x, y, p) ** p for x in data.vectors)
        except OverflowError:
            return math.inf

    for p in (1, 2, 3, 4, 7):
        sums = distance_sums(data, queries, p)
        assert sums == [direct_distance_sum(data, y, p) for y in queries]
        assert sums == [python_sum(y, p) for y in queries]
        assert math.isfinite(sums[-1]) == (p == 1)  # (1e200)^p overflows above p = 1
    assert distance_sums(data, (), 2) == []
    assert distance_sums(Dataset.from_items([], dim=300), queries, 2) == [0.0] * len(queries)


_THREADS_PROBE = """
from sparse_sketch.apps import build_estimator
from sparse_sketch.datagen import random_nonneg_dataset
est = build_estimator(random_nonneg_dataset(200, 5, 10**4, seed=1313), p=4, eps=0.25, seed=1323)
assert est.m > 10**4
queries = random_nonneg_dataset(20, 5, 10**4, seed=1333).vectors
print(" ".join(est.query(y).hex() for y in queries))
"""


def test_estimator_answers_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot longer than 10^4 across its threads, which moves
    # the last bits of a dense-dot query; the sparse query makes no BLAS call
    src = str(Path(sparse_sketch.__file__).resolve().parents[1])
    answers = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _THREADS_PROBE], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        answers.append(out.stdout.split())
    assert len(answers[0]) == 20
    assert answers[0] == answers[1]


def test_estimator_rejects_bad_inputs():
    data = random_nonneg_dataset(5, 2, 100, seed=23)
    with pytest.raises(PreconditionError):
        build_estimator(data, p=3, eps=0.5, seed=0)
    est = build_estimator(data, p=2, eps=0.5, seed=0)
    with pytest.raises(NonNegativeRequired):
        est.query(sv({0: -1.0}))
    with pytest.raises(PreconditionError):
        est.query(sv({0: 1.0}, d=101))


def test_estimator_tables_are_read_only():
    # writing the tables would leave the totals stale and the answers unchanged
    data = random_nonneg_dataset(6, 2, 300, seed=22)
    est = build_estimator(data, p=2, eps=0.6, seed=8)
    queries = data.vectors + random_nonneg_dataset(4, 2, 300, seed=24).vectors
    before = [est.query(y) for y in queries]
    with pytest.raises(ValueError, match="read-only"):
        est.slots[:] = 0
    with pytest.raises(ValueError, match="read-only"):
        est.rows[:, est.p] *= 2
    with pytest.raises(ValueError, match="read-only"):
        est.totals[0] = 0.0
    assert [est.query(y) for y in queries] == before
