import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_sketch.embeddings import (
    StackedEmbedding,
    estimate_distance,
    estimate_distance_embedded,
    estimate_sum_norm,
    plan_params,
    stack_embed,
    with_overrides,
)
from sparse_sketch.errors import EmbeddingMismatch, NonNegativeRequired, PreconditionError
from sparse_sketch.hashing import HashSpec, hash_bucket
from sparse_sketch.pairwise import _max_pool_keys
from sparse_sketch.probes import birthday_matrix
from sparse_sketch.vectors import INF, SparseVector, lp_dist, lp_norm, sum_vectors

from helpers import copy_diffs, dense_lp, pooled_copy, pooled_row, random_sparse, stack_of


def sv(pairs, d=1000):
    return SparseVector.from_pairs(pairs, d)


def find_seed(pred, limit=10_000):
    for seed in range(limit):
        if pred(seed):
            return seed
    raise AssertionError("no seed found")


def one_copy(x, m, seed):
    """x under a single max-pool copy of m buckets, as a dense row."""
    return stack_embed(stack_of(m, 1, seed), x)


def injective_seed(indices, m):
    def ok(seed):
        spec = HashSpec(seed, 0, m)
        buckets = [hash_bucket(spec, j) for j in indices]
        return len(set(buckets)) == len(buckets)
    return find_seed(ok)


# --- pooling cores (explicit bucket assignments)


def test_sum_pool_forced_collision():
    # one bucket: the sum-hash map adds every stored value
    out = birthday_matrix(HashSpec(0, 0, 1), 2).apply_sparse(sv({0: 1.0, 1: 2.0}, d=2))
    assert out.tolist() == [3.0]


def test_max_pool_direct_evaluation():
    # keys {0, 0, 1} with values 2, 5, 1
    keys, vals = _max_pool_keys(np.array([0, 0, 1]), np.array([2.0, 5.0, 1.0]))
    assert keys.tolist() == [0, 1] and vals.tolist() == [5.0, 1.0]


def test_max_pool_keeps_negative_maxima():
    keys, vals = _max_pool_keys(np.array([1]), np.array([-2.0]))
    assert keys.tolist() == [1] and vals.tolist() == [-2.0]


# --- birthday map


def test_birthday_empty_is_zero():
    bmap = birthday_matrix(HashSpec(3, 0, 7), 50)
    assert not bmap.apply_sparse(SparseVector.zero(50)).any()


def test_birthday_linearity_is_exact():
    bmap = birthday_matrix(HashSpec(11, 0, 5), 1000)
    x = sv({0: 1.25, 3: -2.0, 17: 0.5})
    two_x = SparseVector(x.indices, tuple(2 * v for v in x.values), x.dim)
    assert np.array_equal(bmap.apply_sparse(two_x), 2 * bmap.apply_sparse(x))


def test_birthday_injective_preserves_all_norms():
    x = sv({0: 1.0, 5: -2.0, 9: 3.0})
    m = 64
    seed = injective_seed(x.indices, m)
    out = birthday_matrix(HashSpec(seed, 0, m), 1000).apply_sparse(x)
    for p in (1, 2, 3, INF):
        assert dense_lp(out, p) == pytest.approx(lp_norm(x, p), rel=1e-12)


# --- one max-pool copy


def test_max_embed_empty_input():
    assert one_copy(SparseVector.zero(10), 3, 0).tolist() == [0.0, 0.0, 0.0]


def test_max_embed_single_bucket_is_support_max():
    assert one_copy(sv({0: 2.0, 40: 7.0, 100: 1.0}), 1, 5).tolist() == [7.0]


def test_signed_collision_can_double_max_distance():
    # one negative and one positive entry forced into the same bucket:
    # true distance 1, embedded distance 2
    x, y = sv({0: -1.0}), sv({1: 1.0})
    fx, fy = one_copy(x, 1, 1), one_copy(y, 1, 1)
    assert lp_dist(x, y, INF) == 1.0
    assert abs(fx - fy).max() == 2.0


def test_max_embed_matches_hash_by_hand():
    x = sv({3: 2.0, 8: 5.0})
    out = one_copy(x, 11, 77)
    expect = np.zeros(11)
    for i, v in x.items():
        b = hash_bucket(HashSpec(77, 0, 11), i)
        expect[b] = max(expect[b], v)
    assert np.array_equal(out, expect)


# --- scalar max inequalities behind the guarantees


@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=6),
       st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_max_difference_bounded_by_max_coordinate_gap(a, b):
    k = min(len(a), len(b))
    a, b = a[:k], b[:k]
    assert abs(max(a) - max(b)) <= max(abs(x - y) for x, y in zip(a, b)) + 1e-12


@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=6),
       st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_sum_of_maxes_bounded_by_twice_max_sum(a, b):
    k = min(len(a), len(b))
    a, b = a[:k], b[:k]
    assert max(a) + max(b) <= 2 * max(x + y for x, y in zip(a, b)) + 1e-12


# --- stacking


def test_stack_single_copy_equals_base_map():
    x = sv({1: 1.0, 50: 4.0, 800: 2.0})
    st1 = stack_of(m=17, T=1, seed=3)
    assert np.array_equal(stack_embed(st1, x), pooled_row(x, 17, 3, 0))


def test_stack_empty_vector_is_zero():
    st2 = stack_of(m=5, T=4, seed=0)
    assert not stack_embed(st2, SparseVector.zero(10)).any()


def test_stack_concatenates_in_copy_order():
    x = sv({0: 3.0, 10: 1.0})
    st2 = stack_of(m=8, T=2, seed=21)
    out = stack_embed(st2, x)
    assert np.array_equal(out[:8], pooled_row(x, 8, 21, 0))
    assert np.array_equal(out[8:], pooled_row(x, 8, 21, 1))


# --- parameter planning


def test_plan_sum_mode_is_scalar():
    params = plan_params("sum-linf", s=7, n=1000, eps=0.5)
    assert (params.m, params.T) == (1, 1)


def test_plan_linf_exact_values():
    params = plan_params("linf-exact", s=10, n=100, eps=0.2)
    assert params.m == 200
    assert params.T == math.ceil(3 * math.log(100)) + 1 == 15


def test_plan_all_p_values():
    params = plan_params("all-p", s=10, n=100, eps=0.2)
    assert params.m == math.ceil(200 * 10 / 0.2) == 10000
    assert params.T == math.ceil(50 * math.log(1000) / 0.2) == 1727


def test_plan_discrete_requires_delta_and_p():
    with pytest.raises(ValueError):
        plan_params("discrete", s=5, n=50, eps=0.3)
    params = plan_params("discrete", s=5, n=50, eps=0.3, delta=3, p=2)
    assert params.m == math.ceil(100 * 25 * 36 / 0.3)


def test_plan_rejects_bad_inputs():
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            plan_params("all-p", s=5, n=10, eps=bad)
    with pytest.raises(ValueError):
        plan_params("nope", s=5, n=10, eps=0.5)


def test_halving_eps_roughly_doubles_budget():
    coarse = plan_params("all-p", s=10, n=100, eps=0.4)
    fine = plan_params("all-p", s=10, n=100, eps=0.2)
    # exact doubling up to the ceil rounding of each formula
    assert fine.m >= 2 * coarse.m - 1
    assert fine.T >= 2 * coarse.T - 1


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=2, max_value=10**6),
       st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=150, deadline=None)
def test_planner_monotone_in_eps(s, n, e1, e2):
    lo, hi = sorted((e1, e2))
    tight = plan_params("all-p", s, n, lo)
    loose = plan_params("all-p", s, n, hi)
    assert tight.m >= loose.m and tight.T >= loose.T


def test_overrides():
    params = with_overrides(plan_params("all-p", 5, 10, 0.5), m=50, T=1)
    assert (params.m, params.T) == (50, 1)


# --- distance estimation through the stack


def test_estimate_zero_for_identical_inputs():
    x = sv({0: 1.0, 3: 2.0})
    st3 = stack_of(m=13, T=3, seed=5)
    for p in (1, 2, 4, INF):
        assert estimate_distance(st3, x, x, p) == 0.0


def test_estimate_exact_when_injective_single_copy():
    x, y = sv({0: 1.0, 7: 2.0}), sv({7: 1.0, 30: 3.0})
    union = sorted(set(x.indices) | set(y.indices))
    m = 32
    seed = injective_seed(union, m)
    st1 = stack_of(m=m, T=1, seed=seed)
    assert estimate_distance(st1, x, y, 2) == pytest.approx(lp_dist(x, y, 2), rel=1e-12)


def test_estimate_never_expands_nonneg_monte_carlo():
    # 100 random pairs at planned width, p = 4: ratios inside [1 - eps, 1]
    rng = np.random.default_rng(42)
    eps = 0.2
    params = plan_params("all-p", s=10, n=2, eps=eps)
    stack = StackedEmbedding(params, seed=7)
    for _ in range(100):
        x = random_sparse(rng, 1000, 10)
        y = random_sparse(rng, 1000, 10)
        true = lp_dist(x, y, 4)
        if true == 0:
            continue
        ratio = estimate_distance(stack, x, y, 4) / true
        assert 1 - eps <= ratio <= 1 + 1e-9


def test_estimate_embedded_rows_and_mismatch():
    params = plan_params("all-p", s=2, n=2, eps=0.5)
    stack = StackedEmbedding(params, seed=3)
    x, y = sv({0: 1.0}), sv({1: 2.0})
    ex, ey = stack_embed(stack, x), stack_embed(stack, y)
    direct = estimate_distance(stack, x, y, 2)
    from_rows = estimate_distance_embedded(params, 3, ex, 3, ey, 2)
    assert from_rows == pytest.approx(direct, rel=1e-12)
    with pytest.raises(EmbeddingMismatch):
        estimate_distance_embedded(params, 3, ex, 4, ey, 2)


@pytest.mark.parametrize("scale", [1.0, 0.1])
def test_estimates_at_huge_p_are_the_scaled_per_copy_mean(scale):
    # unscaled, the p-th powers overflowed to inf at scale 1 and underflowed to 0 at 0.1
    x, y = sv({0: 3.0 * scale, 1: 5.0 * scale}), sv({2: 1.0 * scale})
    m, T, seed, p = 50, 2, 0, 2000
    diffs = copy_diffs(x, y, m, T, seed)
    top = max(diffs)
    want = top * (sum((d / top) ** p for d in diffs) / T) ** (1.0 / p)
    stack = stack_of(m, T, seed)
    direct = estimate_distance(stack, x, y, p)
    from_rows = estimate_distance_embedded(stack.params, seed, stack_embed(stack, x),
                                           seed, stack_embed(stack, y), p)
    for got in (direct, from_rows):
        assert math.isfinite(got) and got == pytest.approx(want, rel=1e-12)
        assert 0.0 < got <= lp_dist(x, y, p) * (1 + 1e-12)


# --- sum sandwich (scalar mode)


def test_sum_norm_shared_singleton():
    st1 = stack_of(m=1, T=1, seed=0)
    x = sv({0: 1.0})
    assert estimate_sum_norm(st1, x, x) == 2.0
    assert lp_norm(sum_vectors(x, x), INF) == 2.0


def test_sum_norm_tightness_disjoint_singletons():
    st1 = stack_of(m=1, T=1, seed=0)
    x, y = sv({0: 1.0}), sv({1: 1.0})
    est = estimate_sum_norm(st1, x, y)
    assert est == 2.0
    assert est / lp_norm(sum_vectors(x, y), INF) == 2.0


def test_sum_norm_empty_inputs():
    st1 = stack_of(m=1, T=1, seed=0)
    z = SparseVector.zero(4)
    assert estimate_sum_norm(st1, z, z) == 0.0


def test_sum_norm_rejects_negative_and_wide():
    st1 = stack_of(m=1, T=1, seed=0)
    with pytest.raises(NonNegativeRequired):
        estimate_sum_norm(st1, sv({0: -1.0}), sv({1: 1.0}))
    with pytest.raises(PreconditionError):
        estimate_sum_norm(stack_of(m=2, T=1, seed=0), sv({0: 1.0}), sv({1: 1.0}))


@given(st.dictionaries(st.integers(0, 30), st.floats(min_value=1e-3, max_value=50), max_size=6),
       st.dictionaries(st.integers(0, 30), st.floats(min_value=1e-3, max_value=50), max_size=6))
@settings(max_examples=200, deadline=None)
def test_sum_norm_sandwich_property(xd, yd):
    st1 = stack_of(m=1, T=1, seed=0)
    x, y = sv(xd, d=31), sv(yd, d=31)
    true = lp_norm(sum_vectors(x, y), INF)
    est = estimate_sum_norm(st1, x, y)
    if true == 0:
        assert est == 0.0
    else:
        assert 1.0 - 1e-12 <= est / true <= 2.0 + 1e-12


# --- non-expansion property (bulk version lives in the acceptance suite)


@given(st.integers(0, 10**6), st.sampled_from([1, 7]), st.sampled_from([1, 2, 4, INF]))
@settings(max_examples=150, deadline=None)
def test_max_embed_never_expands_nonneg(seed, m, p):
    rng = np.random.default_rng(seed)
    x = random_sparse(rng, 200, int(rng.integers(0, 12)))
    y = random_sparse(rng, 200, int(rng.integers(0, 12)))
    fx, fy = one_copy(x, m, seed), one_copy(y, m, seed)
    assert dense_lp(fx - fy, p) <= lp_dist(x, y, p) + 1e-9


def test_no_collision_preserves_all_orders_simultaneously():
    rng = np.random.default_rng(3)
    x = random_sparse(rng, 500, 6)
    y = random_sparse(rng, 500, 6)
    union = sorted(set(x.indices) | set(y.indices))
    m = 144
    seed = injective_seed(union, m)
    fx, fy = one_copy(x, m, seed), one_copy(y, m, seed)
    for p in (1, 2, 4, INF):
        assert dense_lp(fx - fy, p) == pytest.approx(lp_dist(x, y, p), rel=1e-12)


def test_collision_free_rate_matches_quadratic_budget():
    # m = ceil(100 s^2 / delta): empirical preservation rate >= 1 - delta - 4 sigma
    rng = np.random.default_rng(12)
    s, delta = 8, 0.05
    m = math.ceil(100 * s * s / delta)
    x = random_sparse(rng, 10**6, s)
    y = random_sparse(rng, 10**6, s)
    trials = 1000
    hits = 0
    for seed in range(trials):
        st1 = stack_of(m=m, T=1, seed=seed)
        ok = all(
            estimate_distance(st1, x, y, p) == pytest.approx(lp_dist(x, y, p), rel=1e-9)
            for p in (1, 2, 4, INF)
        )
        hits += ok
    rate = hits / trials
    sigma = math.sqrt((1 - delta) * delta / trials)
    assert rate >= 1 - delta - 4 * sigma


def test_discrete_mode_ratio_window():
    # signed entries in {-3..3}: stacked power ratios stay within the
    # two-sided window [(1-eps) T, (1+eps) T] that the collision accounting
    # supports; the one-sided upper bound T itself is exceeded by buckets
    # that pool a negative entry (see the acceptance suite).
    from sparse_sketch.datagen import random_discrete_dataset
    from sparse_sketch.pairwise import pairwise_power_dists, stacked_power_sums

    eps, delta, p = 0.3, 2, 2.0
    params = plan_params("discrete", s=4, n=12, eps=eps, delta=delta, p=p)
    ds = random_discrete_dataset(12, 4, 5000, delta, seed=5)
    base = pairwise_power_dists(ds.vectors, [p])
    sums = stacked_power_sums(ds.vectors, params.m, params.T, 17, [p], base=base)
    iu = np.triu_indices(len(ds), 1)
    ratios = sums[p][iu] / base[p][iu]
    assert np.all(ratios >= (1 - eps) * params.T)
    assert np.all(ratios <= (1 + eps) * params.T)


def test_sum_preservation_in_finite_orders():
    # stacked sums: ||F(x)+F(y)||_p^p / T within (1 +- eps) of ||x+y||_p^p
    # at the quadratic-bucket recipe with base 2^p
    rng = np.random.default_rng(8)
    s, n, p, eps = 3, 8, 3.0, 0.4
    base_growth = 2.0 ** p
    m = math.ceil(100 * s * s * base_growth / eps)
    T = math.ceil(50 * math.log(n) * base_growth / eps)
    vecs = [random_sparse(rng, 4000, s) for _ in range(n)]
    checked = 0
    for i in range(n):
        for j in range(i + 1, n):
            x, y = vecs[i], vecs[j]
            true = lp_norm(sum_vectors(x, y), p) ** p
            total = 0.0
            for c in range(T):
                fx, fy = pooled_copy(x, m, 99, c), pooled_copy(y, m, 99, c)
                total += sum(abs(fx.get(b, 0.0) + fy.get(b, 0.0)) ** p
                             for b in fx.keys() | fy.keys())
            assert (1 - eps) * true <= total / T <= (1 + eps) * true
            checked += 1
            if checked >= 6:
                return
