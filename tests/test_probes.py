import math
import tracemalloc

import numpy as np
import pytest

from sparse_sketch import probes
from sparse_sketch.errors import (
    InternalCheckError,
    PreconditionColumns,
    PreconditionError,
    PreconditionShape,
)
from sparse_sketch.hashing import HashSpec
from sparse_sketch.probes import (
    DenseLinearMap,
    UnifSpec,
    birthday_matrix,
    find_linf_violation,
    gaussian_map,
    gram_overlap_Z,
    preservation_rate,
    preservation_trials,
    unif_draws,
)
from sparse_sketch.vectors import CELL_BUDGET, SparseVector


# --- random sparse Gaussian draws


def test_full_support_when_t_equals_d():
    spec = UnifSpec(t=8, r=1.0, d=8, seed=0)
    supports, values = unif_draws(spec, 3)
    assert (supports == np.arange(8)).all() and values.shape == (3, 8)


def test_draws_are_reproducible():
    spec = UnifSpec(t=3, r=2.0, d=50, seed=42)
    s1, v1 = unif_draws(spec, 5)
    s2, v2 = unif_draws(spec, 5)
    assert np.array_equal(s1, s2) and np.array_equal(v1, v2)


def test_supports_are_distinct_sorted():
    spec = UnifSpec(t=6, r=1.0, d=30, seed=7)
    supports, _ = unif_draws(spec, 200)
    for row in supports:
        assert len(set(row.tolist())) == 6
        assert np.all(np.diff(row) > 0)


def test_blocked_support_draws_equal_one_draw(monkeypatch):
    # the scores of all trials fit one block by default, which is one
    # (trials, d) draw; blocks of 1 and 3 rows must read the same stream,
    # and so must the values drawn after them
    spec = UnifSpec(t=5, r=1.0, d=30, seed=13)
    assert 100 * spec.d <= probes._GRAM_CELLS
    s1, v1 = unif_draws(spec, 100)
    for rows in (1, 3):
        monkeypatch.setattr(probes, "_GRAM_CELLS", rows * spec.d)
        s2, v2 = unif_draws(spec, 100)
        assert np.array_equal(s1, s2) and np.array_equal(v1, v2)


def test_draw_memory_does_not_grow_with_trials_times_d():
    # 4000 trials over 2048 coordinates: 8.2M scores, 65 MB in one draw;
    # blocked, the peak is one block of scores and its argpartition plus
    # the (trials, t) outputs
    spec = UnifSpec(t=8, r=1.0, d=2048, seed=1)
    trials = 4000
    tracemalloc.start()
    try:
        unif_draws(spec, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * probes._GRAM_CELLS * 8 + 4 * trials * spec.t * 8


def test_draws_reject_a_dimension_past_the_cell_budget():
    # every draw reads d scores, so d is bounded before anything is drawn
    spec = UnifSpec(t=4, r=1.0, d=CELL_BUDGET + 1, seed=1)
    with pytest.raises(PreconditionError, match="support scores"):
        unif_draws(spec, 2)


def test_moments_match_distribution():
    # coordinate means ~ 0 and E||u||^2 = t * r, both within 5 sigma
    t, r, d, trials = 5, 2.0, 40, 10_000
    spec = UnifSpec(t=t, r=r, d=d, seed=3)
    supports, values = unif_draws(spec, trials)
    coord_sums = np.zeros(d)
    np.add.at(coord_sums, supports.ravel(), values.ravel())
    per_coord_mean = coord_sums / trials
    sigma_mean = math.sqrt((t / d) * r / trials)
    assert np.all(np.abs(per_coord_mean) <= 5 * sigma_mean)
    sq = np.sum(values * values, axis=1)
    sigma_sq = r * math.sqrt(2.0 * t / trials)
    assert abs(sq.mean() - t * r) <= 5 * sigma_sq


def test_unif_spec_validation():
    with pytest.raises(PreconditionError):
        UnifSpec(t=0, r=1.0, d=5, seed=0)
    with pytest.raises(PreconditionError):
        UnifSpec(t=6, r=1.0, d=5, seed=0)
    with pytest.raises(PreconditionError):
        UnifSpec(t=2, r=0.0, d=5, seed=0)


# --- preservation rate


def test_identity_map_preserves_everything():
    d = 20
    ident = DenseLinearMap(np.eye(d))
    spec = UnifSpec(t=4, r=1.0, d=d, seed=1)
    for gamma in (0.0, 0.1):
        assert preservation_rate(ident, spec, 2, gamma, 300) == 1.0


def test_zero_map_preserves_nothing():
    d = 20
    zero = DenseLinearMap(np.zeros((3, d)))
    spec = UnifSpec(t=4, r=1.0, d=d, seed=1)
    assert preservation_rate(zero, spec, 2, 0.5, 300) == 0.0


def test_rate_monotone_in_gamma():
    d = 36
    lin = gaussian_map(12, d, seed=5)
    spec = UnifSpec(t=6, r=1.0, d=d, seed=2)
    rates = [preservation_rate(lin, spec, 2, g, 400) for g in (0.01, 0.1, 0.5, 1.0)]
    assert all(a <= b for a, b in zip(rates, rates[1:]))


def test_birthday_map_high_exact_rate():
    # quadratic bucket budget: collisions on a size-10 support are rare
    s = 10
    d = s * s
    spec = HashSpec(seed=11, copy_index=0, m=100 * s * s)
    lin = birthday_matrix(spec, d)
    unif = UnifSpec(t=s, r=1.0, d=d, seed=4)
    rate = preservation_rate(lin, unif, 2, 0.0, 1000)
    assert rate >= 0.97


def test_sharding_does_not_change_results(monkeypatch):
    # the Gram path evaluates its trials in blocks; the block size must not
    # move a single bit
    d = 30
    lin = gaussian_map(8, d, seed=9)
    spec = UnifSpec(t=5, r=1.0, d=d, seed=13)
    s1, p1 = preservation_trials(lin, spec, 2, 0.2, 100)
    for trials_per_block in (1, 3):
        monkeypatch.setattr(probes, "_GRAM_CELLS", trials_per_block * spec.t ** 2)
        s3, p3 = preservation_trials(lin, spec, 2, 0.2, 100)
        assert np.array_equal(s1, s3) and np.array_equal(p1, p3)


def test_general_p_path_agrees_with_gram_shortcut():
    d = 25
    lin = gaussian_map(10, d, seed=3)
    for r in (1.0, 1e300):
        spec = UnifSpec(t=4, r=r, d=d, seed=6)
        stats_fast, ok_fast = preservation_trials(lin, spec, 2, 0.3, 50)
        # p marginally off 2 routes through the per-trial matvec path with the
        # same draws; the squared-norm statistics must agree to roundoff
        stats_slow, ok_slow = preservation_trials(lin, spec, 2.0 + 1e-13, 0.3, 50)
        assert np.allclose(stats_fast, stats_slow, rtol=1e-6, atol=1e-9)
        assert np.array_equal(ok_fast, ok_slow)


def test_gram_path_memory_does_not_grow_with_trials_times_t_squared():
    # a (trials, t, t) gather of Gram entries would add t^2 * 8 = 32 KB per
    # trial here; the draws and norms take under 2 KB per trial
    t, d = 64, 128
    lin = gaussian_map(6, d, seed=1)
    spec = UnifSpec(t=t, r=1.0, d=d, seed=2)

    def peak(trials):
        tracemalloc.start()
        try:
            preservation_trials(lin, spec, 2, 0.1, trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = 500, 2000
    growth = peak(large) - peak(small)
    assert growth < (large - small) * t * t * 8 / 4


# --- gram overlap


def test_gram_overlap_orthogonal_columns():
    lin = DenseLinearMap(np.eye(6))
    u = SparseVector.from_pairs({0: 1.0, 3: -2.0}, 6)
    assert gram_overlap_Z(lin, u) == 0.0


def test_gram_overlap_singleton_support():
    lin = DenseLinearMap(np.ones((2, 4)))
    assert gram_overlap_Z(lin, SparseVector.from_pairs({2: 5.0}, 4)) == 0.0


def test_gram_overlap_identical_unit_columns():
    mat = np.zeros((3, 4))
    mat[0, 0] = mat[0, 1] = 1.0  # two identical unit columns
    lin = DenseLinearMap(mat)
    u = SparseVector.from_pairs({0: 1.0, 1: 1.0}, 4)
    assert gram_overlap_Z(lin, u) == 2.0


def test_gram_overlap_nonnegative():
    rng = np.random.default_rng(0)
    lin = DenseLinearMap(rng.standard_normal((5, 12)))
    u = SparseVector.from_pairs({1: 1.0, 4: 2.0, 9: -1.0}, 12)
    assert gram_overlap_Z(lin, u) >= 0.0


# --- max-norm violation witness


def test_witness_on_all_ones_row():
    mat = np.zeros((5, 1000))
    mat[0, :] = 1.0
    witness = find_linf_violation(DenseLinearMap(mat))
    assert witness.sparsity == 10
    assert set(witness.values) == {1.0}
    image = mat[:, list(witness.indices)].sum(axis=1)
    assert np.abs(image).max() >= 10.0


def test_witness_on_random_sign_matrices():
    rng = np.random.default_rng(21)
    for _ in range(5):
        mat = rng.choice([-1.0, 1.0], size=(9, 1000))
        lin = DenseLinearMap(mat)
        witness = find_linf_violation(lin)
        attained = np.abs(lin.apply_sparse(witness)).max()
        assert attained >= 5.0
        assert witness.max_value() == 1.0


def test_witness_ties_go_to_the_lowest_row_then_the_positive_sign():
    d = 1000
    mat = np.zeros((4, d))
    mat[0] = np.where(np.arange(d) < d // 2, 1.0, -1.0)  # + on 0..499, - on 500..999
    mat[1] = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)  # + on even, - on odd
    # all four (row, sign) pairs hold 500 large entries, on different supports
    assert find_linf_violation(DenseLinearMap(mat)).indices == tuple(range(10))
    mat[0, 0] = 0.0  # row 0 + drops to 499: row 0 - still beats row 1 +
    assert find_linf_violation(DenseLinearMap(mat)).indices == tuple(range(500, 510))


def test_witness_is_deterministic():
    rng = np.random.default_rng(2)
    mat = rng.choice([-1.0, 1.0], size=(7, 900))
    w1 = find_linf_violation(DenseLinearMap(mat))
    w2 = find_linf_violation(DenseLinearMap(mat))
    assert w1.indices == w2.indices


def test_witness_preconditions():
    with pytest.raises(PreconditionShape):
        find_linf_violation(DenseLinearMap(np.ones((10, 100))))
    mat = np.ones((2, 500))
    mat[:, 3] = 0.0  # a column with no large entry
    with pytest.raises(PreconditionColumns):
        find_linf_violation(DenseLinearMap(mat))


# --- birthday matrix helper


def test_birthday_matrix_columns_are_indicator():
    spec = HashSpec(seed=8, copy_index=0, m=16)
    lin = birthday_matrix(spec, 40)
    assert lin.rows == 16 and lin.cols == 40
    assert np.all(lin.matrix.sum(axis=0) == 1.0)
    assert set(np.unique(lin.matrix)) <= {0.0, 1.0}


def test_dense_map_matrix_is_a_read_only_view():
    mat = np.ones((3, 4))
    lin = DenseLinearMap(mat)
    with pytest.raises(ValueError, match="read-only"):
        lin.matrix[0, 0] = 2.0
    assert np.shares_memory(lin.matrix, mat)  # no copy
    mat[0, 0] = 5.0  # the caller's array keeps its own flags
