import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_sketch.errors import DimensionMismatch
from sparse_sketch.vectors import (
    INF,
    Dataset,
    SparseVector,
    _dense_norm,
    diff_vectors,
    lp_dist,
    lp_norm,
    sum_vectors,
)

from helpers import dense, dense_lp


def sv(pairs, d=100):
    return SparseVector.from_pairs(pairs, d)


# --- construction invariants


def test_explicit_zeros_are_dropped():
    x = sv([(3, 0.0), (1, 2.0), (7, 0.0)])
    assert x.indices == (1,) and x.values == (2.0,)


def test_unsorted_input_is_sorted():
    x = sv([(5, 1.0), (2, 3.0)])
    assert x.indices == (2, 5)


def test_duplicate_index_rejected():
    with pytest.raises(ValueError):
        sv([(1, 1.0), (1, 2.0)])


def test_out_of_range_index_rejected():
    with pytest.raises(ValueError):
        SparseVector((100,), (1.0,), 100)


def test_huge_ambient_dimension():
    x = SparseVector.from_pairs({2**61: 1.5}, 2**62)
    assert lp_norm(x, 2) == 1.5


# --- norms


def test_norm_345_triple():
    assert lp_norm(sv({0: 3.0, 1: 4.0}), 2) == 5.0


def test_norm_empty_vector():
    for p in (1, 2, 7.5, INF):
        assert lp_norm(SparseVector.zero(10), p) == 0.0


def test_norm_inf_max_abs():
    assert lp_norm(sv({0: 1.0, 5: -2.0}), INF) == 2.0


def test_norm_rejects_small_p():
    with pytest.raises(ValueError):
        lp_norm(sv({0: 1.0}), 0.5)


# --- distances


def test_dist_disjoint_unit_supports():
    assert lp_dist(sv({0: 1.0}), sv({1: 1.0}), INF) == 1.0


def test_dist_identical_vectors():
    x = sv({0: 2.0, 9: -1.0})
    assert lp_dist(x, x, 2) == 0.0


def test_dist_hand_merged_union():
    # supports {0,2} and {2,7}: |2| + |5-1| + |3| = 9
    x = sv({0: 2.0, 2: 5.0})
    y = sv({2: 1.0, 7: 3.0})
    assert lp_dist(x, y, 1) == 9.0


def test_dist_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lp_dist(sv({0: 1.0}, d=10), sv({0: 1.0}, d=11), 2)


# --- sum / diff


def test_sum_cancellation_drops_entry():
    assert sum_vectors(sv({0: 1.0}), sv({0: -1.0})).sparsity == 0


def test_diff_removes_matching_entry():
    out = diff_vectors(sv({0: 2.0, 1: 1.0}), sv({1: 1.0}))
    assert out.to_dict() == {0: 2.0}


def test_sum_disjoint_supports():
    out = sum_vectors(sv({0: 1.0}), sv({3: 2.0}))
    assert out.to_dict() == {0: 1.0, 3: 2.0}


# --- property tests

finite_vals = st.floats(min_value=-100, max_value=100, allow_nan=False).filter(lambda v: abs(v) > 1e-9)
sparse_dicts = st.dictionaries(st.integers(min_value=0, max_value=49), finite_vals, max_size=8)


@given(sparse_dicts, sparse_dicts, st.sampled_from([1, 2, 4]))
@settings(max_examples=200, deadline=None)
def test_dist_equals_norm_of_diff(xd, yd, p):
    x, y = sv(xd, d=50), sv(yd, d=50)
    # the same |x_i - y_i| in the same order; a cancelled entry adds exactly 0
    assert lp_dist(x, y, p) == lp_norm(diff_vectors(x, y), p)


@st.composite
def overlapping_dicts(draw):
    """Two sparse dicts where some of y's entries repeat or negate x's, so
    that sums and differences cancel."""
    xd, yd = draw(sparse_dicts), draw(sparse_dicts)
    for i in draw(st.sets(st.sampled_from(sorted(xd)))) if xd else ():
        yd[i] = draw(st.sampled_from([xd[i], -xd[i]]))
    return xd, yd


@given(overlapping_dicts())
@settings(max_examples=200, deadline=None)
def test_sum_and_diff_equal_the_dense_algebra(pair):
    x, y = (sv(d, d=50) for d in pair)
    for got, want in [(sum_vectors(x, y), dense(x) + dense(y)),
                      (diff_vectors(x, y), dense(x) - dense(y))]:
        kept = np.flatnonzero(want)  # exact zeros dropped
        assert got.dim == 50
        assert got.indices == tuple(kept.tolist())
        assert got.values == tuple(want[kept].tolist())


@given(sparse_dicts, sparse_dicts, st.sampled_from([1, 2, INF]))
@settings(max_examples=200, deadline=None)
def test_triangle_inequality(xd, yd, p):
    x, y = sv(xd, d=50), sv(yd, d=50)
    z = SparseVector.zero(50)
    assert lp_dist(x, y, p) <= lp_dist(x, z, p) + lp_dist(z, y, p) + 1e-9


@given(sparse_dicts, sparse_dicts, st.sampled_from([1, 2, 4, INF]))
@settings(max_examples=100, deadline=None)
def test_dist_is_symmetric(xd, yd, p):
    x, y = sv(xd, d=50), sv(yd, d=50)
    assert lp_dist(x, y, p) == lp_dist(y, x, p)


@given(sparse_dicts, st.sampled_from([1, 2, 4, INF]))
@settings(max_examples=100, deadline=None)
def test_norm_matches_dense_reference(xd, p):
    x = sv(xd, d=50)
    assert lp_norm(x, p) == pytest.approx(dense_lp(dense(x), p), rel=1e-12, abs=1e-300)


def test_large_p_approximates_max_norm():
    # with p >= 10 ln(d) / eps the p-norm sits within (1 +- eps) of the max
    rng = np.random.default_rng(11)
    d, eps = 1000, 0.05
    p = 10.0 * math.log(d) / eps
    for _ in range(20):
        vals = rng.standard_normal(40)
        x = SparseVector.from_pairs(
            zip(np.sort(rng.choice(d, 40, replace=False)).tolist(), vals.tolist()), d)
        ratio = lp_norm(x, p) / lp_norm(x, INF)
        assert 1.0 - eps < ratio < 1.0 + eps


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 2.5, 400.0, INF])
@pytest.mark.parametrize("copies", [1, 7])
def test_dense_norm_rows_equal_their_one_dimensional_floats(p, copies):
    rows = np.random.default_rng(5).standard_normal((40, 9)) * 1e150
    rows[3] = 0.0

    def reference(a):  # the one-row form, Python's float power for the root
        a = np.abs(a)
        top = float(a.max())
        if top == 0.0 or p == INF:
            return top
        return top * (float(np.sum((a / top) ** p)) / copies) ** (1.0 / p)

    expected = [reference(r) for r in rows]
    assert [_dense_norm(r, p, copies) for r in rows] == expected
    assert all(type(_dense_norm(r, p, copies)) is float for r in rows)
    assert _dense_norm(rows, p, copies).tolist() == expected


# --- dataset


def test_dataset_metadata():
    ds = Dataset.from_items([
        ("a", sv({0: 1.0})),
        ("b", sv({1: 1.0, 2: 3.0})),
    ])
    assert ds.max_sparsity == 2
    assert ds.nonneg
    assert len(ds) == 2


def test_dataset_flags_negative_values():
    ds = Dataset.from_items([("a", sv({0: -1.0}))])
    assert not ds.nonneg


def test_dataset_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        Dataset.from_items([("a", sv({0: 1.0}, d=10)), ("b", sv({0: 1.0}, d=20))], dim=10)
