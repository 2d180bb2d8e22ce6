import tracemalloc

import numpy as np
import pytest

from sparse_sketch import pairwise
from sparse_sketch.embeddings import MaxHashMap, landed_buckets, stack_embed
from sparse_sketch.errors import DimensionMismatch, PreconditionError
from sparse_sketch.hashing import HashSpec
from sparse_sketch.pairwise import (
    _BLOCK,
    HASH_BUDGET,
    lp_dists,
    pair_copy_tables,
    pairwise_power_dists,
    stacked_image,
    stacked_power_sums,
)
from sparse_sketch.vectors import INF, SparseVector, lp_dist

from helpers import (
    naive_stack_linf,
    naive_stack_pair_powers,
    random_sparse,
    stack_of,
    two_image_tables,
)


def build_case(rng, signed):
    n = int(rng.integers(2, 8))
    d = int(rng.integers(4, 40))
    m = int(rng.choice([1, 2, 3, 7, 19]))
    T = int(rng.integers(1, 9))
    vecs = [random_sparse(rng, d, int(rng.integers(0, 6)), signed=signed) for _ in range(n)]
    seed = int(rng.integers(0, 10**6))
    return vecs, m, T, seed


@pytest.mark.parametrize("signed", [False, True])
def test_engine_matches_dense_stacking(signed):
    # adversarial smalls: m = 1 forces total collision, tiny d forces
    # shared supports and multi-owner coordinates
    rng = np.random.default_rng(1234 if signed else 4321)
    ps = [1.0, 2.0, 4.0]
    cases = [build_case(rng, signed) for _ in range(40)]
    for m in (1, 3, 11):  # copies spanning three hashing blocks, the last one partial
        vecs = [random_sparse(rng, 12, int(rng.integers(0, 5)), signed=signed) for _ in range(5)]
        cases.append((vecs, m, 2 * _BLOCK + 37, 5 + m))
    for vecs, m, T, seed in cases:
        got = stacked_power_sums(vecs, m, T, seed, ps)
        for p in ps:
            for i in range(len(vecs)):
                for j in range(len(vecs)):
                    expect = 0.0 if i == j else naive_stack_pair_powers(
                        vecs[i], vecs[j], m, T, seed, p)
                    assert got[p][i, j] == pytest.approx(expect, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("signed", [False, True])
def test_pair_copy_tables_match_dense(signed):
    rng = np.random.default_rng(55 if signed else 66)
    ps = [1.0, 2.0]
    for _ in range(25):
        vecs, m, T, seed = build_case(rng, signed)
        x, y = vecs[0], vecs[-1]
        tables = pair_copy_tables(x, y, m, T, seed, ps=ps, with_linf=True)
        for p in ps:
            assert float(tables[p].sum()) == pytest.approx(
                naive_stack_pair_powers(x, y, m, T, seed, p), rel=1e-9, abs=1e-12)
        # the max of the same float differences
        assert float(tables["inf"].max(initial=0.0)) == naive_stack_linf(x, y, m, T, seed)


@pytest.mark.parametrize("signed", [False, True])
def test_pair_copy_tables_equal_the_merge_of_two_images(signed):
    # one grid for the pair, split after pooling, gives the same bits
    rng = np.random.default_rng(99 if signed else 111)
    for case in range(60):
        vecs, m, T, seed = build_case(rng, signed)
        x, y = vecs[0], vecs[0] if case % 10 == 0 else vecs[-1]
        T = 0 if case % 15 == 1 else T
        got = pair_copy_tables(x, y, m, T, seed, ps=(1.0, 2.0, 3.0), with_linf=True)
        want = two_image_tables(x, y, m, T, seed, (1.0, 2.0, 3.0))
        for key, arr in want.items():
            assert got[key].dtype == arr.dtype and got[key].tobytes() == arr.tobytes()


def test_pair_copy_tables_key_both_images():
    # x's and y's keys together run up to 2 * copies * m
    x = SparseVector.from_pairs({0: 1.0}, 10)
    m, copies = 1 << 31, 1 << 30
    with pytest.raises(ValueError, match="too large to key"):
        pair_copy_tables(x, x, m, copies, 0, ps=(2.0,))
    with pytest.raises(PreconditionError, match="hash budget"):
        stacked_image(x, m, copies, 0)  # one image's keys fit


@pytest.mark.filterwarnings("error")
def test_overflowing_powers_are_precondition_errors():
    # 7^2000 is beyond float range; the sums used to come back inf or nan, and
    # numpy's overflow warnings (errors here) used to come first
    a = SparseVector.from_pairs({0: 3.0, 1: 5.0}, 10)
    b = SparseVector.from_pairs({2: 1.0}, 10)
    c = SparseVector.from_pairs({1: 2.5, 4: 7.0}, 10)
    with pytest.raises(PreconditionError, match="overflow"):
        pairwise_power_dists([a, b, c], [2000.0])
    with pytest.raises(PreconditionError, match="overflow"):
        # a finite base, so that only the engine's own powers overflow
        stacked_power_sums([a, b, c], 5, 3, 0, [2000.0], base={2000.0: np.ones((3, 3))})
    assert np.isfinite(pairwise_power_dists([a, b, c], [300.0])[300.0]).all()


@pytest.mark.parametrize("signed", [False, True])
def test_stacked_image_is_the_per_copy_images(signed):
    rng = np.random.default_rng(77 if signed else 88)
    for _ in range(25):
        vecs, m, T, seed = build_case(rng, signed)
        keys, vals = stacked_image(vecs[0], m, T, seed)
        assert (np.diff(keys) > 0).all()
        for c in range(T):
            b, v = landed_buckets(MaxHashMap(HashSpec(seed, c, m)), vecs[0])
            here = (keys >= c * m) & (keys < (c + 1) * m)
            assert np.array_equal(keys[here] - c * m, b) and np.array_equal(vals[here], v)


def lp_dist_matrix(xs, ys, p):
    return np.array([[lp_dist(x, y, p) for y in ys] for x in xs]).reshape(len(xs), len(ys))


def mixed_vectors(rng, n):
    """Signed and unsigned vectors whose supports share, miss or duplicate
    each other, over small indices and indices near 2^63 and 2^64 - 1."""
    pool = [*range(6), *range(2**63 - 2, 2**63 + 3), *range(2**64 - 4, 2**64)]
    vecs = [SparseVector.zero(2**64)]
    for k in range(n):
        sup = rng.choice(len(pool), size=int(rng.integers(1, 9)), replace=False)
        vals = rng.normal(size=len(sup)) if k % 2 else 1.0 - rng.random(len(sup))
        vecs.append(SparseVector.from_pairs(zip((pool[i] for i in sup), vals.tolist()), 2**64))
    return vecs + vecs[1:3]  # duplicates


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, 4, 7, INF])
def test_lp_dists_equal_lp_dist_bit_for_bit(p):
    rng = np.random.default_rng(17)
    vecs = mixed_vectors(rng, 24)
    assert (lp_dists(vecs, vecs, p) == lp_dist_matrix(vecs, vecs, p)).all()
    xs, ys = vecs[:5], vecs[5:]
    assert (lp_dists(xs, ys, p) == lp_dist_matrix(xs, ys, p)).all()
    assert lp_dists(xs, [], p).shape == (5, 0) and lp_dists([], ys, p).shape == (0, len(ys))
    assert lp_dists(vecs[:1], vecs[:1], p)[0, 0] == 0.0  # two empty supports
    signed = [random_sparse(rng, 12, int(rng.integers(0, 6)), signed=True) for _ in range(20)]
    assert (lp_dists(signed, signed, p) == lp_dist_matrix(signed, signed, p)).all()


def test_lp_dists_spanning_several_chunks(monkeypatch):
    rng = np.random.default_rng(18)
    vecs = mixed_vectors(rng, 30)
    monkeypatch.setattr(pairwise, "_CHUNK", 100)  # a few pairs per chunk, the last one partial
    for p in (2, 4, INF):
        assert (lp_dists(vecs, vecs, p) == lp_dist_matrix(vecs, vecs, p)).all()


def test_lp_dists_rejects_mixed_dimensions():
    x, y = SparseVector.from_pairs({0: 1.0}, 10), SparseVector.from_pairs({0: 1.0}, 11)
    with pytest.raises(DimensionMismatch):
        lp_dists([x], [y], 2)
    with pytest.raises(DimensionMismatch):
        lp_dists([x, y], [x], 2)


def test_pairwise_power_dists_match_lp_dist():
    rng = np.random.default_rng(2)
    vecs = [random_sparse(rng, 30, 4, signed=True) for _ in range(5)]
    out = pairwise_power_dists(vecs, [1.0, 2.0, 4.0])
    for p in (1.0, 2.0, 4.0):
        for i in range(5):
            for j in range(5):
                assert out[p][i, j] == lp_dist(vecs[i], vecs[j], p) ** p


def test_engine_is_deterministic():
    rng = np.random.default_rng(9)
    vecs = [random_sparse(rng, 50, 4) for _ in range(6)]
    a = stacked_power_sums(vecs, 11, 20, 77, [2.0])
    b = stacked_power_sums(vecs, 11, 20, 77, [2.0])
    assert np.array_equal(a[2.0], b[2.0])


def test_engine_accepts_precomputed_base():
    rng = np.random.default_rng(10)
    vecs = [random_sparse(rng, 50, 4) for _ in range(5)]
    base = pairwise_power_dists(vecs, [2.0])
    a = stacked_power_sums(vecs, 13, 8, 3, [2.0])
    b = stacked_power_sums(vecs, 13, 8, 3, [2.0], base=base)
    assert np.allclose(a[2.0], b[2.0], rtol=0, atol=0)


def test_engine_handles_zero_vectors_and_empty_dataset():
    z = SparseVector.zero(10)
    x = SparseVector.from_pairs({0: 1.0}, 10)
    out = stacked_power_sums([z, x], 1, 3, 0, [2.0])
    assert out[2.0][0, 1] == pytest.approx(3.0)  # every copy sees distance 1
    empty = stacked_power_sums([], 5, 2, 0, [2.0])
    assert empty[2.0].shape == (0, 0)


def test_engine_sums_are_nonnegative_and_zero_for_equal_vectors():
    rng = np.random.default_rng(31)
    vecs = [random_sparse(rng, 30, 6, signed=signed) for signed in (False, True) * 4]
    vecs += vecs[:3]  # duplicates of earlier vectors
    ps = [1.0, 2.0, 4.0]
    for m in (1, 2, 5):
        got = stacked_power_sums(vecs, m, _BLOCK + 9, 12, ps)
        for p in ps:
            assert (got[p] >= 0.0).all()
            for k in range(3):
                assert got[p][k, len(vecs) - 3 + k] == 0.0
                assert got[p][len(vecs) - 3 + k, k] == 0.0


def test_engine_difference_collapsing_into_one_bucket_stays_nonnegative():
    # at m = 1 each copy pools both vectors to 3.0: the images coincide
    # although the vectors differ
    x = SparseVector.from_pairs({0: 3.0, 1: 1.0, 2: 0.7}, 10)
    y = SparseVector.from_pairs({0: 3.0, 3: 0.1}, 10)
    out = stacked_power_sums([x, y], 1, 300, 4, [1.0, 2.0, 4.0])
    for p, sums in out.items():
        assert sums[0, 1] >= 0.0 and sums[1, 0] >= 0.0
        # the corrections cancel 300 copies of the true distance
        assert sums[0, 1] == pytest.approx(0.0, abs=1e-12 * 300 * lp_dist(x, y, p) ** p)


def test_engine_rejects_unkeyable_copy_counts():
    x = SparseVector.from_pairs({0: 1.0}, 10)
    with pytest.raises(ValueError):
        stacked_power_sums([x, x], 1 << 40, 1 << 30, 0, [2.0])


def test_copy_loops_check_the_hash_budget():
    x = SparseVector.from_pairs({0: 1.0, 5: 2.0}, 10)
    copies = HASH_BUDGET // 2 + 1  # one hash evaluation over the budget
    with pytest.raises(PreconditionError, match="hash budget"):
        stacked_power_sums([x, x], 3, copies, 0, [2.0])
    with pytest.raises(PreconditionError, match="hash budget"):
        pair_copy_tables(x, x, 3, copies, 0, with_linf=True)
    with pytest.raises(PreconditionError, match="hash budget"):
        stack_embed(stack_of(1, copies, 0), x)


def test_engine_memory_is_bounded_by_the_hashing_block():
    # at m = 1 every copy pools all 120 vectors into one group, so each copy
    # adds 7140 owner pairs; held for all copies at once they would need
    # 9.1M entries (73 MB per int64 array), one block needs 0.46M
    rng = np.random.default_rng(12)
    vecs = [random_sparse(rng, 500, 2) for _ in range(120)]
    copies = 20 * _BLOCK
    base = pairwise_power_dists(vecs, [2.0])
    tracemalloc.start()
    try:
        got = stacked_power_sums(vecs, 1, copies, 6, [2.0], base=base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    # one bucket per copy: each image is the vector's largest entry
    top = np.array([max(v.values) for v in vecs])
    assert np.allclose(got[2.0], copies * (top[:, None] - top[None, :]) ** 2,
                       rtol=1e-9, atol=1e-9)
