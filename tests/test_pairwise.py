import functools
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_sketch import hashing, pairwise
from sparse_sketch.datagen import random_nonneg_dataset
from sparse_sketch.embeddings import stack_embed
from sparse_sketch.errors import DimensionMismatch, PreconditionError
from sparse_sketch.hashing import HashSpec, hash_bucket
from sparse_sketch.pairwise import (
    _BLOCK,
    HASH_BUDGET,
    lp_dists,
    pairwise_power_dists,
    stacked_image,
    stacked_linf,
    stacked_power_sums,
)
from sparse_sketch.vectors import INF, SparseVector, lp_dist

from helpers import (
    index_hashing_to,
    naive_stack_linf,
    naive_stack_pair_powers,
    pair_copy_tables,
    pooled_image,
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


@pytest.mark.parametrize("signed", [False, True])
def test_stacked_linf_equals_the_per_copy_max(signed):
    rng = np.random.default_rng(505 if signed else 606)
    cases = [build_case(rng, signed) for _ in range(30)]
    for m in (1, 2, 3):  # copies spanning three hashing blocks, the last one partial
        vecs = [random_sparse(rng, 12, int(rng.integers(0, 5)), signed=signed) for _ in range(6)]
        vecs += [SparseVector.zero(12), vecs[1], vecs[2]]  # a zero vector, duplicates
        cases.append((vecs, m, 2 * _BLOCK + 37, 40 + m))
    # no two of the last vectors' coordinates share one of 2^40 buckets, so no
    # copy holds a group and the kept coordinates alone give the answer
    cases.append((vecs, 1 << 40, 3, 44))
    mixed = 0  # datasets with a coordinate alone in some copy and one never alone
    for vecs, m, T, seed in cases:
        got = stacked_linf(vecs, m, T, seed)
        for i in range(len(vecs)):
            for j in range(len(vecs)):
                expect = 0.0 if i == j else naive_stack_linf(vecs[i], vecs[j], m, T, seed)
                assert got[i, j] == expect
        if m == 1 << 40:  # a collision-free hash keeps every max-norm distance
            assert (got == lp_dists(vecs, vecs, INF)).all()
        coords = {j for v in vecs for j in v.indices}
        alone = set()
        for c in range(T):
            buckets = [hash_bucket(HashSpec(seed, c, m), j) for j in coords]
            alone |= {j for j, b in zip(coords, buckets) if buckets.count(b) == 1}
        mixed += 0 < len(alone) < len(coords)
    # so both of the kernel's terms, kept coordinates and collision groups, meet
    assert mixed >= 1


def test_stacked_linf_of_empty_and_zero_datasets():
    z = SparseVector.zero(10)
    assert (stacked_linf([z, z, z], 3, 2 * _BLOCK + 1, 0) == 0.0).all()
    assert stacked_linf([], 3, 5, 0).shape == (0, 0)
    x = SparseVector.from_pairs({0: 1.0, 4: -2.5}, 10)
    assert (stacked_linf([z, x], 1, 3, 0) == [[0.0, 1.0], [1.0, 0.0]]).all()
    assert (stacked_linf([z, x], 7, 0, 0) == 0.0).all()  # no copies


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1, 2, INF])
def test_distances_beyond_float_range_are_precondition_errors(p):
    # |1e308 - -1e308| is inf; the scaled sum used to turn it into nan (inf at p = inf)
    a = SparseVector.from_pairs({0: 1e308}, 10)
    b = SparseVector.from_pairs({0: -1e308, 3: 1.0}, 10)
    pair = [a, b]
    with pytest.raises(PreconditionError, match="distances overflow a float"):
        lp_dist(a, b, p)
    with pytest.raises(PreconditionError, match="distances overflow a float"):
        lp_dists(pair, pair, p)  # the triangle walk
    with pytest.raises(PreconditionError, match="distances overflow a float"):
        lp_dists([a], [b], p)  # the walk over ordered pairs
    with pytest.raises(PreconditionError, match="distances overflow a float"):
        stacked_linf(pair, 5, 3, 0)  # a pooled difference
    # neighbouring slots of different indices whose difference overflows stay
    # quiet where the distance is finite (at p = 1 it is 2e308)
    c = SparseVector.from_pairs({1: -1e308}, 10)
    pair = [a, c]
    if p != 1:
        assert np.isfinite(lp_dist(a, c, p))
        assert lp_dists(pair, pair, p)[0, 1] == lp_dists([a], [c], p)[0, 0] == lp_dist(a, c, p)


@pytest.mark.parametrize("signed", [False, True])
def test_stacked_image_is_the_per_copy_images(signed):
    rng = np.random.default_rng(77 if signed else 88)
    for _ in range(25):
        vecs, m, T, seed = build_case(rng, signed)
        keys, vals = stacked_image(vecs[0], m, T, seed)
        assert (np.diff(keys) > 0).all()
        for c in range(T):
            buckets, maxima = pooled_image(vecs[0], m, seed, c)
            here = (keys >= c * m) & (keys < (c + 1) * m)
            assert (keys[here] - c * m).tolist() == buckets.tolist()
            assert vals[here].tolist() == maxima.tolist()


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
        # the triangle walk (ys is xs) against the rectangular one
        assert (lp_dists(vecs, vecs, p) == lp_dists(vecs, list(vecs), p)).all()
    # one merge read by finite ps and by inf alike
    for p, dists in zip((2, INF, 4), pairwise._self_dists(vecs, [2.0, INF, 4.0])):
        assert (dists == lp_dist_matrix(vecs, vecs, p)).all()
    # one walk for several ps, each unordered pair merged once for all of them
    merged, merge = [], pairwise._merged  # pairs per merge call
    monkeypatch.setattr(pairwise, "_merged",
                        lambda *args: merged.append(len(args[2])) or merge(*args))
    ps = [1, 2, 4, 7]
    powers = pairwise_power_dists(vecs, ps)
    pairs = len(vecs) * (len(vecs) - 1) // 2
    assert len(merged) > 1 and sum(merged) == pairs
    lp_dists(vecs, vecs, 2)
    assert sum(merged) == 2 * pairs
    assert list(powers) == ps
    for p in ps:
        assert (powers[p] == np.float_power(lp_dist_matrix(vecs, vecs, p), p)).all()
    none, one = [], vecs[3:4]
    assert lp_dists(none, none, 2).shape == (0, 0)
    assert pairwise_power_dists(none, [2])[2].shape == (0, 0)
    assert lp_dists(one, one, 2).tolist() == [[0.0]]
    assert pairwise_power_dists(one, [1, 3])[3].tolist() == [[0.0]]


def test_lp_dists_rejects_mixed_dimensions():
    x, y = SparseVector.from_pairs({0: 1.0}, 10), SparseVector.from_pairs({0: 1.0}, 11)
    with pytest.raises(DimensionMismatch):
        lp_dists([x], [y], 2)
    with pytest.raises(DimensionMismatch):
        lp_dists([x, y], [x], 2)
    v = [x, y]  # one list on both sides: the triangle walk checks too
    with pytest.raises(DimensionMismatch):
        lp_dists(v, v, 2)
    with pytest.raises(DimensionMismatch):
        pairwise_power_dists(v, [2])
    with pytest.raises(DimensionMismatch):  # before hashing, even with a supplied base
        stacked_power_sums(v, 4, 3, 0, [2], base={2.0: np.array([[0.0, 1.0], [1.0, 0.0]])})
    with pytest.raises(DimensionMismatch):
        stacked_linf(v, 4, 3, 0)


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


@pytest.mark.parametrize("rows, k, m", [
    (64, 951, 10_000),  # the criterion-03 block: every row holds a shared bucket
    (64, 40, 7),  # heavy ties
    (40, 30, 10_000),  # some rows shared, some not
    (9, 17, 1 << 40),
    (5, 2, 1),
    (3, 1, 5),  # one column: nothing to share
])
def test_fused_sort_equals_the_stable_argsort(rows, k, m):
    grid = np.random.default_rng(rows * k).integers(0, m, size=(rows, k))
    bits = max(1, (k - 1).bit_length())
    fused = pairwise._shared_rows(grid.copy(), bits)
    fallback = pairwise._shared_rows(grid.copy(), None)
    for a, b in zip(fused, fallback):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    if m - 1 < 1 << (31 - bits):
        # the int32 keys of the walk: the column order comes back as int32
        narrow = pairwise._shared_rows(grid.astype(np.int32), bits)
        assert narrow[2].dtype == np.int32
        for a, b in zip(narrow, fallback):
            assert np.array_equal(a, b)
    # the definition: shared rows of the sorted grid, ties in column order
    order = np.argsort(grid, axis=1, kind="stable")
    buckets = np.take_along_axis(grid, order, 1)
    same = buckets[:, 1:] == buckets[:, :-1]
    dup = np.flatnonzero(same.any(axis=1))
    assert np.array_equal(fused[0], dup)
    assert np.array_equal(fused[1], same[dup])
    assert np.array_equal(fused[2], order[dup])


def test_engine_at_an_m_too_large_to_fuse_keys(monkeypatch):
    # seven coordinates take bits = 3, so (bucket << 3) | column overflows
    # int64 from m = 2^60 + 1 on and the walk takes its stable argsort; at
    # such an m the collisions are made by inverting the hash
    m, seed = (1 << 60) + 1, 11
    spec = HashSpec(seed, 0, m)
    hashes = [5, 5 + m, 5 + 2 * m, 9, 9 + 3 * m, 123_456_789, 987_654_321]
    j = [index_hashing_to(spec, h) for h in hashes]
    assert [hash_bucket(spec, i) for i in j] == [h % m for h in hashes]
    dim = 1 << 64
    vecs = [SparseVector.from_pairs(pairs, dim) for pairs in (
        {j[0]: 1.0, j[1]: 3.0, j[3]: 2.0, j[5]: 1.0},
        {j[1]: 2.0, j[2]: 5.0, j[4]: 1.0},
        {j[0]: 4.0, j[2]: 1.0, j[3]: 2.0, j[6]: 3.0},
        {j[4]: 7.0},
        {j[0]: 0.5, j[1]: 0.25, j[2]: 2.0},
    )]
    seen = []
    real = pairwise._shared_rows
    monkeypatch.setattr(pairwise, "_shared_rows",
                        lambda grid, bits: seen.append(bits) or real(grid, bits))
    ps = [1.0, 2.0, 3.0]
    got = stacked_power_sums(vecs, m, 1, seed, ps)
    linf = stacked_linf(vecs, m, 1, seed)
    assert seen == [None, None]
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            tables = pair_copy_tables(vecs[a], vecs[b], m, 1, seed, ps=ps, with_linf=True)
            for p in ps:
                assert got[p][a, b] == pytest.approx(float(tables[p].sum()), rel=1e-12)
            assert linf[a, b] == float(tables["inf"].max())


@pytest.mark.parametrize("m, width", [
    (1 << 28, np.int32),  # m - 1 = 2^(31 - bits) - 1 with bits = 3
    ((1 << 28) + 1, np.int64),  # m - 1 = 2^(31 - bits): the int64 keys
])
def test_engine_at_the_int32_key_bound(monkeypatch, m, width):
    # seven coordinates take bits = 3; collisions made by inverting the hash
    # of copy 0, over two blocks of copies, the second one partial
    seed, copies = 5, _BLOCK + 3
    spec = HashSpec(seed, 0, m)
    hashes = [7, 7 + m, 7 + 5 * m, m - 1, 2 * m - 1, 12_345, 67_890]
    j = [index_hashing_to(spec, h) for h in hashes]
    assert [hash_bucket(spec, i) for i in j] == [h % m for h in hashes]
    vecs = [SparseVector.from_pairs(pairs, 1 << 64) for pairs in (
        {j[0]: 1.0, j[1]: 3.0, j[3]: 2.0, j[5]: 1.0},
        {j[1]: 2.0, j[2]: 5.0, j[4]: 1.0},
        {j[0]: 4.0, j[2]: 1.0, j[3]: 2.0, j[6]: 3.0},
        {j[4]: 7.0},
    )]
    seen = []
    real = pairwise._shared_rows
    monkeypatch.setattr(pairwise, "_shared_rows",
                        lambda grid, bits: seen.append((grid.dtype, bits)) or real(grid, bits))
    ps = [1.0, 2.0, 3.0]
    got = stacked_power_sums(vecs, m, copies, seed, ps)
    linf = stacked_linf(vecs, m, copies, seed)
    assert seen == [(np.dtype(width), 3)] * 4
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            tables = pair_copy_tables(vecs[a], vecs[b], m, copies, seed, ps=ps)
            for p in ps:
                assert got[p][a, b] == pytest.approx(float(tables[p].sum()), rel=1e-12)
            assert linf[a, b] == naive_stack_linf(vecs[a], vecs[b], m, copies, seed)


def test_engine_results_do_not_depend_on_a_concurrent_call():
    # each walk hashes into its own workspace, so two threads running the
    # engine on different seeds at once get what sequential calls get
    rng = np.random.default_rng(31)
    vecs = [random_sparse(rng, 300, 6) for _ in range(12)]
    m, copies, ps = 40, 5 * _BLOCK, [1.0, 2.0]
    jobs = [(stacked_power_sums, (vecs, m, copies, seed, ps)) for seed in (1, 2)]
    jobs += [(stacked_linf, (vecs, m, copies, seed)) for seed in (3, 4)]
    expect = [fn(*args) for fn, args in jobs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(3):
            got = [f.result() for f in [pool.submit(fn, *args) for fn, args in jobs]]
            for g, e in zip(got[:2], expect[:2]):
                assert all((g[p] == e[p]).all() for p in ps)
            for g, e in zip(got[2:], expect[2:]):
                assert (g == e).all()


def test_engine_rejects_unkeyable_copy_counts():
    x = SparseVector.from_pairs({0: 1.0}, 10)
    with pytest.raises(ValueError):
        stacked_power_sums([x, x], 1 << 40, 1 << 30, 0, [2.0])
    with pytest.raises(ValueError, match="too large to key"):
        stacked_linf([x, x], 1 << 40, 1 << 30, 0)


def test_copy_loops_check_the_hash_budget():
    x = SparseVector.from_pairs({0: 1.0, 5: 2.0}, 10)
    copies = HASH_BUDGET // 2 + 1  # one hash evaluation over the budget
    with pytest.raises(PreconditionError, match="hash budget"):
        stacked_power_sums([x, x], 3, copies, 0, [2.0])
    with pytest.raises(PreconditionError, match="hash budget"):
        stacked_linf([x, x], 3, copies, 0)
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


def test_stacked_linf_memory_is_bounded_by_the_hashing_block():
    # the engine test's shape: at m = 1 all 120 vectors share each copy's one
    # key, 7140 owner pairs per copy; twice the blocks must not raise the peak
    rng = np.random.default_rng(12)
    vecs = [random_sparse(rng, 500, 2) for _ in range(120)]
    top = np.array([max(v.values) for v in vecs])
    peaks = []
    for blocks in (10, 20):
        tracemalloc.start()
        try:
            got = stacked_linf(vecs, 1, blocks * _BLOCK, 6)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # one bucket per copy: each image is the vector's largest entry
        assert (got == np.abs(top[:, None] - top[None, :])).all()
    assert peaks[1] <= 1.05 * peaks[0]
    assert peaks[1] < 35e6  # 31.8 MB measured


@pytest.mark.parametrize("signed", [False, True])
def test_the_batching_changes_no_bit(monkeypatch, signed):
    # each block's sums are added in copy order, so batching the blocks'
    # group phases moves no float: one block per batch (either budget at 1),
    # the default budgets and one batch per kernel must agree exactly
    rng = np.random.default_rng(707 if signed else 808)
    vecs = [random_sparse(rng, 60, int(rng.integers(1, 7)), signed=signed) for _ in range(9)]
    vecs += [vecs[2], SparseVector.zero(60)]  # a duplicate, a zero vector
    ps, copies = [1.0, 2.0, 3.0, 4.0], 40 * _BLOCK + 11
    batches, real = [], pairwise._batch_groups
    monkeypatch.setattr(pairwise, "_batch_groups",
                        lambda owners, n, coord, *a: batches.append(len(coord))
                        or real(owners, n, coord, *a))
    budgets = [(1, 1 << 30), (1 << 30, 1), (pairwise._MEMBERS, pairwise._BATCH_SUMS),
               (1 << 30, 1 << 30)]
    for m in (1, 3, 40):
        got = []
        for members, sums in budgets:
            monkeypatch.setattr(pairwise, "_MEMBERS", members)
            monkeypatch.setattr(pairwise, "_BATCH_SUMS", sums)
            batches.clear()
            got.append((stacked_power_sums(vecs, m, copies, 9 + m, ps),
                        stacked_linf(vecs, m, copies, 9 + m)))
            if min(members, sums) == 1:  # every block holds a group, one batch each
                assert len(batches) == 2 * (copies // _BLOCK + 1)
            if members == sums == 1 << 30:
                assert len(batches) == 2
        (sums, linf), rest = got[0], got[1:]
        for other, other_linf in rest:
            assert all((other[p] == sums[p]).all() for p in ps)
            assert (other_linf == linf).all()


@pytest.mark.parametrize("n, s, d, m, copies, seed, spans", [
    (25, 10, 10**4, 10**4, 1381, 7, [10, 10, 2]),  # the pairs-allp shape
    (100, 10, 10**4, 10**4, 1727, 7, [1] * 27),  # the criterion-03 shape: n^2 fills a batch
    (8, 3, 500, 10, 6000, 0, [2] * 47),  # the `distort p 3 m 10` digest: members fill it
])
def test_the_batch_span_is_fixed_up_front(monkeypatch, n, s, d, m, copies, seed, spans):
    # the blocks each batch spans, from the first to the last that holds a
    # group (every block does here); the batch phase's gain rests on them
    got, real = [], pairwise._batch_groups

    def batch_groups(owners, n, coord, opens, block):
        got.append(int(block[-1] - block[0]) + 1)
        return real(owners, n, coord, opens, block)

    monkeypatch.setattr(pairwise, "_batch_groups", batch_groups)
    vecs = random_nonneg_dataset(n, s, d, seed=1).vectors
    stacked_power_sums(vecs, m, copies, seed, [2.0])
    assert got == spans
    assert sum(spans) == -(-copies // _BLOCK)


def _heavy_collision_cases():
    # m = 20 for ~190 distinct coordinates: most buckets pool several, and a
    # vector often lands two of its own values in one group
    vecs = random_nonneg_dataset(30, 10, 200, seed=5).vectors
    rng = np.random.default_rng(31)
    signed = [random_sparse(rng, 200, int(rng.integers(1, 11)), signed=True) for _ in range(20)]
    signed += [signed[3], signed[3], SparseVector.zero(200), signed[7]]  # duplicates, a zero
    return [(list(vecs), 0), (signed, 1)]


@pytest.mark.parametrize("vecs, seed", _heavy_collision_cases(), ids=["nonneg", "signed"])
def test_the_rare_group_paths_match_the_per_copy_tables(monkeypatch, vecs, seed):
    # the segments with two or more landed values (the only non-zero row
    # terms), coordinates with several owners and groups of three or more
    # vectors (pairs past offset 1) are rare at the benchmark shapes
    m, T, ps = 20, 3 * _BLOCK + 5, [1.0, 2.0, 3.0, 4.0]
    batches, real = [], pairwise._batch_groups

    def batch_groups(owners, n, coord, opens, block):
        batch = real(owners, n, coord, opens, block)
        batches.append((owners[4][coord], batch))
        return batch

    monkeypatch.setattr(pairwise, "_batch_groups", batch_groups)
    sums = stacked_power_sums(vecs, m, T, seed, ps)
    linf = stacked_linf(vecs, m, T, seed)
    assert any(len(b.multi) for _, b in batches)
    assert any((owned > 1).any() for owned, _ in batches)
    assert any((b.j - b.i > 1).any() for _, b in batches)
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            tables = pair_copy_tables(vecs[i], vecs[j], m, T, seed, ps=ps)
            for p in ps:
                assert sums[p][i, j] == pytest.approx(float(tables[p].sum()), rel=1e-12)
            assert linf[i, j] == naive_stack_linf(vecs[i], vecs[j], m, T, seed)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 6), max_size=12))
def test_group_pairs_are_every_pair_of_each_run_in_order(runs):
    labels = np.repeat(np.arange(len(runs)), runs)
    i, j = pairwise._group_pairs(labels)
    starts = np.cumsum([0, *runs])
    expect = [(a, b) for lo, hi in zip(starts[:-1], starts[1:])
              for a in range(lo, hi) for b in range(a + 1, hi)]
    assert list(zip(i.tolist(), j.tolist())) == expect


@pytest.fixture
def derived_keys(monkeypatch):
    """The copy counts of every copy-key derivation, behind a fresh cache."""
    counts, derive = [], hashing._copy_keys.__wrapped__

    def counted(seed, start, copies):
        counts.append(copies)
        return derive(seed, start, copies)

    monkeypatch.setattr(hashing, "_copy_keys", functools.lru_cache(maxsize=1)(counted))
    return counts


def test_a_walk_hashes_every_cell_and_derives_its_keys_once(monkeypatch, derived_keys):
    # the tracer counts hashing.keys from bucket_grid's arguments, so every
    # block goes through it; the keys behind them are derived once per walk
    vecs = random_nonneg_dataset(100, 10, 10**4, seed=1).vectors  # the criterion-03 shape
    k, copies = len({j for v in vecs for j in v.indices}), 1727
    cells, real = [], pairwise.bucket_grid
    monkeypatch.setattr(pairwise, "bucket_grid", lambda seed, copies, indices, *a, **kw:
                        cells.append(copies * len(indices)) or real(seed, copies, indices,
                                                                    *a, **kw))
    base = pairwise_power_dists(vecs, [2.0])
    for seed, walk in enumerate([
            lambda seed: stacked_power_sums(vecs, 10**4, copies, seed, [2.0], base=base),
            lambda seed: stacked_linf(vecs, 10**4, copies, seed)]):
        cells.clear()
        derived_keys.clear()
        walk(seed)
        assert sum(cells) == copies * k
        assert derived_keys == [copies]


@pytest.mark.parametrize("k, copies", [(2, 3 * 4096 + 100), (150, 2 * 64 * 150 + 1)])
def test_a_long_walk_derives_its_keys_in_bounded_ranges(derived_keys, k, copies):
    # key memory does not grow with the copy count: at most one workspace
    # plane (64 x k keys) or 4096 keys per derivation, each range derived once
    vecs = [SparseVector.from_pairs({j: 1.0 + j % 3}, k) for j in range(k)]
    stacked_power_sums(vecs, 10**6, copies, 3, [2.0])
    assert max(derived_keys) <= max(_BLOCK * k, 4096)
    assert sum(derived_keys) == copies
    assert len(derived_keys) == -(-copies // max(derived_keys))


def test_consecutive_images_of_one_family_derive_their_keys_once(derived_keys):
    # an estimator's queries: one image of each query under its R copies
    rng = np.random.default_rng(4)
    for _ in range(43):
        stacked_image(random_sparse(rng, 10**4, 5), 400, 43, 17)
    assert derived_keys == [43]


def test_pair_matrices_past_the_cell_budget_are_precondition_errors():
    # 8193^2 cells are one past 2^26; each kernel checks before any n x n array
    zeros = [SparseVector.zero(5)] * 8193
    for call in (lambda: lp_dists(zeros, zeros, 2.0), lambda: lp_dists(zeros, zeros[1:], INF),
                 lambda: lp_dists(zeros[:4097], zeros + zeros, 1.0),
                 lambda: pairwise_power_dists(zeros, [2.0]),
                 lambda: stacked_power_sums(zeros, 10, 4, 0, [2.0]),
                 lambda: stacked_linf(zeros, 10, 4, 0)):
        with pytest.raises(PreconditionError, match="pair matrix"):
            call()
