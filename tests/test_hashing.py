import subprocess
import sys

import numpy as np
import pytest

from sparse_sketch import hashing
from sparse_sketch.hashing import (
    HashSpec,
    bucket_grid,
    derive_seed,
    hash_bucket,
    mix64,
)


def test_same_spec_same_bucket():
    spec = HashSpec(seed=123, copy_index=0, m=64)
    assert hash_bucket(spec, 17) == hash_bucket(spec, 17)


def test_single_bucket_always_zero():
    spec = HashSpec(seed=9, copy_index=2, m=1)
    assert all(hash_bucket(spec, j) == 0 for j in (0, 1, 5, 2**40))


def test_copies_give_different_functions():
    a = HashSpec(seed=5, copy_index=0, m=1000)
    b = HashSpec(seed=5, copy_index=1, m=1000)
    hits = sum(hash_bucket(a, j) == hash_bucket(b, j) for j in range(200))
    assert hits < 20  # ~0.1% expected agreement


def test_scalar_and_vector_paths_agree():
    spec = HashSpec(seed=321, copy_index=4, m=101)
    idx = np.array([0, 3, 2**62 - 1, 777, 10**12], dtype=np.uint64)
    scalar = [hash_bucket(spec, int(j)) for j in idx]
    assert scalar == bucket_grid(321, 5, idx, 101)[4].tolist()
    assert scalar == bucket_grid(321, 1, idx, 101, start=4)[0].tolist()


@pytest.mark.parametrize("m", [1, 3, 2**32 + 1, 2**62 - 1])
def test_grid_remainder_matches_the_scalar_hash(m):
    # bucket_grid takes h % m as h - (h // m) * m
    idx = np.array([0, 1, 3, 777, 10**12, 2**62 - 1, 2**64 - 1], dtype=np.uint64)
    grid = bucket_grid(99, 4, idx, m, start=2)
    assert grid.dtype == np.int64
    for c in range(4):
        spec = HashSpec(seed=99, copy_index=2 + c, m=m)
        assert grid[c].tolist() == [hash_bucket(spec, int(j)) for j in idx]


def test_grid_is_fresh_and_the_cached_copy_keys_read_only():
    idx = np.arange(20, dtype=np.uint64)
    expect = bucket_grid(5, 3, idx, 17).tolist()
    grid = bucket_grid(5, 3, idx, 17)
    grid[:] = -1  # a caller owns its grid
    assert bucket_grid(5, 3, idx, 17).tolist() == expect
    keys = hashing._copy_keys(5, 0, 3)
    assert keys.tolist() == [HashSpec(5, c, 17).key() for c in range(3)]
    with pytest.raises(ValueError):
        keys[0] = 1


def test_grid_written_into_a_partial_view_of_out():
    idx = np.array([0, 2, 9, 777, 10**12, 2**64 - 1], dtype=np.uint64)
    work = np.full((2, 8, len(idx)), 12345, dtype=np.uint64)
    out = work[:, :3]
    grid = bucket_grid(41, 3, idx, 97, start=6, out=out)
    assert grid.dtype == np.int64 and np.shares_memory(grid, out[0])
    assert (work[:, 3:] == 12345).all()  # the rest of the buffer is untouched
    assert grid.tolist() == bucket_grid(41, 3, idx, 97, start=6).tolist()
    for c in range(3):
        spec = HashSpec(seed=41, copy_index=6 + c, m=97)
        assert grid[c].tolist() == [hash_bucket(spec, int(j)) for j in idx]


def test_grid_rows_match_per_copy_specs():
    idx = np.arange(50, dtype=np.uint64)
    grid = bucket_grid(777, 3, idx, 13)
    for c in range(3):
        spec = HashSpec(seed=777, copy_index=c, m=13)
        assert grid[c].tolist() == [hash_bucket(spec, int(j)) for j in idx]


def test_buckets_near_uniform_chi_square():
    # 1e5 distinct indices into 16 buckets: every count within 5 sigma
    n, m = 100_000, 16
    buckets = bucket_grid(2024, 1, np.arange(n, dtype=np.uint64), m)[0]
    counts = np.bincount(buckets, minlength=m)
    expect = n / m
    sigma = np.sqrt(n * (1 / m) * (1 - 1 / m))
    assert np.all(np.abs(counts - expect) <= 5 * sigma)


def test_determinism_across_processes():
    spec = HashSpec(seed=42, copy_index=1, m=997)
    local = [hash_bucket(spec, j) for j in (0, 1, 4096, 2**50)]
    code = (
        "from sparse_sketch.hashing import HashSpec, hash_bucket;"
        "spec = HashSpec(seed=42, copy_index=1, m=997);"
        "print([hash_bucket(spec, j) for j in (0, 1, 4096, 2**50)])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str(local)


def test_mix64_is_stable():
    # pinned values guard against accidental constant changes
    assert mix64(0) == 16294208416658607535
    assert mix64(1) == 10451216379200822465


def test_derive_seed_varies_with_salt():
    assert derive_seed(1, 2) != derive_seed(1, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


def test_spec_validation():
    with pytest.raises(ValueError):
        HashSpec(seed=0, copy_index=0, m=0)
    with pytest.raises(ValueError):
        HashSpec(seed=0, copy_index=-1, m=5)
    with pytest.raises(ValueError):
        hash_bucket(HashSpec(seed=0, copy_index=0, m=5), -1)
