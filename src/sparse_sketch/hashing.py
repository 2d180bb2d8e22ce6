"""Seeded 64-bit mixing hash shared by every embedding.

A keyed avalanche mixer (SplitMix64 finalizer) stands in for the uniformly
random bucket function h: [d] -> [m]: it is evaluated on demand, uses O(1)
memory, and is reproducible from (seed, copy_index) alone, so the ambient
dimension can be astronomically large.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_COPY_SALT = 0xD1B54A32D192ED03


def mix64(x: int) -> int:
    """SplitMix64 finalizer: bijective avalanche permutation of 64-bit ints."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix64_u64(z: np.ndarray, t: np.ndarray) -> None:
    # numpy uint64 arithmetic wraps mod 2**64, matching the scalar path;
    # mutates z in place, with the scratch buffer t (z's shape), to keep big
    # grids cheap
    with np.errstate(over="ignore"):
        z += np.uint64(_GOLDEN)
        np.right_shift(z, np.uint64(30), out=t)
        z ^= t
        z *= np.uint64(_MIX_A)
        np.right_shift(z, np.uint64(27), out=t)
        z ^= t
        z *= np.uint64(_MIX_B)
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t


def derive_seed(seed: int, *salts: int) -> int:
    """Deterministically derive a sub-seed from a master seed and salt path."""
    z = mix64(seed & _MASK64)
    for s in salts:
        z = mix64(z ^ (s & _MASK64))
    return z


@dataclass(frozen=True)
class HashSpec:
    """Seed, copy index, and bucket count; fully determines h: [d] -> [m]."""

    seed: int
    copy_index: int
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"bucket count must be >= 1, got {self.m}")
        if self.copy_index < 0:
            raise ValueError(f"copy_index must be >= 0, got {self.copy_index}")

    def key(self) -> int:
        return mix64(mix64(self.seed & _MASK64) ^ ((self.copy_index * _COPY_SALT) & _MASK64))


def hash_bucket(spec: HashSpec, j: int) -> int:
    """Bucket of coordinate j under the function determined by spec."""
    if j < 0:
        raise ValueError(f"coordinate index must be >= 0, got {j}")
    return mix64(spec.key() ^ (j & _MASK64)) % spec.m


# one key per copy index, derived in ranges: consecutive calls on one hash
# family (each vector's stacked image, each estimator query) derive the same
# range, and a collision walk passes one range (`span`) for all its blocks,
# so either derives its keys once; the last range's keys stay cached
@functools.lru_cache(maxsize=1)
def _copy_keys(seed: int, start: int, copies: int) -> np.ndarray:
    """Read-only per-copy keys of copy_index start..start+copies-1: the
    ``HashSpec.key`` of each."""
    copy_ids = np.arange(start, start + copies, dtype=np.uint64)
    with np.errstate(over="ignore"):
        seed_mixed = np.uint64(mix64(seed & _MASK64))
        keys = seed_mixed ^ (copy_ids * np.uint64(_COPY_SALT))
        _mix64_u64(keys, np.empty_like(keys))
    keys.flags.writeable = False
    return keys


def bucket_grid(seed: int, copies: int, indices: np.ndarray, m: int,
                start: int = 0, out: np.ndarray | None = None,
                span: tuple[int, int] | None = None) -> np.ndarray:
    """Buckets for `indices` under copy_index start..start+copies-1; shape
    (copies, len), int64.

    `out`, a uint64 array of shape (2, copies, len) (a view into a larger
    buffer will do), spares the call its two grid-sized allocations: the
    buckets are written into out[0] and returned as its int64 view, and
    out[1] is the scratch of the mixing and then holds the quotient h // m.
    A walk over blocks of copies passes the same buffer for every block.

    `span`, a range (first, count) of copy indices that holds the call's
    copies, has the keys of the whole range derived (and cached) at once: a
    walk passes the same range for every block inside it."""
    idx = np.asarray(indices, dtype=np.uint64)
    if out is None:
        h = np.empty((copies, len(idx)), dtype=np.uint64)
        t = np.empty_like(h)
    else:
        h, t = out
    first, count = span or (start, copies)
    keys = _copy_keys(seed, first, count)[start - first:start - first + copies]
    np.bitwise_xor(keys[:, None], idx[None, :], out=h)
    _mix64_u64(h, t)
    # h % m, in place: numpy divides a uint64 array by a scalar through
    # libdivide, several times faster than its uint64 remainder
    m = np.uint64(m)
    np.floor_divide(h, m, out=t)
    t *= m
    h -= t
    return h.view(np.int64)
