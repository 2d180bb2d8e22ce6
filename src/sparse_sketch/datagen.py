"""Random dataset generators used by the experiment scripts and tests."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .hashing import derive_seed
from .vectors import Dataset, SparseVector


def _dataset(n: int, d: int, seed: int, prefix: str,
             draw: Callable[[np.random.Generator], SparseVector]) -> Dataset:
    """n vectors drawn in turn from one seeded stream, with zero-padded ids."""
    rng = np.random.default_rng(derive_seed(seed, 0xDA7A))
    width = len(str(max(0, n - 1)))
    return Dataset.from_items([(f"{prefix}{i:0{width}d}", draw(rng)) for i in range(n)], d)


def random_nonneg_vector(s: int, d: int, rng: np.random.Generator) -> SparseVector:
    """s non-zeros at uniform random coordinates, values uniform in (0, 1]."""
    support = np.sort(rng.choice(d, size=s, replace=False))
    values = 1.0 - rng.random(s)
    return SparseVector.from_pairs(zip(support.tolist(), values.tolist()), d)


def random_nonneg_dataset(n: int, s: int, d: int, seed: int, prefix: str = "v") -> Dataset:
    return _dataset(n, d, seed, prefix, lambda rng: random_nonneg_vector(s, d, rng))


def random_discrete_vector(s: int, d: int, delta: int, rng: np.random.Generator) -> SparseVector:
    """s non-zeros with values uniform in {-delta..delta} \\ {0}."""
    support = np.sort(rng.choice(d, size=s, replace=False))
    mags = rng.integers(1, delta + 1, size=s)
    signs = rng.integers(0, 2, size=s) * 2 - 1
    values = (mags * signs).astype(np.float64)
    return SparseVector.from_pairs(zip(support.tolist(), values.tolist()), d)


def random_discrete_dataset(n: int, s: int, d: int, delta: int, seed: int,
                            prefix: str = "v") -> Dataset:
    return _dataset(n, d, seed, prefix, lambda rng: random_discrete_vector(s, d, delta, rng))
