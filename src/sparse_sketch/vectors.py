"""Sparse vectors over huge ambient dimensions: norms, distances, algebra.

Vectors are immutable sorted (index, value) pair lists. Explicit zeros are
canonicalized away on construction, so the stored support is exactly the set
of non-zero coordinates. All operations are pure. `_reduce_abs` is the scalar
norm behind `lp_norm` and `lp_dist`; `_norms` is the package's one array norm
step, equal to it bit for bit row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, NonNegativeRequired, PreconditionError

#: Distinguished marker for the max norm. Not a stand-in "large float":
#: every norm routine special-cases it.
INF = math.inf

# Largest float64 array (2^26 cells, 512 MiB) a stacked row, the
# estimator's tables, a diameter sketch or an n x n matrix of pairs may
# take; the tests and benchmarks stay below 2^22.
CELL_BUDGET = 1 << 26


def _check_p(p) -> float:
    if p == INF:
        return INF
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise ValueError(f"norm order must be >= 1 or INF, got {p!r}")
    return p


def _reduce_abs(abs_vals: Iterable[float], p: float) -> float:
    """(sum |v|^p)^(1/p), scaled by the max entry so huge p stays stable;
    PreconditionError when it leaves float range."""
    vals = list(abs_vals)
    top = max(vals, default=0.0)
    if top == 0.0 or p == INF:
        norm = top
    else:
        acc = 0.0
        for v in vals:
            acc += (v / top) ** p
        norm = top * acc ** (1.0 / p)
    if not math.isfinite(norm):
        raise PreconditionError("distances overflow a float")
    return norm


def _norms(d: np.ndarray, ps: Sequence[float], copies: int = 1) -> list:
    """The array norm step: top * (sum (|d| / top)^p / copies)^(1/p) over
    the last axis of `d`, or its max at p = INF, for every p of ps. The
    terms are added slot by slot with `np.float_power`, as `_reduce_abs`
    adds them (numpy's `**` differs from Python's in the last bit), so at
    copies = 1 each row equals `_reduce_abs` of it bit for bit; with copies
    = T it is the stacked per-copy mean, finite at any p. An empty or
    all-zero row gives 0.0, and a 1-D `d` gives floats. PreconditionError
    when a norm leaves float range (inf, or the nan of inf / inf)."""
    a = np.abs(d)
    if a.shape[-1] == 0:  # an empty row norms as one zero slot
        a = np.zeros(a.shape[:-1] + (1,))
    top = a.max(axis=-1)
    out = []
    # 0/0 on rows that np.where zeroes; an overflow fails the check below
    with np.errstate(invalid="ignore", over="ignore"):
        if any(p != INF for p in ps):
            a /= top[..., None]
        for p in ps:
            if p == INF:
                out.append(top)
                continue
            acc = np.add.accumulate(np.float_power(a, p), axis=-1)[..., -1]
            out.append(np.where(top > 0.0, top * np.float_power(acc / copies, 1.0 / p), 0.0))
    if not np.isfinite(out).all():
        raise PreconditionError("distances overflow a float")
    return [float(n) for n in out] if a.ndim == 1 else out


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of arr, for the array fields of frozen types; no copy."""
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class SparseVector:
    """Sorted sparse (index, value) pairs with ambient dimension `dim`.

    Invariants: indices strictly increasing, all values non-zero and finite,
    `len(indices) <= dim`.
    """

    indices: tuple[int, ...]
    values: tuple[float, ...]
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {self.dim}")
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values must have equal length")
        prev = -1
        for i, v in zip(self.indices, self.values):
            if i <= prev:
                raise ValueError(f"indices must be strictly increasing, saw {i} after {prev}")
            if not 0 <= i < self.dim:
                raise ValueError(f"index {i} outside ambient dimension {self.dim}")
            if v == 0.0 or not math.isfinite(v):
                raise ValueError(f"stored values must be non-zero and finite, got {v!r} at {i}")
            prev = i

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, float]] | Mapping[int, float], dim: int) -> "SparseVector":
        """Build from (index, value) pairs; drops explicit zeros, sorts."""
        if isinstance(pairs, Mapping):
            pairs = pairs.items()
        items = sorted((int(i), float(v)) for i, v in pairs)
        for (a, _), (b, _) in zip(items, items[1:]):
            if a == b:
                raise ValueError(f"duplicate index {a}")
        kept = [(i, v) for i, v in items if v != 0.0]
        return SparseVector(tuple(i for i, _ in kept), tuple(v for _, v in kept), dim)

    @staticmethod
    def zero(dim: int) -> "SparseVector":
        return SparseVector((), (), dim)

    @property
    def sparsity(self) -> int:
        return len(self.indices)

    @property
    def nonneg(self) -> bool:
        return all(v > 0.0 for v in self.values)

    def items(self) -> Iterator[tuple[int, float]]:
        return zip(self.indices, self.values)

    def to_dict(self) -> dict[int, float]:
        return dict(self.items())

    def max_value(self) -> float:
        """Largest stored value (0 for the empty vector)."""
        return max(self.values, default=0.0)


def lp_norm(x: SparseVector, p) -> float:
    """(sum_i |x_i|^p)^(1/p); the max absolute value when p is INF.
    PreconditionError when it leaves float range."""
    p = _check_p(p)
    return _reduce_abs((abs(v) for v in x.values), p)


def _union(x: SparseVector, y: SparseVector) -> Iterator[tuple[int, float, float]]:
    """(index, x value, y value) over the union of the two supports in index
    order, 0.0 on the side that does not store the index."""
    if x.dim != y.dim:
        raise DimensionMismatch(f"ambient dimensions differ: {x.dim} vs {y.dim}")
    xs, ys = x.to_dict(), y.to_dict()
    for i in sorted(xs.keys() | ys.keys()):
        yield i, xs.get(i, 0.0), ys.get(i, 0.0)


def lp_dist(x: SparseVector, y: SparseVector, p) -> float:
    """lp norm of x - y, accumulated directly over the merged support;
    PreconditionError when it leaves float range."""
    p = _check_p(p)
    return _reduce_abs((abs(a - b) for _, a, b in _union(x, y)), p)


def _merge(x: SparseVector, y: SparseVector, sign: float) -> SparseVector:
    out = [(i, v) for i, a, b in _union(x, y) if (v := a + sign * b) != 0.0]
    return SparseVector(tuple(i for i, _ in out), tuple(v for _, v in out), x.dim)


def sum_vectors(x: SparseVector, y: SparseVector) -> SparseVector:
    """Exact sparse sum; entries cancelling to exactly zero are dropped."""
    return _merge(x, y, 1.0)


def diff_vectors(x: SparseVector, y: SparseVector) -> SparseVector:
    """Exact sparse difference x - y."""
    return _merge(x, y, -1.0)


def require_cells(cells: int, what: str) -> None:
    """PreconditionError unless `cells` fits in CELL_BUDGET."""
    if cells > CELL_BUDGET:
        raise PreconditionError(f"{what} needs {cells} cells, above the budget of {CELL_BUDGET}")


def require_nonneg(*vectors: SparseVector, what: str = "operation") -> None:
    for v in vectors:
        if not v.nonneg:
            raise NonNegativeRequired(f"{what} requires non-negative entries")


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of id-tagged vectors sharing one ambient dimension."""

    ids: tuple[str, ...]
    vectors: tuple[SparseVector, ...]
    dim: int
    max_sparsity: int
    nonneg: bool

    def __post_init__(self):
        if len(self.ids) != len(self.vectors):
            raise ValueError("ids and vectors must have equal length")
        for v in self.vectors:
            if v.dim != self.dim:
                raise DimensionMismatch(
                    f"dataset dimension {self.dim} but member has {v.dim}"
                )

    @staticmethod
    def from_items(items: Iterable[tuple[str, SparseVector]], dim: int | None = None) -> "Dataset":
        items = list(items)
        if dim is None:
            if not items:
                raise ValueError("cannot infer dimension of an empty dataset")
            dim = items[0][1].dim
        ids = tuple(str(i) for i, _ in items)
        vecs = tuple(v for _, v in items)
        max_s = max((v.sparsity for v in vecs), default=0)
        nonneg = all(v.nonneg for v in vecs)
        return Dataset(ids, vecs, dim, max_s, nonneg)

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self) -> Iterator[tuple[str, SparseVector]]:
        return iter(zip(self.ids, self.vectors))
