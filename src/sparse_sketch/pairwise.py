"""Bulk pairwise distance evaluation: exact distances and distances under
stacked max-pool embeddings.

``lp_dists`` is the one exact-distance kernel: ``vectors.lp_dist`` over
all pairs, equal bit for bit, behind every exact distance the package
reports. Its merge step (``_merged``) turns each pair's supports into one
sorted row of ranks into the distinct indices (padded with a higher rank
and value 0.0; a shared coordinate merged into one slot as x - y). Its
norm step is ``vectors._norms``, the package's one array norm step, which
adds ``_reduce_abs``'s scaled terms slot by slot in index order. When
``ys is xs`` (every all-pairs caller, and ``pairwise_power_dists``) a
triangle walk merges each unordered pair i < j once, hands the merged rows
to every p at once, and mirrors the results: |x - y| and |y - x| are the
same float in the same slot, so ``lp_dist(x, y) == lp_dist(y, x)`` bit for
bit, and the diagonal is exactly 0. Other shapes walk all len(xs) *
len(ys) pairs through the same two steps. ``lp_dist`` stays as the scalar
definition that the tests and the benchmark check against.

``_max_pool_keys`` is the package's one max-pool kernel (sorted distinct
keys, the max of the values on each), and ``_pool_grid`` the one place that
turns a grid of buckets into keys copy * m + bucket for it. ``stacked_image``
is the one map of a vector into stacked copies: one ``bucket_grid`` and one
``_pool_grid``. ``embeddings.stack_embed`` scatters it into a dense row,
``embeddings.estimate_distance`` merges the images of one pair, the
diameter sketches read a one-copy image, and the distance estimator's R
repetitions are its R copies. Its build keys every vector's copies at
once, as vec * copies * m + copy * m + bucket, for one ``_max_pool_keys``
call per block of repetitions. The ``embeddings`` module docstring says
when a pooled bucket can expand a distance.

Two all-pairs kernels evaluate a dataset's embedded distances, each
cross-checked in the test suite against the per-copy definition. A
(copy, bucket) that receives one distinct coordinate holds its value exactly
in every image, so only the collision groups (those receiving two or more)
differ from the true vectors. ``_collision_blocks`` is the one walk over
them. It hashes ``_BLOCK`` copies per ``bucket_grid`` call, and runs the
group phase below once per batch of consecutive blocks. The batch's span is
fixed before the first hash: as many blocks as keep the expected group
members within ``_MEMBERS``, and one at least. ``_shared_rows`` keys each
cell as (bucket << bits) | column and sorts each row once: the sorted
buckets flag the copies with a shared bucket and the low bits give the
members' columns in bucket order, ties in column order. The keys are
int32 when they fit (m - 1 < 2^(31 - bits)), which halves the sort's
width, and int64 above that. Where they would overflow int64
(m - 1 >= 2^(63 - bits)), a stable argsort of the flagged rows gives the
same order. The members' (group, owner vector, value) entries are then
pooled per (group, vector) to the top t_u, and the vector pairs inside
each group are listed by offset: for d = 1, 2, ... the positions i whose
group equals that of i + d, merged into (i, j) order by one sort
(``_group_pairs``, also behind the owner pairs of a shared coordinate).
That order fixes the order in which ``np.bincount`` adds the pair terms.
Each batch is one ``_Batch`` record. A walk hashes every block into
one workspace that it allocates up front, so its blocks do not map and
release fresh pages; that workspace scales with ``_BLOCK`` and the group
phase with the batch, neither with the copy count.

* ``stacked_linf``: p = inf, the max of |t_u - t_v| over the groups both
  vectors hold and of each side's largest |t| at a group the other lacks
  (the first of u's |t|-ranks the pair does not share). Each coordinate
  alone in some copy is one group more, of its owners' values. A max
  decomposes over groups, so the batching is exact.
* ``stacked_power_sums``: finite p. A copy without collisions contributes
  exactly the true distance, so the T-fold sum is T * D plus corrections
  at the groups, summed with segmented reductions and ``np.bincount``
  (no Python loop per group); the first two per block, one bincount keyed
  by (block, vector) or (block, pair) per batch, then added block by block
  in copy order, so the batching moves no bit:

  - per (group, vector): |t_u|^p - sum |x_u|^p over its landed entries;
    it applies to every pair of u. With one landed value it is |x|^p -
    |x|^p = +0.0, which moves no bit of a sum that never holds -0.0, so
    only the segments holding two or more values are summed (0.5% of them
    at the criterion-03 shape);
  - per owner pair in a group: |t_u - t_v|^p - |t_u|^p - |t_v|^p;
  - per coordinate owned by both u and v: |x_u - x_v|^p - |x_u|^p -
    |x_v|^p, subtracted once per copy in which that coordinate collides.

  For a pair with both vectors in a group the three add up to
  |t_u - t_v|^p - sum |x_u - x_v|^p, the exact correction; with only u in
  it, u's row term is. Sums are clamped at 0, and pairs with a zero true
  distance (equal vectors, so equal images) are set to exactly 0.

Both power-sum functions raise PreconditionError when a p-th power
overflows (a large p), rather than return inf or nan, and ``lp_dists`` and
``stacked_linf`` when a difference does. Every function that
returns a matrix of pairs raises it before allocating one whose cells
exceed CELL_BUDGET (n <= 8192 for n x n).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, PreconditionError
from .hashing import bucket_grid
from .vectors import INF, SparseVector, _check_p, _norms, require_cells

_POS_LIMIT = 1 << 62
#: Hash evaluations (copies x distinct coordinates) one call may make.
HASH_BUDGET = 1 << 24
_BLOCK = 64  # copies per block of the collision walk, whose sums add in copy order
_MEMBERS = 1 << 12  # expected group members per batch of blocks, one block at least
_BATCH_SUMS = 1 << 16  # cells of a batch's per-block sums: blocks x n^2 at most
_CHUNK = 1 << 16  # cells per chunk of lp_dists


def require_hashes(copies: int, m: int, coords: int) -> None:
    """ValueError unless copy * m + bucket keys fit in int64, and
    PreconditionError unless copies x max(1, coords) fits in HASH_BUDGET (the
    copy loops run even without coordinates); checked before hashing."""
    if copies * m >= _POS_LIMIT:
        raise ValueError("copies * m too large to key")
    if copies * max(1, coords) > HASH_BUDGET:
        raise PreconditionError(f"{copies} copies of {coords} coordinates exceed the hash "
                                f"budget of {HASH_BUDGET}")


def stacked_image(x: SparseVector, m: int, copies: int,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse image of x under `copies` max-pool copies of m buckets: sorted
    keys copy * m + bucket and the pooled maximum on each."""
    require_hashes(copies, m, x.sparsity)
    grid = bucket_grid(seed, copies, np.asarray(x.indices, dtype=np.uint64), m)
    return _pool_grid(grid, x.values, m)


def _pool_grid(grid: np.ndarray, values, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Max pool of a (copies, k) grid of buckets whose column j holds
    values[j]: sorted keys copy * m + bucket and the maximum on each."""
    keys = np.arange(grid.shape[0], dtype=np.int64)[:, None] * m + grid
    return _max_pool_keys(keys.ravel(),
                          np.tile(np.asarray(values, dtype=np.float64), grid.shape[0]))


def lp_dists(xs: Sequence[SparseVector], ys: Sequence[SparseVector], p) -> np.ndarray:
    """(len(xs), len(ys)) matrix of ``lp_dist(x, y, p)``, equal bit for bit.
    With ``ys is xs`` it is ``_self_dists``' triangle walk, which merges each
    unordered pair once and mirrors it (exact: the distance is symmetric bit
    for bit); otherwise every ordered pair is merged, ``_CHUNK`` cells at a
    time."""
    p = _check_p(p)
    if ys is xs:
        return _self_dists(xs, [p])[0]
    require_cells(len(xs) * len(ys), "pair matrix")
    rows, vals = _padded([*xs, *ys])
    out = np.zeros(len(xs) * len(ys))
    step = _CHUNK // (2 * rows.shape[1]) + 1
    for lo in range(0, len(out), step):
        i, j = np.divmod(np.arange(lo, min(lo + step, len(out))), len(ys))
        out[lo:lo + len(i)] = _norms(_merged(rows, vals, i, len(xs) + j), [p])[0]
    return out.reshape(len(xs), len(ys))


def _self_dists(vectors: Sequence[SparseVector], ps: Sequence[float]) -> list[np.ndarray]:
    """``lp_dists(vectors, vectors, p)`` for each (checked) p of ps, from one
    walk over the pairs i < j, ``_CHUNK`` cells at a time: each chunk is
    merged once, every p reads it, and each result is mirrored. The mirror is
    exact: |x - y| and |y - x| are the same float, the merged row lists them
    in the same slots, and the diagonal is exactly 0."""
    n = len(vectors)
    require_cells(n * n, "pair matrix")
    rows, vals = _padded(vectors)
    outs = [np.zeros((n, n)) for _ in ps]
    lens = np.arange(n - 1, -1, -1)  # partners j > i of each row i
    firsts = np.cumsum(lens) - lens  # triangle position of each row's first pair
    total = n * (n - 1) // 2
    step = _CHUNK // (2 * rows.shape[1]) + 1
    for lo in range(0, total, step):
        k = np.arange(lo, min(lo + step, total))
        i = np.searchsorted(firsts, k, side="right") - 1
        j = k - firsts[i] + i + 1
        for out, norm in zip(outs, _norms(_merged(rows, vals, i, j), ps)):
            out[i, j] = out[j, i] = norm
    return outs


def _padded(vectors: Sequence[SparseVector]) -> tuple[np.ndarray, np.ndarray]:
    """``_entries`` as (len(vectors), max(1, max sparsity)) rows of ranks,
    padded with a rank above every one, and of values, padded with 0.0."""
    vec, rank, val, distinct = _entries(vectors)
    lens = np.bincount(vec, minlength=len(vectors))
    rows = np.full((len(vectors), int(lens.max(initial=1))), len(distinct), dtype=np.int64)
    real = np.arange(rows.shape[1]) < lens[:, None]
    rows[real] = rank
    vals = np.zeros(rows.shape)
    vals[real] = val
    return rows, vals


def _entries(vectors: Sequence[SparseVector]):
    """Every stored entry in vector order (its vector, its index's rank among
    the distinct indices, its value) and the distinct indices;
    DimensionMismatch unless the vectors share one ambient dimension."""
    if len({v.dim for v in vectors}) > 1:
        raise DimensionMismatch("ambient dimensions differ")
    distinct, rank = np.unique(np.array([i for v in vectors for i in v.indices], dtype=np.uint64),
                               return_inverse=True)
    vec = np.repeat(np.arange(len(vectors)), [v.sparsity for v in vectors])
    return vec, rank, np.array([x for v in vectors for x in v.values], dtype=np.float64), distinct


def _merged(rows: np.ndarray, vals: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The merge step: for each pair (x, y) = (row i, row j) of ``_padded``
    ranks and values, the sorted row of x - y slot by slot in index order
    (up to sign, which the norm step drops), a shared coordinate's
    difference in its first slot and 0.0 in its second. Padding fills
    trailing slots with 0.0, which adds exactly 0 to a norm."""
    key = np.hstack([rows[i], rows[j]])
    order = np.argsort(key, axis=1, kind="stable")
    key = np.take_along_axis(key, order, 1)
    d = np.take_along_axis(np.hstack([vals[i], vals[j]]), order, 1)
    shared = key[:, 1:] == key[:, :-1]  # x's entry, then y's
    with np.errstate(over="ignore"):  # an inf fails _norms' check
        d[:, :-1][shared] = (d[:, :-1] - d[:, 1:])[shared]
    d[:, 1:][shared] = 0.0
    return d


def pairwise_power_dists(vectors: Sequence[SparseVector], ps: Sequence[float]) -> dict:
    """Exact {p: (n, n) matrix of ||x_i - x_j||_p^p} over the raw vectors,
    from one ``_self_dists`` walk: each unordered pair is merged once and that
    merge serves every p; the mirror is exact, as there."""
    dists = _self_dists(vectors, [_check_p(p) for p in ps])
    with np.errstate(over="ignore"):  # reported by _require_finite
        return _require_finite({p: np.float_power(d, float(p)) for p, d in zip(ps, dists)})


def _require_finite(powers: dict) -> dict:
    """`powers`, or PreconditionError when a matrix holds an overflowed p-th
    power (inf, or the nan of inf - inf)."""
    for p, mat in powers.items():
        if not np.isfinite(mat).all():
            raise PreconditionError(f"p = {p:g}: p-th powers of these distances overflow a float")
    return powers


def _ownership(vectors: Sequence[SparseVector]):
    """``_entries``' distinct indices, then its entries' vectors and values
    sorted stably by index, and each index's first position and count there."""
    vec, rank, val, distinct = _entries(vectors)
    order = np.argsort(rank, kind="stable")
    counts = np.bincount(rank, minlength=len(distinct))
    return distinct, vec[order], val[order], np.cumsum(counts) - counts, counts


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Positions where the runs of equal values of a sorted array begin."""
    return np.flatnonzero(np.concatenate(([len(a) > 0], a[1:] != a[:-1])))


def _max_pool_keys(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The max-pool kernel: sorted distinct keys and the max of the values
    landing on each."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = _run_starts(keys)
    return keys[starts], np.maximum.reduceat(values[order], starts)


def _expand(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) over the (start, count) pairs."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.int64) + np.repeat(starts - ends + counts, counts)


def _group_pairs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j of equal entries of the sorted array `labels`, in
    (i, j) order. They are listed by offset d = j - i = 1, 2, ... while any
    pair has it, and, when a run has three or more entries, merged by one
    sort of the distinct keys (i << bits) | d."""
    parts = [np.flatnonzero(labels[1:] == labels[:-1])]
    while len(parts[-1]):
        d = len(parts) + 1
        parts.append(np.flatnonzero(labels[d:] == labels[:-d]))
    if len(parts) <= 2:
        return parts[0], parts[0] + 1
    bits = len(parts).bit_length()  # every offset is below len(parts)
    key, lo = np.concatenate(parts), 0
    key <<= bits
    for d, part in enumerate(parts, 1):
        key[lo:lo + len(part)] |= d
        lo += len(part)
    del parts  # a group of n vectors has n^2 / 2 pairs: hold two arrays of them at most
    key.sort()
    i = key >> bits
    key &= (1 << bits) - 1
    key += i
    return i, key


def _shared_rows(grid: np.ndarray, bits: int | None):
    """The rows of a (copies, k) grid of buckets in which two columns share a
    bucket: their indices, each such row's flags sorted[1:] == sorted[:-1],
    and the column order that sorts it, ties in column order. With `bits`
    (>= the bit length of k - 1, and (m - 1) << bits within the grid's
    integer type, int32 or int64) one sort of the keys (bucket << bits) |
    column gives both, and the order comes in the grid's type; with None a
    stable argsort of the shared rows gives the same order. Consumes `grid`."""
    if bits is None:
        buckets = np.sort(grid, axis=1)
    else:
        grid <<= bits
        grid |= np.arange(grid.shape[1], dtype=grid.dtype)
        grid.sort(axis=1)
        buckets = grid >> bits
    same = buckets[:, 1:] == buckets[:, :-1]
    dup = np.flatnonzero(same.any(axis=1))
    if bits is None:
        order = np.argsort(grid[dup], axis=1, kind="stable")
    else:
        grid &= (1 << bits) - 1  # the columns, in sorted order
        # no copy when every row shares a bucket, the common case at scale
        order = grid if len(dup) == len(grid) else grid[dup]
    return dup, same[dup], order


def _collision_blocks(owners, n: int, m: int, copies: int, seed: int):
    """Per batch of consecutive blocks of ``_BLOCK`` copies, the (copy,
    bucket) groups holding two or more distinct coordinates of the
    ``_ownership`` tuple `owners` (of n vectors), as one ``_Batch`` each.
    Batches without collisions are skipped. Everywhere else a coordinate
    lands alone and every image holds its value exactly, so a kernel adds
    those copies from the true vectors, not from this walk.

    Every batch but the last spans the same number of blocks, fixed before
    the first hash from the k distinct coordinates, m and n: as many as keep
    the expected group members within ``_MEMBERS`` (at least one), and at
    most ``_BATCH_SUMS`` // n^2, so a kernel's per-block sums of a batch stay
    within ``_BATCH_SUMS`` cells. A block of k coordinates into m buckets
    expects at most ``_BLOCK`` * k * min(1, (k - 1) / m) members, since
    min(1, (k - 1) / m) bounds the chance that a coordinate shares its
    bucket. No member is carried from one batch into the next.

    Each call allocates one workspace that every block reuses: the (2,
    block, k) uint64 buffer that ``bucket_grid`` hashes into and, when the
    fused keys fit int32 (m - 1 < 2^(31 - bits)), the int32 copy of the
    buckets that ``_shared_rows`` sorts. It is a local, so concurrent walks
    share nothing, and nothing yielded aliases it. The copies' keys are
    derived once per range of ``_BLOCK`` * max(``_BLOCK``, k) copies, no
    more keys than one plane of the workspace holds cells (or 4096): one
    range at both benchmark shapes."""
    k = len(owners[0])
    bits = max(1, (k - 1).bit_length())
    expect = _BLOCK * k * min(m, k - 1) / max(1, m)  # group members of a block
    span = _BLOCK * max(1, min(int(_MEMBERS // max(1.0, expect)),
                               _BATCH_SUMS // max(1, n * n)))  # copies per batch
    rows = min(_BLOCK, copies)
    work = np.empty((2, rows, k), dtype=np.uint64)
    keyed = _BLOCK * max(_BLOCK, k)  # copies whose keys bucket_grid derives at once
    keys = None
    if m - 1 < 1 << (31 - bits):  # bits <= 24 under HASH_BUDGET
        keys = np.empty((rows, k), dtype=np.int32)
    elif m - 1 >= 1 << (63 - bits):
        bits = None  # the fused keys would overflow int64
    for first in range(0, copies, span):
        pieces = []
        for start in range(first, min(first + span, copies), _BLOCK):
            c, lo = min(_BLOCK, copies - start), start - start % keyed
            grid = bucket_grid(seed, c, owners[0], m, start=start, out=work[:, :c],
                               span=(lo, min(keyed, copies - lo)))
            if keys is not None:
                keys[:c] = grid
                grid = keys[:c]
            piece = _members((start - first) // _BLOCK, *_shared_rows(grid, bits))
            if piece is not None:
                pieces.append(piece)
        if pieces:
            yield _batch_groups(owners, n, *map(np.concatenate, zip(*pieces)))


def _members(block: int, dup, same, order):
    """The group members of one block, from ``_shared_rows``: their
    coordinate positions, in copy order and by bucket within a copy; whether
    each opens a group; and the block number. None when no copy holds a
    group."""
    if len(dup) == 0:
        return None
    edge = np.zeros((len(dup), 1), dtype=bool)
    after = np.hstack([edge, same]).ravel()  # same bucket as the previous
    pos = np.flatnonzero(after | np.hstack([same, edge]).ravel())
    # a group opens at a member whose `after` is off
    return order.ravel()[pos], ~after[pos], np.full(len(pos), block)


class _Batch(NamedTuple):
    """One batch of the ``_collision_blocks`` walk; per (group, vector)
    segment means in group order and by vector within a group."""

    coord: np.ndarray  # each group member's coordinate position
    vec: np.ndarray  # per segment: its vector,
    block: np.ndarray  # its block, counted from the batch's first with a group,
    top: np.ndarray  # and its pooled max
    multi: np.ndarray  # the segments holding two or more landed values,
    held: np.ndarray  # those values in segment order,
    runs: np.ndarray  # and each segment's start in `held`
    i: np.ndarray  # the segment pairs i < j inside each group, in (i, j) order
    j: np.ndarray


def _batch_groups(owners, n: int, coord, opens, block) -> _Batch:
    """The ``_Batch`` of one batch's group members, given in copy order and
    by bucket within a copy: their coordinate positions, whether each opens
    a group, and their blocks."""
    _, owner_vec, owner_val, ostarts, ocounts = owners
    # one entry per (group, owner vector, value), segmented by (group, vector)
    counts = ocounts[coord]
    pos = _expand(ostarts[coord], counts)
    group = np.repeat(np.cumsum(opens) - 1, counts)
    key = group * n + owner_vec[pos]
    order = np.argsort(key, kind="stable")
    seg = _run_starts(key[order])
    first, pos = order[seg], pos[order]
    group, val = group[first], owner_val[pos]
    sizes = np.diff(seg, append=len(val))
    multi = np.flatnonzero(sizes > 1)
    lens = sizes[multi]
    i, j = _group_pairs(group)
    return _Batch(coord, owner_vec[pos[seg]], (block[opens] - block[0])[group],
                  np.maximum.reduceat(val, seg), multi, val[_expand(seg[multi], lens)],
                  np.cumsum(lens) - lens, i, j)


def stacked_power_sums(
    vectors: Sequence[SparseVector],
    m: int,
    copies: int,
    seed: int,
    ps: Sequence[float],
    base: dict | None = None,
) -> dict:
    """{p: (n, n) matrix of sum_c ||f_c(x_i) - f_c(x_j)||_p^p} for all pairs.

    Each batch of the ``_collision_blocks`` walk is summed per block of
    ``_BLOCK`` copies and the blocks' sums are added in copy order, so the
    floats do not depend on how the blocks are batched. Only the (group,
    vector) segments holding two or more landed values carry a non-zero row
    term, so the row sums run over those alone; the pair terms run over the
    group's vector pairs, listed by offset (``_group_pairs``).

    `base` may supply precomputed ``pairwise_power_dists(vectors, ps)`` when
    the same dataset is evaluated under many seeds.
    """
    n = len(vectors)
    require_cells(n * n, "pair matrix")
    ps = [float(p) for p in ps]
    distinct, owner_vec, owner_val, ostarts, ocounts = owners = _ownership(vectors)
    require_hashes(copies, m, len(distinct))
    if base is None:
        base = pairwise_power_dists(vectors, ps)
    totals = {p: base[p] * float(copies) for p in ps}
    if len(distinct) == 0:
        return totals

    rows = {p: np.zeros(n) for p in ps}
    pairs = {p: np.zeros(n * n) for p in ps}
    hits = np.zeros(len(distinct), dtype=np.int64)  # copies in which a coordinate collides
    for b in _collision_blocks(owners, n, m, copies, seed):
        hits += np.bincount(b.coord, minlength=len(distinct))
        blocks = int(b.block[-1]) + 1
        row_key = b.block * n + b.vec
        pair_key = row_key[b.i] * n + b.vec[b.j]
        multi_key = row_key[b.multi]
        top_abs, held_abs = np.abs(b.top), np.abs(b.held)
        gap = np.abs(b.top[b.i] - b.top[b.j])
        for p in ps:
            # an overflowed power (inf, or nan from inf - inf) is reported by _require_finite
            with np.errstate(over="ignore", invalid="ignore"):
                tp = top_abs ** p
                # the row terms of one-value segments are +0.0, so they are left out
                part = np.bincount(multi_key, minlength=blocks * n,
                                   weights=tp[b.multi] - np.add.reduceat(held_abs ** p, b.runs))
                _add_blocks(rows[p], part)
                part = np.bincount(pair_key, minlength=blocks * n * n,
                                   weights=gap ** p - tp[b.i] - tp[b.j])
                _add_blocks(pairs[p], part)

    # owner pairs of each shared coordinate, weighted by the copies it collides in
    shared = np.flatnonzero((hits > 0) & (ocounts > 1))
    opos = _expand(ostarts[shared], ocounts[shared])
    label = np.repeat(shared, ocounts[shared])
    ci, cj = _group_pairs(label)
    c_hits = hits[label[ci]].astype(np.float64)
    cx, cy = owner_val[opos[ci]], owner_val[opos[cj]]
    cx_abs, cy_abs, c_gap = np.abs(cx), np.abs(cy), np.abs(cx - cy)
    c_key = owner_vec[opos[ci]] * n + owner_vec[opos[cj]]
    for p in ps:
        with np.errstate(over="ignore", invalid="ignore"):
            pairs[p] += np.bincount(c_key, minlength=n * n,
                                    weights=c_hits * (cx_abs ** p + cy_abs ** p - c_gap ** p))
            pair = pairs[p].reshape(n, n)
            t = totals[p]
            t += rows[p][:, None]
            t += rows[p][None, :]
            t += pair
            t += pair.T
        t[base[p] == 0.0] = 0.0  # equal vectors have equal images
        np.fill_diagonal(t, 0.0)
        np.maximum(t, 0.0, out=t)  # a sum of powers; drops negative roundoff
    return _require_finite(totals)


def _add_blocks(total: np.ndarray, part: np.ndarray) -> None:
    """Adds to `total` the per-block sums `part` (blocks x len(total), flat)
    one block at a time in block order: the floats of a walk that adds each
    block's bincount in turn."""
    for row in part.reshape(-1, len(total)):
        total += row


def stacked_linf(vectors: Sequence[SparseVector], m: int, copies: int, seed: int) -> np.ndarray:
    """(n, n) matrix of max_c ||f_c(x_i) - f_c(x_j)||_inf for all pairs: the
    largest |a_u - a_v| over the keys of two stacked images (absent = 0), by
    ``_group_max`` over each batch of the walk and then the kept coordinates."""
    n = len(vectors)
    require_cells(n * n, "pair matrix")
    distinct, owner_vec, owner_val, _, ocounts = owners = _ownership(vectors)
    require_hashes(copies, m, len(distinct))
    hits = np.zeros(len(distinct), dtype=np.int64)  # copies in which a coordinate collides
    out = np.zeros((n, n))  # out[u, v]: the pair's max over groups so far, seen from u
    for batch in _collision_blocks(owners, n, m, copies, seed):
        hits += np.bincount(batch.coord, minlength=len(distinct))
        _group_max(out, batch.vec, batch.top, batch.i, batch.j)
    # a coordinate alone in some copy is held exactly there by every image: a
    # group whose members are its owners and whose tops are their values
    alone = hits < copies
    keep = np.repeat(alone, ocounts)
    _group_max(out, owner_vec[keep], owner_val[keep],
               *_group_pairs(np.repeat(np.flatnonzero(alone), ocounts[alone])))
    if not np.isfinite(out).all():
        raise PreconditionError("distances overflow a float")
    out = np.maximum(out, out.T)
    np.fill_diagonal(out, 0.0)
    return out


def _group_max(out: np.ndarray, vec, top, a, b) -> None:
    """Raises out[u, v] to the max of |t_u - t_v| over one batch's groups that
    u and v both hold and of u's |t| at those v lacks, from per-(group,
    vector) vectors and tops (by vector within a group) and owner pairs (a, b)."""
    n = len(out)
    # each vector's tops ranked by |t|, largest first; slot len(top) reads 0
    order = np.lexsort((-np.abs(top), vec))
    ranked = np.append(np.abs(top[order]), 0.0)
    sizes = np.bincount(vec, minlength=n)
    first = np.cumsum(sizes) - sizes
    rank = np.argsort(order) - first[vec]
    # (a, b): the owner pairs of each shared group, the lower vector first
    with np.errstate(over="ignore"):  # an inf fails stacked_linf's check
        np.maximum.at(out, (vec[a], vec[b]), np.abs(top[a] - top[b]))
    # u's largest |t| at a group v lacks sits at the first rank that u does
    # not share with v: the length of the run 0, 1, 2, ... of shared ranks
    scale = int(sizes.max(initial=1))
    key = np.concatenate([(vec[a] * n + vec[b]) * scale + rank[a],
                          (vec[b] * n + vec[a]) * scale + rank[b]])
    key.sort()
    starts = _run_starts(key // scale)
    pu, pv = np.divmod(key[starts] // scale, n)
    key %= scale
    key -= np.arange(len(key))  # rank - position: -start along a leading run
    lead = key == np.repeat(-starts, np.diff(starts, append=len(key)))
    run = np.add.reduceat(lead, starts, dtype=np.int64)
    # a pair that shares no group reads u's largest |t|; the others are restored
    seen = out[pu, pv]
    np.maximum(out, ranked[np.where(sizes > 0, first, len(top))][:, None], out=out)
    out[pu, pv] = np.maximum(seen, ranked[np.where(run < sizes[pu], first[pu] + run, len(top))])
