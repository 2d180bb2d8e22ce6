"""Seeded inputs, the library loops and the output checks.

Only child processes import this module (it pulls in numpy and the
package); the orchestrator `run.py` stays small so that the peak RSS it
reads from each child's rusage is the child's own.

Outputs are checked against the package's brute-force oracles (`lp_dist`,
`pairwise_power_dists`, `direct_distance_sum`, `stack_embed`) and, on a
few samples per run, against the map's definition evaluated here one
scalar `hash_bucket` per stored coordinate, which shares no code with the
vectorised paths under test.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import traceback
from time import perf_counter

import numpy as np

from sparse_sketch import apps, embeddings, io, pairwise
from sparse_sketch.datagen import random_nonneg_dataset
from sparse_sketch.hashing import HashSpec, bucket_grid, derive_seed, hash_bucket
from sparse_sketch.vectors import lp_dist

from shapes import EPS, EST_EPS, EST_P, EST_SEED, HASH_SEED, SWEEP_ROOT, ScaledClock, shape

SWEEP_PS = (1.0, 2.0, 4.0)
NONEXP_TOL = 1e-9  # relative slack for "never above the true distance"
EXACT_TOL = 1e-9   # relative slack against the definitional oracle
SAMPLES = 5        # pairs or queries per run checked against the definition
QUERY_BATCH = 30   # queries between two speed probes


def generate(workload: str, seed: int, tiny: bool, out_dir: str) -> None:
    """Write the workload's input files; the same seed gives the same bytes."""
    sh = shape(workload, tiny)
    data = random_nonneg_dataset(sh["n"], sh["s"], sh["d"], seed=seed)
    io.write_dataset_text(os.path.join(out_dir, "data.tsv"), data)
    if workload == "estimator-queries":
        queries = random_nonneg_dataset(sh["queries"], sh["s"], sh["d"],
                                        seed=derive_seed(seed, 1), prefix="q")
        io.write_dataset_text(os.path.join(out_dir, "queries.tsv"), queries)


class Tally:
    """Operations attempted and failed, plus estimates within 1 +- eps."""

    def __init__(self):
        self.attempted = self.failed = self.estimates = self.within = 0

    def add(self, attempted: int, failed: int, estimates: int = 0, within: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed
        self.estimates += estimates
        self.within += within

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "estimates": self.estimates, "within": self.within}


# ---------------------------------------------------------------------------
# the max-pool map by its definition


def pooled(x, seed: int, copy: int, m: int) -> dict[int, float]:
    """Copy `copy` of the max-pool image of x: bucket -> max stored value."""
    spec = HashSpec(seed, copy, m)
    out: dict[int, float] = {}
    for j, v in x.items():
        b = hash_bucket(spec, j)
        out[b] = max(out.get(b, v), v)
    return out


def copy_powers(fx: dict, fy: dict, ps) -> list[float]:
    """||f_c(x) - f_c(y)||_p^p for each p, from two pooled copies."""
    diffs = [abs(fx.get(b, 0.0) - fy.get(b, 0.0)) for b in fx.keys() | fy.keys()]
    return [sum(d ** p for d in diffs) for p in ps]


def stacked_powers(x, y, seed: int, m: int, copies: int, ps) -> list[float]:
    """sum over copies of ||f_c(x) - f_c(y)||_p^p, for each p."""
    totals = [0.0] * len(ps)
    for c in range(copies):
        for k, v in enumerate(copy_powers(pooled(x, seed, c, m), pooled(y, seed, c, m), ps)):
            totals[k] += v
    return totals


def _close(value: float, exact: float) -> bool:
    return abs(value - exact) <= EXACT_TOL * abs(exact)


# ---------------------------------------------------------------------------
# checks of CLI outputs


def check_distort(data_path: str, out_path: str) -> dict:
    """Every pair once, its true distance equal to `lp_dist`, its estimate
    never above it, the first pairs' estimates equal to the definition;
    counts estimates within 1 +- eps."""
    ds = io.read_dataset(data_path)
    vecs = ds.vectors
    params = embeddings.plan_params("all-p", max(1, ds.max_sparsity), max(2, len(ds)), EPS)
    expected = {f"{ds.ids[i]}|{ds.ids[j]}": (i, j)
                for i in range(len(vecs)) for j in range(i + 1, len(vecs))}
    tally = Tally()
    seen = set()
    with open(out_path, encoding="utf-8") as fh:
        body = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    if not body or body[0] != "pair,p,true,embedded,ratio":
        tally.add(len(expected), len(expected))
        return tally.as_dict()
    for row in body[1:]:
        cells = row.split(",")
        if cells[0].startswith("summary-"):
            continue
        if cells[0] not in expected or cells[0] in seen or len(cells) != 5:
            tally.add(1, 1)
            continue
        seen.add(cells[0])
        i, j = expected[cells[0]]
        ref = lp_dist(vecs[i], vecs[j], 2.0)
        try:
            p, true, est = float(cells[1]), float(cells[2]), float(cells[3])
        except ValueError:
            tally.add(1, 1)
            continue
        bad = (p != 2.0 or not math.isfinite(est) or abs(true - ref) > NONEXP_TOL * ref
               or est > ref * (1.0 + NONEXP_TOL))
        if len(seen) <= SAMPLES and not bad:
            (power,) = stacked_powers(vecs[i], vecs[j], HASH_SEED, params.m, params.T, (2.0,))
            bad = not _close(est, math.sqrt(power / params.T))
        tally.add(1, int(bad), 1, int(abs(est / ref - 1.0) <= EPS))
    missing = len(expected) - len(seen)
    tally.add(missing, missing)
    return tally.as_dict()


def check_embed(data_path: str, out_path: str) -> dict:
    """Rows read back through `io.read_embedding_csv` must equal both
    `stack_embed` of the same vector under the planned params and the
    map's definition; counts (pair, p) estimates from the rows within
    1 +- eps."""
    ds = io.read_dataset(data_path)
    tally = Tally()
    params, seed = embeddings.EmbedParams.from_json_dict(
        io.read_json(io.default_params_path(out_path)))
    want = embeddings.plan_params("all-p", max(1, ds.max_sparsity), max(2, len(ds)), EPS)
    if params != want or seed != HASH_SEED:
        tally.add(len(ds), len(ds))
        return tally.as_dict()
    ids, rows = io.read_embedding_csv(out_path)
    stack = embeddings.StackedEmbedding(params, seed)
    good = {}
    for k, vec_id in enumerate(ids):
        if vec_id not in ds.ids or vec_id in good:
            tally.add(1, 1)
            continue
        vec = ds.vectors[ds.ids.index(vec_id)]
        exact = np.zeros(params.m * params.T)
        for c in range(params.T):
            for b, v in pooled(vec, seed, c, params.m).items():
                exact[c * params.m + b] = v
        ok = bool(np.array_equal(rows[k], embeddings.stack_embed(stack, vec))
                  and np.array_equal(rows[k], exact))
        tally.add(1, int(not ok))
        if ok:
            good[vec_id] = (vec, rows[k])
    missing = len(ds) - sum(1 for i in ds.ids if i in ids)
    tally.add(missing, missing)
    for (x, ex), (y, ey) in itertools.combinations(good.values(), 2):
        for p in SWEEP_PS:
            est = embeddings.estimate_distance_embedded(params, seed, ex, seed, ey, p)
            tally.add(0, 0, 1, int(abs(est / lp_dist(x, y, p) - 1.0) <= EPS))
    return tally.as_dict()


# ---------------------------------------------------------------------------
# library workloads, run inside one child process


def _report_failure(what: str) -> None:
    print(f"bench: {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def sweep_collision_groups(vectors, m: int, copies: int, seed: int) -> int:
    """(copy, bucket) groups holding two or more distinct coordinates."""
    distinct = np.unique(np.concatenate([np.asarray(v.indices, dtype=np.uint64)
                                         for v in vectors]))
    grid = np.sort(bucket_grid(seed, copies, distinct, m), axis=1)
    same = grid[:, 1:] == grid[:, :-1]
    first = same & ~np.concatenate([np.zeros((copies, 1), dtype=bool), same[:, :-1]], axis=1)
    return int(first.sum())


def _check_sweep(sums: dict, base: dict, copies: int, iu,
                 exact: dict) -> tuple[int, int, int, int]:
    """Non-expansion and within-eps counts over all pairs; the pairs in
    `exact` ({(i, j): per-p power sums by the definition}) must match it."""
    pairs = len(iu[0])
    ok = np.ones(pairs, dtype=bool)
    for k, ((i, j), powers) in enumerate(exact.items()):
        ok[k] = all(_close(sums[p][i, j], e) for p, e in zip(SWEEP_PS, powers))
    within = 0
    for p in SWEEP_PS:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (sums[p][iu] / (copies * base[p][iu])) ** (1.0 / p)
        ok &= np.isfinite(ratio) & (ratio <= 1.0 + NONEXP_TOL)
        within += int(np.count_nonzero(np.abs(ratio - 1.0) <= EPS))
    return pairs, pairs - int(ok.sum()), pairs * len(SWEEP_PS), within


def _record(out: dict, key: str, clock, raw: list[float]) -> None:
    """Append raw times to out["raw_" + key] and their scaled times to
    out[key]; without a clock (unit mode) only the raw times are kept."""
    out.setdefault("raw_" + key, []).extend(raw)
    out[key].extend(clock.scale(raw) if clock else raw)


def run_sweep(data_path: str, seconds: float, unit: bool, setups: int,
              on_ready=lambda: None) -> dict:
    """Criterion-03 loop: `base` (set-up), then one `stacked_power_sums`
    per derived seed. Unit mode runs one base and one seed, timed together.
    `on_ready` runs once the inputs are loaded, before any measured call.
    Loop mode brackets every set-up and op with speed probes (`ScaledClock`)."""
    ds = io.read_dataset(data_path)
    vecs = ds.vectors
    params = embeddings.plan_params("all-p", ds.max_sparsity, len(ds), EPS)
    m, copies = params.m, params.T
    iu = np.triu_indices(len(vecs), 1)
    pairs = len(iu[0])
    tally = Tally()
    out = {"setup_s": [], "op_s": [], "items_per_op": pairs}
    if unit:
        out["collision_groups"] = sweep_collision_groups(vecs, m, copies,
                                                         derive_seed(SWEEP_ROOT, 0))
    on_ready()
    started = perf_counter()
    clock = None if unit else ScaledClock()
    for _ in range(setups):
        t0 = perf_counter()
        base = pairwise.pairwise_power_dists(vecs, SWEEP_PS)
        _record(out, "setup_s", clock, [perf_counter() - t0])

    def one(run: int):
        t0 = perf_counter()
        sums = pairwise.stacked_power_sums(vecs, m, copies, derive_seed(SWEEP_ROOT, run),
                                           SWEEP_PS, base=base)
        return perf_counter() - t0, sums

    _, first = one(0)  # in loop mode a warm-up: checked, not timed
    if unit:
        out["unit_s"] = perf_counter() - started
    # the definition calls hashing.mix64, which a traced unit would record
    sample = [] if unit else list(zip(iu[0][:SAMPLES].tolist(), iu[1][:SAMPLES].tolist()))
    exact = {(i, j): stacked_powers(vecs[i], vecs[j], derive_seed(SWEEP_ROOT, 0), m, copies,
                                    SWEEP_PS) for i, j in sample}
    tally.add(*_check_sweep(first, base, copies, iu, exact))
    if not unit:
        clock.restart()
        t_end = perf_counter() + seconds
        for run in itertools.count(1):
            if perf_counter() >= t_end:
                break
            try:
                dt, sums = one(run)
            except Exception:
                _report_failure(f"stacked_power_sums run {run}")
                tally.add(pairs, pairs)
                continue
            _record(out, "op_s", clock, [dt])
            tally.add(*_check_sweep(sums, base, copies, iu, {}))
        _, again = one(0)  # the same seed again must repeat bit for bit
        same = all(np.array_equal(again[p], first[p]) for p in SWEEP_PS)
        tally.add(pairs, 0 if same else pairs)
    out.update(tally.as_dict())
    return out


def _estimate_by_definition(ds, y, reps: int, m: int) -> float:
    """Lower median over repetitions of sum_x ||f_r(x) - f_r(y)||_p^p."""
    totals = []
    for r in range(reps):
        fy = pooled(y, EST_SEED, r, m)
        totals.append(sum(copy_powers(pooled(x, EST_SEED, r, m), fy, (EST_P,))[0]
                          for x in ds.vectors))
    return sorted(totals)[(reps - 1) // 2]


def run_estimator(data_path: str, queries_path: str, batch: int, seconds: float,
                  unit: bool, setups: int, on_ready=lambda: None) -> dict:
    """`build_estimator` (set-up), then queries in sequence, cycling over
    the generated queries, each checked against `direct_distance_sum`.
    Loop mode answers every query at least once and brackets every build
    and every QUERY_BATCH queries with speed probes (`ScaledClock`); unit
    mode runs one build and `batch` queries with their oracle, timed
    together."""
    ds = io.read_dataset(data_path)
    queries = io.read_dataset(queries_path, dim=ds.dim).vectors
    tally = Tally()
    out = {"setup_s": [], "op_s": [], "items_per_op": 1}
    on_ready()
    started = perf_counter()
    clock = None if unit else ScaledClock()
    for _ in range(setups):
        t0 = perf_counter()
        est = apps.build_estimator(ds, EST_P, EST_EPS, EST_SEED)
        _record(out, "setup_s", clock, [perf_counter() - t0])
    out["query_coeffs"] = est.R * est.m * (est.p + 1)
    answers: dict[int, float] = {}
    direct: dict[int, float] = {}
    pending: list[float] = []  # raw query times since the last probe
    count = batch if unit else len(queries)
    t_end = perf_counter() + seconds
    for k in itertools.count():
        if k >= count and (unit or perf_counter() >= t_end):
            break
        qi = k % len(queries)
        y = queries[qi]
        t0 = perf_counter()
        try:
            answer = est.query(y)
        except Exception:
            _report_failure(f"query {k}")
            tally.add(1, 1)
            continue
        if not unit:
            pending.append(perf_counter() - t0)
            if len(pending) == QUERY_BATCH:
                _record(out, "op_s", clock, pending)
                pending = []
        if qi not in direct:
            direct[qi] = apps.direct_distance_sum(ds, y, EST_P)
        if qi in answers:  # a repeated query must give the same answer
            tally.add(1, int(answer != answers[qi]))
            continue
        answers[qi] = answer
        bad = not math.isfinite(answer)
        if qi < SAMPLES and not unit and not bad:  # untraced only, as in run_sweep
            bad = not _close(answer, _estimate_by_definition(ds, y, est.R, est.m))
        close = abs(answer - direct[qi]) <= EST_EPS * direct[qi]
        tally.add(1, int(bad), 1, int(close))
    if pending:
        _record(out, "op_s", clock, pending)
    if unit:
        out["unit_s"] = perf_counter() - started
    out.update(tally.as_dict())
    return out
