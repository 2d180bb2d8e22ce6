"""Batch front-end: dataset ingestion, embedding, distortion reports,
application runs, and probe experiments.

Every command is a pure function of (input files, flags, seed): re-running
with the same arguments produces byte-identical output, and a `# config:`
echo line atop each output file records exactly what produced it.

Exit codes: 0 success, 2 input/parse error, 3 precondition error,
4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io
from .apps import (
    Clustering,
    build_estimator,
    clustering_cost,
    clustering_cost_from_pair_dists,
    diameter_exact,
    diameter_l1,
    diameter_linf_stream,
    direct_distance_sum,
    maxcut_brute,
    maxcut_sketched,
)
from .embeddings import (
    BirthdayMap,
    EmbedParams,
    StackedEmbedding,
    birthday_embed,
    estimate_distance,
    plan_params,
    require_cells,
    stack_embed,
    with_overrides,
)
from .errors import (
    InternalCheckError,
    ParseError,
    PreconditionError,
    SketchError,
)
from .hashing import HashSpec, derive_seed
from .pairwise import lp_dists, stacked_image, stacked_power_sums
from .probes import (
    DenseLinearMap,
    UnifSpec,
    find_linf_violation,
    preservation_trials,
    unif_draws,
)
from .vectors import INF, _dense_norm, lp_norm

_SLACK = 1e-9


def _parse_p(text: str):
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return INF
    return float(text)


def _config(args: argparse.Namespace, **extra) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    cfg.update(extra)
    return cfg


def _load_params(args, dataset) -> tuple[EmbedParams, int]:
    """Embedding params: from --params JSON when given, else planned from
    flags, with --m/--T taking final precedence."""
    if args.params:
        params, seed = EmbedParams.from_json_dict(io.read_json(args.params))
    else:
        s = args.s if args.s is not None else max(1, dataset.max_sparsity)
        n = max(2, len(dataset))
        params = plan_params(args.mode, s, n, args.eps, delta=args.delta, p=args.p)
        seed = args.seed
    if args.m is not None or args.T is not None:
        params = with_overrides(params, m=args.m, T=args.T)
    return params, seed


def _derived_seeds(seed: int, trials: int) -> list[int]:
    return [derive_seed(seed, 0x7218, i) % (1 << 31) for i in range(trials)]


# ---------------------------------------------------------------------------
# commands


def cmd_embed(args) -> int:
    dataset = io.read_dataset(args.input)
    params, seed = _load_params(args, dataset)
    if not dataset.nonneg and params.mode != "discrete":
        raise PreconditionError(f"mode {params.mode!r} requires a non-negative dataset")
    width = params.m * params.T
    require_cells(width, "embedding row")
    config = _config(args, width=width, **params.to_json_dict(seed))
    io.write_embedding_csv(args.output, config, list(dataset.ids),
                           (stacked_image(v, params.m, params.T, seed) for _, v in dataset),
                           width)
    io.write_json(io.default_params_path(args.output), params.to_json_dict(seed))
    return 0


def _embedded_dists(vecs, params, seed, p, base=None) -> np.ndarray:
    """(n, n) matrix of `estimate_distance` under StackedEmbedding(params,
    seed): one engine call for finite p (`base` as in `stacked_power_sums`),
    the per-pair path for p = inf."""
    if p != INF:
        sums = stacked_power_sums(vecs, params.m, params.T, seed, [p], base=base)
        return (sums[float(p)] / params.T) ** (1.0 / p)
    stack = StackedEmbedding(params, seed)
    n = len(vecs)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = estimate_distance(stack, vecs[i], vecs[j], p)
    return out


def _distort_pairs(args, dataset, params, seed):
    p = args.p if args.p is not None else 2.0
    rows = []
    ratios = []
    vecs, ids = dataset.vectors, dataset.ids
    n = len(vecs)
    true_d = lp_dists(vecs, vecs, p)
    with np.errstate(over="ignore"):  # the engine's finiteness check reports it
        base = None if p == INF else {float(p): true_d ** p}
    emb_d = _embedded_dists(vecs, params, seed, p, base=base)
    for i in range(n):
        for j in range(i + 1, n):
            true, emb = float(true_d[i, j]), float(emb_d[i, j])
            ratio = emb / true if true > 0 else None
            if ratio is not None:
                ratios.append(ratio)
            rows.append((f"{ids[i]}|{ids[j]}", p, true, emb, ratio))
    if ratios:
        rows.append(("summary-max", p, "", "", max(ratios)))
        rows.append(("summary-mean", p, "", "", float(np.mean(ratios))))
    return ["pair", "p", "true", "embedded", "ratio"], rows


def _distort_norms(args, dataset, params, seed):
    """Per-vector norm-versus-zero comparison of the max-pool map against
    the linear sum-hash baseline, both at the same output width."""
    stack = StackedEmbedding(params, seed)
    p = args.p if args.p is not None else INF
    width = params.m * params.T
    rows = []
    for vec_id, vec in dataset:
        true = lp_norm(vec, p)
        emb_max = stack_embed(stack, vec)
        if p == INF:
            approx_max = float(np.abs(emb_max).max(initial=0.0))
        else:
            approx_max = float((np.sum(np.abs(emb_max) ** p) / params.T) ** (1.0 / p))
        sum_map = BirthdayMap(HashSpec(seed, 0, width))
        emb_sum = birthday_embed(sum_map, vec)
        approx_sum = _dense_norm(emb_sum, p)
        for label, approx in (("max-hash", approx_max), ("sum-hash", approx_sum)):
            ratio = approx / true if true > 0 else None
            rows.append((vec_id, label, p, true, approx, ratio))
    return ["id", "map", "p", "true", "embedded", "ratio"], rows


def cmd_distort(args) -> int:
    dataset = io.read_dataset(args.input)
    params, seed = _load_params(args, dataset)
    config = _config(args, baseline="birthday sum-hash" if args.against_zero else None,
                     **params.to_json_dict(seed))
    config = {k: v for k, v in config.items() if v is not None}
    if args.against_zero:
        header, rows = _distort_norms(args, dataset, params, seed)
    else:
        header, rows = _distort_pairs(args, dataset, params, seed)
    io.write_report(args.output, config, header, rows)
    return 0


def _apps_diameter(args, dataset, run_seed):
    p = args.p if args.p is not None else INF
    true = diameter_exact(dataset, p)
    s = args.s if args.s is not None else max(1, dataset.max_sparsity)
    if p == INF:
        sketch = diameter_linf_stream(dataset.vectors, s, run_seed)
    elif p == 1:
        sketch = diameter_l1(dataset, s, run_seed)
    else:
        sketch = None
    if sketch is not None and sketch > true + _SLACK * max(1.0, true):
        raise InternalCheckError(
            f"sketched diameter {sketch} exceeds exact {true}"
        )
    ratio = (sketch / true) if (sketch is not None and true > 0) else None
    return true, sketch, ratio


def _apps_maxcut(args, dataset, run_seed):
    p = args.p if args.p is not None else 2.0
    eps = args.eps
    true, _ = maxcut_brute(dataset, p)
    sketch = maxcut_sketched(dataset, p, eps, run_seed)
    if sketch > true + _SLACK * max(1.0, true):
        raise InternalCheckError(f"sketched max-cut {sketch} exceeds exact {true}")
    ratio = sketch / true if true > 0 else None
    return true, sketch, ratio


def _apps_cluster_cost(args, dataset, run_seed):
    if not args.clusters:
        raise ParseError("cluster-cost needs --clusters, e.g. --clusters 0,1,0")
    try:
        assignment = tuple(int(c) for c in args.clusters.split(","))
    except ValueError:
        raise ParseError(f"bad --clusters value {args.clusters!r}")
    k = max(assignment) + 1
    p = args.p if args.p is not None else 1.0
    clustering = Clustering(assignment, k, args.objective, p)
    if args.centers == "continuous":
        true = clustering_cost(dataset, clustering, centers="continuous")
        return true, None, None
    true = clustering_cost(dataset, clustering, centers="basic")
    params, _ = _load_params(args, dataset)
    dists = _embedded_dists(dataset.vectors, params, run_seed, p)
    sketch = clustering_cost_from_pair_dists(dists, clustering)
    ratio = sketch / true if true > 0 else None
    return true, sketch, ratio


def cmd_apps(args) -> int:
    dataset = io.read_dataset(args.input)
    config = _config(args)
    rows = []
    if args.task == "dist-est":
        if not args.queries:
            raise ParseError("dist-est needs --queries FILE")
        p_raw = args.p if args.p is not None else 4.0
        if p_raw == INF or p_raw != int(p_raw):
            raise PreconditionError("dist-est needs an even integer p")
        p = int(p_raw)
        queries = io.read_dataset(args.queries, dim=dataset.dim)
        estimator = build_estimator(dataset, p, args.eps, args.seed)
        for _, q in queries:
            true = direct_distance_sum(dataset, q, p)
            est = estimator.query(q)
            ratio = est / true if true > 0 else None
            rows.append((args.seed, true, est, ratio))
    else:
        runner = {
            "diameter": _apps_diameter,
            "maxcut": _apps_maxcut,
            "cluster-cost": _apps_cluster_cost,
        }[args.task]
        for run_seed in _derived_seeds(args.seed, args.trials):
            true, sketch, ratio = runner(args, dataset, run_seed)
            rows.append((run_seed, true, sketch, ratio))
    io.write_report(args.output, config, ["seed", "true_value", "sketch_value", "ratio"], rows)
    return 0


def cmd_probe(args) -> int:
    config = _config(args)
    if args.task == "rate":
        matrix = io.read_dense_map_csv(args.input)
        lin_map = DenseLinearMap(matrix)
        spec = UnifSpec(t=args.t, r=args.r, d=lin_map.cols, seed=args.seed)
        p = args.p if args.p is not None else 2.0
        stats, passes = preservation_trials(lin_map, spec, p, args.gamma,
                                            args.trials, jobs=args.jobs)
        rows = [(i, float(stats[i]), int(passes[i])) for i in range(len(stats))]
        trailers = [f"rate: {float(passes.mean())!r}"]
        io.write_report(args.output, config, ["trial", "stat", "pass"], rows, trailers)
    elif args.task == "violation":
        matrix = io.read_dense_map_csv(args.input)
        lin_map = DenseLinearMap(matrix)
        witness = find_linf_violation(lin_map)
        attained = float(np.abs(lin_map.apply_sparse(witness)).max())
        rows = [(0, attained, 1)]
        trailers = ["support: " + " ".join(str(i) for i in witness.indices),
                    f"linf: {attained!r}"]
        io.write_report(args.output, config, ["trial", "stat", "pass"], rows, trailers)
    else:  # unif-stats
        if not args.d:
            raise ParseError("unif-stats needs --d")
        spec = UnifSpec(t=args.t, r=args.r, d=args.d, seed=args.seed)
        supports, values = unif_draws(spec, args.trials)
        sq_norms = np.sum(values * values, axis=1)
        rows = [(i, float(sq_norms[i]), int(supports[i].size == spec.t))
                for i in range(args.trials)]
        covered = len(np.unique(supports)) / spec.d
        trailers = [
            f"coverage: {covered!r}",
            f"mean_sq_norm: {float(sq_norms.mean())!r}",
            f"expected_sq_norm: {float(spec.t * spec.r)!r}",
        ]
        io.write_report(args.output, config, ["trial", "stat", "pass"], rows, trailers)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-sketch",
        description="Sketching for sparse non-negative vectors: embeddings, "
                    "distortion reports, applications, and probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, output_required=True):
        sp.add_argument("--input", help="input dataset file (.tsv text or .jsonl)")
        sp.add_argument("--output", required=output_required, help="output CSV path")
        sp.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        sp.add_argument("--params", help="embedding params JSON (read only)")
        sp.add_argument("--mode", default="all-p",
                        choices=["all-p", "linf-exact", "sum-linf", "discrete"],
                        help="planner mode (default all-p)")
        sp.add_argument("--eps", type=float, default=0.2, help="accuracy (default 0.2)")
        sp.add_argument("--p", type=_parse_p, default=None, help="norm order, e.g. 2 or inf")
        sp.add_argument("--trials", type=int, default=1, help="number of seeded runs")
        sp.add_argument("--s", type=int, default=None, help="sparsity override")
        sp.add_argument("--delta", type=int, default=None, help="discrete-mode value bound")
        sp.add_argument("--m", type=int, default=None, help="bucket-count override")
        sp.add_argument("--T", type=int, default=None, help="copy-count override")

    sp = sub.add_parser("embed", help="embed a dataset; writes CSV + params JSON")
    common(sp)
    sp.set_defaults(func=cmd_embed)

    sp = sub.add_parser("distort", help="true-vs-embedded distance (or norm) report")
    common(sp)
    sp.add_argument("--against-zero", action="store_true",
                    help="per-vector norms vs zero, max-hash and sum-hash baselines")
    sp.set_defaults(func=cmd_distort)

    sp = sub.add_parser("apps", help="run a downstream application")
    sp.add_argument("task", choices=["diameter", "maxcut", "cluster-cost", "dist-est"])
    common(sp)
    sp.add_argument("--queries", help="dist-est: query dataset file")
    sp.add_argument("--objective", default="median", choices=["median", "means", "center"])
    sp.add_argument("--clusters", help="cluster-cost: comma-separated labels per vector")
    sp.add_argument("--centers", default="basic", choices=["basic", "continuous"])
    sp.set_defaults(func=cmd_apps)

    sp = sub.add_parser("probe", help="linear-map probes")
    sp.add_argument("task", choices=["rate", "violation", "unif-stats"])
    common(sp)
    sp.add_argument("--t", type=int, default=1, help="support size of random draws")
    sp.add_argument("--r", type=float, default=1.0, help="variance of non-zero entries")
    sp.add_argument("--d", type=int, default=None, help="ambient dimension (unif-stats)")
    sp.add_argument("--gamma", type=float, default=0.0, help="relative tolerance (0 = exact)")
    sp.add_argument("--jobs", type=int, default=1,
                    help="deterministic trial shards (results independent of count)")
    sp.set_defaults(func=cmd_probe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, json.JSONDecodeError, UnicodeError) as e:
        print(f"sparse-sketch: input error: {e}", file=sys.stderr)
        return 2
    except InternalCheckError as e:
        print(f"sparse-sketch: internal invariant breach: {e}", file=sys.stderr)
        return 4
    except (PreconditionError, SketchError, ValueError) as e:
        print(f"sparse-sketch: precondition error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
