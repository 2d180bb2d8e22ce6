"""Child-process entry points of the benchmark; `run.py` starts them.

    worker.py gen WORKLOAD SEED DIR [--tiny]
    worker.py lib WORKLOAD DIR RESULT --seconds S [--unit] [--trace --spans F] [--tiny]
    worker.py check WORKLOAD DIR OUTPUT RESULT
    worker.py cli RESULT SPANS -- CLI-ARGS...
    worker.py timed-cli RESULT -- CLI-ARGS...
    worker.py timed-import RESULT

Each writes its findings as JSON to RESULT (gen: DIR/gen.json).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _write(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _require_checkout_package() -> None:
    import sparse_sketch

    if not Path(sparse_sketch.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"bench: sparse_sketch imported from {sparse_sketch.__file__}, "
                 f"not from {ROOT / 'src'}")


def cmd_gen(args) -> int:
    import numpy as np

    import workloads

    workloads.generate(args.workload, args.seed, args.tiny, args.dir)
    _write(str(Path(args.dir) / "gen.json"),
           {"python": platform.python_version(), "numpy": np.__version__})
    return 0


def cmd_lib(args) -> int:
    import workloads
    from shapes import SETUP_REPEATS, shape
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    on_ready = tracer.install if tracer else (lambda: None)
    setups = 1 if args.unit else SETUP_REPEATS
    d = Path(args.dir)
    if args.workload == "sweep-c03":
        out = workloads.run_sweep(str(d / "data.tsv"), args.seconds, args.unit, setups,
                                  on_ready)
    else:
        out = workloads.run_estimator(str(d / "data.tsv"), str(d / "queries.tsv"),
                                      shape(args.workload, args.tiny)["batch"],
                                      args.seconds, args.unit, setups, on_ready)
    if tracer:
        layers = tracer.layer_metrics()
        layers["pairwise.collision_groups"] = out.pop("collision_groups", 0)
        coeffs = out.pop("query_coeffs", 0)
        layers["apps.query_coeffs"] = coeffs
        layers["apps.query_bytes_computed"] = 8 * coeffs  # float64, computed not measured
        out["layers"] = layers
        tracer.dump(args.spans)
    _write(args.result, out)
    return 0


def cmd_check(args) -> int:
    import workloads

    data = str(Path(args.dir) / "data.tsv")
    if args.workload == "pairs-allp":
        out = workloads.check_distort(data, args.output)
    else:
        out = workloads.check_embed(data, args.output)
    _write(args.result, out)
    return 0


def cmd_cli(args) -> int:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    from sparse_sketch import cli

    rc = cli.main(args.cli_args)
    _write(args.result, {"rc": rc, "layers": tracer.layer_metrics()})
    tracer.dump(args.spans)
    return rc


def _timed(args, work) -> int:
    """Time `work()` between speed probes; write its raw and scaled seconds."""
    from shapes import ScaledClock

    clock = ScaledClock()
    t0 = perf_counter()
    rc = work()
    raw = perf_counter() - t0
    (scaled,) = clock.scale([raw])
    _write(args.result, {"rc": rc, "raw_s": raw, "scaled_s": scaled})
    return rc


def cmd_timed_cli(args) -> int:
    from sparse_sketch import cli

    return _timed(args, lambda: cli.main(args.cli_args))


def cmd_timed_import(args) -> int:
    """The CLI's set-up: importing `sparse_sketch.cli` into this fresh
    interpreter, timed before the package's location is checked."""

    def work() -> int:
        import sparse_sketch.cli  # noqa: F401

        return 0

    rc = _timed(args, work)
    _require_checkout_package()
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("gen")
    sp.add_argument("workload")
    sp.add_argument("seed", type=int)
    sp.add_argument("dir")
    sp.add_argument("--tiny", action="store_true")
    sp.set_defaults(func=cmd_gen)
    sp = sub.add_parser("lib")
    sp.add_argument("workload", choices=["sweep-c03", "estimator-queries"])
    sp.add_argument("dir")
    sp.add_argument("result")
    sp.add_argument("--seconds", type=float, required=True)
    sp.add_argument("--unit", action="store_true")
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--spans")
    sp.add_argument("--tiny", action="store_true")
    sp.set_defaults(func=cmd_lib)
    sp = sub.add_parser("check")
    sp.add_argument("workload", choices=["pairs-allp", "embed-allp"])
    sp.add_argument("dir")
    sp.add_argument("output")
    sp.add_argument("result")
    sp.set_defaults(func=cmd_check)
    sp = sub.add_parser("cli")
    sp.add_argument("result")
    sp.add_argument("spans")
    sp.add_argument("cli_args", nargs=argparse.REMAINDER)
    sp.set_defaults(func=cmd_cli)
    sp = sub.add_parser("timed-cli")
    sp.add_argument("result")
    sp.add_argument("cli_args", nargs=argparse.REMAINDER)
    sp.set_defaults(func=cmd_timed_cli)
    sp = sub.add_parser("timed-import")
    sp.add_argument("result")
    sp.set_defaults(func=cmd_timed_import)
    args = parser.parse_args(argv)
    if getattr(args, "cli_args", None) and args.cli_args[0] == "--":
        args.cli_args = args.cli_args[1:]
    if args.func is not cmd_timed_import:
        _require_checkout_package()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
