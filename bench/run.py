#!/usr/bin/env python3
"""Benchmark of the sparse-sketch package, one workload per invocation.

    python3 bench/run.py --workload pairs-allp --seed 1 --seconds 15 --trace 0

Generates the workload's inputs from --seed, runs it in fresh child
processes (one at a time, one caller, closed loop, BLAS threads pinned to
1), checks every output against the package's brute-force oracles and
prints each metric by name and unit. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Every end-to-end time is scaled to a fixed machine speed by speed probes
run in the same process just before and after the timed work (see
`shapes.ScaledClock`). Raw and scaled medians are both printed with the
machine facts.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced units of the workload and reports per-layer self times and
counts from the traced ones, plus the tracing overhead. See README.md in
this directory for the workloads, the metrics and baseline numbers.

This process imports neither numpy nor the package: the children do the
work, so the peak RSS read from each child's rusage is the child's own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from shapes import (CLI_WORKLOADS, PROBE_NOMINAL_S, SETUP_REPEATS, WORKLOADS, cli_argv,
                    items_per_op)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "within_eps_frac": "frac",
}
PER_LAYER = {
    "cli.self_s": "s",
    "io.read_dataset_s": "s",
    "io.write_s": "s",
    "io.bytes_written": "bytes",
    "vectors.lp_dist_s": "s",
    "vectors.lp_dist_calls": "count",
    "hashing.bucket_grid_s": "s",
    "hashing.bucket_array_s": "s",
    "hashing.keys": "count",
    "embeddings.estimate_distance_s": "s",
    "embeddings.stack_embed_s": "s",
    "embeddings.landed_buckets_s": "s",
    "embeddings.landed_buckets_calls": "count",
    "pairwise.pair_copy_tables_s": "s",
    "pairwise.stacked_power_sums_s": "s",
    "pairwise.pairwise_power_dists_s": "s",
    "pairwise.collision_groups": "count",
    "apps.build_estimator_s": "s",
    "apps.query_s": "s",
    "apps.query_coeffs": "count",
    "apps.query_bytes_computed": "bytes",
    "apps.direct_distance_sum_s": "s",
    "apps.query_over_direct": "ratio",
    "trace.unit_s": "s",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
}
CHILD_TIMEOUT = 150.0  # seconds before a child is killed and counted as failed


class ChildFailed(Exception):
    """A child that must not fail did; the run reports itself incorrect."""


class Bench:
    """One benchmark invocation: its work directory, child environment and tally."""

    def __init__(self, args):
        self.args = args
        self.work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            self.env[var] = "1"
        self.attempted = 0
        self.failed = 0
        self.estimates = 0
        self.within = 0
        self._children = 0

    # -- children ----------------------------------------------------------

    def spawn(self, argv: list[str]) -> dict:
        """Run one child to completion; wall seconds, exit code, peak RSS."""
        self._children += 1
        log = self.work / f"child{self._children}.log"
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        # reaped by wait4 already; Popen must not try to reap it again
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        text = log.read_bytes()
        if rc != 0 or b"Traceback" in text:
            sys.stderr.write(text.decode("utf-8", "replace")[-4000:])
        return {"seconds": seconds, "rc": rc, "rss_mb": usage.ru_maxrss / 1024.0,
                "ok": rc == 0 and b"Traceback" not in text}

    def worker(self, *args: str) -> list[str]:
        argv = [sys.executable, str(BENCH / "worker.py"), *args]
        return argv + ["--tiny"] if self.args.tiny and args[0] in ("gen", "lib") else argv

    def tally(self, res: dict) -> None:
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.estimates += res["estimates"]
        self.within += res["within"]

    # -- CLI workloads -----------------------------------------------------

    def cli_op(self, k: int, traced: bool, ref: dict, timed: bool = False) -> dict:
        """One CLI run into its own directory; its output is checked in full
        the first time and compared byte for byte (bar `# config:`) after.
        A timed run adds the raw and scaled seconds of `cli.main` itself."""
        op_dir = self.work / f"op{k}"
        op_dir.mkdir()
        out = op_dir / "out.csv"
        cli_args = cli_argv(self.args.workload, str(self.work / "data.tsv"), str(out))
        if traced:
            res_path, spans = op_dir / "result.json", self.spans_path(k)
            child = self.spawn(self.worker("cli", str(res_path), str(spans), "--", *cli_args))
            if child["ok"]:
                child["layers"] = json.loads(res_path.read_text())["layers"]
                child["layers"]["io.bytes_written"] = sum(
                    f.stat().st_size for f in op_dir.iterdir() if f.name != "result.json")
        elif timed:
            res_path = op_dir / "timing.json"
            child = self.spawn(self.worker("timed-cli", str(res_path), "--", *cli_args))
            if child["ok"]:
                child.update(json.loads(res_path.read_text()))
        else:
            child = self.spawn([sys.executable, "-m", "sparse_sketch.cli", *cli_args])
        items = items_per_op(self.args.workload, self.args.tiny)
        if not child["ok"]:
            self.tally({"attempted": items, "failed": items, "estimates": 0, "within": 0})
        else:
            digest = _digest_after_config(out)
            if "digest" not in ref:
                res = op_dir / "check.json"
                check = self.spawn(self.worker("check", self.args.workload, str(self.work),
                                               str(out), str(res)))
                if not check["ok"]:
                    raise ChildFailed("output check")
                ref.update(json.loads(res.read_text()), digest=digest)
                self.tally(ref)
            elif digest == ref["digest"]:
                self.tally({**ref, "estimates": 0, "within": 0})
            else:
                print(f"bench: op {k} output differs from the first op's", file=sys.stderr)
                self.tally({**ref, "failed": ref["attempted"], "estimates": 0, "within": 0})
        shutil.rmtree(op_dir)
        return child

    def run_cli(self) -> dict:
        items = items_per_op(self.args.workload, self.args.tiny)
        ref: dict = {}
        if self.args.trace:
            return self.alternate(lambda k, traced: self.cli_unit(k, traced, ref))
        setups = []
        for k in range(SETUP_REPEATS):
            res_path = self.work / f"setup{k}.json"
            if not self.spawn(self.worker("timed-import", str(res_path)))["ok"]:
                raise ChildFailed("CLI import")
            setups.append(json.loads(res_path.read_text()))
        ops = []
        t_end = time.perf_counter() + self.args.seconds
        while not ops or time.perf_counter() < t_end:
            ops.append(self.cli_op(len(ops), False, ref, timed=True))
        good = [op for op in ops if op["ok"]]
        if not good:
            raise ChildFailed("every CLI op")
        return {
            "setup_s": [c["scaled_s"] for c in setups],
            "raw_setup_s": [c["raw_s"] for c in setups],
            "op_s": [op["scaled_s"] for op in good],
            "raw_op_s": [op["raw_s"] for op in good],
            "items_per_op": items,
            "peak_rss_mb": statistics.median(op["rss_mb"] for op in good),
        }

    def cli_unit(self, k: int, traced: bool, ref: dict) -> dict:
        child = self.cli_op(k, traced, ref)
        return {"unit_s": child["seconds"], "layers": child.get("layers")}

    # -- library workloads -------------------------------------------------

    def lib_run(self, k: int, unit: bool, traced: bool) -> tuple[dict, dict]:
        res_path = self.work / f"lib{k}.json"
        argv = self.worker("lib", self.args.workload, str(self.work), str(res_path),
                           "--seconds", str(self.args.seconds))
        if unit:
            argv.append("--unit")
        if traced:
            argv += ["--trace", "--spans", str(self.spans_path(k))]
        child = self.spawn(argv)
        if not child["ok"]:
            raise ChildFailed(self.args.workload)
        res = json.loads(res_path.read_text())
        self.tally(res)
        return child, res

    def run_lib(self) -> dict:
        if self.args.trace:
            return self.alternate(self.lib_unit)
        child, res = self.lib_run(0, unit=False, traced=False)
        keys = ("setup_s", "raw_setup_s", "op_s", "raw_op_s", "items_per_op")
        return {**{key: res[key] for key in keys}, "peak_rss_mb": child["rss_mb"]}

    def lib_unit(self, k: int, traced: bool) -> dict:
        _, res = self.lib_run(k, unit=True, traced=traced)
        return {"unit_s": res["unit_s"], "layers": res.get("layers")}

    # -- traced run ----------------------------------------------------------

    def spans_path(self, k: int) -> Path:
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        return spans_dir / f"{self.args.workload}-s{self.args.seed}-unit{k}.json"

    def alternate(self, unit) -> dict:
        """Untraced and traced units in turn until --seconds have passed."""
        plain, traced = [], []
        t_end = time.perf_counter() + self.args.seconds
        k = 0
        while not traced or time.perf_counter() < t_end:
            plain.append(unit(k, False)["unit_s"])
            traced.append(unit(k + 1, True))
            k += 2
        layers = {}
        for name in PER_LAYER:
            values = [u["layers"].get(name, 0) for u in traced if u["layers"] is not None]
            layers[name] = statistics.median(values) if values else 0.0
        traced_s = statistics.median(u["unit_s"] for u in traced)
        layers["trace.unit_s"] = traced_s
        layers["trace.overhead_frac"] = traced_s / statistics.median(plain) - 1.0
        return {"layers": layers, "units": len(traced)}


def _digest_after_config(path: Path) -> str:
    """SHA-256 of a file without its leading `# config:` line, read in chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first.startswith(b"# config:"):
            h.update(first)
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs, for the self-test only")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sparse_sketch" / "__init__.py").is_file():
        print(f"bench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = Bench(args)
    facts = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "load1_start": os.getloadavg()[0]}
    bench.work.mkdir(parents=True)
    try:
        gen = bench.spawn(bench.worker("gen", args.workload, str(args.seed), str(bench.work)))
        if not gen["ok"]:
            print("bench: input generation failed", file=sys.stderr)
            return 2
        facts["numpy"] = json.loads((bench.work / "gen.json").read_text())["numpy"]
        run = bench.run_cli() if args.workload in CLI_WORKLOADS else bench.run_lib()
    except ChildFailed as e:
        print(f"bench: {e} child failed; no metrics measured", file=sys.stderr)
        bench.failed += 1
        run = None
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    facts["load1_end"] = os.getloadavg()[0]

    if run is None:
        names = PER_LAYER if args.trace else END_TO_END
        metrics = {name: (0.0, unit) for name, unit in names.items()}
    elif args.trace:
        metrics = {name: (run["layers"][name], unit) for name, unit in PER_LAYER.items()}
        facts["traced_units"] = run["units"]
    else:
        facts["probe_nominal_s"] = PROBE_NOMINAL_S
        for key in ("setup_s", "op_s"):
            facts[f"raw_{key}"] = statistics.median(run[f"raw_{key}"])
        op_s = run["op_s"]
        run["setup_s"] = statistics.median(run["setup_s"])
        run["wall_s"] = statistics.median(op_s)
        run["items_per_s"] = run["items_per_op"] * len(op_s) / sum(op_s)
        # printed, not bounded: only estimator-queries has ten ops beyond it
        tail = f"wall_p90_s = {_p90(op_s)!r} s  (over {len(op_s)} ops)"
        run["within_eps_frac"] = bench.within / bench.estimates if bench.estimates else 0.0
        metrics = {name: (run[name], unit) for name, unit in END_TO_END.items()}
        facts["ops"] = len(op_s)
    print("facts " + json.dumps(facts))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    if run is not None and not args.trace:
        print(tail)
    attempted = max(bench.attempted, bench.failed, 1)
    failed = bench.failed if bench.attempted else 1
    print(f"error_rate = {failed / attempted!r}  ({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
