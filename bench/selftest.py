"""Self-test of the benchmark harness (not part of the package's test suite).

    python3 bench/selftest.py

Checks that every workload, run at a tiny size, emits every metric named in
BENCHMARK.json with its unit; that one seed always generates byte-identical
inputs; and that a corrupted copy of an output is counted as failed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from shapes import WORKLOADS, cli_argv  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True,
                          text=True, timeout=170)


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
        cls.tmp.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def generate(self, workload: str, seed: int, name: str) -> Path:
        out = self.tmp / name
        out.mkdir()
        proc = _python(str(BENCH / "worker.py"), "gen", workload, str(seed), str(out), "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        (out / "gen.json").unlink()
        return out

    def cli_output(self, workload: str, name: str) -> tuple[Path, Path]:
        data = self.generate(workload, 3, name) / "data.tsv"
        out = data.parent / "out.csv"
        proc = _python("-m", "sparse_sketch.cli", *cli_argv(workload, str(data), str(out)))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return data, out

    def test_benchmark_json_names_the_harness_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_every_workload_emits_every_metric(self):
        for workload in WORKLOADS:
            for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    proc = _python(str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
                                   "--seconds", "1", "--trace", str(trace), "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, names)
                    if trace == 0:
                        for name, metric in res["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, b, c = (self.generate(workload, seed, f"{workload}-{k}")
                           for k, seed in enumerate((5, 5, 6)))
                files = sorted(p.name for p in a.iterdir())
                self.assertEqual(files, sorted(p.name for p in b.iterdir()))
                for name in files:
                    self.assertEqual((a / name).read_bytes(), (b / name).read_bytes())
                self.assertNotEqual((a / "data.tsv").read_bytes(), (c / "data.tsv").read_bytes())

    def test_corrupted_distort_report_is_counted(self):
        data, out = self.cli_output("pairs-allp", "distort")
        clean = workloads.check_distort(str(data), str(out))
        self.assertEqual(clean["failed"], 0)
        lines = out.read_text().splitlines(keepends=True)
        cells = lines[2].split(",")
        cells[3] = repr(float(cells[2]) * 1.01)  # an estimate above the true distance
        bad = out.with_name("bad.csv")
        bad.write_text("".join(lines[:2] + [",".join(cells)] + lines[3:]))
        self.assertEqual(workloads.check_distort(str(data), str(bad))["failed"], 1)
        bad.write_text("".join(lines[:2] + lines[3:]))  # a pair left out
        res = workloads.check_distort(str(data), str(bad))
        self.assertEqual((res["attempted"], res["failed"]), (clean["attempted"], 1))

    def test_corrupted_embedding_row_is_counted(self):
        data, out = self.cli_output("embed-allp", "embed")
        self.assertEqual(workloads.check_embed(str(data), str(out))["failed"], 0)
        lines = out.read_text().splitlines(keepends=True)
        cells = lines[3].split(",")
        cells[1] = repr(float(cells[1]) + 0.5)
        lines[3] = ",".join(cells)
        out.write_text("".join(lines))
        self.assertEqual(workloads.check_embed(str(data), str(out))["failed"], 1)

    def test_repeat_output_compared_past_the_config_line(self):
        _, out = self.cli_output("pairs-allp", "digest")
        text = out.read_text()
        same = out.with_name("same.csv")
        same.write_text(text.replace("# config: {", '# config: {"other": 1, ', 1))
        changed = out.with_name("changed.csv")
        changed.write_text(text[:-2] + ("0" if text[-2] != "0" else "1") + "\n")
        digest = run._digest_after_config(out)
        self.assertEqual(digest, run._digest_after_config(same))
        self.assertNotEqual(digest, run._digest_after_config(changed))


if __name__ == "__main__":
    unittest.main()
