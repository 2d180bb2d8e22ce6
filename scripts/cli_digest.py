#!/usr/bin/env python3
"""sha256 digests of 23 fixed-seed CLI outputs, for byte-identity checks.

Writes small fixed-seed datasets with `datagen` to a temporary directory,
runs every subcommand on them (unsigned and signed data, every planner
mode) and prints one `<sha256>  <label>` line per command. A wider
40-vector dataset adds commands whose output moves when an exact-distance
kernel's last bits do, and embeddings wider than 10^5 and 10^6 cells hash
six- and seven-digit column names. The path-valued keys of each
`# config:` line are dropped before hashing, so the digests do not depend
on where the files live, and two checkouts compare with one diff:

    python scripts/cli_digest.py > after.txt
    (cd ../other-checkout && python scripts/cli_digest.py) > before.txt
    diff before.txt after.txt

Usage: python scripts/cli_digest.py
"""

import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sparse_sketch import io  # noqa: E402
from sparse_sketch.cli import main  # noqa: E402
from sparse_sketch.datagen import random_discrete_dataset, random_nonneg_dataset  # noqa: E402

PATH_KEYS = ("input", "output", "params", "queries")
CLUSTERS = ["--clusters", "0,1,0,1,2,2,0,1"]
WIDE_CLUSTERS = ["--clusters", ",".join(str(i % 4) for i in range(40))]

# label -> argv; DATA, QUERIES, SIGNED and WIDE name the generated datasets
COMMANDS = {
    "embed all-p": ["embed", "--input", "DATA", "--eps", "0.9", "--seed", "7"],
    "distort p 1": ["distort", "--input", "DATA", "--p", "1"],
    "distort p 2": ["distort", "--input", "DATA", "--p", "2"],
    "distort p inf linf-exact": ["distort", "--input", "DATA", "--p", "inf",
                                 "--mode", "linf-exact"],
    "distort against-zero p inf sum-linf": ["distort", "--input", "DATA", "--against-zero",
                                            "--mode", "sum-linf"],
    "distort against-zero p 3": ["distort", "--input", "DATA", "--against-zero", "--p", "3",
                                 "--m", "50", "--T", "2"],
    "apps diameter p inf": ["apps", "diameter", "--input", "DATA", "--trials", "5"],
    "apps diameter p 1": ["apps", "diameter", "--input", "DATA", "--p", "1", "--trials", "5"],
    "apps diameter p 2": ["apps", "diameter", "--input", "DATA", "--p", "2"],
    "apps maxcut": ["apps", "maxcut", "--input", "DATA", "--eps", "0.5", "--trials", "2"],
    "apps cluster-cost basic p 1": ["apps", "cluster-cost", "--input", "DATA", "--p", "1",
                                    *CLUSTERS],
    "apps cluster-cost center p inf": ["apps", "cluster-cost", "--input", "DATA", "--p", "inf",
                                       "--objective", "center", *CLUSTERS],
    "apps cluster-cost continuous": ["apps", "cluster-cost", "--input", "DATA", "--p", "2",
                                     "--objective", "means", "--centers", "continuous",
                                     *CLUSTERS],
    "apps dist-est": ["apps", "dist-est", "--input", "DATA", "--queries", "QUERIES",
                      "--eps", "0.5"],
    "probe unif-stats": ["probe", "unif-stats", "--d", "50", "--t", "4", "--trials", "20"],
    "signed distort discrete": ["distort", "--input", "SIGNED", "--mode", "discrete",
                                "--delta", "1", "--p", "1", "--eps", "0.5"],
    "signed distort p inf": ["distort", "--input", "SIGNED", "--p", "inf",
                             "--m", "40", "--T", "3"],
    "signed embed discrete": ["embed", "--input", "SIGNED", "--mode", "discrete",
                              "--delta", "1", "--p", "1", "--eps", "0.9"],
    "wide distort p 2": ["distort", "--input", "WIDE", "--p", "2"],
    "wide distort p 3": ["distort", "--input", "WIDE", "--p", "3"],
    "wide cluster-cost means p 4": ["apps", "cluster-cost", "--input", "WIDE", "--p", "4",
                                    "--objective", "means", *WIDE_CLUSTERS],
    "embed width 120000": ["embed", "--input", "DATA", "--m", "20000", "--T", "6",
                           "--seed", "5"],
    "embed width 1200000": ["embed", "--input", "DATA", "--m", "200000", "--T", "6",
                            "--seed", "5"],
}


def digest(path: str) -> str:
    """sha256 of the file with the path-valued keys dropped from its
    `# config:` line."""
    with open(path, "rb") as fh:
        first, rest = fh.readline(), fh.read()
    prefix = b"# config: "
    if first.startswith(prefix):
        config = json.loads(first[len(prefix):])
        for key in PATH_KEYS:
            config.pop(key, None)
        first = (io.config_line(config) + "\n").encode()
    return hashlib.sha256(first + rest).hexdigest()


def run(tmp: str) -> list[str]:
    files = {
        "DATA": random_nonneg_dataset(8, 3, 500, seed=1),
        "QUERIES": random_nonneg_dataset(3, 3, 500, seed=2, prefix="q"),
        "SIGNED": random_discrete_dataset(6, 2, 500, delta=1, seed=3),
        "WIDE": random_nonneg_dataset(40, 10, 500, seed=4),
    }
    paths = {}
    for name, dataset in files.items():
        paths[name] = os.path.join(tmp, name.lower() + ".tsv")
        io.write_dataset_text(paths[name], dataset)
    lines = []
    for k, (label, argv) in enumerate(COMMANDS.items()):
        out = os.path.join(tmp, f"out{k}.csv")
        rc = main([paths.get(a, a) for a in argv] + ["--output", out])
        if rc != 0:
            sys.exit(f"cli_digest: {label!r} exited {rc}")
        lines.append(f"{digest(out)}  {label}")
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(run(tmp)))
