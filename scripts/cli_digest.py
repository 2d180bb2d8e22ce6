#!/usr/bin/env python3
"""sha256 digests of 32 fixed-seed CLI outputs, for byte-identity checks.

Writes small fixed-seed datasets with `datagen` to a temporary directory,
runs every subcommand on them (unsigned and signed data, every planner
mode) and prints one `<sha256>  <label>` line per command. A p = 3
`distort` into 10 buckets over 6000 copies runs its group phase on 47
batches of two 64-copy blocks, so it pins the order in which the engine
adds the blocks' sums. A wider
40-vector dataset adds commands whose output moves when an exact-distance
kernel's last bits do, a p = inf `distort` of it into 20 buckets over
three hashing blocks, where most keys are shared, and a p = 4 `distort` of
it into 2 buckets, where a vector pools three or more coordinates in one
bucket, so the digest pins the order in which a group's powers are summed.
A p = 2 `distort` of it into 4,194,305 buckets over 2000 copies finds
about 20 collision groups whose fused (bucket, column) keys are too wide
for int32 (271 distinct coordinates take 9 column bits), so it pins the
engine's int64 key sort; every other engine call here sorts int32 keys.
A p = inf `distort` of the signed data into 8 buckets mixes coordinates
that are never alone in a bucket with ones alone in some copy. A p = 2000
norm against zero is finite only if the stacked estimate is scaled by its
largest difference. Embeddings wider than 10^5 and 10^6 cells hash six-
and seven-digit column names, and an estimator of m = 15,000 buckets
answers queries whose dense per-bucket dots would be longer than the
10,000 elements above which OpenBLAS splits a dot across its threads. Two
`probe rate` runs on a fixed Gaussian map pin the p = 2 Gram path and the
p = 3 per-trial path. The path-valued keys of each `# config:` line are
dropped before hashing, so the digests do not depend on where the files
live, and two checkouts compare with one diff:

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
from sparse_sketch.probes import gaussian_map  # noqa: E402

PATH_KEYS = ("input", "output", "params", "queries")
CLUSTERS = ["--clusters", "0,1,0,1,2,2,0,1"]
WIDE_CLUSTERS = ["--clusters", ",".join(str(i % 4) for i in range(40))]

# label -> argv; DATA, QUERIES, SIGNED and WIDE name the generated datasets,
# MAP the generated dense map
COMMANDS = {
    "embed all-p": ["embed", "--input", "DATA", "--eps", "0.9", "--seed", "7"],
    "distort p 1": ["distort", "--input", "DATA", "--p", "1"],
    "distort p 2": ["distort", "--input", "DATA", "--p", "2"],
    "distort p inf linf-exact": ["distort", "--input", "DATA", "--p", "inf",
                                 "--mode", "linf-exact"],
    "distort p 3 m 10": ["distort", "--input", "DATA", "--p", "3", "--m", "10", "--T", "6000"],
    "distort against-zero p inf sum-linf": ["distort", "--input", "DATA", "--against-zero",
                                            "--mode", "sum-linf"],
    "distort against-zero p 3": ["distort", "--input", "DATA", "--against-zero", "--p", "3",
                                 "--m", "50", "--T", "2"],
    "distort against-zero p 2000": ["distort", "--input", "DATA", "--against-zero", "--p",
                                    "2000", "--m", "50", "--T", "2"],
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
    "apps dist-est m 15000": ["apps", "dist-est", "--input", "DATA", "--queries", "QUERIES",
                              "--eps", "0.2"],
    "probe unif-stats": ["probe", "unif-stats", "--d", "50", "--t", "4", "--trials", "20"],
    "probe rate p 2": ["probe", "rate", "--input", "MAP", "--t", "6", "--gamma", "0.3",
                       "--trials", "200"],
    "probe rate p 3": ["probe", "rate", "--input", "MAP", "--p", "3", "--t", "6",
                       "--gamma", "0.3", "--trials", "200"],
    "signed distort discrete": ["distort", "--input", "SIGNED", "--mode", "discrete",
                                "--delta", "1", "--p", "1", "--eps", "0.5"],
    "signed distort p inf": ["distort", "--input", "SIGNED", "--p", "inf",
                             "--m", "40", "--T", "3"],
    "signed distort p inf m 8": ["distort", "--input", "SIGNED", "--p", "inf",
                                 "--m", "8", "--T", "3"],
    "signed embed discrete": ["embed", "--input", "SIGNED", "--mode", "discrete",
                              "--delta", "1", "--p", "1", "--eps", "0.9"],
    "wide distort p 2": ["distort", "--input", "WIDE", "--p", "2"],
    "wide distort p 3": ["distort", "--input", "WIDE", "--p", "3"],
    "wide distort p inf": ["distort", "--input", "WIDE", "--p", "inf", "--m", "20", "--T", "150"],
    "wide distort p 4 m 2": ["distort", "--input", "WIDE", "--p", "4", "--m", "2", "--T", "40"],
    "wide distort p 2 m 4194305": ["distort", "--input", "WIDE", "--p", "2", "--m", "4194305",
                                   "--T", "2000"],
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
    paths["MAP"] = os.path.join(tmp, "map.csv")
    io.write_dense_map_csv(paths["MAP"], gaussian_map(12, 64, seed=5).matrix)
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
