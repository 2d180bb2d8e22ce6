"""Workload names, shapes, fixed program seeds and the speed probe
(standard library only).

Shapes reuse the acceptance fixtures so the numbers line up with the
suite's gates; TINY shrinks every workload for the self-test.
"""

import statistics
import time

WORKLOADS = ("pairs-allp", "sweep-c03", "estimator-queries", "embed-allp")
CLI_WORKLOADS = ("pairs-allp", "embed-allp")

# The program's own seeds stay fixed; only the inputs vary with --seed.
HASH_SEED = 7        # the CLI's --seed
SWEEP_ROOT = 303     # criterion 03 derives its per-run seeds from this root
EST_SEED = 1323      # criterion 13's estimator seed
EPS = 0.2            # the CLI default, also criterion 03's
EST_P, EST_EPS = 4, 0.25
SETUP_REPEATS = 7    # set-ups per run (import-only children, base or build); median kept

FULL = {
    "pairs-allp": {"n": 25, "s": 10, "d": 10**4},
    "sweep-c03": {"n": 100, "s": 10, "d": 10**4},
    "estimator-queries": {"n": 200, "s": 5, "d": 10**4, "queries": 200, "batch": 100},
    "embed-allp": {"n": 3, "s": 2, "d": 10**4},
}
TINY = {
    "pairs-allp": {"n": 6, "s": 3, "d": 1000},
    "sweep-c03": {"n": 8, "s": 3, "d": 1000},
    "estimator-queries": {"n": 20, "s": 3, "d": 1000, "queries": 10, "batch": 10},
    "embed-allp": {"n": 3, "s": 1, "d": 1000},
}


def shape(workload: str, tiny: bool) -> dict:
    return (TINY if tiny else FULL)[workload]


def items_per_op(workload: str, tiny: bool) -> int:
    """Throughput unit per op: pairs, pairs, queries, vectors."""
    n = shape(workload, tiny)["n"]
    if workload in ("pairs-allp", "sweep-c03"):
        return n * (n - 1) // 2
    if workload == "estimator-queries":
        return 1
    return n


def cli_argv(workload: str, data: str, out: str) -> list[str]:
    """The CLI command one op of a CLI workload runs."""
    if workload == "pairs-allp":
        return ["distort", "--input", data, "--output", out, "--p", "2",
                "--eps", str(EPS), "--seed", str(HASH_SEED)]
    return ["embed", "--input", data, "--output", out, "--seed", str(HASH_SEED)]


# -- machine speed -----------------------------------------------------------
#
# The host this benchmark was tuned on shares its cores: a fixed loop runs up
# to 1.5 times slower for seconds to minutes at a time, which moves a run's
# median as much as a real regression would. So every timed op is scaled by
# a speed probe run in the same process just before and just after it:
# scaled = raw * PROBE_NOMINAL_S / mean(probe before, probe after). A scaled
# time is the op's time on a machine where the probe takes PROBE_NOMINAL_S.

PROBE_NOMINAL_S = 0.030  # the probe's usual time on the tuning host


def speed_probe(repeats: int = 3) -> float:
    """Median seconds of `repeats` runs of a fixed pure-Python kernel
    (integer arithmetic, dict stores, float formatting, a join)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(120000):
            acc += i * i
            table[i & 1023] = acc & 0xFFFF
        ",".join(repr(i * 0.37) for i in range(12000))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class ScaledClock:
    """Scales raw op times by the probes that bracket them; the probe after
    one batch of ops is the probe before the next."""

    def __init__(self):
        self.restart()

    def restart(self) -> None:
        """Probe again, after untimed work since the last probe."""
        self.before = speed_probe()

    def scale(self, raw: list[float]) -> list[float]:
        after = speed_probe()
        factor = PROBE_NOMINAL_S / ((self.before + after) / 2.0)
        self.before = after
        return [t * factor for t in raw]
