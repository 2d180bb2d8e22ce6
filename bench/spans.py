"""In-memory span tracer that wraps the public functions of each layer.

A traced child installs a `Tracer` before it calls into the package. Every
public function of each layer module is replaced, in every package module
that holds a reference to it, by a wrapper that records one span
(function, start, end, parent span). `DistanceEstimator.query` is wrapped on
its class. Spans stay in memory until the child writes them out.

Self time of a span is its duration minus the durations of its direct
child spans. A layer function's figure (`io.read_dataset_s`, ...) is the
self time of its spans plus that of the same-layer helpers beneath them
(for example `io.parse_dataset_text` under `io.read_dataset`), so time is
charged to the layer that spent it and never twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "io", "vectors", "hashing", "embeddings", "pairwise", "apps")

# per-layer metric -> the layer functions whose (rolled-up) self time it sums
TIMED = {
    "io.read_dataset_s": ("io.read_dataset",),
    "io.write_s": ("io.write_report", "io.write_embedding_csv", "io.write_json",
                   "io.write_dataset_text", "io.write_dense_map_csv"),
    "vectors.lp_dist_s": ("vectors.lp_dist",),
    "hashing.bucket_grid_s": ("hashing.bucket_grid",),
    "hashing.bucket_array_s": ("hashing.bucket_array",),
    "embeddings.estimate_distance_s": ("embeddings.estimate_distance",),
    "embeddings.stack_embed_s": ("embeddings.stack_embed",),
    "embeddings.landed_buckets_s": ("embeddings.landed_buckets",),
    "pairwise.pair_copy_tables_s": ("pairwise.pair_copy_tables",),
    "pairwise.stacked_power_sums_s": ("pairwise.stacked_power_sums",),
    "pairwise.pairwise_power_dists_s": ("pairwise.pairwise_power_dists",),
    "apps.build_estimator_s": ("apps.build_estimator",),
    "apps.query_s": ("apps.DistanceEstimator.query",),
    "apps.direct_distance_sum_s": ("apps.direct_distance_sum",),
}
CALLS = {
    "vectors.lp_dist_calls": "vectors.lp_dist",
    "embeddings.landed_buckets_calls": "embeddings.landed_buckets",
}


def _keys_grid(bound: inspect.BoundArguments) -> int:
    return int(bound.arguments["copies"]) * len(bound.arguments["indices"])


def _keys_array(bound: inspect.BoundArguments) -> int:
    return len(bound.arguments["indices"])


# work counters taken from the arguments of a wrapped call: copies x indices
KEY_COUNTERS = {"hashing.bucket_grid": _keys_grid, "hashing.bucket_array": _keys_array}


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self.keys = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        counter = KEY_COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.keys += counter(sig.bind(*args, **kwargs))
            rec = [fid, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions wherever the package binds them."""
        mods = {layer: importlib.import_module(f"sparse_sketch.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        # names imported with `from .x import f` are separate bindings
        for modname, mod in list(sys.modules.items()):
            if modname == "sparse_sketch" or modname.startswith("sparse_sketch."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])
        cls = mods["apps"].DistanceEstimator
        cls.query = self.wrap("apps.DistanceEstimator.query", cls.query)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)

    def layer_metrics(self) -> dict:
        """Per-layer self times, call counts and hashed keys of the spans so far."""
        names, spans = self.names, self.spans
        child = [0.0] * len(spans)
        for fid, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        layer = [n.split(".", 1)[0] for n in names]
        owner = [0] * len(spans)  # spans precede their children in the list
        per_func: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        cli_self = 0.0
        for i, (fid, start, end, parent) in enumerate(spans):
            own = fid
            if parent >= 0 and layer[spans[parent][0]] == layer[fid]:
                own = owner[parent]
            owner[i] = own
            self_s = (end - start) - child[i]
            per_func[names[own]] = per_func.get(names[own], 0.0) + self_s
            if layer[fid] == "cli":
                cli_self += self_s
            inclusive[names[fid]] = inclusive.get(names[fid], 0.0) + (end - start)
            calls[names[fid]] = calls.get(names[fid], 0) + 1
        out = {"cli.self_s": cli_self}
        for metric, funcs in TIMED.items():
            out[metric] = sum(per_func.get(f, 0.0) for f in funcs)
        for metric, func in CALLS.items():
            out[metric] = calls.get(func, 0)
        out["hashing.keys"] = self.keys
        direct = inclusive.get("apps.direct_distance_sum", 0.0)
        query = inclusive.get("apps.DistanceEstimator.query", 0.0)
        out["apps.query_over_direct"] = query / direct if direct > 0 else 0.0
        out["trace.spans"] = len(spans)
        return out
