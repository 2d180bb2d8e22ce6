"""File formats: datasets, dense maps, embedding CSVs, reports, params JSON.

Dataset text format, one vector per line::

    id<TAB>idx:value idx:value ...

`#`-prefixed lines are comments; a `# d: N` directive pins the ambient
dimension (otherwise it is inferred as max index + 1). The JSON Lines
variant holds one object per line: {"id": "...", "coords": {"idx": value}}
with an optional "d" field.

All writers emit a `# config: {...}` echo line first so any output file is
reproducible from its own header.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError
from .vectors import Dataset, SparseVector


def _format_value(v) -> str:
    """One CSV cell: floats by repr (round-trips exactly), None empty."""
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def config_line(config: dict) -> str:
    return "# config: " + json.dumps(config, sort_keys=True, separators=(", ", ": "))


_INDEX_LIMIT = 1 << 64  # the bucket hash keys coordinates as uint64


def _entry(idx, val, lineno: int) -> tuple[int, float]:
    """One checked (index, value) entry of a dataset record."""
    try:
        idx, val = int(idx), float(val)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"bad entry {f'{idx}:{val}'!r}", lineno)
    if not 0 <= idx < _INDEX_LIMIT:
        raise ParseError(f"index {idx} outside 0..2^64-1", lineno)
    return idx, val


def _dataset(records: list, dim: int | None) -> Dataset:
    """Dataset from (line number, id, entries) records; the dimension is
    inferred as max index + 1 when not given."""
    if dim is None:
        dim = 1 + max((i for _, _, pairs in records for i, _ in pairs), default=0)
    vectors = []
    for lineno, vec_id, pairs in records:
        try:
            vectors.append((vec_id, SparseVector.from_pairs(pairs, dim)))
        except ValueError as e:
            raise ParseError(f"vector {vec_id!r}: {e}", lineno)
    return Dataset.from_items(vectors, dim)


def parse_dataset_text(lines: Iterable[str], dim: int | None = None) -> Dataset:
    records = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("d:"):
                try:
                    dim = int(body[2:].strip())
                except ValueError:
                    raise ParseError(f"bad dimension directive {stripped!r}", lineno)
            continue
        parts = line.split("\t")
        # "id" alone is the zero vector
        if len(parts) != 2 and not (len(parts) == 1 and " " not in parts[0]):
            raise ParseError("expected 'id<TAB>idx:value ...'", lineno)
        pairs = []
        for tok in parts[1].split() if len(parts) == 2 else ():
            if ":" not in tok:
                raise ParseError(f"bad entry {tok!r}, expected idx:value", lineno)
            pairs.append(_entry(*tok.split(":", 1), lineno))
        records.append((lineno, parts[0], pairs))
    return _dataset(records, dim)


def parse_dataset_jsonl(lines: Iterable[str], dim: int | None = None) -> Dataset:
    records = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            obj = json.loads(stripped)
        except ValueError as e:
            raise ParseError(f"bad JSON: {e}", lineno)
        if not isinstance(obj, dict) or "id" not in obj or not isinstance(obj.get("coords"), dict):
            raise ParseError("record needs 'id' and a 'coords' object", lineno)
        if "d" in obj:
            try:
                dim = int(obj["d"])
            except (TypeError, ValueError, OverflowError):
                raise ParseError(f"bad dimension {obj['d']!r}", lineno)
        pairs = [_entry(k, v, lineno) for k, v in obj["coords"].items()]
        records.append((lineno, str(obj["id"]), pairs))
    return _dataset(records, dim)


def read_dataset(path: str, dim: int | None = None) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if path.endswith(".jsonl"):
        return parse_dataset_jsonl(lines, dim)
    return parse_dataset_text(lines, dim)


def write_dataset_text(path: str, dataset: Dataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# d: {dataset.dim}\n")
        for vec_id, vec in dataset:
            entries = " ".join(f"{i}:{_format_value(v)}" for i, v in vec.items())
            fh.write(f"{vec_id}\t{entries}\n")


def write_report(path: str, config: dict, header: Sequence[str],
                 rows: Iterable[Sequence], trailers: Sequence[str] = ()) -> None:
    """CSV report with a config echo line on top and optional comment trailers."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(config_line(config) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_value(c) for c in row) + "\n")
        for t in trailers:
            fh.write(f"# {t}\n")


def write_embedding_csv(path: str, config: dict, ids: Sequence[str],
                        rows: Iterable[np.ndarray], width: int) -> None:
    header = ["id"] + [f"v{i}" for i in range(width)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(config_line(config) + "\n")
        fh.write(",".join(header) + "\n")
        for vec_id, row in zip(ids, rows):
            fh.write(vec_id + "," + ",".join(repr(float(v)) for v in row) + "\n")


def read_embedding_csv(path: str) -> tuple[list[str], np.ndarray]:
    ids: list[str] = []
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            cells = stripped.split(",")
            if cells[0] == "id":
                continue
            ids.append(cells[0])
            try:
                rows.append([float(c) for c in cells[1:]])
            except ValueError as e:
                raise ParseError(str(e), lineno)
    return ids, np.asarray(rows, dtype=np.float64)


def write_dense_map_csv(path: str, matrix: np.ndarray) -> None:
    """Dense map file: an `m,d` header then m rows of d values."""
    m, d = matrix.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{m},{d}\n")
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_dense_map_csv(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        try:
            m_s, d_s = header.split(",")
            m, d = int(m_s), int(d_s)
        except ValueError:
            raise ParseError(f"bad dense-map header {header!r}", 1)
        rows = []
        for lineno, line in enumerate(fh, start=2):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                row = [float(c) for c in stripped.split(",")]
            except ValueError as e:
                raise ParseError(str(e), lineno)
            if len(row) != d:
                raise ParseError(f"expected {d} values, got {len(row)}", lineno)
            rows.append(row)
    if len(rows) != m:
        raise ParseError(f"expected {m} rows, got {len(rows)}")
    return np.asarray(rows, dtype=np.float64)


def write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def default_params_path(output_path: str) -> str:
    root, _ = os.path.splitext(output_path)
    return root + ".params.json"
