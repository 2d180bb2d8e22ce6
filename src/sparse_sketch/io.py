"""File formats: datasets, dense maps, embedding CSVs, reports, params JSON.

Dataset text format, one vector per line::

    id<TAB>idx:value idx:value ...

`#`-prefixed lines are comments; a `# d: N` directive pins the ambient
dimension (otherwise it is inferred as max index + 1). The JSON Lines
variant holds one object per line: {"id": "...", "coords": {"idx": value}}
with an optional "d" field.

All writers emit a `# config: {...}` echo line first so any output file is
reproducible from its own header.

The embedding CSV (`id,v0,...,v{width-1}`, one row of width = m * T cells
per vector) is written in binary mode, straight from each vector's sparse
image: `_image_cells` emits runs of `,0.0` between the sorted keys and the
repr of the value at each key, so no dense m * T row is built, and the
header comes from `_column_names` as one uint8 block per digit count. The
dense-map writer formats its rows with the same `_image_cells`.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InternalCheckError, ParseError
from .vectors import Dataset, SparseVector


def _format_value(v) -> str:
    """One CSV cell: floats by repr (round-trips exactly), None empty."""
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _image_cells(keys, values, width: int, what: str) -> bytes:
    """``b",c0,c1,...,c{width-1}"`` for the row that holds `values` at the
    strictly increasing `keys` and +0.0 elsewhere: runs of ``b",0.0"``
    between keys, each value as its float's repr. A key out of order or
    outside 0..width-1 is an InternalCheckError."""
    parts = []
    nxt = 0  # the first cell not yet written
    for k, v in zip(np.asarray(keys).tolist(), np.asarray(values, dtype=np.float64).tolist()):
        if not 0 <= k < width:
            raise InternalCheckError(f"{what}: key {k} outside 0..{width - 1}")
        if k < nxt:
            raise InternalCheckError(f"{what}: key {k} out of order after key {nxt - 1}")
        parts.append(b",0.0" * (k - nxt))
        parts.append(b"," + repr(v).encode("ascii"))
        nxt = k + 1
    parts.append(b",0.0" * (width - nxt))
    return b"".join(parts)


def _float_cells(row) -> bytes:
    """The cells of a float row joined by commas, each as its float's repr:
    `_image_cells` of the cells that are not +0.0 (-0.0, nan and +-inf
    included)."""
    row = np.asarray(row, dtype=np.float64)
    keep = np.flatnonzero((row != 0) | np.signbit(row))
    return _image_cells(keep, row[keep], row.size, "dense row")[1:]


_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)


def _place_digits(j: int, lo: int, count: int) -> np.ndarray:
    """ASCII digit in the 10^j place of lo, lo+1, ..., lo+count-1: the ten
    digits, each repeated 10^j times, tiled with period 10^(j+1) and read
    from offset lo mod 10^(j+1)."""
    run = 10 ** j
    start = lo % (10 * run)
    first, last = start // run, (start + count - 1) // run  # the runs it touches
    runs = np.tile(_DIGITS, last // 10 + 1)[first:last + 1]
    return np.repeat(runs, run)[start - first * run:][:count]


def _column_names(width: int) -> Iterator[np.ndarray]:
    """``",v0,v1,...,v{width-1}"`` as one (count, k+2) uint8 block of ",v"
    plus k digits per digit count k."""
    k, lo = 1, 0
    while lo < width:
        hi = min(10 ** k, width)
        block = np.empty((hi - lo, k + 2), dtype=np.uint8)
        block[:, 0], block[:, 1] = ord(","), ord("v")
        for j in range(k):
            block[:, k + 1 - j] = _place_digits(j, lo, hi - lo)
        yield block
        k, lo = k + 1, hi


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
                        images: Iterable[tuple[np.ndarray, np.ndarray]], width: int) -> None:
    """Embedding CSV: `id,v0,...,v{width-1}`, then one row of `width` cells
    per id, written from its sparse image (sorted keys, values) with no
    dense row; a key out of order or outside 0..width-1 is an
    InternalCheckError."""
    with open(path, "wb") as fh:
        fh.write((config_line(config) + "\n").encode("utf-8"))
        fh.write(b"id")
        for block in _column_names(width):
            fh.write(block)
        fh.write(b"\n")
        for vec_id, (keys, values) in zip(ids, images):
            fh.write(vec_id.encode("utf-8"))
            fh.write(_image_cells(keys, values, width, f"embedding row {vec_id!r}"))
            fh.write(b"\n")


def read_embedding_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Ids and rows of an embedding CSV; a row whose cell count differs
    from the first line's (the header, if there is one) is a ParseError."""
    ids: list[str] = []
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            cells = stripped.split(",")
            if width is None:
                width = len(cells) - 1
            if cells[0] == "id":
                continue
            if len(cells) - 1 != width:
                raise ParseError(f"row {cells[0]!r} has {len(cells) - 1} values, "
                                 f"expected {width}", lineno)
            ids.append(cells[0])
            try:
                rows.append([float(c) for c in cells[1:]])
            except ValueError as e:
                raise ParseError(str(e), lineno)
    return ids, np.asarray(rows, dtype=np.float64)


def write_dense_map_csv(path: str, matrix: np.ndarray) -> None:
    """Dense map file: an `m,d` header then m rows of d values."""
    m, d = matrix.shape
    with open(path, "wb") as fh:
        fh.write(f"{m},{d}\n".encode("ascii"))
        for row in matrix:
            fh.write(_float_cells(row) + b"\n")


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
