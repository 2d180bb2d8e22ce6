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
image, and no buffer grows with the width. `_column_names` yields the
header in chunks of at most 16,000 names, copied from one 1000-name period
per digit count; `_image_cells` gives each row as a list of parts that are
written in turn: slices of one shared run of `,0.0` cells for the gaps
between the sorted keys, and the repr of each distinct value at its keys.
The dense-map writer formats its rows with the same `_image_cells`.
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


_ZERO_RUN = 1 << 14  # cells of the shared ",0.0" run that zero gaps are sliced from
_NAME_PERIODS = 16  # periods of 1000 column names per header chunk
_WRITE_BUFFER = 1 << 18  # bytes of the file buffer the row parts are written through


def _zero_run(width: int) -> memoryview:
    """The shared ``b",0.0"`` run of min(width, _ZERO_RUN) cells that
    `_image_cells` slices the zero gaps of a width-cell row from."""
    return memoryview(b",0.0" * min(width, _ZERO_RUN))


def _image_cells(keys, values, zeros: memoryview, width: int, what: str) -> list:
    """``b",c0,c1,...,c{width-1}"`` for the row that holds `values` at the
    strictly increasing `keys` and +0.0 elsewhere, as a list of parts to
    write in turn: slices of `zeros` (from `_zero_run(width)`) for the runs
    of +0.0 between keys, and ``b","`` plus its float's repr at each key. A
    key out of order or outside 0..width-1 is an InternalCheckError, for the
    first bad key in row order (at one key, the range before the order)."""
    keys = np.asarray(keys, dtype=np.int64)
    outside = (keys < 0) | (keys >= width)
    unordered = np.zeros(keys.size, dtype=bool)
    unordered[1:] = keys[1:] <= keys[:-1]
    bad = np.flatnonzero(outside | unordered)
    if bad.size:
        i = int(bad[0])
        if outside[i]:
            raise InternalCheckError(f"{what}: key {keys[i]} outside 0..{width - 1}")
        raise InternalCheckError(f"{what}: key {keys[i]} out of order after key {keys[i - 1]}")
    # each distinct value is formatted once; by its bits, so -0.0 stays apart from +0.0
    bits, which = np.unique(np.asarray(values, dtype=np.float64).view(np.uint64),
                            return_inverse=True)
    formatted = [b"," + repr(v).encode("ascii") for v in bits.view(np.float64).tolist()]
    cells = [formatted[i] for i in which.tolist()] + [b""]
    gaps = np.diff(keys, prepend=-1, append=width) - 1  # the +0.0 cells before each cell
    run = len(zeros) // 4
    parts = []
    for gap, cell in zip(gaps.tolist(), cells):
        while gap > run:
            parts.append(zeros)
            gap -= run
        if gap:
            parts.append(zeros[:4 * gap])
        parts.append(cell)
    return parts


def _float_cells(row, zeros: memoryview) -> list:
    """The cells of a float row joined by commas, each as its float's repr,
    as `_image_cells` parts of the cells that are not +0.0 (-0.0, nan and
    +-inf included) with the leading comma dropped."""
    row = np.asarray(row, dtype=np.float64)
    keep = np.flatnonzero((row != 0) | np.signbit(row))
    parts = _image_cells(keep, row[keep], zeros, row.size, "dense row")
    parts[0] = parts[0][1:]
    return parts


_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)


def _names(numbers: np.ndarray, k: int) -> np.ndarray:
    """``",v"`` plus the last k decimal digits of each number, in ASCII, as
    the rows of a (len(numbers), k + 2) uint8 array."""
    out = np.empty((len(numbers), k + 2), dtype=np.uint8)
    out[:, 0], out[:, 1] = ord(","), ord("v")
    out[:, 2:] = _DIGITS[numbers[:, None] // 10 ** np.arange(k - 1, -1, -1) % 10]
    return out


def _column_names(width: int) -> Iterator[bytes]:
    """``",v0,v1,...,v{width-1}"`` in chunks of at most _NAME_PERIODS periods
    of 1000 names. The last three digits of a name cycle with period 1000:
    per digit count k >= 4, one period of names is copied over a reused
    buffer of _NAME_PERIODS periods, and each chunk sets only its higher
    digits, which are constant over each period."""
    k, lo = 1, 0
    while lo < width:
        hi = min(10 ** k, width)
        if k < 4:  # fewer than 1000 names
            yield _names(np.arange(lo, hi), k).tobytes()
        else:
            buf = np.empty((_NAME_PERIODS, 1000, k + 2), dtype=np.uint8)
            buf[:] = _names(np.arange(1000), k)
            for start in range(lo, hi, 1000 * _NAME_PERIODS):
                count = min(1000 * _NAME_PERIODS, hi - start)
                periods = -(-count // 1000)
                high = _names(start // 1000 + np.arange(periods), k - 3)
                for j in range(2, k - 1):  # one column at a time: long strided runs
                    buf[:periods, :, j] = high[:, j, None]
                yield buf[:periods].reshape(-1)[:count * (k + 2)].tobytes()
        k, lo = k + 1, hi


def config_line(config: dict) -> str:
    return "# config: " + json.dumps(config, sort_keys=True, separators=(", ", ": "))


def _records(lines: Iterable[str], start: int = 1) -> Iterator[tuple[int, str]]:
    """(line number, line without its line break) for each line that is
    neither blank nor a `#` comment, numbered from `start`."""
    for lineno, raw in enumerate(lines, start):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, raw.rstrip("\n")


def _floats(cells: Iterable[str], lineno: int) -> list[float]:
    """The cells of one record as floats; ParseError with its line number."""
    try:
        return [float(c) for c in cells]
    except ValueError as e:
        raise ParseError(str(e), lineno)


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
        if any(c in vec_id for c in ",\r\n") or vec_id.lstrip().startswith("#"):
            raise ParseError(f"vector id {vec_id!r}: a comma, a line break or a leading '#' "
                             "would break the CSV outputs", lineno)
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
    for lineno, line in _records(lines):
        try:
            obj = json.loads(line)
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
    with open(path, "wb", buffering=_WRITE_BUFFER) as fh:
        fh.write((config_line(config) + "\n").encode("utf-8"))
        fh.write(b"id")
        fh.writelines(_column_names(width))
        fh.write(b"\n")
        zeros = _zero_run(width)
        for vec_id, (keys, values) in zip(ids, images):
            fh.write(vec_id.encode("utf-8"))
            fh.writelines(_image_cells(keys, values, zeros, width, f"embedding row {vec_id!r}"))
            fh.write(b"\n")


def read_embedding_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Ids and rows of an embedding CSV. The first line is the header if its
    first cell is `id`; a row whose cell count differs from the first
    line's is a ParseError."""
    ids: list[str] = []
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in _records(fh):
            cells = line.split(",")
            if width is None:
                width = len(cells) - 1
                if cells[0] == "id":
                    continue
            if len(cells) - 1 != width:
                raise ParseError(f"row {cells[0]!r} has {len(cells) - 1} values, "
                                 f"expected {width}", lineno)
            ids.append(cells[0])
            rows.append(_floats(cells[1:], lineno))
    return ids, np.asarray(rows, dtype=np.float64)


def write_dense_map_csv(path: str, matrix: np.ndarray) -> None:
    """Dense map file: an `m,d` header then m rows of d values."""
    m, d = matrix.shape
    with open(path, "wb", buffering=_WRITE_BUFFER) as fh:
        fh.write(f"{m},{d}\n".encode("ascii"))
        zeros = _zero_run(d)
        for row in matrix:
            fh.writelines(_float_cells(row, zeros))
            fh.write(b"\n")


def read_dense_map_csv(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        try:
            m_s, d_s = header.split(",")
            m, d = int(m_s), int(d_s)
        except ValueError:
            raise ParseError(f"bad dense-map header {header!r}", 1)
        rows = []
        for lineno, line in _records(fh, start=2):
            row = _floats(line.split(","), lineno)
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
