import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_sketch import io
from sparse_sketch.datagen import random_nonneg_dataset
from sparse_sketch.embeddings import EmbedParams, plan_params
from sparse_sketch.errors import InternalCheckError, ParseError
from sparse_sketch.pairwise import stacked_image
from sparse_sketch.vectors import Dataset, SparseVector

from helpers import cell_by_cell, embedding_csv_text, embedding_header


def test_text_round_trip(tmp_path):
    ds = Dataset.from_items([
        ("a", SparseVector.from_pairs({0: 1.5, 7: 2.0}, 100)),
        ("b", SparseVector.from_pairs({}, 100)),
        ("c", SparseVector.from_pairs({99: -3.25}, 100)),
    ])
    path = str(tmp_path / "data.tsv")
    io.write_dataset_text(path, ds)
    back = io.read_dataset(path)
    assert back.dim == 100
    assert back.ids == ds.ids
    for (_, u), (_, v) in zip(ds, back):
        assert u.to_dict() == v.to_dict()


def test_text_comments_and_inferred_dim():
    ds = io.parse_dataset_text([
        "# a comment",
        "x\t0:1 5:2.5",
        "",
        "y\t3:4",
    ])
    assert ds.dim == 6
    assert ds.max_sparsity == 2


def test_text_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        io.parse_dataset_text(["ok\t0:1", "bad\t0:one"])
    assert "line 2" in str(err.value)


def test_jsonl_reader():
    ds = io.parse_dataset_jsonl([
        '{"id": "a", "coords": {"0": 1.0, "9": 2.0}, "d": 50}',
        '{"id": "b", "coords": {}}',
    ])
    assert ds.dim == 50
    assert ds.vectors[0].to_dict() == {0: 1.0, 9: 2.0}
    assert ds.vectors[1].sparsity == 0


def test_jsonl_bad_record():
    with pytest.raises(ParseError):
        io.parse_dataset_jsonl(['{"id": "a"}'])


def test_dense_map_round_trip(tmp_path):
    mat = np.array([[1.0, -0.5, 0.25], [0.0, 2.0, -1.0]])
    path = str(tmp_path / "map.csv")
    io.write_dense_map_csv(path, mat)
    assert np.array_equal(io.read_dense_map_csv(path), mat)


def test_dense_map_bad_shape(tmp_path):
    path = str(tmp_path / "map.csv")
    path_obj = tmp_path / "map.csv"
    path_obj.write_text("2,3\n1,2,3\n")
    with pytest.raises(ParseError):
        io.read_dense_map_csv(path)


def test_params_json_round_trip(tmp_path):
    params = plan_params("discrete", 5, 50, 0.3, delta=3, p=2)
    path = str(tmp_path / "params.json")
    io.write_json(path, params.to_json_dict(seed=99))
    back, seed = EmbedParams.from_json_dict(io.read_json(path))
    assert back == params
    assert seed == 99


def test_embedding_csv_round_trip(tmp_path):
    path = str(tmp_path / "emb.csv")
    images = [(np.array([0, 2]), np.array([1.0, 2.5])),
              (np.array([0, 1, 2]), np.array([0.125, -1.0, 3.0])),
              (np.array([1]), np.array([4.0])), (np.array([], dtype=np.int64), np.array([]))]
    # only the first line can be the header: a row whose id is "id" is data;
    # ids keep their blanks byte for byte
    names = ["a", "id", " a", "b "]
    io.write_embedding_csv(path, {"seed": 1}, names, iter(images), 3)
    ids, arr = io.read_embedding_csv(path)
    assert ids == names
    assert np.array_equal(arr, np.array([[1.0, 0.0, 2.5], [0.125, -1.0, 3.0],
                                         [0.0, 4.0, 0.0], [0.0, 0.0, 0.0]]))


_FIRST = {io.parse_dataset_text: "ok\t0:1", io.parse_dataset_jsonl: '{"id": "ok", "coords": {}}'}


@pytest.mark.parametrize("parse, body", [
    (io.parse_dataset_text, "a,b\t0:1"),
    (io.parse_dataset_jsonl, '{"id": "a,b", "coords": {"0": 1}}'),
    (io.parse_dataset_jsonl, '{"id": "x\\ny", "coords": {"0": 1}}'),
    (io.parse_dataset_jsonl, '{"id": "x\\ry", "coords": {}}'),
    (io.parse_dataset_jsonl, '{"id": "#x", "coords": {}}'),
    (io.parse_dataset_jsonl, '{"id": " \\t#x", "coords": {}}'),  # its row reads as a comment
    (io.parse_dataset_jsonl, '{"id": [1, 2], "coords": {}}'),  # str() of it holds a comma
], ids=["text-comma", "jsonl-comma", "jsonl-newline", "jsonl-return", "jsonl-hash",
        "jsonl-blank-hash", "jsonl-list"])
def test_an_id_that_breaks_a_csv_row_is_a_parse_error(parse, body):
    with pytest.raises(ParseError, match="line 2: vector id .* would break the CSV outputs"):
        parse([_FIRST[parse], body])


def test_ragged_embedding_csv_is_a_parse_error(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("# config: {}\nid,v0,v1,v2\na,1.0,0.0,2.5\nb,0.5,1.0\n")
    with pytest.raises(ParseError, match="line 4.*'b' has 2 values, expected 3"):
        io.read_embedding_csv(str(path))
    path.write_text("a,1.0,0.0\nb,0.5,1.0,2.0\n")  # no header: the first row sets the width
    with pytest.raises(ParseError, match="line 2.*'b' has 3 values, expected 2"):
        io.read_embedding_csv(str(path))


_ODD_FLOATS = st.sampled_from([-0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                                1e-310, -2.5, 1e300])


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 3), d=st.integers(0, 200), data=st.data())
def test_dense_map_rows_equal_the_cell_by_cell_format(tmp_path_factory, m, d, data):
    matrix = np.zeros((m, d))
    if d:
        cells = st.tuples(st.integers(0, m - 1), st.integers(0, d - 1),
                          st.one_of(_ODD_FLOATS, st.floats()))
        for i, j, v in data.draw(st.lists(cells, max_size=1 + m * d // 4)):
            matrix[i, j] = v
    path = tmp_path_factory.mktemp("dense") / "map.csv"
    io.write_dense_map_csv(str(path), matrix)
    expect = f"{m},{d}\n" + "".join(cell_by_cell(row) + "\n" for row in matrix)
    assert path.read_bytes() == expect.encode()


@settings(max_examples=300, deadline=None)
@given(width=st.integers(1, 300), data=st.data())
def test_image_cells_equal_the_cell_by_cell_format_of_the_scattered_row(width, data):
    keys = data.draw(st.sets(st.one_of(st.sampled_from([0, width - 1]),
                                       st.integers(0, width - 1)), max_size=1 + width // 4))
    keys = np.array(sorted(keys), dtype=np.int64)
    values = np.array(data.draw(st.lists(st.one_of(_ODD_FLOATS, st.floats()),
                                         min_size=len(keys), max_size=len(keys))))
    row = np.zeros(width)
    row[keys] = values
    got = b"".join(io._image_cells(keys, values, io._zero_run(width), width, "row"))
    assert got == ("," + cell_by_cell(row)).encode()


_CHUNK = 1000 * io._NAME_PERIODS  # names per header chunk, counted from 10^(k-1) for k digits


@pytest.mark.parametrize("width", [0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10**4,
                                   10001, 99_999, 10**5, 100_001, 896_000, 999_999, 10**6,
                                   1_000_001, 1_234_567]
                         + [lo + w for lo in (0, 10**4, 10**5)
                            for w in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)])
def test_embedding_header_equals_the_f_string_list(width):
    names = b"".join(io._column_names(width)).decode("ascii")
    assert "id" + names == embedding_header(width)


def test_embedding_row_with_gaps_around_the_zero_run_length(tmp_path):
    run = io._ZERO_RUN
    gaps = [run - 1, run, run + 1, 3 * run + 2]
    keys = np.cumsum(np.array(gaps) + 1) - 1
    width = int(keys[-1]) + 2 * run + 3  # a long run after the last key too
    values = np.array([0.5, -0.0, math.nan, 1e300])
    row = np.zeros(width)
    row[keys] = values
    path = tmp_path / "emb.csv"
    io.write_embedding_csv(str(path), {"seed": 1}, ["a"], [(keys, values)], width)
    assert path.read_text() == embedding_csv_text({"seed": 1}, ["a"], [row], width)


def test_embedding_writer_memory_does_not_grow_with_the_width(tmp_path):
    # the embed-allp shape: 3 two-sparse vectors at m = 2000, T = 448
    m, T = 2000, 448
    images = [stacked_image(v, m, T, 7) for _, v in random_nonneg_dataset(3, 2, 10**4, seed=5)]
    tracemalloc.start()
    try:
        io.write_embedding_csv(str(tmp_path / "emb.csv"), {}, ["a", "b", "c"], images, m * T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6  # one 896,000-cell row formatted whole is 3.6 MB


@pytest.mark.parametrize("keys, message", [
    ([0, 3], "key 3 outside 0..2"),
    ([-1], "key -1 outside 0..2"),
    ([2, 1], "key 1 out of order after key 2"),
    ([1, 1], "key 1 out of order after key 1"),
    ([2, 1, 5], "key 1 out of order after key 2"),  # the first bad key in row order
], ids=["past-width", "negative", "unsorted", "repeated", "unsorted-before-past-width"])
def test_embedding_row_of_the_wrong_width_is_an_internal_error(tmp_path, keys, message):
    path = str(tmp_path / "emb.csv")
    with pytest.raises(InternalCheckError, match=f"embedding row 'a': {message}"):
        io.write_embedding_csv(path, {}, ["a"], [(np.array(keys), np.ones(len(keys)))], 3)


@pytest.mark.parametrize("bad, message", [
    (10**6, "key 1000000 outside 0..999999"),
    (699_989, "key 699989 out of order after key 699990"),
], ids=["past-width", "unsorted"])
def test_one_bad_key_deep_in_a_wide_row_is_an_internal_error(tmp_path, bad, message):
    keys = np.arange(0, 10**6, 10)
    keys[70_000] = bad
    path = str(tmp_path / "emb.csv")
    with pytest.raises(InternalCheckError, match=f"embedding row 'a': {message}$"):
        io.write_embedding_csv(path, {}, ["a"], [(keys, np.ones(len(keys)))], 10**6)


def test_report_has_config_echo(tmp_path):
    path = str(tmp_path / "rep.csv")
    io.write_report(path, {"seed": 5, "cmd": "x"}, ["a", "b"], [(1, 2.5)], ["rate: 1.0"])
    lines = (tmp_path / "rep.csv").read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert '"seed": 5' in lines[0]
    assert lines[1] == "a,b"
    assert lines[2] == "1,2.5"
    assert lines[-1] == "# rate: 1.0"
