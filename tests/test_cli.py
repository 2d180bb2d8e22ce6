import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparse_sketch
from sparse_sketch import io
from sparse_sketch.cli import _embedded_dists, _parse_p, main
from sparse_sketch.datagen import random_nonneg_dataset
from sparse_sketch.embeddings import EmbedParams, StackedEmbedding, estimate_distance, stack_embed
from sparse_sketch.vectors import Dataset, SparseVector

from helpers import embedding_csv_text, manual_params, stack_of


def write_data(tmp_path, name="data.tsv", n=6, s=3, d=500, seed=1):
    ds = random_nonneg_dataset(n, s, d, seed=seed)
    path = str(tmp_path / name)
    io.write_dataset_text(path, ds)
    return path, ds


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def csv_rows(path):
    rows = []
    for line in read_lines(path).splitlines():
        if line.startswith("#") or not line.strip():
            continue
        rows.append(line.split(","))
    return rows[0], rows[1:]


def test_embed_round_trip_and_params(tmp_path):
    data, ds = write_data(tmp_path)
    out = str(tmp_path / "emb.csv")
    rc = main(["embed", "--input", data, "--output", out, "--mode", "linf-exact",
               "--seed", "7"])
    assert rc == 0
    ids, arr = io.read_embedding_csv(out)
    assert ids == list(ds.ids)
    params = io.read_json(io.default_params_path(out))
    assert params["mode"] == "linf-exact" and params["seed"] == 7
    assert arr.shape == (len(ds), params["m"] * params["T"])
    first = read_lines(out)
    rc = main(["embed", "--input", data, "--output", out, "--mode", "linf-exact",
               "--seed", "7"])
    assert rc == 0 and read_lines(out) == first


@pytest.mark.parametrize("signed, flags", [
    (False, ["--m", "300", "--T", "40"]),  # width 12000: five-digit column names
    (True, ["--mode", "discrete", "--delta", "1", "--p", "1", "--eps", "0.9"]),
], ids=["all-p", "signed-discrete"])
def test_embed_file_equals_the_cell_by_cell_writer(tmp_path, signed, flags):
    data = _signed_data(tmp_path) if signed else write_data(tmp_path)[0]
    out = str(tmp_path / "emb.csv")
    assert main(["embed", "--input", data, "--output", out, "--seed", "3", *flags]) == 0
    params, seed = EmbedParams.from_json_dict(io.read_json(io.default_params_path(out)))
    stack = StackedEmbedding(params, seed)
    dataset = io.read_dataset(data)
    text = read_lines(out)
    config = json.loads(text.split("\n", 1)[0][len("# config: "):])
    rows = [stack_embed(stack, v) for _, v in dataset]
    assert text == embedding_csv_text(config, dataset.ids, rows, params.m * params.T)


def test_embed_row_of_the_wrong_width_exits_4(tmp_path, capsys, monkeypatch):
    import sparse_sketch.cli as cli_mod
    data, _ = write_data(tmp_path)
    for keys, message in (([16], "key 16 outside 0..15"),
                          ([8, 0], "key 0 out of order after key 8")):
        monkeypatch.setattr(cli_mod, "stacked_image",
                            lambda v, m, T, seed: (np.array(keys), np.ones(len(keys))))
        rc, err = _run(["embed", "--input", data, "--output", str(tmp_path / "o.csv"),
                        "--m", "8", "--T", "2"], capsys)
        assert rc == 4 and message in err


def test_embed_rejects_negative_data_outside_discrete(tmp_path):
    path = str(tmp_path / "neg.tsv")
    ds = Dataset.from_items([("a", SparseVector.from_pairs({0: -1.0}, 10))])
    io.write_dataset_text(path, ds)
    rc = main(["embed", "--input", path, "--output", str(tmp_path / "o.csv"),
               "--mode", "all-p"])
    assert rc == 3


def test_embed_empty_dataset(tmp_path):
    path = str(tmp_path / "empty.tsv")
    (tmp_path / "empty.tsv").write_text("# d: 10\n")
    out = str(tmp_path / "emb.csv")
    rc = main(["embed", "--input", path, "--output", out, "--m", "4", "--T", "1",
               "--s", "1"])
    assert rc == 0
    ids, arr = io.read_embedding_csv(out)
    assert ids == [] and arr.size == 0
    assert io.read_json(io.default_params_path(out))["m"] == 4


def test_distort_identical_copies_all_zero(tmp_path):
    x = SparseVector.from_pairs({0: 1.0, 5: 2.0}, 100)
    ds = Dataset.from_items([("a", x), ("b", x)])
    path = str(tmp_path / "dup.tsv")
    io.write_dataset_text(path, ds)
    out = str(tmp_path / "rep.csv")
    rc = main(["distort", "--input", path, "--output", out, "--m", "16", "--T", "2",
               "--p", "2"])
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["pair", "p", "true", "embedded", "ratio"]
    pair_rows = [r for r in rows if not r[0].startswith("summary")]
    assert len(pair_rows) == 1
    assert float(pair_rows[0][2]) == 0.0 and float(pair_rows[0][3]) == 0.0
    assert pair_rows[0][4] == ""  # ratio undefined at zero distance


@pytest.mark.parametrize("p", ["1", "2", "4"])
def test_distort_duplicate_vector_embeds_at_exactly_zero(tmp_path, p):
    # few buckets and several hashing blocks of copies: many collisions
    ds = random_nonneg_dataset(6, 4, 40, seed=11)
    ds = Dataset.from_items(list(ds) + [("dup", ds.vectors[2])])
    path = str(tmp_path / "dup.tsv")
    io.write_dataset_text(path, ds)
    out = str(tmp_path / "rep.csv")
    rc = main(["distort", "--input", path, "--output", out, "--m", "3", "--T", "600",
               "--p", p, "--seed", "4"])
    assert rc == 0
    _, rows = csv_rows(out)
    cells = {r[0]: r for r in rows}
    assert cells[f"{ds.ids[2]}|dup"][3] == "0.0"
    for r in rows:
        if not r[0].startswith("summary"):
            assert float(r[3]) >= 0.0 and "nan" not in r[3] and "j" not in r[3]


@pytest.mark.parametrize("p", ["1", "2", "4", "inf"])
def test_distort_embedded_matches_estimate_distance(tmp_path, p):
    data, ds = write_data(tmp_path, n=8, s=4, d=60, seed=5)
    out = str(tmp_path / "rep.csv")
    rc = main(["distort", "--input", data, "--output", out, "--m", "7", "--T", "300",
               "--p", p, "--seed", "9"])
    assert rc == 0
    _, rows = csv_rows(out)
    stack = stack_of(7, 300, 9)
    vecs = dict(zip(ds.ids, ds.vectors))
    checked = 0
    for r in rows:
        if r[0].startswith("summary"):
            continue
        a, b = r[0].split("|")
        expect = estimate_distance(stack, vecs[a], vecs[b], _parse_p(p))
        if p == "inf":  # a max of the same float differences
            assert float(r[3]) == expect
        else:  # sums of the engine's corrections and of one pair's keys differ in the last bits
            assert float(r[3]) == pytest.approx(expect, rel=1e-12, abs=1e-300)
        checked += 1
    assert checked == 28


def test_distort_embedded_column_is_the_kernel_without_a_base(tmp_path):
    # the exact p-th powers that distort hands the engine as `base` are the
    # engine's own, bit for bit, so the column equals a call that derives them
    # (numpy's `**` differs from `np.float_power` in the last bit at 6 of these 45 pairs)
    data, ds = write_data(tmp_path, n=10, s=5, d=100, seed=1)
    out = str(tmp_path / "rep.csv")
    assert main(["distort", "--input", data, "--output", out, "--m", "10", "--T", "600",
                 "--p", "3", "--seed", "9"]) == 0
    emb = _embedded_dists(ds.vectors, manual_params(10, 600), 9, 3)
    _, rows = csv_rows(out)
    at = {i: k for k, i in enumerate(ds.ids)}
    pairs = [r for r in rows if not r[0].startswith("summary")]
    assert len(pairs) == 45
    for r in pairs:
        a, b = r[0].split("|")
        assert float(r[3]) == emb[at[a], at[b]]


@pytest.mark.parametrize("flag", ["--m", "--T", "--s"])
def test_zero_size_override_is_a_precondition_error(tmp_path, capsys, flag):
    data, _ = write_data(tmp_path)
    rc = main(["distort", "--input", data, "--output", str(tmp_path / "o.csv"),
               flag, "0"])
    assert rc == 3
    assert "Traceback" not in capsys.readouterr().err


def test_distort_figure_mode_maxhash_hugs_sumhash_inflates(tmp_path):
    # 10-sparse vectors, 50 buckets, max-norm against zero: the max-pool
    # norms are exact while the sum-hash baseline only ever inflates, and
    # collisions make some inflation strict
    ds = random_nonneg_dataset(60, 10, 1000, seed=3)
    path = str(tmp_path / "fig.tsv")
    io.write_dataset_text(path, ds)
    out = str(tmp_path / "fig.csv")
    rc = main(["distort", "--input", path, "--output", out, "--against-zero",
               "--m", "50", "--T", "1", "--p", "inf", "--seed", "5"])
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["id", "map", "p", "true", "embedded", "ratio"]
    ratios = {"max-hash": [], "sum-hash": []}
    for r in rows:
        ratios[r[1]].append(float(r[5]))
    assert all(abs(v - 1.0) <= 1e-9 for v in ratios["max-hash"])
    assert all(v >= 1.0 - 1e-9 for v in ratios["sum-hash"])
    assert max(ratios["sum-hash"]) > 1.05


def test_embed_sum_mode_single_scalar_column(tmp_path):
    data, ds = write_data(tmp_path, n=1)
    out = str(tmp_path / "scalar.csv")
    rc = main(["embed", "--input", data, "--output", out, "--mode", "sum-linf"])
    assert rc == 0
    ids, arr = io.read_embedding_csv(out)
    assert arr.shape == (1, 1)
    assert arr[0, 0] == max(ds.vectors[0].values)


def test_distort_injective_case_all_ratios_one(tmp_path):
    # bucket count far above the squared support size: distinct ratios are 1
    data, _ = write_data(tmp_path, n=4, s=2, d=10**6, seed=8)
    out = str(tmp_path / "inj.csv")
    rc = main(["distort", "--input", data, "--output", out, "--m", "1000000",
               "--T", "1", "--p", "2", "--seed", "3"])
    assert rc == 0
    _, rows = csv_rows(out)
    for row in rows:
        if row[0].startswith("summary"):
            continue
        assert float(row[4]) == pytest.approx(1.0, rel=1e-12)


def test_apps_diameter_two_points(tmp_path):
    ds = Dataset.from_items([
        ("a", SparseVector.from_pairs({0: 1.0}, 50)),
        ("b", SparseVector.from_pairs({1: 1.0}, 50)),
    ])
    path = str(tmp_path / "two.tsv")
    io.write_dataset_text(path, ds)
    out = str(tmp_path / "diam.csv")
    rc = main(["apps", "diameter", "--input", path, "--output", out, "--p", "inf"])
    assert rc == 0
    _, rows = csv_rows(out)
    assert float(rows[0][1]) == 1.0


def test_apps_maxcut_hand_case(tmp_path):
    ds = Dataset.from_items([
        ("o", SparseVector.zero(10)),
        ("a", SparseVector.from_pairs({0: 1.0}, 10)),
        ("b", SparseVector.from_pairs({0: 2.0}, 10)),
    ])
    path = str(tmp_path / "line.tsv")
    io.write_dataset_text(path, ds)
    out = str(tmp_path / "cut.csv")
    rc = main(["apps", "maxcut", "--input", path, "--output", out, "--p", "1",
               "--eps", "0.3", "--trials", "3"])
    assert rc == 0
    _, rows = csv_rows(out)
    assert len(rows) == 3
    for row in rows:
        assert float(row[1]) == 3.0
        assert float(row[2]) <= 3.0 + 1e-9


def test_apps_cluster_cost(tmp_path):
    data, ds = write_data(tmp_path, n=5)
    out = str(tmp_path / "cc.csv")
    rc = main(["apps", "cluster-cost", "--input", data, "--output", out,
               "--objective", "median", "--p", "1", "--clusters", "0,1,0,1,0",
               "--eps", "0.4"])
    assert rc == 0
    _, rows = csv_rows(out)
    true, sketch = float(rows[0][1]), float(rows[0][2])
    assert sketch <= true + 1e-9
    assert sketch >= 0.5 * true


def test_apps_dist_est_row_per_query(tmp_path):
    data, ds = write_data(tmp_path, n=12, s=3, d=2000)
    qpath = str(tmp_path / "queries.tsv")
    io.write_dataset_text(qpath, random_nonneg_dataset(4, 3, 2000, seed=9, prefix="q"))
    out = str(tmp_path / "est.csv")
    rc = main(["apps", "dist-est", "--input", data, "--output", out,
               "--queries", qpath, "--p", "2", "--eps", "0.4"])
    assert rc == 0
    _, rows = csv_rows(out)
    assert len(rows) == 4
    for row in rows:
        assert float(row[2]) <= float(row[1]) * (1 + 1e-9)


def test_probe_rate_identity_matrix(tmp_path):
    mpath = str(tmp_path / "map.csv")
    io.write_dense_map_csv(mpath, np.eye(12))
    out = str(tmp_path / "rate.csv")
    rc = main(["probe", "rate", "--input", mpath, "--output", out, "--t", "3",
               "--trials", "50"])
    assert rc == 0
    text = read_lines(out)
    assert "# rate: 1.0" in text


def test_probe_rate_deterministic_across_runs(tmp_path):
    # every trial comes from one draw stream, so re-runs repeat every byte
    mpath = str(tmp_path / "map.csv")
    rng = np.random.default_rng(0)
    io.write_dense_map_csv(mpath, rng.standard_normal((6, 40)))
    bodies = []
    for k in range(3):
        out = str(tmp_path / f"rate{k}.csv")
        rc = main(["probe", "rate", "--input", mpath, "--output", out, "--t", "4",
                   "--gamma", "0.3", "--trials", "60", "--seed", "2"])
        assert rc == 0
        body = read_lines(out).splitlines()
        bodies.append([l for l in body if not l.startswith("# config")])
    assert bodies[0][-1] == "# rate: 0.016666666666666666"
    assert all(body == bodies[0] for body in bodies)


@pytest.mark.parametrize("flag", ["--jobs", "--params", "--mode", "--eps", "--s", "--delta",
                                  "--m", "--T"])
def test_probe_rejects_flags_it_does_not_read(tmp_path, capsys, flag):
    value = {"--params": "p.json", "--mode": "all-p", "--eps": "0.2"}.get(flag, "2")
    with pytest.raises(SystemExit) as exc:
        main(["probe", "rate", "--input", str(tmp_path / "map.csv"),
              "--output", str(tmp_path / "out.csv"), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("p", ["2", "3"])
def test_probe_rate_huge_variance_is_finite_and_quiet(tmp_path, p):
    # at p = 2 the Gram path squared the raw draws: exit 0 after three
    # RuntimeWarnings, with inf and nan stat cells
    mpath = tmp_path / "map.csv"
    io.write_dense_map_csv(str(mpath), np.random.default_rng(0).standard_normal((6, 40)))
    out = tmp_path / "o.csv"
    src = str(Path(sparse_sketch.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-W", "error", "-m", "sparse_sketch.cli", "probe",
                          "rate", "--p", p, "--r", "1e308", "--gamma", "0.1", "--t", "4",
                          "--trials", "50", "--input", str(mpath), "--output", str(out)],
                         capture_output=True, text=True, timeout=30,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    _, rows = csv_rows(str(out))
    assert len(rows) == 50 and all(np.isfinite(float(r[1])) for r in rows)


def test_probe_violation_reports_witness(tmp_path):
    mat = np.zeros((5, 1000))
    mat[0, :] = 1.0
    mpath = str(tmp_path / "ones.csv")
    io.write_dense_map_csv(mpath, mat)
    out = str(tmp_path / "wit.csv")
    rc = main(["probe", "violation", "--input", mpath, "--output", out])
    assert rc == 0
    text = read_lines(out)
    assert "# support: " in text
    _, rows = csv_rows(out)
    assert float(rows[0][1]) >= 5.0


def test_probe_violation_precondition_exit_code(tmp_path):
    mpath = str(tmp_path / "fat.csv")
    io.write_dense_map_csv(mpath, np.ones((10, 100)))  # m >= d / 100
    rc = main(["probe", "violation", "--input", mpath,
               "--output", str(tmp_path / "x.csv")])
    assert rc == 3


def test_probe_unif_stats_full_coverage(tmp_path):
    out = str(tmp_path / "unif.csv")
    rc = main(["probe", "unif-stats", "--output", out, "--d", "6", "--t", "6",
               "--trials", "20"])
    assert rc == 0
    assert "# coverage: 1.0" in read_lines(out)


@pytest.mark.parametrize("argv", [
    ["unif-stats", "--d", "50", "--r", "nan"],
    ["unif-stats", "--d", "50", "--r", "inf"],
    ["unif-stats", "--d", "50", "--trials", "0"],
    ["unif-stats", "--d", "50", "--t", "4", "--trials", "20", "--r", "1e308"],
    ["unif-stats", "--d", "1000000000000", "--t", "4", "--trials", "2"],
    ["rate", "--r", "nan", "--trials", "5"],
    ["rate", "--gamma", "nan", "--trials", "5"],
], ids=["unif-stats-r-nan", "unif-stats-r-inf", "unif-stats-no-trials",
        "unif-stats-squares-overflow", "unif-stats-huge-d", "rate-r-nan", "rate-gamma-nan"])
def test_probe_bad_sizes_are_quiet_precondition_errors(tmp_path, argv):
    # the first four unif-stats cases used to exit 0 with nan or inf
    # statistics, the squares overflow after two numpy RuntimeWarnings; under
    # -W error a warning would be a traceback. A d past CELL_BUDGET would
    # draw d scores per trial and end in a MemoryError traceback
    mpath = tmp_path / "map.csv"
    io.write_dense_map_csv(str(mpath), np.random.default_rng(0).standard_normal((6, 50)))
    out = tmp_path / "o.csv"
    src = str(Path(sparse_sketch.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-W", "error", "-m", "sparse_sketch.cli", "probe",
                          *argv, "--input", str(mpath), "--output", str(out)],
                         capture_output=True, text=True, timeout=30,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 3, run.stderr
    assert "Warning" not in run.stderr and "Traceback" not in run.stderr
    assert not out.exists()


def test_probe_unif_stats_mean_survives_an_overflowing_sum(tmp_path):
    # every squared norm is finite and so is their mean, only their sum is not
    from sparse_sketch.probes import UnifSpec, unif_draws
    _, values = unif_draws(UnifSpec(t=1, r=1e307, d=50, seed=1), 20)
    with np.errstate(over="ignore"):
        sq_norms = np.sum(values * values, axis=1)
        assert np.isfinite(sq_norms).all() and not np.isfinite(sq_norms.sum())
    out = tmp_path / "o.csv"
    src = str(Path(sparse_sketch.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-W", "error", "-m", "sparse_sketch.cli", "probe",
                          "unif-stats", "--d", "50", "--t", "1", "--trials", "20",
                          "--r", "1e307", "--seed", "1", "--output", str(out)],
                         capture_output=True, text=True, timeout=30,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert f"# mean_sq_norm: {float((sq_norms / 20).sum())!r}" in read_lines(str(out))


@pytest.mark.parametrize("task", ["diameter", "maxcut", "cluster-cost"])
def test_apps_zero_trials_is_a_precondition_error(tmp_path, capsys, task):
    # used to exit 0 with a header and no rows
    data, _ = write_data(tmp_path)
    out = tmp_path / "o.csv"
    rc, err = _run(["apps", task, "--input", data, "--output", str(out), "--trials", "0",
                    "--clusters", "0,1,0,1,0,1"], capsys)
    assert rc == 3 and "need at least one trial" in err
    assert not out.exists()


def test_internal_breach_exit_code(tmp_path, monkeypatch):
    # force the must-never-happen branch to confirm the exit-code contract
    import sparse_sketch.cli as cli_mod
    monkeypatch.setattr(cli_mod, "diameter_linf_stream",
                        lambda *a, **k: float("1e9"))
    data, _ = write_data(tmp_path)
    rc = main(["apps", "diameter", "--input", data, "--p", "inf",
               "--output", str(tmp_path / "d.csv")])
    assert rc == 4


def test_missing_input_file_exit_code(tmp_path):
    rc = main(["embed", "--input", str(tmp_path / "nope.tsv"),
               "--output", str(tmp_path / "o.csv")])
    assert rc == 2


def test_bad_dataset_exit_code(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\t0:one\n")
    rc = main(["embed", "--input", str(path), "--output", str(tmp_path / "o.csv")])
    assert rc == 2


def test_config_echo_is_first_line(tmp_path):
    data, _ = write_data(tmp_path)
    out = str(tmp_path / "emb.csv")
    assert main(["embed", "--input", data, "--output", out, "--m", "8", "--T", "1"]) == 0
    first = read_lines(out).splitlines()[0]
    assert first.startswith("# config: ")
    json.loads(first[len("# config: "):])


def _run(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().err


_OK_TSV, _OK_JSONL = b"ok\t0:1.0\n", b'{"id": "ok", "coords": {"0": 1.0}}\n'


@pytest.mark.parametrize("name, body, where", [
    ("in.jsonl", _OK_JSONL + b'{"id": "a", "coords": [1, 2]}', "line 2"),  # coords not an object
    ("in.jsonl", _OK_JSONL + b'{"id": "a", "coords": {"3": "abc"}}', "line 2"),  # value not a number
    ("in.jsonl", _OK_JSONL + b'{"id": "a", "coords": {"3": NaN}}', "line 2"),  # non-finite value
    ("in.jsonl", _OK_JSONL + b"5", "line 2"),  # record not an object
    # indices past the hash's uint64 keys
    ("in.jsonl", _OK_JSONL + b'{"id": "a", "coords": {"18446744073709551616": 1}}', "line 2"),
    ("in.tsv", _OK_TSV + b"a\t18446744073709551616:1.0", "line 2"),
    ("in.tsv", _OK_TSV + b"\xe9\t0:1.0", ""),  # not UTF-8
    # ids that would break a CSV row of the output
    ("in.tsv", _OK_TSV + b"a,b\t0:1.0", "line 2"),
    ("in.jsonl", _OK_JSONL + b'{"id": "x\\ny", "coords": {"0": 1}}', "line 2"),
], ids=["coords-list", "value-text", "value-nan", "record-int", "jsonl-index-2^64",
        "tsv-index-2^64", "not-utf8", "tsv-id-comma", "jsonl-id-newline"])
def test_bad_dataset_line_is_an_input_error(tmp_path, capsys, name, body, where):
    path = tmp_path / name
    path.write_bytes(body + b"\n")
    rc, err = _run(["distort", "--input", str(path), "--output", str(tmp_path / "o.csv"),
                    "--m", "5", "--T", "2"], capsys)
    assert rc == 2 and where in err
    assert "Traceback" not in err


def _params_file(tmp_path, **changes):
    """Params JSON of a valid m = 4, T = 3 embedding with `changes` applied;
    a change to ... drops the key."""
    params = manual_params(4, 3).to_json_dict(seed=1)
    params.update(changes)
    path = tmp_path / "params.json"
    path.write_text(json.dumps({k: v for k, v in params.items() if v is not ...}))
    return str(path)


@pytest.mark.parametrize("changes", [{"T": ...}, {"m": None}, {"s": "x"}, {"seed": [1]},
                                     {"mode": "bogus"}, {"m": 3.7}])
def test_bad_params_json_is_an_input_error(tmp_path, capsys, changes):
    data, _ = write_data(tmp_path)
    params = _params_file(tmp_path, **changes)
    before = Path(params).read_bytes()
    rc, err = _run(["embed", "--input", data, "--output", str(tmp_path / "o.csv"),
                    "--params", params], capsys)
    assert rc == 2 and "params JSON" in err
    assert "Traceback" not in err
    assert Path(params).read_bytes() == before


def test_embed_leaves_the_params_input_unchanged(tmp_path):
    data, _ = write_data(tmp_path)
    params = _params_file(tmp_path)
    before = Path(params).read_bytes()
    out = str(tmp_path / "o.csv")
    assert main(["embed", "--input", data, "--output", out, "--params", params]) == 0
    assert Path(params).read_bytes() == before
    assert io.read_json(io.default_params_path(out)) == json.loads(before)


def _signed_data(tmp_path):
    path = str(tmp_path / "signed.tsv")
    io.write_dataset_text(path, Dataset.from_items(
        [("a", SparseVector.from_pairs({0: -1.0, 3: 1.0}, 10)),
         ("b", SparseVector.from_pairs({3: -1.0}, 10))]))
    return path


@pytest.mark.parametrize("mode, flags, want", [
    ("discrete", [], 0),  # the file's discrete mode admits signed data
    ("all-p", ["--mode", "discrete"], 3),  # and --mode does not override it
])
def test_embed_checks_signs_under_the_params_file_mode(tmp_path, capsys, mode, flags, want):
    data = _signed_data(tmp_path)
    params = _params_file(tmp_path, mode=mode, delta=1, p=1.0)
    rc, err = _run(["embed", "--input", data, "--output", str(tmp_path / "o.csv"),
                    "--params", params, *flags], capsys)
    assert rc == want and "Traceback" not in err
    assert want == 0 or f"{mode!r} requires a non-negative dataset" in err


@pytest.mark.parametrize("argv", [
    ["embed", "--m", "100000000000", "--T", "3"],
    ["distort", "--against-zero", "--m", "100000000000", "--T", "3"],
    ["apps", "dist-est", "--eps", "0.0001", "--queries", "DATA"],
    ["apps", "diameter", "--s", "10000000000"],
], ids=["embed", "distort-against-zero", "dist-est", "diameter"])
def test_over_budget_widths_are_precondition_errors(tmp_path, capsys, argv):
    data, _ = write_data(tmp_path)
    out = tmp_path / "o.csv"
    argv = [data if a == "DATA" else a for a in argv]
    rc, err = _run(argv + ["--input", data, "--output", str(out)], capsys)
    assert rc == 3 and "budget" in err
    assert "Traceback" not in err and not out.exists()


def test_dist_est_budget_counts_keys_not_exponents(tmp_path, capsys):
    # R * m = 6 * 125,000 keys fit the cell budget, though a dense table of
    # R * m * (p + 1) = 75,750,000 cells would not
    data, _ = write_data(tmp_path, n=2, s=1)
    out = str(tmp_path / "o.csv")
    rc, err = _run(["apps", "dist-est", "--p", "100", "--eps", "0.04", "--queries", data,
                    "--input", data, "--output", out], capsys)
    assert rc == 0, err
    assert len(csv_rows(out)[1]) == 2


@pytest.mark.parametrize("argv", [
    ["distort", "--p", "2", "--m", "1000", "--T", "100000000000"],
    ["apps", "cluster-cost", "--p", "1", "--m", "10", "--T", "100000000000",
     "--clusters", "0,1,0,1"],
    ["distort", "--p", "inf", "--m", "10", "--T", "100000000000"],
], ids=["distort-p2", "cluster-cost", "distort-pinf"])
def test_over_budget_copy_counts_are_precondition_errors(tmp_path, argv):
    # each used to hash 10^11 copies (or allocate them, for p = inf)
    data, _ = write_data(tmp_path, n=4)
    out = tmp_path / "o.csv"
    src = str(Path(sparse_sketch.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-m", "sparse_sketch.cli", *argv, "--input", data,
                          "--output", str(out)], capture_output=True, text=True, timeout=30,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 3 and "hash budget" in run.stderr
    assert "Traceback" not in run.stderr and not out.exists()


@pytest.mark.parametrize("argv", [
    ["embed", "--mode", "discrete", "--delta", "1", "--p", "inf"],
    ["distort", "--mode", "discrete", "--delta", "1", "--p", "inf"],
    ["distort", "--mode", "discrete", "--delta", "1", "--p", "2000"],
    ["embed", "--mode", "discrete", "--delta", "1", "--p", "1100"],
    ["embed", "--eps", "5e-324"],
    ["apps", "maxcut", "--eps", "1e-160"],
    ["apps", "dist-est", "--eps", "1e-160", "--queries", "DATA"],
    ["apps", "maxcut", "--eps", "1e-200"],
    ["apps", "dist-est", "--eps", "1e-200", "--queries", "DATA"],
    ["apps", "dist-est", "--p", "1100", "--eps", "0.5", "--queries", "DATA"],
], ids=["embed-discrete-pinf", "distort-discrete-pinf", "distort-discrete-p2000",
        "embed-discrete-p1100", "embed-eps-denormal", "maxcut-eps-1e-160",
        "dist-est-eps-1e-160", "maxcut-eps-1e-200", "dist-est-eps-1e-200",
        "dist-est-p1100"])
def test_planner_overflows_are_precondition_errors(tmp_path, capsys, argv):
    # each used to exit 1 with an OverflowError or ZeroDivisionError traceback
    data, _ = write_data(tmp_path, n=4)
    out = tmp_path / "o.csv"
    argv = [data if a == "DATA" else a for a in argv]
    rc, err = _run(argv + ["--input", data, "--output", str(out)], capsys)
    assert rc == 3 and "precondition error" in err
    assert "Traceback" not in err and not out.exists()


_BIG_POWERS = "a\t0:3 1:5\nb\t2:1\nc\t1:2.5 4:7\n"  # 7^2000 is beyond float range
_BIG_DISTANCE = "# d: 10\na\t0:1e308\nb\t0:-1e308 3:1.0\n"  # and so is |1e308 - -1e308|
_BIG_NORM = "a\t0:1e308 1:1e308\n"  # and its l1 norm


@pytest.mark.parametrize("argv, data", [
    (["distort", "--p", "2000", "--m", "5", "--T", "3"], _BIG_POWERS),
    (["apps", "maxcut", "--p", "2000", "--eps", "0.5"], _BIG_POWERS),
    (["apps", "cluster-cost", "--p", "2000", "--clusters", "0,1,0", "--m", "5", "--T", "3"],
     _BIG_POWERS),
    (["apps", "diameter", "--p", "2"], _BIG_DISTANCE),
    (["distort", "--p", "inf"], _BIG_DISTANCE),
    (["distort", "--against-zero", "--p", "1", "--m", "5", "--T", "2"], _BIG_NORM),
], ids=["distort", "maxcut", "cluster-cost", "diameter-distance", "distort-distance",
        "distort-norm"])
def test_overflowing_powers_are_precondition_errors(tmp_path, argv, data):
    # each used to exit 0 with nan, a true max-cut of 0.0 or an inf sketch, and
    # to print numpy's overflow warnings, before or in place of the error message
    path = tmp_path / "big.tsv"
    path.write_text(data)
    out = tmp_path / "o.csv"
    src = str(Path(sparse_sketch.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-W", "default", "-m", "sparse_sketch.cli", *argv,
                          "--input", str(path), "--output", str(out)],
                         capture_output=True, text=True, timeout=30,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 3 and "overflow a float" in run.stderr
    assert "Warning" not in run.stderr and "Traceback" not in run.stderr
    assert not out.exists()


@pytest.fixture(scope="module")
def past_the_pair_budget(tmp_path_factory):
    # 8193 vectors: one past n = 8192, the most whose n x n matrix fits the
    # 2^26-cell budget; a 0.7 MB file whose float matrix would take 537 MB
    return write_data(tmp_path_factory.mktemp("big"), n=8193, s=3, d=10**6)[0]


def test_distort_report_is_streamed(tmp_path, capsys):
    # 400 vectors give 79,800 pair rows: held as tuples they were about 11 MB
    # at once (a 23 MB peak); streamed, the n x n matrices are most of it
    data = write_data(tmp_path, n=400, s=3, d=1000)[0]
    out = tmp_path / "o.csv"
    for p, per_cell in (("2", 100), ("inf", 60)):  # bytes per matrix cell
        tracemalloc.start()
        try:
            rc, err = _run(["distort", "--p", p, "--input", data, "--output", str(out)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0 and err == ""
        lines = read_lines(out).splitlines()
        assert len(lines) == 2 + 400 * 399 // 2 + 2
        label = f"{float(p)},,,"
        assert lines[-2].startswith("summary-max," + label)
        assert lines[-1].startswith("summary-mean," + label)
        assert peak < per_cell * 400 ** 2


@pytest.mark.parametrize("argv", [
    ["distort", "--p", "2"],
    ["distort", "--p", "inf"],
    ["apps", "diameter"],
], ids=["distort-p2", "distort-pinf", "diameter"])
def test_all_pairs_past_the_cell_budget_are_precondition_errors(tmp_path, capsys, argv,
                                                               past_the_pair_budget):
    # a 20,000-vector file used to end in numpy's _ArrayMemoryError traceback
    out = tmp_path / "o.csv"
    tracemalloc.start()
    try:
        rc, err = _run(argv + ["--input", past_the_pair_budget, "--output", str(out)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3 and "pair matrix" in err and "Traceback" not in err
    assert not out.exists()
    assert peak < 40e6  # the check comes before any n x n array


@pytest.mark.parametrize("argv", [
    ["distort", "--against-zero", "--p", "2000", "--m", "50", "--T", "2"],
    ["probe", "rate", "--p", "400", "--gamma", "0.1", "--t", "4", "--r", "100",
     "--trials", "50"],
], ids=["distort-against-zero", "probe-rate"])
def test_large_p_norms_are_finite_and_quiet(tmp_path, argv):
    # the first used to report a max-hash norm of inf after a RuntimeWarning, the
    # second to exit 1 with an OverflowError traceback
    if argv[0] == "distort":
        path = tmp_path / "big.tsv"
        path.write_text("a\t0:3 1:5\nb\t2:1\nc\t1:2.5 4:7\n")
    else:
        path = tmp_path / "map.csv"
        io.write_dense_map_csv(str(path), np.random.default_rng(0).standard_normal((6, 40)) * 10)
    out = tmp_path / "o.csv"
    src = str(Path(sparse_sketch.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-W", "default", "-m", "sparse_sketch.cli", *argv,
                          "--input", str(path), "--output", str(out)],
                         capture_output=True, text=True, timeout=30,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert "Warning" not in run.stderr and "Traceback" not in run.stderr
    _, rows = csv_rows(str(out))
    if argv[0] == "distort":
        assert {r[0]: float(r[4]) for r in rows if r[1] == "max-hash"} == \
            {"a": 5.0, "b": 1.0, "c": 7.0}
    else:  # a p-th power ratio beyond float range is an inf deviation, and a fail
        assert len(rows) == 50
        assert all(int(r[2]) == (float(r[1]) <= 0.1) for r in rows)


@pytest.mark.parametrize("p", ["1", "3", "inf"])
def test_against_zero_max_hash_is_estimate_distance_to_zero(tmp_path, p):
    data, ds = write_data(tmp_path, n=8, s=4, d=60, seed=5)
    out = str(tmp_path / "norms.csv")
    assert main(["distort", "--input", data, "--output", out, "--against-zero",
                 "--m", "7", "--T", "30", "--p", p, "--seed", "9"]) == 0
    _, rows = csv_rows(out)
    stack = stack_of(7, 30, 9)
    vecs = dict(zip(ds.ids, ds.vectors))
    got = {r[0]: float(r[4]) for r in rows if r[1] == "max-hash"}
    assert got == {i: estimate_distance(stack, v, SparseVector.zero(ds.dim), _parse_p(p))
                   for i, v in vecs.items()}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dist_est_sum_beyond_float_range_is_infinite(tmp_path):
    path = tmp_path / "big.tsv"
    path.write_text("# d: 10\na\t0:3.0 1:5.0\nb\t2:1.0\n")
    out = tmp_path / "o.csv"
    assert main(["apps", "dist-est", "--p", "1000", "--eps", "0.5", "--input", str(path),
                 "--queries", str(path), "--output", str(out)]) == 0
    assert csv_rows(out)[1][0][1] == "inf"  # the true sum of 7^1000-sized powers


def test_params_json_with_zero_copies_is_a_precondition_error(tmp_path, capsys):
    data, _ = write_data(tmp_path)
    out = tmp_path / "o.csv"
    rc, err = _run(["embed", "--input", data, "--output", str(out),
                    "--params", _params_file(tmp_path, T=0)], capsys)
    assert rc == 3 and "Traceback" not in err
    assert not out.exists()


_number = st.one_of(st.integers(-2, 2**65), st.floats(),
                    st.sampled_from(["abc", "nan", "-inf", "1e999", ""]))
_junk = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_tsv_lines = st.one_of(
    st.builds(lambda i, es: i + "\t" + " ".join(es),
              st.sampled_from(["a", "b", "c"]),
              st.lists(st.one_of(st.builds("{}:{}".format, _number, _number), _junk),
                       max_size=5)),
    st.builds("# d: {}".format, _number),
    _junk,
)
_json_value = st.one_of(st.none(), st.booleans(), st.integers(-2, 2**65), st.floats(),
                        st.text(max_size=3), st.lists(st.integers(), max_size=2))
_jsonl_lines = st.one_of(
    st.builds(json.dumps, st.fixed_dictionaries(
        {"id": _json_value,
         "coords": st.one_of(st.dictionaries(st.one_of(_number.map(str), _junk),
                                             _json_value, max_size=5), _json_value)},
        optional={"d": _json_value})),
    _junk,
)


@settings(max_examples=200, deadline=None)
@given(suffix=st.sampled_from([".tsv", ".jsonl"]), data=st.data(),
       p=st.sampled_from(["1", "2", "inf"]))
def test_distort_exit_codes_on_any_input(suffix, data, p):
    lines = data.draw(st.lists(_tsv_lines if suffix == ".tsv" else _jsonl_lines, max_size=6))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("in" + suffix)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        err = StringIO()
        with redirect_stderr(err):
            rc = main(["distort", "--input", str(path), "--output", str(Path(tmp) / "o.csv"),
                       "--m", "5", "--T", "3", "--p", p])
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def planner_data(tmp_path_factory):
    return write_data(tmp_path_factory.mktemp("planner"), n=4)[0]


_PLANNER_COMMANDS = {
    "embed": ["embed", "--m", "5", "--T", "3"],
    "distort": ["distort", "--m", "5", "--T", "3"],
    "maxcut": ["apps", "maxcut"],
    "dist-est": ["apps", "dist-est", "--queries", "DATA"],
}


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(_PLANNER_COMMANDS)),
       mode=st.sampled_from(["all-p", "linf-exact", "sum-linf", "discrete"]),
       delta=st.sampled_from([None, "0", "1", "3"]),
       p=st.sampled_from(["1", "2", "4", "1100", "2000", "inf", "-inf", "nan"]),
       eps=st.sampled_from(["0.5", "1e-3", "1e-160", "1e-200", "5e-324"]))
def test_exit_codes_over_the_planner_flags(planner_data, command, mode, delta, p, eps):
    # the planner runs before --m/--T replace its sizes, so accepted runs stay small
    argv = [planner_data if a == "DATA" else a for a in _PLANNER_COMMANDS[command]]
    # "--p=": a separate "-inf" would parse as a flag
    argv += ["--mode", mode, f"--p={p}", "--eps", eps] + ([] if delta is None else ["--delta", delta])
    with tempfile.TemporaryDirectory() as tmp:
        err = StringIO()
        with redirect_stderr(err):
            rc = main(argv + ["--input", planner_data, "--output", str(Path(tmp) / "o.csv")])
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


def test_cli_digest_script_prints_one_digest_per_command():
    script = Path(__file__).resolve().parents[1] / "scripts" / "cli_digest.py"
    # no command may warn: an overflow or invalid value fails the script
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 32
    assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)
