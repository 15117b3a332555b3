import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from convtree import (
    Pmf,
    generate_uniform_pair,
    max_convolve_piecewise,
    naive_max_convolve,
)
from convtree.cli import main
from convtree.io import read_pmf, read_pmf_ndjson, write_pmf, write_pmf_ndjson


@pytest.fixture
def pair_files(tmp_path):
    left, right = generate_uniform_pair(24, 6)
    lpath, rpath = tmp_path / "left.json", tmp_path / "right.json"
    write_pmf(left, lpath)
    write_pmf(right, rpath)
    return left, right, str(lpath), str(rpath)


def test_pmf_file_round_trip(tmp_path):
    p = Pmf([0.0, 0.5, 1.0], offset=-4)
    path = tmp_path / "p.json"
    write_pmf(p, path)
    q = read_pmf(path)
    assert q.offset == -4
    assert_array_equal(q.values, p.values)
    nd = tmp_path / "ps.ndjson"
    write_pmf_ndjson([p, q], nd)
    back = read_pmf_ndjson(nd)
    assert len(back) == 2
    assert_array_equal(back[1].values, p.values)


def test_maxconv_naive(pair_files, tmp_path):
    left, right, lpath, rpath = pair_files
    out = tmp_path / "out.json"
    assert main(["maxconv", "--left", lpath, "--right", rpath,
                 "--method", "naive", "--out", str(out)]) == 0
    assert_array_equal(read_pmf(out).values,
                       naive_max_convolve(left, right).values)


def test_maxconv_numeric_with_custom_ladder(pair_files, tmp_path):
    left, right, lpath, rpath = pair_files
    out = tmp_path / "out.json"
    assert main(["maxconv", "--left", lpath, "--right", rpath,
                 "--method", "numeric", "--p-ladder", "4,32",
                 "--tau", "0.5", "--out", str(out)]) == 0
    from convtree import PiecewiseConfig
    expected = max_convolve_piecewise(left, right, PiecewiseConfig((4.0, 32.0), 0.5))
    assert_array_equal(read_pmf(out).values, expected.values)


def test_maxconv_auto_small_is_exact(tmp_path):
    left, right = generate_uniform_pair(8, 3)
    lpath, rpath, out = (tmp_path / n for n in ("l.json", "r.json", "o.json"))
    write_pmf(left, lpath)
    write_pmf(right, rpath)
    assert main(["maxconv", "--left", str(lpath), "--right", str(rpath),
                 "--method", "auto", "--out", str(out)]) == 0
    assert_array_equal(read_pmf(out).values,
                       naive_max_convolve(left, right).values)


def test_tree_worked_example(tmp_path):
    priors = [Pmf([0.5, 0.5]), Pmf([0.9, 0.1])]
    write_pmf_ndjson(priors, tmp_path / "priors.ndjson")
    write_pmf(Pmf([1.0], offset=1), tmp_path / "sum.json")
    out = tmp_path / "tree.json"
    assert main(["tree", "--priors", str(tmp_path / "priors.ndjson"),
                 "--sum", str(tmp_path / "sum.json"),
                 "--op", "sum", "--out", str(out)]) == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["op"] == "sum"
    assert_allclose(doc["likelihoods"][0]["values"], [0.1, 0.9], atol=1e-12)
    assert_allclose(doc["likelihoods"][1]["values"], [0.9, 0.1], atol=1e-12)
    assert_allclose(doc["sum_prior"]["values"], [0.45, 0.5, 0.05], atol=1e-12)


@pytest.mark.parametrize("op", ["max-naive", "max-numeric", "pnorm:2"])
def test_tree_operators_run(tmp_path, op):
    rng = np.random.default_rng(8)
    priors = [Pmf(0.1 + rng.random(6)) for _ in range(3)]
    evidence = Pmf(0.1 + rng.random(16))
    write_pmf_ndjson(priors, tmp_path / "priors.ndjson")
    write_pmf(evidence, tmp_path / "sum.json")
    out = tmp_path / "tree.json"
    assert main(["tree", "--priors", str(tmp_path / "priors.ndjson"),
                 "--sum", str(tmp_path / "sum.json"),
                 "--op", op, "--out", str(out)]) == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert len(doc["likelihoods"]) == 3
    for prior, lik in zip(priors, doc["likelihoods"]):
        assert len(lik["values"]) == len(prior)


@pytest.mark.parametrize("op", ["bogus", "pnorm:", "pnorm:x", "pnorm:0.5", "pnorm:inf"])
def test_tree_unknown_operator_exits(tmp_path, op):
    write_pmf_ndjson([Pmf([1.0])], tmp_path / "p.ndjson")
    write_pmf(Pmf([1.0]), tmp_path / "s.json")
    with pytest.raises(SystemExit):
        main(["tree", "--priors", str(tmp_path / "p.ndjson"),
              "--sum", str(tmp_path / "s.json"),
              "--op", op, "--out", str(tmp_path / "o.json")])


def test_tree_sum_ignores_ladder_options(tmp_path):
    write_pmf_ndjson([Pmf([0.5, 0.5]), Pmf([0.9, 0.1])], tmp_path / "p.ndjson")
    write_pmf(Pmf([1.0], offset=1), tmp_path / "s.json")
    assert main(["tree", "--priors", str(tmp_path / "p.ndjson"),
                 "--sum", str(tmp_path / "s.json"), "--op", "sum",
                 "--p-ladder", "4", "--tau", "2", "--out", str(tmp_path / "o.json")]) == 0


@pytest.mark.parametrize("option, message", [
    (["--p-ladder", "4"], "at least two exponents"),
    (["--p-ladder", "32,4"], "strictly ascending"),
    (["--tau", "1.5"], "tau must lie in"),
])
def test_tree_bad_ladder_is_a_usage_error(tmp_path, option, message):
    write_pmf_ndjson([Pmf([1.0])], tmp_path / "p.ndjson")
    write_pmf(Pmf([1.0]), tmp_path / "s.json")
    with pytest.raises(SystemExit, match=message):
        main(["tree", "--priors", str(tmp_path / "p.ndjson"),
              "--sum", str(tmp_path / "s.json"), "--op", "max-numeric",
              *option, "--out", str(tmp_path / "o.json")])


def test_bench_speed_csv(tmp_path):
    out = tmp_path / "speed.csv"
    assert main(["bench", "speed", "--k-list", "16,32", "--replicates", "2",
                 "--seed", "0", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "method", "replicate", "wall_seconds"]
    assert len(rows) == 1 + 2 * 2 * 2
    assert {row[1] for row in rows[1:]} == {"naive", "numeric"}


def test_bench_accuracy_csv(tmp_path):
    out = tmp_path / "acc.csv"
    assert main(["bench", "accuracy", "--k-list", "8", "--p-list", "2,4",
                 "--replicates", "2", "--seed", "0", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "p", "index", "exact_value", "rel_abs_error"]
    assert len(rows) == 1 + 2 * 2 * 15


def test_demo_writes_files(tmp_path):
    out_dir = tmp_path / "demo"
    assert main(["demo", "subset-sum", "--n", "4", "--k", "8", "--seed", "1",
                 "--modes", "naive-max,numeric-max", "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "report.json") as fh:
        report = json.load(fh)
    assert report["n"] == 4
    assert set(report["modes"]) == {"naive-max", "numeric-max"}
    assert "agreement" in report
    for mode in ("naive-max", "numeric-max"):
        curves = read_pmf_ndjson(out_dir / f"likelihoods_{mode}.ndjson")
        assert len(curves) == 4
        assert all(len(c) == 8 for c in curves)


def _usage_error(argv) -> str:
    """The message of the SystemExit that ``main(argv)`` must raise."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    message = str(info.value.code)
    assert message.startswith("convtree: "), message
    return message


@pytest.mark.parametrize("name, text, message", [
    ("p.ndjson", None, "No such file"),
    ("p.ndjson", '{"offset": 0, "values": [0.5, -0.1]}\n', "nonnegative"),
    ("s.json", '{"values": [1.0]}\n', "no 'offset' key"),
    ("s.json", '{"offset": 1.5, "values": [1.0]}\n', "offset must be an integer"),
    ("s.json", '{"offset": 7, "values": [1.0]}\n', "inconsistent evidence"),
    ("s.json", "5\n", "must be an object, got int"),
    ("s.json", "null\n", "must be an object, got NoneType"),
    ("p.ndjson", "[1.0]\n", "must be an object, got list"),
    ("p.ndjson", '{"offset": 0, "values": {"a": 1}}\n', "'values' must be an array"),
    ("s.json", '{"offset": 1, "values": [true]}\n', "'values' must be an array"),
    ("p.ndjson", '{"offset": 0, "values": ["1.5"]}\n', "'values' must be an array"),
])
def test_tree_bad_input_is_a_usage_error(tmp_path, name, text, message):
    write_pmf_ndjson([Pmf([0.5, 0.5]), Pmf([0.9, 0.1])], tmp_path / "p.ndjson")
    write_pmf(Pmf([1.0], offset=1), tmp_path / "s.json")
    if text is None:
        (tmp_path / name).unlink()
    else:
        (tmp_path / name).write_text(text)
    assert message in _usage_error([
        "tree", "--priors", str(tmp_path / "p.ndjson"),
        "--sum", str(tmp_path / "s.json"), "--out", str(tmp_path / "o.json")])


@pytest.mark.parametrize("argv, message", [
    (["bench", "speed", "--k-list", "0", "--out", "s.csv"], "k must be >= 1"),
    (["bench", "accuracy", "--replicates", "0", "--out", "a.csv"],
     "replicates must be >= 1"),
    (["demo", "subset-sum", "--modes", "bogus", "--out-dir", "d"], "unknown mode"),
    (["maxconv", "--left", "missing.json", "--right", "r.json", "--out", "o.json"],
     "No such file"),
    (["maxconv", "--left", "l.json", "--right", "r.json", "--method", "numeric",
      "--p-ladder", "4,inf", "--out", "o.json"], "invalid exponent"),
    (["tree", "--priors", "p.ndjson", "--sum", "s.json", "--p-ladder", "4,inf",
      "--out", "o.json"], "invalid exponent"),
    (["demo", "subset-sum", "--n", "1", "--out-dir", "d"], "need n >= 2"),
])
def test_every_subcommand_reports_bad_input(tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    for name in ("l.json", "r.json", "s.json"):
        write_pmf(Pmf([0.5, 1.0]), name)
    write_pmf_ndjson([Pmf([1.0]), Pmf([0.5, 1.0])], "p.ndjson")
    assert message in _usage_error(argv)
    # no output file or directory is left behind
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "l.json", "p.ndjson", "r.json", "s.json"]


@pytest.mark.parametrize("option, value", [
    ("--replicates", "0"), ("--k-list", "16,0"), ("--p-list", "2,0.5"),
])
def test_bench_accuracy_bad_input_writes_no_file(tmp_path, option, value):
    out = tmp_path / "a.csv"
    argv = ["bench", "accuracy", "--k-list", "8", option, value, "--out", str(out)]
    _usage_error(argv)
    assert not out.exists()
    out.write_bytes(b"k,p\r\n8,2\r\n")  # an earlier result stays as it was
    _usage_error(argv)
    assert out.read_bytes() == b"k,p\r\n8,2\r\n"
