import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import convtree.harness as harness
from bruteforce import brute_force_tree, normalize_mode
from convtree import (
    accuracy_sweep_rows,
    generate_subset_sum_instance,
    generate_uniform_pair,
    run_speed_bench,
    run_subset_sum_demo,
)
from convtree.io import write_accuracy_csv, write_speed_csv


# ---------------------------------------------------------------------------
# Uniform pair generator

def test_uniform_pair_deterministic():
    a1, b1 = generate_uniform_pair(32, 123)
    a2, b2 = generate_uniform_pair(32, 123)
    assert_array_equal(a1.values, a2.values)
    assert_array_equal(b1.values, b2.values)
    a3, _ = generate_uniform_pair(32, 124)
    assert not np.array_equal(a1.values, a3.values)


def test_uniform_pair_range_and_shape():
    left, right = generate_uniform_pair(32, 0)
    assert len(left) == len(right) == 32
    assert left.offset == right.offset == 0
    for v in (left.values, right.values):
        assert np.all(v > 0.0)
        assert np.all(v < 1.0)


def test_uniform_pair_mean_sanity():
    left, right = generate_uniform_pair(8192, 42)
    values = np.concatenate([left.values, right.values])
    assert abs(values.mean() - 0.5) <= 0.02


def test_uniform_pair_accepts_stream_keys():
    a, _ = generate_uniform_pair(8, (7, 8, 0))
    b, _ = generate_uniform_pair(8, (7, 8, 1))
    assert not np.array_equal(a.values, b.values)


def test_uniform_pair_rejects_bad_k():
    with pytest.raises(ValueError):
        generate_uniform_pair(0, 1)


# ---------------------------------------------------------------------------
# Subset-sum instance generator

def test_instance_shapes_full_scale():
    inst = generate_subset_sum_instance(32, 256, seed=0)
    assert len(inst.priors) == 32
    assert all(len(p) == 256 and p.offset == 0 for p in inst.priors)
    assert len(inst.sum_likelihood) == 32 * 255 + 1
    assert inst.sum_likelihood.offset == 0
    assert inst.true_means.shape == (32,)
    assert np.all(inst.true_means >= 0.0)
    assert np.all(inst.true_means <= 255.0)


def test_instance_positive_everywhere():
    inst = generate_subset_sum_instance(4, 16, seed=5)
    for p in inst.priors:
        assert np.all(p.values > 0.0)
    assert np.all(inst.sum_likelihood.values > 0.0)


def test_instance_deterministic():
    a = generate_subset_sum_instance(4, 16, seed=9)
    b = generate_subset_sum_instance(4, 16, seed=9)
    assert_array_equal(a.true_means, b.true_means)
    for pa, pb in zip(a.priors, b.priors):
        assert_array_equal(pa.values, pb.values)
    assert_array_equal(a.sum_likelihood.values, b.sum_likelihood.values)


def test_instance_rejects_tiny_problems():
    with pytest.raises(ValueError):
        generate_subset_sum_instance(1, 16, seed=0)
    with pytest.raises(ValueError):
        generate_subset_sum_instance(4, 3, seed=0)


# ---------------------------------------------------------------------------
# Speed bench

def test_speed_bench_record_layout(tmp_path):
    records = run_speed_bench(k_list=(16, 32), replicates=2, seed=1)
    assert len(records) == 2 * 2 * 2
    assert {r.method for r in records} == {"naive", "numeric"}
    assert all(r.wall_seconds > 0 for r in records)
    out = tmp_path / "speed.csv"
    write_speed_csv(records, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "method", "replicate", "wall_seconds"]
    assert len(rows) == 1 + len(records)


def test_speed_bench_warms_each_length_before_timing_it(monkeypatch):
    calls = []

    def spy(method, function):
        def call(left, right):
            calls.append((method, len(left)))
            return function(left, right)
        return call

    for method, name in (("naive", "naive_max_convolve"),
                         ("numeric", "max_convolve_piecewise")):
        monkeypatch.setattr(harness, name, spy(method, getattr(harness, name)))
    records = run_speed_bench(k_list=(8, 32), replicates=2, seed=1)
    assert len(records) == 2 * 2 * 2
    for k in (8, 32):
        assert calls.index(("numeric", k)) < calls.index(("naive", k))
        assert calls.count(("numeric", k)) == 2 + 1


def test_numeric_beats_naive_at_2048():
    records = run_speed_bench(k_list=(2048,), replicates=2, seed=3)
    naive = [r.wall_seconds for r in records if r.method == "naive"]
    numeric = [r.wall_seconds for r in records if r.method == "numeric"]
    assert max(numeric) < min(naive)


# ---------------------------------------------------------------------------
# Accuracy sweep

def test_accuracy_rows_structure(tmp_path):
    rows = list(accuracy_sweep_rows(k_list=(16,), p_list=(2.0, 4.0),
                                    replicates=2, seed=0))
    assert len(rows) == 2 * 2 * 31
    ks, ps, idx, exact, err = zip(*rows)
    assert set(ks) == {16}
    assert set(ps) == {2.0, 4.0}
    exact = np.asarray(exact)
    assert exact.max() == 1.0
    assert np.all(exact > 0.0)
    assert np.all(np.asarray(err) >= 0.0)
    out = tmp_path / "acc.csv"
    write_accuracy_csv(rows, out)
    with open(out, newline="") as fh:
        header = fh.readline().strip()
    assert header == "k,p,index,exact_value,rel_abs_error"


def test_accuracy_p64_error_bounded_where_exact_is_large():
    # term-count bound: at p=64 the overshoot is at most k^(1/64) - 1
    k = 128
    rows = list(accuracy_sweep_rows(k_list=(k,), p_list=(64.0,),
                                    replicates=4, seed=7))
    bound = k ** (1 / 64) - 1 + 0.01
    errs = [err for (_, _, _, exact, err) in rows if exact >= 0.6]
    assert errs
    assert max(errs) <= bound


def test_accuracy_same_pair_across_p():
    rows = list(accuracy_sweep_rows(k_list=(8,), p_list=(2.0, 64.0),
                                    replicates=1, seed=5))
    by_p = {}
    for _, p, idx, exact, _ in rows:
        by_p.setdefault(p, []).append(exact)
    assert_array_equal(by_p[2.0], by_p[64.0])


@pytest.mark.parametrize("kwargs, message", [
    ({"replicates": 0}, "replicates must be >= 1"),
    ({"k_list": (16, 0)}, "k must be >= 1"),
    ({"p_list": (2.0, 0.5)}, "invalid exponent"),
])
def test_accuracy_rows_check_arguments_before_the_first_row(kwargs, message):
    # raised by the call itself, not by the first next() on its rows
    with pytest.raises(ValueError, match=message):
        accuracy_sweep_rows(**kwargs)


# ---------------------------------------------------------------------------
# Subset-sum demo

def test_demo_naive_matches_enumeration():
    demo = run_subset_sum_demo(4, 8, seed=11, modes=("naive-max",))
    inst = generate_subset_sum_instance(4, 8, seed=11)
    lik, _, _ = brute_force_tree(inst.priors, inst.sum_likelihood, "max")
    result = demo.results["naive-max"]
    for j in range(4):
        assert_allclose(result.likelihoods[j].values,
                        normalize_mode(lik[j], "max"), atol=1e-12)


def test_demo_report_contents():
    demo = run_subset_sum_demo(4, 8, seed=2,
                               modes=("naive-max", "numeric-max", "sum-product"))
    report = demo.report
    assert report["n"] == 4 and report["k"] == 8 and report["seed"] == 2
    assert len(report["true_means"]) == 4
    for mode in ("naive-max", "numeric-max", "sum-product"):
        entry = report["modes"][mode]
        assert entry["wall_seconds"] > 0
        assert len(entry["argmax"]) == 4
        assert all(0 <= a <= 7 for a in entry["argmax"])
        assert len(entry["abs_dev_from_true"]) == 4
    agreement = report["agreement"]
    assert 0.0 <= agreement["argmax_match_rate"] <= 1.0
    assert agreement["wall_ratio_numeric_over_naive"] > 0


def test_demo_sum_product_differs_and_is_less_discriminative():
    demo = run_subset_sum_demo(8, 64, seed=2,
                               modes=("naive-max", "sum-product"))
    max_curves = demo.results["naive-max"].likelihoods
    sum_curves = demo.results["sum-product"].likelihoods
    # the two inference modes produce genuinely different curves
    l1 = [
        np.abs(m.values / m.values.sum() - s.values / s.values.sum()).sum()
        for m, s in zip(max_curves, sum_curves)
    ]
    assert np.mean(l1) > 0.05

    # and the sum-product curves spread mass over more joint events
    def entropy(c):
        p = c.values / c.values.sum()
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    assert (np.mean([entropy(c) for c in sum_curves])
            > np.mean([entropy(c) for c in max_curves]))


def test_demo_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        run_subset_sum_demo(4, 8, seed=0, modes=("bogus",))
