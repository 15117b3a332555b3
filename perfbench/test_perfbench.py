"""Tests of the benchmark itself: small smoke runs, every output check
rejecting a corrupted result, and traced vs untraced bit-identity.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import convtree as ct  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "tree-deep": dict(n=16, k=8),
    "tree-wide": dict(n=4, k=64),
    "oracle": dict(n=8, k=16),
}
SMALL_PANEL = dict(panel_n=8, panel_k=16, panel_instances=2, pair_k=64, pairs=1)


def small(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name], **SMALL_PANEL)


def measure(w: workloads.Workload, trace: bool):
    inputs = workloads.make_inputs(w, seed=3)
    ops = workloads.operators()
    workloads.warm_up(inputs, ops, trace)
    tally = workloads.Tally()
    refs = workloads.build_references(inputs, ops, tally)
    loop = workloads.run_loop(inputs, refs, ops, 0.05, trace, tally)
    values = (workloads.per_layer(loop, refs) if trace
              else workloads.end_to_end(loop, refs))
    return tally, values


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_small_workload_passes_every_check(name, trace):
    tally, values = measure(small(name), trace)
    assert tally.failed == 0, tally.problems
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    # run.py adds the two process-level metrics
    expected = {m["name"] for m in listed} - {"setup_s", "peak_rss_mb"}
    assert expected <= set(values)
    assert all(np.isfinite(values[name]) for name in expected)


def test_cli_prints_every_metric_last(monkeypatch, capsys):
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setitem(workloads.WORKLOADS, "oracle", small("oracle"))
    assert run.main(["--workload", "oracle", "--seed", "1",
                     "--seconds", "0.05", "--trace", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def instance():
    return ct.generate_subset_sum_instance(5, 16, 7)


def solve(op, instance):
    return ct.convolution_tree(instance.priors, instance.sum_likelihood, op)


def corrupt(pmf, fn):
    values = pmf.values.copy()
    fn(values)
    out = ct.Pmf(np.zeros_like(values), pmf.offset)
    out.values[:] = values  # bypasses the constructor's value checks
    return out


def with_likelihood(result, j, pmf):
    liks = list(result.likelihoods)
    liks[j] = pmf
    return ct.TreeResult(liks, result.sum_prior)


@pytest.mark.parametrize("op, normalization", [
    (ct.standard_operator(), "sum"), (ct.numeric_max_operator(), "max")])
def test_tree_result_rejects_corruption(instance, op, normalization):
    result = solve(op, instance)
    assert checks.tree_result(result, instance.priors, normalization) == []
    lik = result.likelihoods[1]
    bad = [
        ct.TreeResult(result.likelihoods[:-1], result.sum_prior),
        with_likelihood(result, 1, ct.Pmf(lik.values, lik.offset + 1)),
        with_likelihood(result, 1, corrupt(lik, lambda v: v.__setitem__(2, np.nan))),
        with_likelihood(result, 1, corrupt(lik, lambda v: v.__setitem__(2, -1e-3))),
        with_likelihood(result, 1, corrupt(lik, lambda v: v.__imul__(2.0))),
        ct.TreeResult(result.likelihoods,
                      corrupt(result.sum_prior, lambda v: v.__setitem__(0, np.inf))),
    ]
    for corrupted in bad:
        assert checks.tree_result(corrupted, instance.priors, normalization)


def test_sum_identities_reject_corruption(instance):
    result = solve(ct.standard_operator(), instance)
    args = (instance.priors, instance.sum_likelihood)
    assert checks.sum_identities(result, *args) == []
    lik = result.likelihoods[0]
    moved = with_likelihood(result, 0, ct.Pmf(lik.values[::-1].copy(), lik.offset))
    assert checks.sum_identities(moved, *args)
    sp = result.sum_prior
    skewed = ct.TreeResult(result.likelihoods, ct.Pmf(sp.values[::-1].copy(), sp.offset))
    assert checks.sum_identities(skewed, *args)


def test_pnorm_tree_check_rejects_corruption(instance):
    sum_result = solve(ct.standard_operator(), instance)
    pnorm = solve(ct.p_norm_operator(1.0), instance)
    assert checks.matches_sum_tree(pnorm, sum_result) == []
    lik = pnorm.likelihoods[2]
    bumped = corrupt(lik, lambda v: v.__setitem__(int(np.argmin(v)), v.min() + 1e-6))
    assert checks.matches_sum_tree(with_likelihood(pnorm, 2, bumped), sum_result)


def test_pair_checks_reject_corruption():
    left, right = ct.generate_uniform_pair(64, 5)
    naive = ct.naive_convolve(left, right)
    fast = ct.fast_convolve(left, right)
    pnorm1 = ct.p_norm_convolve(left, right, 1.0)
    assert checks.fast_matches_naive(fast, naive) == []
    assert checks.pnorm1_matches_fast(pnorm1, fast) == []
    peak = naive.values.max()
    assert checks.fast_matches_naive(
        corrupt(fast, lambda v: v.__iadd__(1e-6 * peak)), naive)
    assert checks.pnorm1_matches_fast(
        corrupt(pnorm1, lambda v: v.__setitem__(3, v[3] + 1e-10 * peak)), fast)
    assert checks.fast_matches_naive(ct.Pmf(fast.values, fast.offset + 1), naive)

    exact = ct.naive_max_convolve(left, right)
    estimate = ct.max_convolve_piecewise(left, right)
    assert checks.piecewise_upper_bound(estimate, exact, 64, 64) == []
    # index 0 has one pair, so any overshoot beyond the slack is a violation
    over = corrupt(estimate, lambda v: v.__setitem__(0, exact.values[0] + 1e-3 * peak))
    assert checks.piecewise_upper_bound(over, exact, 64, 64)


@pytest.mark.parametrize("name", workloads.TREE_OPS)
def test_traced_solve_is_bit_identical(instance, name):
    op = workloads.operators()[name]
    plain = solve(op, instance)
    traced, summary = spans.traced_solve(op, instance.priors, instance.sum_likelihood,
                                         workloads.RUNGS[name])
    assert workloads.identical(plain, traced)
    assert not summary["fallback"]
    assert summary["apply_calls"] == 3 * (8 - 1)
    assert sum(row["calls"] for row in summary["depths"].values()) == 21
    assert summary["rev_fft_points"] > summary["fwd_fft_points"] > 0
    assert 0.0 < summary["apply_s"] <= summary["wall_s"]


def test_identical_detects_one_ulp(instance):
    result = solve(ct.standard_operator(), instance)
    lik = result.likelihoods[0]
    nudged = corrupt(lik, lambda v: v.__setitem__(0, np.nextafter(v[0], 1.0)))
    assert not workloads.identical(result, with_likelihood(result, 0, nudged))


def test_summary_falls_back_on_unexpected_call_order():
    log = spans.SpanLog()
    log.apply.append((0.0, 1.0, 4, 4))
    summary = spans.summarize(2.0, log, spans.call_layers(4), 1)
    assert summary["fallback"] and summary["self_s"] == 2.0
