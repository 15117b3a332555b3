"""Experiment harness: deterministic generators, timing benches, demo.

All randomness flows through numpy's default_rng (PCG64) seeded explicitly,
so every instance is reproducible from its seed alone. Sweeps derive one
child stream per (seed, k, replicate), which keeps the data identical
whether replicates run serially or concurrently; the timing loops themselves
are serial to avoid contention skew.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .numeric import _check_p, max_convolve_normalized, max_convolve_piecewise
from .pmf import Pmf, naive_max_convolve, normalize_sum, relative_absolute_error
from .tree import TreeResult, convolution_tree, operator_from_name

SPEED_K_LIST = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)
ACCURACY_K_LIST = (128, 256, 512, 1024)
ACCURACY_P_LIST = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

# demo report mode -> ConvolutionOperator.name of the operator it runs
DEMO_MODES = {"naive-max": "max-naive", "numeric-max": "max-numeric",
              "sum-product": "sum"}

# sigma ~ uniform(0, k/10) can land arbitrarily close to zero; floor it at
# half a bin so the discretized Gaussian stays well defined.
MIN_SIGMA = 0.5
NOISE_HIGH = 1e-4


def generate_uniform_pair(k: int, seed) -> tuple[Pmf, Pmf]:
    """Two length-k vectors of i.i.d. uniform(0,1) values at offset 0.

    ``seed`` may be an int or a sequence of ints (a derived stream key).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    return Pmf(rng.random(k)), Pmf(rng.random(k))


@dataclass(frozen=True)
class SubsetSumInstance:
    """A probabilistic subset-sum problem with hidden ground truth.

    Each of n shoppers buys one of two items; per-item price beliefs are
    bimodal priors over k bins, and the total spent is observed fuzzily.
    ``true_means[j]`` is the (hidden) price actually paid by shopper j.
    """

    n: int
    k: int
    seed: int
    priors: list[Pmf]
    sum_likelihood: Pmf
    true_means: np.ndarray


def _discretized_gaussian(mean: float, sigma: float, length: int) -> np.ndarray:
    """Gaussian density at integer bins 0..length-1, normalized by sum."""
    bins = np.arange(length)
    dens = np.exp(-0.5 * ((bins - mean) / sigma) ** 2)
    return dens / dens.sum()


def generate_subset_sum_instance(n: int, k: int, seed: int) -> SubsetSumInstance:
    """Sample a subset-sum instance.

    Per variable j (draw order fixed for reproducibility): mu_true and
    mu_false ~ uniform(0, k-1); sigma_true and sigma_false ~ uniform(0, k/10)
    floored at MIN_SIGMA; then k noise values ~ uniform(0, 1e-4). The prior
    is the sum of the two discretized Gaussians plus the noise, normalized.
    The sum likelihood is a discretized Gaussian over [0, n(k-1)] with mean
    sum(mu_true) and variance 0.005 * (n(k-1)+1), plus the same noise model.
    """
    if n < 2 or k < 4:
        raise ValueError("need n >= 2 and k >= 4")
    rng = np.random.default_rng(seed)
    priors = []
    true_means = np.empty(n)
    for j in range(n):
        mu_true = rng.uniform(0.0, k - 1.0)
        mu_false = rng.uniform(0.0, k - 1.0)
        sigma_true = max(MIN_SIGMA, rng.uniform(0.0, k / 10.0))
        sigma_false = max(MIN_SIGMA, rng.uniform(0.0, k / 10.0))
        noise = rng.uniform(0.0, NOISE_HIGH, size=k)
        vec = (_discretized_gaussian(mu_true, sigma_true, k)
               + _discretized_gaussian(mu_false, sigma_false, k)
               + noise)
        priors.append(normalize_sum(Pmf(vec)))
        true_means[j] = mu_true
    m_len = n * (k - 1) + 1
    sigma_m = math.sqrt(0.005 * m_len)
    noise = rng.uniform(0.0, NOISE_HIGH, size=m_len)
    sum_likelihood = normalize_sum(
        Pmf(_discretized_gaussian(float(true_means.sum()), sigma_m, m_len) + noise)
    )
    return SubsetSumInstance(n, k, int(seed), priors, sum_likelihood, true_means)


@dataclass(frozen=True)
class BenchRecord:
    k: int
    method: str  # "naive" or "numeric"
    replicate: int
    wall_seconds: float


def run_speed_bench(k_list: Sequence[int] = SPEED_K_LIST, replicates: int = 5,
                    seed: int = 0) -> list[BenchRecord]:
    """Time naive vs. piecewise-numeric max-convolution on random pairs."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    records = []
    for k in k_list:
        # one untimed call per length, so replicate 0 is not charged for
        # that length's first-call cost (its FFT plan above all)
        max_convolve_piecewise(*generate_uniform_pair(k, (seed, k, 0)))
        for rep in range(replicates):
            left, right = generate_uniform_pair(k, (seed, k, rep))
            t0 = time.perf_counter()
            naive_max_convolve(left, right)
            records.append(BenchRecord(k, "naive", rep, time.perf_counter() - t0))
            t0 = time.perf_counter()
            max_convolve_piecewise(left, right)
            records.append(BenchRecord(k, "numeric", rep, time.perf_counter() - t0))
    return records


def accuracy_sweep_rows(k_list: Sequence[int] = ACCURACY_K_LIST,
                        p_list: Sequence[float] = ACCURACY_P_LIST,
                        replicates: int = 64,
                        seed: int = 0) -> Iterator[tuple]:
    """(k, p, index, exact_value, rel_abs_error) rows, lazily.

    Per (k, replicate) one random pair is max-convolved exactly and with the
    normalized numerical method at every p. exact_value is reported scaled
    to peak 1; the relative error does not depend on that scale. The
    arguments are checked here, before any row is produced, so a caller that
    writes rows as they come never starts on invalid input.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if any(k < 1 for k in k_list):
        raise ValueError("k must be >= 1")
    for p in p_list:
        _check_p(p)
    return _accuracy_rows(k_list, p_list, replicates, seed)


def _accuracy_rows(k_list, p_list, replicates, seed) -> Iterator[tuple]:
    for k in k_list:
        for rep in range(replicates):
            left, right = generate_uniform_pair(k, (seed, k, rep))
            exact = naive_max_convolve(left, right)
            exact_scaled = exact.values / exact.values.max()
            for p in p_list:
                numeric = max_convolve_normalized(left, right, p)
                errors = relative_absolute_error(numeric, exact)
                for i, (value, err) in enumerate(zip(exact_scaled, errors)):
                    yield (k, p, i, value, err)


@dataclass(frozen=True)
class DemoOutput:
    """Subset-sum demo results: summary dict plus the raw tree results."""

    report: dict
    results: dict[str, TreeResult]


def run_subset_sum_demo(n: int = 32, k: int = 256, seed: int = 0,
                        modes: Iterable[str] = DEMO_MODES) -> DemoOutput:
    """Solve one subset-sum instance with each requested inference mode.

    Only the tree computation is timed, not instance generation. The report
    carries per-mode wall time, per-variable argmax, |argmax - mu_true|, and
    the argmax agreement rate between the naive and numeric max modes when
    both ran.
    """
    modes = list(modes)
    for mode in modes:
        if mode not in DEMO_MODES:
            raise ValueError(f"unknown mode {mode!r}; "
                             f"expected one of {tuple(DEMO_MODES)}")
    instance = generate_subset_sum_instance(n, k, seed)
    report = {
        "n": n, "k": k, "seed": seed,
        "true_means": [float(m) for m in instance.true_means],
        "modes": {},
    }
    results: dict[str, TreeResult] = {}
    for mode in modes:
        operator = operator_from_name(DEMO_MODES[mode])
        t0 = time.perf_counter()
        result = convolution_tree(instance.priors, instance.sum_likelihood, operator)
        wall = time.perf_counter() - t0
        argmaxes = [p.argmax_outcome() for p in result.likelihoods]
        report["modes"][mode] = {
            "wall_seconds": wall,
            "argmax": argmaxes,
            "abs_dev_from_true": [
                float(abs(a - mu)) for a, mu in zip(argmaxes, instance.true_means)
            ],
        }
        results[mode] = result
    if "naive-max" in results and "numeric-max" in results:
        naive_arg = report["modes"]["naive-max"]["argmax"]
        numeric_arg = report["modes"]["numeric-max"]["argmax"]
        matches = sum(a == b for a, b in zip(naive_arg, numeric_arg))
        report["agreement"] = {
            "argmax_matches": matches,
            "argmax_match_rate": matches / n,
            "wall_ratio_numeric_over_naive": (
                report["modes"]["numeric-max"]["wall_seconds"]
                / report["modes"]["naive-max"]["wall_seconds"]
            ),
        }
    return DemoOutput(report, results)
