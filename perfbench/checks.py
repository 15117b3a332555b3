"""Output checks of the convtree benchmark.

Every check returns a list of problems; an empty list means the output
passed. A timed call whose output fails a check counts as a failed call.
None of these checks needs an exact max-product oracle, so they run at any
tree size; the piecewise bound compares against a naive reference that the
benchmark computes once per pair.
"""

from __future__ import annotations

import numpy as np

from convtree import DEFAULT_P_LADDER, pair_counts

EPS = float(np.finfo(float).eps)
# The p=4 rung leaks about 1e-4 of the peak onto outcomes whose exact value
# is zero (the fourth root of the FFT's round-off), so the upper bound of the
# piecewise estimator carries a slack of order eps^(1/4).
PIECEWISE_SLACK = 2.0 * EPS ** (1.0 / DEFAULT_P_LADDER[0])
NORMALIZATION_TOL = 1e-9
SUM_IDENTITY_RTOL = 1e-9
PNORM_TREE_ATOL = 1e-9
FAST_VS_NAIVE_REL = 1e-9
PNORM1_VS_FAST_REL = 1e-12
MAX_PROBLEMS = 3


def _bad_values(v: np.ndarray) -> bool:
    return not (np.all(np.isfinite(v)) and v.min() >= 0.0)


def tree_result(result, priors, normalization: str) -> list[str]:
    """n likelihoods on their priors' supports, finite, >= 0, normalized."""
    if len(result.likelihoods) != len(priors):
        return [f"{len(result.likelihoods)} likelihoods for {len(priors)} priors"]
    problems = []
    for j, (lik, prior) in enumerate(zip(result.likelihoods, priors)):
        if len(problems) >= MAX_PROBLEMS:
            break
        if lik.offset != prior.offset or len(lik) != len(prior):
            problems.append(f"likelihood {j} is not on its prior's support")
            continue
        v = lik.values
        if _bad_values(v):
            problems.append(f"likelihood {j} has negative or non-finite values")
            continue
        scale = v.sum() if normalization == "sum" else v.max()
        if abs(scale - 1.0) > NORMALIZATION_TOL:
            problems.append(f"likelihood {j} has {normalization} {scale!r}, not 1")
    if _bad_values(result.sum_prior.values):
        problems.append("sum prior has negative or non-finite values")
    return problems


def _mean(pmf) -> float:
    v = pmf.values
    return float(np.dot(pmf.outcomes, v) / v.sum())


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def sum_identities(result, priors, evidence) -> list[str]:
    """Two O(nk) identities every sum-product tree must satisfy.

    sum_j E[X_j | evidence] = E[M | evidence], with M's posterior taken as
    sum_prior x evidence; and the mean of sum_prior is the sum of the prior
    means.
    """
    sp = result.sum_prior
    lo = max(sp.offset, evidence.offset)
    hi = min(sp.offset + len(sp), evidence.offset + len(evidence))
    if hi <= lo:
        return ["sum prior and evidence do not overlap"]
    post = (sp.values[lo - sp.offset:hi - sp.offset]
            * evidence.values[lo - evidence.offset:hi - evidence.offset])
    posterior_mean = float(np.dot(np.arange(lo, hi), post) / post.sum())
    summed = sum(_mean(lik) for lik in result.likelihoods)
    problems = []
    if not _close(summed, posterior_mean, SUM_IDENTITY_RTOL):
        problems.append(f"sum of posterior means {summed!r} != "
                        f"posterior mean of the sum {posterior_mean!r}")
    prior_mean = _mean(sp)
    summed_priors = sum(_mean(p) for p in priors)
    if not _close(prior_mean, summed_priors, SUM_IDENTITY_RTOL):
        problems.append(f"mean of sum prior {prior_mean!r} != "
                        f"sum of prior means {summed_priors!r}")
    return problems


def matches_sum_tree(result, sum_result) -> list[str]:
    """A pnorm:1 tree, max-normalized, equals the sum-product tree."""
    if len(result.likelihoods) != len(sum_result.likelihoods):
        return ["likelihood count differs from the sum tree"]
    for j, (a, b) in enumerate(zip(result.likelihoods, sum_result.likelihoods)):
        if a.offset != b.offset or len(a) != len(b):
            return [f"likelihood {j} support differs from the sum tree"]
        gap = float(np.max(np.abs(a.values / a.values.max()
                                  - b.values / b.values.max())))
        if not gap <= PNORM_TREE_ATOL:
            return [f"likelihood {j} differs from the sum tree by {gap!r}"]
    return []


def matches(out, ref, rel: float) -> list[str]:
    """Same support as ``ref`` and within rel * peak(ref) at every index."""
    if out.offset != ref.offset or len(out) != len(ref):
        return ["support differs from the reference"]
    gap = float(np.max(np.abs(out.values - ref.values)))
    if not gap <= rel * ref.values.max():
        return [f"differs from the reference by {gap!r} "
                f"(peak {float(ref.values.max())!r}, allowed {rel!r} x peak)"]
    return []


def fast_matches_naive(fast, naive) -> list[str]:
    return matches(fast, naive, FAST_VS_NAIVE_REL)


def pnorm1_matches_fast(pnorm1, fast) -> list[str]:
    return matches(pnorm1, fast, PNORM1_VS_FAST_REL)


def piecewise_upper_bound(estimate, exact, k_left: int, k_right: int) -> list[str]:
    """estimate <= exact * t(m)^(1/p_min) + slack * peak at every index.

    Only the upper side is checked. Estimates below the exact value are a
    known defect, reported as ``pair.piecewise.under_frac``.
    """
    if estimate.offset != exact.offset or len(estimate) != len(exact):
        return ["support differs from the exact max-convolution"]
    ex = exact.values
    t = pair_counts(k_left, k_right).astype(float)
    limit = ex * t ** (1.0 / DEFAULT_P_LADDER[0]) + PIECEWISE_SLACK * ex.max()
    excess = estimate.values - limit
    worst = int(np.argmax(excess))
    if not excess[worst] <= 0.0:
        return [f"estimate {float(estimate.values[worst])!r} above bound "
                f"{float(limit[worst])!r} at index {worst}"]
    return []
