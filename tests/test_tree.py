import tracemalloc
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

import convtree.fftconv as fftconv
import convtree.pmf as pmf_module
import convtree.tree as tree_module
from bruteforce import brute_force_tree, normalize_mode
from convtree import (
    ConvolutionOperator,
    DegenerateDistributionError,
    InconsistentEvidenceError,
    Pmf,
    convolution_tree,
    delta,
    generate_subset_sum_instance,
    naive_max_operator,
    normalize_sum,
    numeric_max_operator,
    operator_from_name,
    p_norm_operator,
    standard_operator,
    tree_cost_estimate,
)


def random_priors(n, k, seed, offsets=None):
    rng = np.random.default_rng(seed)
    offsets = offsets or [0] * n
    return [Pmf(0.05 + rng.random(k), off) for off in offsets]


def random_evidence(priors, seed):
    lo = sum(p.offset for p in priors)
    hi = sum(p.offset + len(p) - 1 for p in priors)
    rng = np.random.default_rng(seed)
    return Pmf(0.05 + rng.random(hi - lo + 1), lo)


def assert_matches_brute_force(priors, evidence, operator, mode, tol):
    result = convolution_tree(priors, evidence, operator)
    lik, sum_prior, sum_lo = brute_force_tree(priors, evidence, mode)
    for j, prior in enumerate(priors):
        got = result.likelihoods[j]
        assert got.offset == prior.offset
        assert len(got) == len(prior)
        expected = normalize_mode(lik[j], mode)
        assert_allclose(got.values, expected, atol=tol)
        if mode == "max":
            assert int(np.argmax(got.values)) == int(np.argmax(expected))
    assert result.sum_prior.offset == sum_lo
    assert_allclose(result.sum_prior.values, normalize_mode(sum_prior, mode),
                    atol=tol)


# ---------------------------------------------------------------------------
# Worked examples

def test_single_variable_tree():
    prior = Pmf([0.2, 0.3, 0.5], offset=3)
    evidence = Pmf([0.0, 0.5, 0.25], offset=3)
    result = convolution_tree([prior], evidence, standard_operator())
    assert result.likelihoods[0].offset == 3
    # prior * narrowed evidence: [0, .15, .125], normalized by its sum
    assert_allclose(result.likelihoods[0].values, [0.0, 6 / 11, 5 / 11], atol=1e-12)
    assert_allclose(result.sum_prior.values, [0.2, 0.3, 0.5], atol=1e-12)


def test_two_variable_worked_example():
    # evidence says the sum is exactly 1; joint events are (0,1) and (1,0),
    # so X1 is distributed as [A0*B1, A1*B0] = [.05, .45], normalized
    priors = [Pmf([0.5, 0.5]), Pmf([0.9, 0.1])]
    evidence = delta(1)
    result = convolution_tree(priors, evidence, standard_operator())
    assert_allclose(result.likelihoods[0].values, [0.1, 0.9], atol=1e-12)
    assert_allclose(result.likelihoods[1].values, [0.9, 0.1], atol=1e-12)


@pytest.mark.parametrize("n,k", [(2, 2), (2, 5), (3, 4), (4, 4), (5, 3)])
def test_sum_product_matches_enumeration(n, k):
    priors = random_priors(n, k, seed=n * 100 + k)
    evidence = random_evidence(priors, seed=n * 100 + k + 1)
    assert_matches_brute_force(priors, evidence, standard_operator(), "sum", 1e-9)


@pytest.mark.parametrize("n,k", [(2, 2), (2, 5), (3, 4), (4, 4), (5, 3)])
def test_max_product_matches_enumeration(n, k):
    priors = random_priors(n, k, seed=n * 10 + k)
    evidence = random_evidence(priors, seed=n * 10 + k + 1)
    assert_matches_brute_force(priors, evidence, naive_max_operator(), "max", 1e-12)


def test_tree_handles_nonzero_offsets():
    priors = random_priors(3, 3, seed=5, offsets=[-2, 4, 1])
    evidence = random_evidence(priors, seed=6)
    assert_matches_brute_force(priors, evidence, standard_operator(), "sum", 1e-9)
    assert_matches_brute_force(priors, evidence, naive_max_operator(), "max", 1e-12)


@pytest.mark.parametrize("lo_pad, hi_pad", [(3, 4), (-2, 0), (0, -3), (-1, -2)],
                         ids=["past-both-ends", "from-inside-low", "to-inside-high",
                              "inside"])
def test_evidence_beyond_or_within_reachable_sums(lo_pad, hi_pad):
    # evidence reaching lo_pad outcomes below and hi_pad above the reachable
    # sums (a negative pad starts or stops it inside them)
    priors = random_priors(3, 3, seed=12, offsets=[1, -2, 0])
    lo = sum(p.offset for p in priors) - lo_pad
    hi = sum(p.offset + len(p) - 1 for p in priors) + hi_pad
    evidence = Pmf(0.05 + np.random.default_rng(13).random(hi - lo + 1), lo)
    assert_matches_brute_force(priors, evidence, standard_operator(), "sum", 1e-9)
    assert_matches_brute_force(priors, evidence, naive_max_operator(), "max", 1e-12)


def test_padding_is_neutral():
    priors = random_priors(3, 4, seed=9)
    evidence = random_evidence(priors, seed=10)
    base = convolution_tree(priors, evidence, standard_operator())
    padded = convolution_tree(priors + [delta(0)], evidence, standard_operator())
    for got, expected in zip(padded.likelihoods[:3], base.likelihoods):
        assert_allclose(got.values, expected.values, atol=1e-12)


def test_prior_scaling_leaves_likelihoods_unchanged():
    priors = random_priors(4, 4, seed=20)
    evidence = random_evidence(priors, seed=21)
    for operator, tol in ((standard_operator(), 1e-9),
                          (naive_max_operator(), 1e-12)):
        base = convolution_tree(priors, evidence, operator)
        rescaled = [Pmf(17.0 * priors[1].values, priors[1].offset) if j == 1 else p
                    for j, p in enumerate(priors)]
        other = convolution_tree(rescaled, evidence, operator)
        for got, expected in zip(other.likelihoods, base.likelihoods):
            assert_allclose(got.values, expected.values, atol=tol)
            assert got.argmax_outcome() == expected.argmax_outcome()


def test_sum_prior_is_normalized():
    priors = random_priors(5, 6, seed=31)
    evidence = random_evidence(priors, seed=32)
    result = convolution_tree(priors, evidence, standard_operator())
    assert abs(result.sum_prior.values.sum() - 1.0) <= 1e-9
    result = convolution_tree(priors, evidence, naive_max_operator())
    assert result.sum_prior.values.max() == 1.0


def test_numeric_max_agrees_with_naive_max_argmax():
    # flat random instances have meaningless argmaxes; use a peaked one
    from convtree import generate_subset_sum_instance

    instance = generate_subset_sum_instance(8, 64, seed=0)
    naive = convolution_tree(instance.priors, instance.sum_likelihood,
                             naive_max_operator())
    numeric = convolution_tree(instance.priors, instance.sum_likelihood,
                               numeric_max_operator())
    matches = sum(
        a.argmax_outcome() == b.argmax_outcome()
        for a, b in zip(naive.likelihoods, numeric.likelihoods)
    )
    assert matches >= 7  # >= 90% of 8 leaves


def test_p_norm_operator_interpolates():
    # p=1 behaves like sum-product up to normalization convention
    priors = random_priors(2, 3, seed=44)
    evidence = random_evidence(priors, seed=45)
    sum_result = convolution_tree(priors, evidence, standard_operator())
    pnorm_result = convolution_tree(priors, evidence, p_norm_operator(1.0))
    for got, expected in zip(pnorm_result.likelihoods, sum_result.likelihoods):
        assert_allclose(normalize_sum(got).values, expected.values, atol=1e-9)


@pytest.mark.parametrize("name", ["sum", "max-naive", "max-numeric", "pnorm:2"])
def test_operator_from_name_round_trip(name):
    assert operator_from_name(name).name == name


# ---------------------------------------------------------------------------
# Layer calls

def per_pair(operator):
    """The same operator without apply_rows: one apply call per pair."""
    return ConvolutionOperator(operator.name, operator.apply, operator.normalization)


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("name", ["sum", "max-naive", "max-numeric", "pnorm:1", "pnorm:4"])
def test_layer_calls_are_bit_identical_to_per_pair_calls(n, name):
    # point masses pad n up to 8, so every layer mixes operand lengths
    rng = np.random.default_rng(n)
    priors = [Pmf(0.05 + rng.random(int(rng.integers(2, 9))), int(rng.integers(-3, 4)))
              for _ in range(n)]
    evidence = random_evidence(priors, n)
    operator = operator_from_name(name)
    batched = convolution_tree(priors, evidence, operator)
    single = convolution_tree(priors, evidence, per_pair(operator))
    for got, one in zip([*batched.likelihoods, batched.sum_prior],
                        [*single.likelihoods, single.sum_prior]):
        assert got.offset == one.offset
        assert got.values.tobytes() == one.values.tobytes()


def test_one_operator_call_per_layer():
    stock = standard_operator()
    calls = []

    def apply_rows(left, right, window=None):
        calls.append(np.prod(np.broadcast_shapes(left.shape[:-1], right.shape[:-1])))
        return stock.apply_rows(left, right, window=window)

    operator = ConvolutionOperator("sum", stock.apply, "sum", apply_rows=apply_rows)
    priors = random_priors(5, 4, 2)
    convolution_tree(priors, random_evidence(priors, 2), operator)
    assert calls == [4, 2, 1, 2, 4, 8]  # forward leaves-first, reverse root-first


def test_positional_operator_has_no_layer_call():
    operator = ConvolutionOperator("sum", standard_operator().apply, "sum")
    assert operator.apply_rows is None
    with pytest.raises(TypeError):
        ConvolutionOperator("sum", operator.apply, "sum", None)


def window_cases():
    """(left, right, window) triples: a reverse layer's parent-against-
    siblings layout, windows touching either end of the output, a peaked
    pair that the p-norm refine rewrites, and a one-pair call."""
    rng = np.random.default_rng(8)
    w = 24
    message, children = 0.05 + rng.random((3, 1, 2 * w - 1)), 0.05 + rng.random((3, 2, w))
    peaked = np.exp(-40.0 * rng.random((4, 50)))
    return [(message, children[:, ::-1, ::-1], (w - 1, w)),
            (message, children, (0, w)),
            (message, children, (2 * w - 2, w)),
            (peaked, peaked[::-1], (30, 40)),
            (0.05 + rng.random(9), 0.05 + rng.random(5), (0, 13))]


@pytest.mark.parametrize("block_floats", [fftconv.BLOCK_FLOATS, 2000, 1])
@pytest.mark.parametrize("name", ["sum", "pnorm:1", "pnorm:4", "max-numeric", "per-pair"])
def test_windowed_layer_call_is_the_full_calls_slice_and_peak(monkeypatch, block_floats,
                                                              name):
    monkeypatch.setattr(fftconv, "BLOCK_FLOATS", block_floats)
    if name == "per-pair":  # the fallback for an operator without apply_rows
        apply_rows = partial(tree_module._per_pair_rows, naive_max_operator().apply)
    else:
        apply_rows = operator_from_name(name).apply_rows
    for left, right, (lo, n) in window_cases():
        full = apply_rows(left, right)
        kept, peak = apply_rows(left, right, window=(lo, n))
        assert kept.shape == full.shape[:-1] + (n,)
        assert kept.tobytes() == full[..., lo:lo + n].tobytes()
        assert np.shape(peak) == full.shape[:-1]
        assert np.asarray(peak).tobytes() == full.max(axis=-1).tobytes()


@pytest.mark.parametrize("bad, message", [(np.nan, "must be finite"),
                                          (-1.0, "must be nonnegative")])
def test_operator_output_that_is_no_mass_still_raises(bad, message):
    # the likelihood rows are validated once as a whole, not once per Pmf
    stock = standard_operator()

    def apply_rows(left, right, window=None):
        if window is None:
            return stock.apply_rows(left, right)
        kept, peak = stock.apply_rows(left, right, window=window)
        kept = kept.copy()
        kept[..., 0] *= bad
        return kept, peak

    operator = ConvolutionOperator("sum", stock.apply, "sum", apply_rows=apply_rows)
    priors = random_priors(5, 4, 3)
    with pytest.raises(ValueError, match=message):
        convolution_tree(priors, random_evidence(priors, 3), operator)


def test_tree_builds_no_pmf_per_message(monkeypatch):
    # one validation of all likelihood rows at once plus one for the root;
    # none per likelihood, layer row or for the evidence
    instance = generate_subset_sum_instance(256, 16, 0)
    calls = []
    as_values = pmf_module._as_values

    def counting_as_values(values):
        calls.append(1)
        return as_values(values)

    monkeypatch.setattr(pmf_module, "_as_values", counting_as_values)
    convolution_tree(instance.priors, instance.sum_likelihood, standard_operator())
    assert len(calls) == 2


@pytest.mark.parametrize("name", ["sum", "max-naive", "max-numeric"])
@pytest.mark.parametrize("tail", [[], [Pmf([1.0]), Pmf([1.0])]], ids=["leaf", "node"])
def test_evidence_on_zero_padding_only_raises(name, tail):
    # every prior is padded to length 5, and the second has mass at 0 only:
    # the sum 4 needs the first prior at its padded outcome 4, and with two
    # point masses added, sum 5 needs their parent node at padded outcomes
    priors = [Pmf([1.0, 1.0]), Pmf([1.0, 0.0, 0.0, 0.0, 0.0]), *tail]
    evidence = delta(4 + len(tail) // 2)
    with pytest.raises(InconsistentEvidenceError):
        convolution_tree(priors, evidence, operator_from_name(name))


def _peak_bytes(priors, evidence, operator):
    tracemalloc.start()
    try:
        convolution_tree(priors, evidence, operator)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_layer_batching_bounds_transient_memory(monkeypatch):
    instance = generate_subset_sum_instance(64, 1024, 0)
    args = (instance.priors, instance.sum_likelihood)
    operator = numeric_max_operator()
    batched = _peak_bytes(*args, operator)
    assert batched <= 1.25 * _peak_bytes(*args, per_pair(operator))
    # the block cap is what holds it there: whole layers in one block peak higher
    monkeypatch.setattr(fftconv, "BLOCK_FLOATS", 1 << 40)
    assert _peak_bytes(*args, operator) > batched


# ---------------------------------------------------------------------------
# Error handling

def test_all_zero_prior_raises():
    with pytest.raises(DegenerateDistributionError):
        convolution_tree([Pmf([0.0, 0.0]), Pmf([1.0])], delta(0),
                         standard_operator())


def test_unreachable_evidence_raises():
    priors = [Pmf([0.5, 0.5]), Pmf([0.5, 0.5])]  # sums reach 0..2
    with pytest.raises(InconsistentEvidenceError):
        convolution_tree(priors, delta(10), standard_operator())


def test_evidence_below_reachable_sums_raises():
    priors = [Pmf([0.5, 0.5]), Pmf([0.5, 0.5])]  # sums reach 0..2
    with pytest.raises(InconsistentEvidenceError, match="^inconsistent evidence"):
        convolution_tree(priors, Pmf([1.0, 1.0, 1.0], -4), standard_operator())


@pytest.mark.parametrize("name", ["sum", "max-naive", "max-numeric", "pnorm:1", "pnorm:4"])
def test_all_zero_evidence_raises(name):
    priors = [Pmf([0.5, 0.5]), Pmf([0.5, 0.5])]
    with pytest.raises(DegenerateDistributionError):
        convolution_tree(priors, Pmf([0.0, 0.0, 0.0]), operator_from_name(name))


def test_unknown_normalization_rejected():
    with pytest.raises(ValueError, match="unknown normalization 'Sum'"):
        ConvolutionOperator("sum", standard_operator().apply, "Sum")


def test_zero_mass_evidence_over_reachable_sums_raises():
    priors = [Pmf([0.5, 0.5]), Pmf([0.5, 0.5])]
    evidence = Pmf([0.0, 0.0, 0.0, 1.0])  # only sum=3 allowed, unreachable
    with pytest.raises(InconsistentEvidenceError):
        convolution_tree(priors, evidence, standard_operator())


def test_empty_priors_rejected():
    with pytest.raises(ValueError):
        convolution_tree([], delta(0), standard_operator())


# ---------------------------------------------------------------------------
# Cost model

def test_tree_cost_examples():
    assert tree_cost_estimate(1, 100) == 0.0
    assert tree_cost_estimate(2, 2) == 8.0


def test_tree_cost_beats_naive_quadratic():
    naive_cost = 256.0 ** 2 * 1024.0 ** 2
    assert naive_cost / tree_cost_estimate(256, 1024) >= 1800.0


def test_tree_cost_rejects_bad_args():
    with pytest.raises(ValueError):
        tree_cost_estimate(0, 4)
