import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import convtree.fftconv as fftconv
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
    narrow_to_support,
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
    """The same operator without apply_many: one apply call per pair."""
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

    def apply_many(pairs):
        calls.append(len(pairs))
        return stock.apply_many(pairs)

    operator = ConvolutionOperator("sum", stock.apply, "sum", apply_many=apply_many)
    priors = random_priors(5, 4, 2)
    convolution_tree(priors, random_evidence(priors, 2), operator)
    assert calls == [4, 2, 1, 2, 4, 8]  # forward leaves-first, reverse root-first


def test_positional_operator_has_no_layer_call():
    operator = ConvolutionOperator("sum", standard_operator().apply, "sum")
    assert operator.apply_many is None
    with pytest.raises(TypeError):
        ConvolutionOperator("sum", operator.apply, "sum", None)


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


def test_zero_mass_evidence_over_reachable_sums_raises():
    priors = [Pmf([0.5, 0.5]), Pmf([0.5, 0.5])]
    evidence = Pmf([0.0, 0.0, 0.0, 1.0])  # only sum=3 allowed, unreachable
    with pytest.raises(InconsistentEvidenceError):
        convolution_tree(priors, evidence, standard_operator())


def test_empty_priors_rejected():
    with pytest.raises(ValueError):
        convolution_tree([], delta(0), standard_operator())


# ---------------------------------------------------------------------------
# narrow_to_support

def test_narrow_plain_slice():
    wide = Pmf(np.arange(1.0, 9.0), offset=-2)  # covers [-2, 5]
    target = Pmf([1.0, 1.0, 1.0], offset=0)
    out = narrow_to_support(wide, target)
    assert out.offset == 0
    assert_array_equal(out.values, [3.0, 4.0, 5.0])


def test_narrow_identity_up_to_normalization():
    wide = Pmf([2.0, 4.0, 2.0], offset=1)
    target = Pmf([1.0, 1.0, 1.0], offset=1)
    out = narrow_to_support(wide, target, normalization="max")
    assert_allclose(out.values, [0.5, 1.0, 0.5], atol=1e-15)


def test_narrow_zero_fills_missing_outcomes():
    wide = Pmf([1.0, 2.0], offset=0)  # covers 0..1, target wants 0..2
    target = Pmf([1.0, 1.0, 1.0], offset=0)
    out = narrow_to_support(wide, target)
    assert_array_equal(out.values, [1.0, 2.0, 0.0])


def test_narrow_disjoint_raises():
    with pytest.raises(InconsistentEvidenceError):
        narrow_to_support(Pmf([1.0, 1.0], offset=0), Pmf([1.0], offset=5))


def test_narrow_rejects_unknown_normalization():
    with pytest.raises(ValueError, match="unknown normalization 'Sum'"):
        narrow_to_support(Pmf([2.0, 4.0]), Pmf([1.0, 1.0]), normalization="Sum")


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
