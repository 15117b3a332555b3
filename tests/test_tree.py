import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

import convtree.fftconv as fftconv
import convtree.numeric as numeric
import convtree.pmf as pmf_module
import convtree.tree as tree_module
from bruteforce import (
    brute_force_tree,
    circular_convolution,
    normalize_mode,
    spy_span_pairs,
    spy_transforms,
)
from convtree import (
    ConvolutionOperator,
    DegenerateDistributionError,
    InconsistentEvidenceError,
    Pmf,
    convolution_tree,
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
    evidence = Pmf([1.0], 1)
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


def zero_ended_priors(seed):
    """Priors with exact-zero runs at both ends, at one end only and
    inside, at nonzero offsets: (zeros before, masses, zeros after) each."""
    rng = np.random.default_rng(seed)
    priors = []
    for before, mass, after in [(2, 3, 1), (0, 2, 3), (3, 1, 2), (1, 4, 0), (2, 3, 2)]:
        values = np.zeros(before + mass + after)
        values[before:before + mass] = 0.05 + rng.random(mass)
        priors.append(values)
    priors[-1][3] = 0.0  # an interior zero
    return [Pmf(values, int(rng.integers(-3, 4))) for values in priors]


@pytest.mark.parametrize("seed", [0, 1])
def test_priors_with_zero_ends_match_brute_force(seed):
    # the tree cuts each prior to its mass and pads its outputs back
    priors = zero_ended_priors(seed)
    evidence = random_evidence(priors, seed + 7)
    assert_matches_brute_force(priors, evidence, standard_operator(), "sum", 1e-9)
    assert_matches_brute_force(priors, evidence, naive_max_operator(), "max", 1e-12)
    for name in ("sum", "max-naive", "max-numeric", "pnorm:1"):
        result = convolution_tree(priors, evidence, operator_from_name(name))
        for got, prior in zip(result.likelihoods, priors):
            assert (got.offset, len(got)) == (prior.offset, len(prior))
            assert np.all(got.values[prior.values == 0.0] == 0.0)
        assert result.sum_prior.offset == sum(p.offset for p in priors)
        assert len(result.sum_prior) == sum(len(p) for p in priors) - len(priors) + 1


@pytest.mark.parametrize("name", ["sum", "max-naive", "max-numeric", "pnorm:1"])
def test_all_zero_prior_among_zero_ended_ones_raises(name):
    priors = zero_ended_priors(0)
    priors[2] = Pmf(np.zeros(4), 3)
    with pytest.raises(DegenerateDistributionError):
        convolution_tree(priors, random_evidence(priors, 3), operator_from_name(name))


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


# Lengths in no order, 1 to 40, few enough joint events to enumerate
RAGGED_LENGTHS = {3: [7, 40, 1], 5: [2, 40, 1, 9, 3], 6: [3, 1, 40, 2, 11, 2],
                  7: [2, 40, 1, 3, 5, 1, 4], 9: [1, 3, 40, 2, 1, 4, 2, 1, 3]}


def ragged_priors(n):
    """Priors of the lengths RAGGED_LENGTHS[n] at nonzero offsets, each
    longer than 2 with exact-zero runs before its mass, after it or both."""
    rng = np.random.default_rng(n)
    priors = []
    for i, length in enumerate(RAGGED_LENGTHS[n]):
        values = 0.05 + rng.random(length)
        values[:(length + 1) // 4 if i % 3 != 1 else 0] = 0.0
        values[length - ((length + 2) // 5 if i % 3 != 0 else 0):] = 0.0
        priors.append(Pmf(values, int(rng.integers(-5, 6))))
    return priors


def point_evidence(priors):
    """A point mass on the middle of the sums that the priors' masses reach."""
    lo = sum(p.offset + int(np.flatnonzero(p.values)[0]) for p in priors)
    hi = sum(p.offset + int(np.flatnonzero(p.values)[-1]) for p in priors)
    return Pmf([1.0], (lo + hi) // 2)


@pytest.mark.parametrize("n", sorted(RAGGED_LENGTHS))
def test_ragged_priors_match_brute_force(n):
    priors = ragged_priors(n)
    evidence = random_evidence(priors, n)
    assert_matches_brute_force(priors, evidence, standard_operator(), "sum", 1e-9)
    assert_matches_brute_force(priors, evidence, naive_max_operator(), "max", 1e-12)
    # pnorm:<p> is sum-product over the p-th powers of priors and evidence,
    # rooted
    norms = {}
    for p in (1.0, 4.0):
        powered, _, _ = brute_force_tree([Pmf(x.values ** p, x.offset) for x in priors],
                                         Pmf(evidence.values ** p, evidence.offset), "sum")
        norms[p] = [x ** (1.0 / p) for x in powered]
        result = convolution_tree(priors, evidence, p_norm_operator(p))
        for got, want in zip(result.likelihoods, norms[p]):
            assert_allclose(got.values, normalize_mode(want, "max"), atol=1e-9)
    # every rung of max-numeric lies between the exact max-product and the
    # p = 4 norm, so each of its likelihoods, divided by its peak, lies
    # between the exact one over the p = 4 peak and the p = 4 one over the
    # exact peak, up to the p = 4 rung's round-off (eps ** (1/4) of the
    # peak per pair, about 1e-4)
    exact, _, _ = brute_force_tree(priors, evidence, "max")
    numeric = convolution_tree(priors, evidence, numeric_max_operator())
    for got, low, high in zip(numeric.likelihoods, exact, norms[4.0]):
        assert np.all(got.values >= low / high.max() - 1e-3)
        assert np.all(got.values <= high / low.max() + 1e-3)
        assert np.all(got.values[low == 0.0] == 0.0)


@pytest.mark.parametrize("n", sorted(RAGGED_LENGTHS))
@pytest.mark.parametrize("name", ["sum", "max-naive", "max-numeric", "pnorm:1", "pnorm:4"])
def test_ragged_layer_calls_are_bit_identical_to_per_pair_calls(monkeypatch, n, name):
    # under random evidence and under point evidence, whose messages near
    # the root are narrow enough that layer calls cut some pairs to their
    # spans
    priors = ragged_priors(n)
    span_pairs = spy_span_pairs(monkeypatch)
    for evidence in (random_evidence(priors, n), point_evidence(priors)):
        assert_solves_bit_identically(priors, evidence, operator_from_name(name))
    assert (len(span_pairs) > 0) == (name != "max-naive")


@pytest.mark.parametrize("name", ["sum", "max-numeric"])
def test_ragged_priors_cost_like_equal_ones(name):
    # 255 priors of length 2 and one of 4096 against 256 of length 18, the
    # same total support: a layer as wide as its widest node would make the
    # first about 20 to 30 times slower
    rng = np.random.default_rng(23)
    ragged = [Pmf(0.05 + rng.random(2)) for _ in range(255)] + [Pmf(0.05 + rng.random(4096))]
    twin = [Pmf(0.05 + rng.random(18)) for _ in range(256)]
    operator = operator_from_name(name)
    best = []
    for priors in (ragged, twin):
        evidence = random_evidence(priors, 24)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            convolution_tree(priors, evidence, operator)
            times.append(time.perf_counter() - start)
        best.append(min(times))
    assert best[0] <= 4.0 * best[1]


def fuzzed_zero_ended_priors(seed):
    """3 to 20 priors of lengths 1 to 30 at offsets -3 to 3, with interior
    zeros and, at random, a run of zeros at either end."""
    rng = np.random.default_rng(seed)
    priors = []
    for _ in range(int(rng.integers(3, 21))):
        length = int(rng.integers(1, 31))
        values = rng.random(length)
        values[rng.random(length) < 0.3] = 0.0
        if rng.random() < 0.5:
            values[:int(rng.integers(0, max(1, length // 3)))] = 0.0
        if rng.random() < 0.5:
            values[length - int(rng.integers(0, max(1, length // 3))):] = 0.0
        if not values.any():
            values[int(rng.integers(0, length))] = 1.0
        priors.append(Pmf(values, int(rng.integers(-3, 4))))
    return priors


def test_narrower_child_is_read_over_its_own_reach():
    # nine ragged priors, point evidence 2% into the sums their masses
    # reach. A reverse segment computes every child's message as wide as
    # its widest child; a narrower child's columns past its reach hold its
    # parent's values past the parent's reach. Divided by their peak, the
    # child's own columns went to zero and the ladder raised
    # DegenerateDistributionError. Read over its reach alone, the child's
    # peak is below the zero-mass floor: the far-tail raise of ROADMAP item 10
    priors = fuzzed_zero_ended_priors(221)
    assert len(priors) == 9
    first = sum(p.offset + int(np.flatnonzero(p.values)[0]) for p in priors)
    with pytest.raises(InconsistentEvidenceError):
        convolution_tree(priors, Pmf([1.0], first + 2), numeric_max_operator())


def test_span_rule_keeps_round_off_zero_ends_whole(monkeypatch):
    # max-numeric messages of this solve end in exact-zero runs of up to a
    # quarter of a row; a pair is cut to its spans only when they make at
    # most half of its outputs, so none of these is, and layer calls and
    # one-pair calls alike keep the transforms and bits of whole rows
    instance = generate_subset_sum_instance(64, 32, 2)
    stock = numeric_max_operator()
    runs = []

    def apply_rows(left, right, window):
        for x in (left, right):
            nonzero = x.reshape(-1, x.shape[-1]) != 0.0
            run = np.maximum(nonzero.argmax(axis=1), nonzero[:, ::-1].argmax(axis=1))
            runs.append(run.max() / x.shape[-1])
        return stock.apply_rows(left, right, window=window)

    operator = ConvolutionOperator(stock.name, stock.apply, "max", apply_rows=apply_rows)
    span_pairs = spy_span_pairs(monkeypatch)
    assert_solves_bit_identically(instance.priors, instance.sum_likelihood, operator)
    assert 0.2 < max(runs) < 0.5
    assert span_pairs == []


def test_padding_is_neutral():
    priors = random_priors(3, 4, seed=9)
    evidence = random_evidence(priors, seed=10)
    base = convolution_tree(priors, evidence, standard_operator())
    padded = convolution_tree(priors + [Pmf([1.0])], evidence, standard_operator())
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


def test_sum_tree_on_priors_whose_sums_overflow():
    # each prior's row sum overflows to inf; its peak does not
    priors = [Pmf([1e308, 1e308]), Pmf([1e308, 5e307])]
    result = convolution_tree(priors, Pmf([1.0, 1.0, 1.0]), standard_operator())
    assert_allclose(result.likelihoods[0].values, [0.5, 0.5], rtol=0, atol=1e-15)
    assert_allclose(result.likelihoods[1].values, [2 / 3, 1 / 3], rtol=0, atol=1e-15)
    assert_allclose(result.sum_prior.values, [1 / 3, 1 / 2, 1 / 6], rtol=0, atol=1e-15)


def test_sum_tree_on_evidence_whose_sum_overflows():
    priors = [Pmf([0.5, 0.5]), Pmf([0.5, 0.5])]
    result = convolution_tree(priors, Pmf([1e308] * 3), standard_operator())
    for got in result.likelihoods:
        assert_allclose(got.values, [0.5, 0.5], rtol=0, atol=1e-15)


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


@pytest.mark.parametrize("name", ["sum", "max-naive", "max-numeric", "pnorm:2",
                                  "pnorm:2.50000001", "pnorm:1234567"])
def test_operator_from_name_round_trip(name):
    operator = operator_from_name(name)
    assert operator.name == name
    if name.startswith("pnorm:"):  # and so does the exponent, bit for bit
        p = float(name.removeprefix("pnorm:"))
        assert p_norm_operator(p).name == name
        assert operator.apply_rows.keywords == {"p": p}


# ---------------------------------------------------------------------------
# Layer calls

def per_pair(operator):
    """The same operator without apply_rows: one apply call per pair."""
    return ConvolutionOperator(operator.name, operator.apply, operator.normalization)


def assert_solves_bit_identically(priors, evidence, operator):
    """The operator's layer calls and its per-pair fallback give the same
    bits."""
    batched = convolution_tree(priors, evidence, operator)
    single = convolution_tree(priors, evidence, per_pair(operator))
    for got, one in zip([*batched.likelihoods, batched.sum_prior],
                        [*single.likelihoods, single.sum_prior]):
        assert got.offset == one.offset
        assert got.values.tobytes() == one.values.tobytes()


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("name", ["sum", "max-naive", "max-numeric", "pnorm:1", "pnorm:4"])
def test_layer_calls_are_bit_identical_to_per_pair_calls(monkeypatch, n, name):
    # point masses pad n up to 8, so every layer mixes operand lengths. In
    # the second instance the last prior is 48 long, 6x the others; sorted
    # first, it is paired with the longest short prior, zero-padded to it,
    # and no pair is narrow enough to be cut to its spans.
    rng = np.random.default_rng(n)
    priors = [Pmf(0.05 + rng.random(int(rng.integers(2, 9))), int(rng.integers(-3, 4)))
              for _ in range(n)]
    long_padded = priors[:-1] + [Pmf(0.05 + rng.random(48), 2)]
    operator = operator_from_name(name)
    span_pairs = spy_span_pairs(monkeypatch)
    for instance in (priors, long_padded):
        evidence = random_evidence(instance, n)
        span_pairs.clear()
        assert_solves_bit_identically(instance, evidence, operator)
    assert span_pairs == []  # of the long-padded solves


@pytest.mark.parametrize("name", ["sum", "max-naive", "max-numeric", "pnorm:4"])
def test_every_row_the_tree_passes_in_peaks_at_one(name):
    # one scale for every message, whatever the operator's normalization;
    # ragged priors at offsets, none of them peaking at 1 themselves
    stock = operator_from_name(name)
    stock_rows = stock.apply_rows or partial(tree_module._per_pair_rows, stock.apply)
    peaks = []

    def apply_rows(left, right, window):
        peaks.extend(np.concatenate([left.max(axis=-1).ravel(), right.max(axis=-1).ravel()]))
        return stock_rows(left, right, window=window)

    operator = ConvolutionOperator(name, stock.apply, stock.normalization,
                                   apply_rows=apply_rows)
    rng = np.random.default_rng(11)
    priors = [Pmf(3.0 * rng.random(int(rng.integers(2, 9))), int(rng.integers(-3, 4)))
              for _ in range(7)]
    unscaled = random_evidence(priors, 11)
    evidence = Pmf(5.0 * unscaled.values, unscaled.offset)
    spied = convolution_tree(priors, evidence, operator)
    assert len(peaks) > 0 and set(peaks) == {1.0}
    plain = convolution_tree(priors, evidence, stock)
    for got, one in zip([*spied.likelihoods, spied.sum_prior],
                        [*plain.likelihoods, plain.sum_prior]):
        assert got.values.tobytes() == one.values.tobytes()


@pytest.mark.parametrize("name", ["sum", "max-naive", "max-numeric", "pnorm:1", "pnorm:4"])
def test_tree_writes_to_no_input_that_peaks_at_one(name):
    # rows that peak at exactly 1.0 pass _rescaled as themselves, so the
    # tree then holds the caller's own arrays (a Pmf wraps a float array
    # without a copy): solving leaves them as they were, and solving again
    # gives the same bits
    rows = np.array([[0.5, 1.0, 0.25], [1.0, 0.0, 0.75]])
    assert tree_module._rescaled(rows) is rows
    rng = np.random.default_rng(13)
    arrays = [rng.random(int(rng.integers(2, 9))) for _ in range(5)]
    arrays.append(rng.random(sum(map(len, arrays)) - len(arrays) + 1))  # the evidence
    for values in arrays:
        values /= values.max()
    before = [values.copy() for values in arrays]
    priors, evidence = [Pmf(values) for values in arrays[:-1]], Pmf(arrays[-1])
    assert all(p.values is values for p, values in zip(priors + [evidence], arrays))
    operator = operator_from_name(name)
    first = convolution_tree(priors, evidence, operator)
    for values, was in zip(arrays, before):
        assert values.tobytes() == was.tobytes()
    second = convolution_tree(priors, evidence, operator)
    for got, one in zip([*first.likelihoods, first.sum_prior],
                        [*second.likelihoods, second.sum_prior]):
        assert got.values.tobytes() == one.values.tobytes()


def test_one_operator_call_per_segment():
    # each call as (rows, full output width a + b - 1, keep-window). The
    # priors, held longest first as (9, 5, 4, 3, 2) and three point masses,
    # make forward segments as wide as 9, 4, 2 and 1 at the leaves, 13 and
    # 2 above them and 18 at the root, each keeping its longest reach; the
    # reverse layers keep each child's (w - 1, w)
    stock = standard_operator()
    calls = []

    def apply_rows(left, right, window):
        rows = np.prod(np.broadcast_shapes(left.shape[:-1], right.shape[:-1]))
        calls.append((rows, left.shape[-1] + right.shape[-1] - 1, window))
        return stock.apply_rows(left, right, window=window)

    operator = ConvolutionOperator("sum", stock.apply, "sum", apply_rows=apply_rows)
    rng = np.random.default_rng(2)
    priors = [Pmf(0.05 + rng.random(k)) for k in (2, 9, 3, 4, 5)]
    convolution_tree(priors, random_evidence(priors, 2), operator)
    assert calls == [(1, 17, (0, 13)), (1, 7, (0, 6)), (1, 3, (0, 2)), (1, 1, (0, 1)),
                     (1, 25, (0, 18)), (1, 3, (0, 2)), (1, 35, (0, 19)),
                     (2, 36, (17, 18)), (2, 30, (12, 13)), (2, 3, (1, 2)),
                     (2, 21, (8, 9)), (2, 9, (3, 4)), (2, 3, (1, 2)), (2, 1, (0, 1))]
    # priors of one length make one segment per layer, besides a segment
    # of padding pairs: (rows, full output width) of every call
    for n, want in ((8, [(4, 11), (2, 21), (1, 41), (2, 61), (4, 31), (8, 16)]),
                    (5, [(3, 11), (1, 1), (2, 21), (1, 41), (2, 46), (4, 31), (6, 16),
                         (2, 1)])):
        calls.clear()
        priors = [Pmf(0.05 + rng.random(6)) for _ in range(n)]
        convolution_tree(priors, random_evidence(priors, n), operator)
        assert [call[:2] for call in calls] == want


def test_positional_operator_has_no_layer_call():
    operator = ConvolutionOperator("sum", standard_operator().apply, "sum")
    assert operator.apply_rows is None
    with pytest.raises(TypeError):
        ConvolutionOperator("sum", operator.apply, "sum", None)


def window_cases():
    """(left, right, window) triples: a reverse layer's parent-against-
    siblings layout, windows touching either end of the output, a peaked
    pair that the p-norm refine rewrites, a one-pair call, a peaked
    reverse layer whose runs of small outputs cross both window edges, so
    the refine sums pieces that reach out of the window, narrow rows in
    that layout, span pairs, under windows that cut into their span
    outputs or miss them, and long-by-short pairs (``fftconv._valid_part``)
    of l = 2s - 1 and l > 2s - 1 columns under windows inside, straddling
    and outside their valid columns s - 1..l - 1."""
    rng = np.random.default_rng(8)
    w = 24
    message, children = 0.05 + rng.random((3, 1, 2 * w - 1)), 0.05 + rng.random((3, 2, w))
    peaked = np.exp(-40.0 * rng.random((4, 50)))
    cases = [(message, children[:, ::-1, ::-1], (w - 1, w)),
             (message, children, (0, w)),
             (message, children, (2 * w - 2, w)),
             (peaked, peaked[::-1], (30, 40)),
             (0.05 + rng.random(9), 0.05 + rng.random(5), (0, 13))]

    def bump(width, shape):
        # a Gaussian of sigma 1.2 centred within one column of the middle
        centre = (width - 1) / 2 + rng.uniform(-1.0, 1.0, shape)
        return np.exp(-0.5 * ((np.arange(width) - centre) / 1.2) ** 2)

    # every output row is small from its first column to a few past w - 1,
    # and from a few before 2w - 2 to its last
    message, children = bump(2 * w - 1, (3, 1, 1)), bump(w, (3, 2, 1))
    cases.append((message, children[:, ::-1, ::-1], (w - 1, w)))
    # the same runs under windows that take parts of an edge and of the
    # valid columns, and all of them
    cases.append((message, children[:, ::-1, ::-1], (w - 6, w)))
    cases.append((message, children[:, ::-1, ::-1], (3, 3 * w - 6)))

    # long-by-short pairs: l = 2s - 1 in the reverse layout, and l > 2s - 1
    # with the shorter row first
    s = 30
    message, children = 0.05 + rng.random((2, 1, 2 * s - 1)), 0.05 + rng.random((2, 2, s))
    cases += [(message, children, window)
              for window in ((35, 10), (20, 20), (50, 20), (0, 20), (65, 20), (10, 70))]
    short, long = 0.05 + rng.random((3, 25)), 0.05 + rng.random((3, 80))
    cases += [(short, long, window) for window in ((30, 40), (10, 90), (85, 19))]

    # span pairs: narrow parent messages against narrow children, one
    # message dense, under windows that cut into the span outputs of the
    # narrow pairs (columns 150..348, and 350..548 against the reversed
    # children) or miss them
    w = 400
    message, children = np.zeros((3, 1, 2 * w - 1)), np.zeros((3, 2, w))
    message[..., 100:200] = 0.05 + rng.random((3, 1, 100))
    message[2] = 0.05 + rng.random(2 * w - 1)
    children[..., 50:150] = np.exp(-40.0 * rng.random((3, 2, 100)))
    return cases + [(message, children, (200, 100)),
                    (message, children, (w - 1, w)),
                    (message, children[:, ::-1, ::-1], (w - 1, w)),
                    (message, children[:, ::-1, ::-1], (300, 100))]


def row_peaks(name, left, right, full):
    """The peak each row pair's kernel returns: for a dense long-by-short
    pair of a stock operator, the peak of its circular transform at
    ``fft_length(l)`` as its kernel scales it (``fftconv._convolve_rows``),
    and for any other pair the peak of its full row."""
    peaks = np.asarray(full.max(axis=-1))
    if name == "per-pair":
        return peaks
    lead = full.shape[:-1]
    left, right = (np.broadcast_to(x, lead + x.shape[-1:]) for x in (left, right))
    for index in np.ndindex(lead):
        a, b = sorted((left[index], right[index]), key=len, reverse=True)
        if fftconv._valid_part(a.size, b.size) is None or fftconv._one_pair_spans(a, b):
            continue
        if name.startswith("max-numeric"):  # the top rung peaks at 1 times the input scale
            peaks[index] = a.max() * b.max()
            continue
        p = 4.0 if name == "pnorm:4" else 1.0
        x, y = (a / a.max(), b / b.max()) if p > 1 else (a, b)
        peak = circular_convolution(x, y, (p,), fftconv.fft_length(a.size)).max()
        peaks[index] = peak if p == 1.0 else np.power(peak, 1.0 / p) * (a.max() * b.max())
    return peaks


@pytest.mark.parametrize("block_floats", [fftconv.BLOCK_FLOATS, 2000, 1])
@pytest.mark.parametrize("name", ["sum", "pnorm:1", "pnorm:4", "max-numeric",
                                  "max-numeric-cut", "per-pair"])
def test_windowed_layer_call_is_the_full_calls_slice_and_peak(monkeypatch, block_floats,
                                                              name):
    # at the stock VALID_FROM and with every long-by-short pair above it
    monkeypatch.setattr(fftconv, "BLOCK_FLOATS", block_floats)
    if name == "per-pair":  # the fallback for an operator without apply_rows
        apply_rows = partial(tree_module._per_pair_rows, naive_max_operator().apply)
    elif name == "max-numeric-cut":  # every pair with a narrower cut takes it
        monkeypatch.setattr(numeric, "CUT_FROM", 1)
        apply_rows = numeric_max_operator().apply_rows
    else:
        apply_rows = operator_from_name(name).apply_rows
    for floor in (fftconv.VALID_FROM, 1):
        monkeypatch.setattr(fftconv, "VALID_FROM", floor)
        for left, right, (lo, n) in window_cases():
            full, full_peak = apply_rows(left, right,
                                         window=(0, left.shape[-1] + right.shape[-1] - 1))
            kept, peak = apply_rows(left, right, window=(lo, n))
            assert kept.shape == full.shape[:-1] + (n,)
            assert kept.tobytes() == full[..., lo:lo + n].tobytes()
            assert np.shape(peak) == full.shape[:-1]
            want = row_peaks(name, left, right, full)
            for got in (peak, full_peak):
                assert np.asarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("block_floats", [fftconv.BLOCK_FLOATS, 2000, 1])
@pytest.mark.parametrize("name", ["sum", "max-numeric", "max-numeric-cut", "pnorm:1",
                                  "pnorm:4"])
def test_four_step_rows_keep_their_one_pair_bits(monkeypatch, block_floats, name):
    # from FOUR_STEP_FROM = 64 on, the transforms of these layers, up to
    # 1,200 points, take four steps, and the smallest take one rfft; every
    # row keeps the kept columns and the peak of its one-pair call
    monkeypatch.setattr(fftconv, "BLOCK_FLOATS", block_floats)
    monkeypatch.setattr(fftconv, "FOUR_STEP_FROM", 64)
    if name == "max-numeric-cut":  # every pair with a narrower cut takes it
        monkeypatch.setattr(numeric, "CUT_FROM", 1)
        apply_rows = numeric_max_operator().apply_rows
    else:
        apply_rows = operator_from_name(name).apply_rows
    lengths = spy_transforms(monkeypatch, lambda stack: stack.shape[-1])
    for left, right, window in window_cases():
        got, peak = apply_rows(left, right, window=window)
        lead = got.shape[:-1]
        left, right = (np.broadcast_to(x, lead + x.shape[-1:]) for x in (left, right))
        for index in np.ndindex(lead):
            one, one_peak = apply_rows(left[index], right[index], window=window)
            assert one.tobytes() == got[index].tobytes()
            assert np.asarray(one_peak).tobytes() == peak[index].tobytes()
    assert min(lengths) < fftconv.FOUR_STEP_FROM <= max(lengths)


@pytest.mark.parametrize("bad, message", [(np.nan, "must be finite"),
                                          (-1.0, "must be nonnegative")])
def test_operator_output_that_is_no_mass_still_raises(bad, message):
    # the likelihood rows are validated once as a whole, not once per Pmf;
    # only the reverse layers (windows past column 0) are corrupted
    stock = standard_operator()

    def apply_rows(left, right, window):
        kept, peak = stock.apply_rows(left, right, window=window)
        if window[0] > 0:
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
    evidence = Pmf([1.0], 4 + len(tail) // 2)
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
        convolution_tree([Pmf([0.0, 0.0]), Pmf([1.0])], Pmf([1.0]),
                         standard_operator())


def test_unreachable_evidence_raises():
    priors = [Pmf([0.5, 0.5]), Pmf([0.5, 0.5])]  # sums reach 0..2
    with pytest.raises(InconsistentEvidenceError):
        convolution_tree(priors, Pmf([1.0], 10), standard_operator())


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
        convolution_tree([], Pmf([1.0]), standard_operator())


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
