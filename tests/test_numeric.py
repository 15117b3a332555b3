import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import convtree.fftconv as fftconv
from convtree import (
    DegenerateDistributionError,
    PiecewiseConfig,
    Pmf,
    delta,
    fast_convolve,
    generate_uniform_pair,
    max_convolve_auto,
    max_convolve_normalized,
    max_convolve_piecewise,
    naive_max_convolve,
    normalize_max,
    numeric_max_operator,
    p_norm_convolve,
    p_norm_operator,
    pair_counts,
)


def random_pair(k, seed):
    return generate_uniform_pair(k, seed)


# ---------------------------------------------------------------------------
# Config and argument validation

def test_default_config():
    cfg = PiecewiseConfig()
    assert cfg.p_ladder == (4.0, 32.0, 64.0)
    assert cfg.tau == 0.6


@pytest.mark.parametrize("ladder,tau", [
    ((4.0,), 0.6),
    ((32.0, 4.0), 0.6),
    ((4.0, 4.0), 0.6),
    ((0.5, 4.0), 0.6),
    ((4.0, 32.0), 0.0),
    ((4.0, 32.0), 1.5),
    ((4.0, float("inf")), 0.6),
])
def test_config_rejects_bad_values(ladder, tau):
    with pytest.raises(ValueError):
        PiecewiseConfig(ladder, tau)


@pytest.mark.parametrize("p", [0.0, 0.5, -3.0, float("nan"), float("inf")])
def test_invalid_exponent(p):
    left, right = Pmf([1.0, 0.5]), Pmf([0.5, 1.0])
    with pytest.raises(ValueError, match="invalid exponent"):
        p_norm_convolve(left, right, p)
    with pytest.raises(ValueError, match="invalid exponent"):
        max_convolve_normalized(left, right, p)


@pytest.mark.parametrize("op", [
    lambda l, r: max_convolve_normalized(l, r, 8.0),
    lambda l, r: max_convolve_piecewise(l, r),
])
def test_degenerate_input_raises(op):
    with pytest.raises(DegenerateDistributionError):
        op(Pmf([0.0, 0.0]), Pmf([1.0]))


# ---------------------------------------------------------------------------
# p-norm convolution

def test_p1_reduces_to_standard_convolution():
    for seed in range(5):
        left, right = random_pair(97, (seed, 97))
        pn = p_norm_convolve(left, right, 1.0)
        fc = fast_convolve(left, right)
        assert pn.offset == fc.offset
        assert np.abs(pn.values - fc.values).max() <= 1e-12


def test_large_values_do_not_overflow():
    # 1e5 ** 64 overflows; max-normalizing before the power keeps it finite
    left, right = random_pair(256, 4)
    plain = p_norm_convolve(left, right, 64.0)
    scaled = p_norm_convolve(Pmf(1e5 * left.values), Pmf(1e5 * right.values), 64.0)
    assert np.all(np.isfinite(scaled.values))
    assert_allclose(scaled.values, 1e10 * plain.values, rtol=1e-12, atol=0.0)


def test_max_normalized_inputs_keep_their_bits():
    # a peak of exactly 1.0 is neither divided out nor multiplied back
    left, right = (normalize_max(x) for x in random_pair(64, 9))
    powered = fast_convolve(Pmf(np.square(np.square(left.values))),
                            Pmf(np.square(np.square(right.values))),
                            refine_below=1e-6)
    out = p_norm_convolve(left, right, 4.0)
    assert out.values.tobytes() == np.power(powered.values, 0.25).tobytes()


def test_delta_pair_any_p():
    for p in (1.0, 3.5, 64.0):
        out = p_norm_convolve(delta(0), delta(0), p)
        assert_allclose(out.values, [1.0], atol=1e-15)


def test_p32_close_to_max_convolution():
    left, right = Pmf([0.5, 1.0]), Pmf([1.0, 0.25])
    out = p_norm_convolve(left, right, 32.0)
    expected = np.array([0.5, 1.0, 0.25])
    ratio = out.values / expected
    assert np.all(ratio >= 1.0 - 1e-9)
    assert np.all(ratio <= 2 ** (1 / 32) + 1e-9)


def test_norm_sandwich_on_random_pairs():
    # max-conv <= p-norm <= max-conv * t^(1/p), p-norm nonincreasing in p
    for seed in range(4):
        left, right = random_pair(64, (seed, 64))
        exact = naive_max_convolve(left, right).values
        slack = 1e-9 * exact.max()
        t_root = {p: pair_counts(64, 64) ** (1.0 / p) for p in (2.0, 8.0, 64.0)}
        previous = None
        for p in (2.0, 8.0, 64.0):
            est = p_norm_convolve(left, right, p).values
            assert np.all(est >= exact - slack)
            assert np.all(est <= exact * t_root[p] + slack)
            if previous is not None:
                assert np.all(previous >= est - slack)
            previous = est


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=8),
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=8),
    st.sampled_from([1.0, 2.0, 4.0, 16.0]),
)
@settings(max_examples=60, deadline=None)
def test_upper_bound_property(lv, rv, p):
    left, right = Pmf(lv), Pmf(rv)
    exact = naive_max_convolve(left, right).values
    est = p_norm_convolve(left, right, p).values
    assert np.all(est >= exact - 1e-9 * exact.max())


def test_pair_counts():
    assert_array_equal(pair_counts(3, 5), [1, 2, 3, 3, 3, 2, 1])
    assert_array_equal(pair_counts(1, 4), [1, 1, 1, 1])
    assert pair_counts(1024, 1024).max() == 1024


# ---------------------------------------------------------------------------
# Batched pairs

def mixed_pairs():
    """Mixed lengths and offsets, length-1 operands, both argument orders
    and one operand object shared by several pairs."""
    rng = np.random.default_rng(17)
    shared = Pmf(0.01 + rng.random(48), offset=4)
    pmfs = [Pmf(0.01 + rng.random(k), offset=int(rng.integers(-6, 6)))
            for k in (1, 3, 48, 100, 257)]
    return ([(shared, p) for p in pmfs] + [(p, shared) for p in pmfs[:3]]
            + [(shared, shared), (pmfs[0], pmfs[0]), (pmfs[3], pmfs[4])])


@pytest.mark.parametrize("block_floats", [fftconv.BLOCK_FLOATS, 3000, 1])
@pytest.mark.parametrize("operator, one_pair", [
    (numeric_max_operator(), max_convolve_piecewise),
    (numeric_max_operator(PiecewiseConfig((2.0, 3.0, 16.0), 0.5)),
     lambda l, r: max_convolve_piecewise(l, r, PiecewiseConfig((2.0, 3.0, 16.0), 0.5))),
    (p_norm_operator(1.0), lambda l, r: p_norm_convolve(l, r, 1.0)),
    (p_norm_operator(4.0), lambda l, r: p_norm_convolve(l, r, 4.0)),
], ids=["piecewise", "piecewise-custom", "pnorm1", "pnorm4"])
def test_batched_pairs_are_bit_identical_to_one_pair_calls(
        monkeypatch, block_floats, operator, one_pair):
    monkeypatch.setattr(fftconv, "BLOCK_FLOATS", block_floats)
    pairs = mixed_pairs()
    for (left, right), got in zip(pairs, operator.apply_many(pairs)):
        one = one_pair(left, right)
        assert got.offset == one.offset
        assert got.values.tobytes() == one.values.tobytes()


def test_batched_piecewise_rejects_a_degenerate_operand():
    pairs = [(Pmf([1.0, 0.5]), Pmf([0.5])), (Pmf([0.0, 0.0]), Pmf([1.0]))]
    with pytest.raises(DegenerateDistributionError):
        numeric_max_operator().apply_many(pairs)


# ---------------------------------------------------------------------------
# Normalized (underflow-guarded) estimate

def test_normalized_scale_equivariance():
    # values bounded away from zero keep every p-th power above FFT round-off;
    # below that floor the output is noise-dominated by design
    rng = np.random.default_rng(123)
    left = Pmf(0.5 + 0.5 * rng.random(50))
    right = Pmf(0.5 + 0.5 * rng.random(50))
    base = max_convolve_normalized(left, right, 16.0)
    scaled = max_convolve_normalized(Pmf(7.5 * left.values), right, 16.0)
    assert_allclose(scaled.values, 7.5 * base.values, rtol=1e-9)


def test_normalized_delta_product():
    out = max_convolve_normalized(delta(0, 0.5), delta(0, 0.5), 64.0)
    assert_array_equal(out.values, [0.25])


def test_normalized_ratio_band_at_large_exact_values():
    # where the exact result is >= 0.6 of its peak, the p=64 estimate is
    # within a factor of 1.2 both ways
    for seed in range(3):
        left, right = random_pair(128, (seed, 128))
        exact = naive_max_convolve(left, right).values
        est = max_convolve_normalized(left, right, 64.0).values
        band = exact >= 0.6 * exact.max()
        ratio = est[band] / exact[band]
        assert np.all(ratio >= 1 / 1.2)
        assert np.all(ratio <= 1.2)


# ---------------------------------------------------------------------------
# Piecewise ladder

def test_piecewise_identical_to_top_rung_when_all_trusted():
    # flat inputs keep every normalized p=64 value above tau
    left = Pmf(np.ones(16))
    right = Pmf(np.ones(16))
    top = max_convolve_normalized(left, right, 64.0)
    assert np.all(top.values / top.values.max() >= 0.6)
    stitched = max_convolve_piecewise(left, right, PiecewiseConfig((4.0, 32.0, 64.0)))
    assert_array_equal(stitched.values, top.values)


def test_piecewise_matches_two_way_selection_rule():
    left, right = random_pair(64, 99)
    cfg = PiecewiseConfig((4.0, 32.0), 0.6)
    stitched = max_convolve_piecewise(left, right, cfg)
    low = max_convolve_normalized(left, right, 4.0)
    high = max_convolve_normalized(left, right, 32.0)
    scale = left.values.max() * right.values.max()
    trusted = high.values / scale >= 0.6
    expected = np.where(trusted, high.values, low.values)
    assert_array_equal(stitched.values, expected)


def test_piecewise_commutes_exactly():
    # operand order is canonicalized internally, so this holds bitwise
    left, right = random_pair(40, 31)
    ab = max_convolve_piecewise(left, right)
    ba = max_convolve_piecewise(right, left)
    assert ab.offset == ba.offset
    assert_array_equal(ab.values, ba.values)


def test_piecewise_delta_exact():
    for cfg in (None, PiecewiseConfig((2.0, 8.0), 0.3)):
        out = max_convolve_piecewise(delta(1, 0.4), delta(2, 0.5), cfg)
        assert out.offset == 3
        assert_array_equal(out.values, [0.2])


def test_piecewise_median_error_small():
    left, right = random_pair(512, 2024)
    exact = naive_max_convolve(left, right)
    est = max_convolve_piecewise(left, right)
    scaled = exact.values / exact.values.max()
    keep = scaled >= 1e-3
    err = np.abs(est.values[keep] - exact.values[keep]) / exact.values[keep]
    assert np.median(err) <= 0.1


# ---------------------------------------------------------------------------
# Auto dispatch

def test_auto_small_input_is_exact():
    left, right = random_pair(8, 5)
    auto = max_convolve_auto(left, right)
    assert_array_equal(auto.values, naive_max_convolve(left, right).values)


def test_auto_delta_operand_is_exact():
    x = Pmf(np.random.default_rng(0).random(100))
    auto = max_convolve_auto(delta(0, 0.5), x)
    assert_array_equal(auto.values, naive_max_convolve(delta(0, 0.5), x).values)


def test_auto_large_input_uses_piecewise():
    left, right = random_pair(64, 17)
    auto = max_convolve_auto(left, right)
    assert_array_equal(auto.values, max_convolve_piecewise(left, right).values)
