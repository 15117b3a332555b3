import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from convtree import (
    Pmf,
    delta,
    fast_convolve,
    max_convolve_auto,
    max_convolve_piecewise,
    naive_convolve,
    naive_max_convolve,
    padded_length,
)


@pytest.mark.parametrize("n,expected", [
    (1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (4096, 4096), (4097, 8192),
])
def test_padded_length(n, expected):
    assert padded_length(n) == expected


@pytest.mark.parametrize("kl,kr,expected", [
    (8, 8, "naive"),  # 64 products tie the 16 * log2(16) transform work
    (4096, 4096, "fast"),
    (1, 1, "naive"),
    (1, 7, "naive"),
    (1, 8192, "naive"),
    (64, 64, "fast"),
])
def test_choose_naive_or_fast(kl, kr, expected):
    """max_convolve_auto takes the naive path or the FFT-based piecewise one."""
    rng = np.random.default_rng(kl * 10007 + kr)
    left, right = Pmf(rng.random(kl)), Pmf(rng.random(kr))
    reference = {"naive": naive_max_convolve,
                 "fast": max_convolve_piecewise}[expected]
    auto = max_convolve_auto(left, right)
    assert_array_equal(auto.values, reference(left, right).values)


# ---------------------------------------------------------------------------

def test_fast_convolve_binomial():
    out = fast_convolve(Pmf([1.0, 1.0]), Pmf([1.0, 1.0]))
    assert_allclose(out.values, [1.0, 2.0, 1.0], atol=1e-12)


def test_fast_convolve_delta_identity():
    x = Pmf([0.3, 0.2, 0.5], offset=-1)
    out = fast_convolve(delta(0), x)
    assert out.offset == -1
    assert_allclose(out.values, x.values, atol=1e-12)


def test_fast_matches_naive_on_random_input():
    rng = np.random.default_rng(7)
    left = Pmf(rng.random(257), offset=2)
    right = Pmf(rng.random(257), offset=-5)
    fast = fast_convolve(left, right)
    naive = naive_convolve(left, right)
    assert fast.offset == naive.offset
    assert len(fast) == 257 + 257 - 1
    scale = naive.values.max()
    assert np.abs(fast.values - naive.values).max() <= 1e-9 * scale


def test_fast_convolve_commutes():
    rng = np.random.default_rng(3)
    left = Pmf(rng.random(40))
    right = Pmf(rng.random(23))
    ab = fast_convolve(left, right)
    ba = fast_convolve(right, left)
    assert ab.offset == ba.offset
    assert np.abs(ab.values - ba.values).max() <= 1e-12


def test_fast_convolve_conserves_mass_product():
    rng = np.random.default_rng(11)
    left = Pmf(rng.random(100))
    right = Pmf(rng.random(300))
    out = fast_convolve(left, right)
    expected = left.values.sum() * right.values.sum()
    assert abs(out.values.sum() - expected) <= 1e-9 * expected


def test_fast_convolve_clamps_round_off_to_nonnegative():
    rng = np.random.default_rng(5)
    values = rng.random(64)
    values[5:40] = 0.0
    out = fast_convolve(Pmf(values), Pmf(values))
    assert np.all(out.values >= 0.0)


def test_refine_recomputes_tiny_outputs_exactly():
    a = np.zeros(64)
    a[0] = 1.0
    a[-1] = 1e-13
    left = Pmf(a)
    plain = fast_convolve(left, left)
    refined = fast_convolve(left, left, refine_below=1e-6)
    # structural zeros and the 1e-26 cross term are exact after refinement
    assert refined.values[1] == 0.0
    assert refined.values[63] == 2e-13
    assert refined.values[126] == 1e-26
    # the plain FFT path cannot represent values this far below the peak
    assert plain.values[126] != 1e-26
    # untouched (large) outputs are identical to the plain path
    assert refined.values[0] == plain.values[0]


def test_refine_handles_all_zero_input():
    out = fast_convolve(Pmf([0.0, 0.0]), Pmf([0.0, 0.0, 0.0]), refine_below=1e-6)
    assert_array_equal(out.values, np.zeros(4))
