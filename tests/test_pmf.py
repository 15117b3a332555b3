import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from convtree import (
    DegenerateDistributionError,
    Pmf,
    delta,
    naive_convolve,
    naive_max_convolve,
    normalize_max,
    normalize_sum,
    relative_absolute_error,
)

mass_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1, max_size=16,
)


def positive_somewhere(values):
    return max(values) > 0


# ---------------------------------------------------------------------------
# Pmf construction

def test_pmf_basic_fields():
    p = Pmf([1.0, 2.0], offset=-3)
    assert len(p) == 2
    assert p.offset == -3
    assert_array_equal(p.outcomes, [-3, -2])


@pytest.mark.parametrize("bad", [[], [-1.0], [np.nan], [np.inf], [[1.0, 2.0]]])
def test_pmf_rejects_invalid_values(bad):
    with pytest.raises(ValueError):
        Pmf(bad)


def test_argmax_outcome_breaks_ties_low():
    assert Pmf([0.5, 1.0, 1.0], offset=4).argmax_outcome() == 5


def test_dict_round_trip():
    p = Pmf([0.0, 0.25, 1.0], offset=-2)
    q = Pmf.from_dict(p.to_dict())
    assert q.offset == p.offset
    assert_array_equal(q.values, p.values)


@pytest.mark.parametrize("key", ["offset", "values"])
def test_from_dict_names_a_missing_key(key):
    data = Pmf([0.5, 1.0]).to_dict()
    del data[key]
    with pytest.raises(ValueError, match=f"no '{key}' key"):
        Pmf.from_dict(data)


@pytest.mark.parametrize("data, kind", [(5, "int"), (None, "NoneType"), ([1.0], "list"),
                                        ("offset", "str")])
def test_from_dict_rejects_a_non_object(data, kind):
    with pytest.raises(ValueError, match=f"must be an object, got {kind}"):
        Pmf.from_dict(data)


@pytest.mark.parametrize("values", [{"a": 1}, [True, False], [1.0, True], ["1.5"],
                                    [[1.0]], "1.0", 1.0, None])
def test_from_dict_rejects_values_that_are_not_an_array_of_numbers(values):
    # numpy would raise TypeError on an object and take bools or numeric
    # strings for masses
    with pytest.raises(ValueError, match="'values' must be an array of numbers"):
        Pmf.from_dict({"offset": 0, "values": values})


def test_from_dict_accepts_integer_masses():
    assert_array_equal(Pmf.from_dict({"offset": 0, "values": [1, 0, 2]}).values,
                       [1.0, 0.0, 2.0])


@pytest.mark.parametrize("offset", [1.5, -0.25, True, False, "3", None,
                                    float("nan"), float("inf"), [1]])
def test_from_dict_rejects_a_non_integer_offset(offset):
    with pytest.raises(ValueError, match="offset"):
        Pmf.from_dict({"offset": offset, "values": [1.0]})


@pytest.mark.parametrize("offset, expected", [(3, 3), (-2, -2), (2.0, 2), (-0.0, 0),
                                              (np.int64(4), 4)])
def test_from_dict_accepts_an_integral_offset(offset, expected):
    p = Pmf.from_dict({"offset": offset, "values": [1.0]})
    assert p.offset == expected
    assert type(p.offset) is int


@pytest.mark.parametrize("offset", [1.5, -0.25, True, False, "3", None,
                                    float("nan"), float("inf"), [1], np.float64(2.5)])
def test_constructor_rejects_a_non_integer_offset(offset):
    # int() would truncate or coerce these into a shifted support
    with pytest.raises(ValueError, match="offset"):
        Pmf([1.0], offset)


@pytest.mark.parametrize("offset, expected", [(3, 3), (-2, -2), (2.0, 2), (-0.0, 0),
                                              (np.int64(4), 4), (np.int32(-5), -5),
                                              (np.float64(6.0), 6)])
def test_constructor_accepts_an_integral_offset(offset, expected):
    p = Pmf([1.0], offset)
    assert p.offset == expected
    assert type(p.offset) is int


def test_delta():
    d = delta(3, mass=0.5)
    assert d.offset == 3
    assert_array_equal(d.values, [0.5])


# ---------------------------------------------------------------------------
# Normalization

@pytest.mark.parametrize("values,expected", [
    ([2.0, 2.0], [0.5, 0.5]),
    ([1.0], [1.0]),
    ([1.0, 3.0], [0.25, 0.75]),
])
def test_normalize_sum(values, expected):
    out = normalize_sum(Pmf(values, offset=7))
    assert_allclose(out.values, expected, atol=1e-15)
    assert out.offset == 7
    assert abs(out.values.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("values,expected", [
    ([0.2, 0.4], [0.5, 1.0]),
    ([1.0], [1.0]),
    ([3.0, 1.0, 2.0], [1.0, 1 / 3, 2 / 3]),
])
def test_normalize_max(values, expected):
    out = normalize_max(Pmf(values))
    assert_allclose(out.values, expected, atol=1e-15)
    assert out.values.max() == 1.0


@pytest.mark.parametrize("normalize", [normalize_sum, normalize_max])
def test_normalize_rejects_all_zero(normalize):
    with pytest.raises(DegenerateDistributionError):
        normalize(Pmf([0.0, 0.0]))


# ---------------------------------------------------------------------------
# Naive convolution oracle

def test_naive_convolve_binomial():
    out = naive_convolve(Pmf([1.0, 1.0]), Pmf([1.0, 1.0]))
    assert_array_equal(out.values, [1.0, 2.0, 1.0])


def test_naive_convolve_delta_identity():
    x = Pmf([0.3, 0.2, 0.5], offset=2)
    out = naive_convolve(delta(0), x)
    assert out.offset == 2
    assert_allclose(out.values, x.values, atol=1e-15)


def test_naive_convolve_derived_example():
    # direct double sum: [.5*.25, .5*.75+.5*.25, .5*.75]
    out = naive_convolve(Pmf([0.5, 0.5]), Pmf([0.25, 0.75]))
    assert_allclose(out.values, [0.125, 0.5, 0.375], atol=1e-15)


def test_naive_convolve_shape_and_offset():
    out = naive_convolve(Pmf([1.0] * 3, offset=-1), Pmf([1.0] * 5, offset=4))
    assert len(out) == 7
    assert out.offset == 3


def test_autocorrelation_symmetric_about_zero():
    p = Pmf([0.1, 0.7, 0.2, 0.4], offset=3)
    mirrored = Pmf(p.values[::-1], -(p.offset + len(p) - 1))  # distribution of -X
    out = naive_convolve(p, mirrored)
    assert out.offset == -(len(p) - 1)
    assert_allclose(out.values, out.values[::-1], atol=1e-15)


# ---------------------------------------------------------------------------
# Naive max-convolution oracle

def test_naive_max_convolve_delta_identity():
    x = Pmf([0.3, 0.2, 0.5])
    out = naive_max_convolve(delta(0), x)
    assert_array_equal(out.values, x.values)


def test_naive_max_convolve_derived_example():
    # exhaustive pairs: m=0: .5*1; m=1: max(.5*.25, 1*1); m=2: 1*.25
    out = naive_max_convolve(Pmf([0.5, 1.0]), Pmf([1.0, 0.25]))
    assert_array_equal(out.values, [0.5, 1.0, 0.25])


def test_naive_max_convolve_zero_annihilates():
    out = naive_max_convolve(Pmf([0.0, 0.0]), Pmf([0.5, 0.5]))
    assert_array_equal(out.values, np.zeros(3))


def test_naive_max_convolve_scalar_scales_and_shifts():
    x = Pmf([0.3, 0.2, 0.5], offset=1)
    out = naive_max_convolve(delta(4, mass=0.5), x)
    assert out.offset == 5
    assert_allclose(out.values, 0.5 * x.values, atol=1e-15)


@given(mass_lists, mass_lists)
@settings(max_examples=60)
def test_max_conv_below_sum_conv_and_both_commute(lv, rv):
    left, right = Pmf(lv, 1), Pmf(rv, -2)
    conv = naive_convolve(left, right)
    mconv = naive_max_convolve(left, right)
    assert np.all(mconv.values <= conv.values + 1e-15)
    flipped = naive_max_convolve(right, left)
    assert flipped.offset == mconv.offset
    assert_allclose(flipped.values, mconv.values, atol=1e-15)
    flipped_sum = naive_convolve(right, left)
    assert_allclose(flipped_sum.values, conv.values, atol=1e-15)


# ---------------------------------------------------------------------------
# Relative absolute error

def test_error_zero_when_equal():
    p = Pmf([0.5, 1.0])
    assert_array_equal(relative_absolute_error(p, p), [0.0, 0.0])


def test_error_definition():
    err = relative_absolute_error(Pmf([1.1]), Pmf([1.0]))
    assert_allclose(err, [0.1], atol=1e-12)
    err = relative_absolute_error(Pmf([0.9, 2.0]), Pmf([1.0, 1.0]))
    assert_allclose(err, [0.1, 1.0], atol=1e-12)


def test_error_undefined_where_exact_zero():
    err = relative_absolute_error(Pmf([0.5, 0.1]), Pmf([1.0, 0.0]))
    assert np.isnan(err[1])
    assert err[0] == 0.5


def test_error_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        relative_absolute_error(Pmf([1.0]), Pmf([1.0, 2.0]))
    with pytest.raises(ValueError, match="shape mismatch"):
        relative_absolute_error(Pmf([1.0], offset=0), Pmf([1.0], offset=1))
