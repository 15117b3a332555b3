import math
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import convtree.fftconv as fftconv
import convtree.numeric as numeric
from bruteforce import circular_convolution, narrow_rows, spy_span_pairs, spy_transforms
from convtree import (
    DegenerateDistributionError,
    PiecewiseConfig,
    Pmf,
    fast_convolve,
    generate_uniform_pair,
    max_convolve_auto,
    max_convolve_normalized,
    max_convolve_piecewise,
    naive_max_convolve,
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
    assert cfg.p_ladder == (4.0, 64.0)
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
    left, right = (Pmf(x.values / x.values.max()) for x in random_pair(64, 9))
    powered = p_norm_convolve(Pmf(np.square(np.square(left.values))),
                              Pmf(np.square(np.square(right.values))), 1.0)
    out = p_norm_convolve(left, right, 4.0)
    assert out.values.tobytes() == np.power(powered.values, 0.25).tobytes()


def test_one_row_max_normalized_has_the_rows_bits():
    # one row takes scalar steps; a row peaking at exactly 1.0 comes back
    # as itself, and an all-zero row is divided by 1.0
    rng = np.random.default_rng(13)
    rows = rng.random((4, 50)) * np.array([[3.0], [1e-300], [1.0], [0.0]])
    rows[2] /= rows[2].max()
    divided, peaks = numeric._max_normalized(rows)
    for row, want, peak in zip(rows, divided, peaks):
        got, got_peak = numeric._max_normalized(row)
        assert got.tobytes() == want.tobytes()
        assert np.asarray(got_peak).tobytes() == peak.tobytes()
    row = rows[2]
    same, peak = numeric._max_normalized(row)
    assert same is row and peak == 1.0


def test_peak_one_operands_are_neither_copied_nor_written():
    # tree messages peak at exactly 1.0: _max_normalized hands them on as
    # they are, so every kernel must leave its operands untouched
    rng = np.random.default_rng(12)
    left, right = rng.random((3, 40)), rng.random((3, 2, 25))
    left /= left.max(axis=-1, keepdims=True)
    right /= right.max(axis=-1, keepdims=True)
    same, peak = numeric._max_normalized(left)
    assert same is left
    assert_array_equal(peak, 1.0)
    kernels = [p_norm_operator(4.0).apply_rows, numeric_max_operator().apply_rows]
    expected = [kernel(left.copy()[:, None], right.copy(), window=(5, 30))
                for kernel in kernels]
    before = left.tobytes(), right.tobytes()
    left.flags.writeable = right.flags.writeable = False  # a write raises
    for kernel, (want_out, want_peak) in zip(kernels, expected):
        out, peak = kernel(left[:, None], right, window=(5, 30))
        assert out.tobytes() == want_out.tobytes()
        assert peak.tobytes() == want_peak.tobytes()
    assert (left.tobytes(), right.tobytes()) == before


def test_delta_pair_any_p():
    for p in (1.0, 3.5, 64.0):
        out = p_norm_convolve(Pmf([1.0]), Pmf([1.0]), p)
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


def best_of_3(fn, *args) -> float:
    best = np.inf
    for _ in range(3):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("kind", ["peaked", "comb"])
def test_p1_small_values_cost_like_uniform_inputs(kind):
    # refining outputs far below the peak must not turn quadratic: almost
    # every output of a narrow Gaussian pair is small, and half the outputs
    # of a comb pair (every other bin zero) are structural zeros
    k = 16384
    rng = np.random.default_rng(15)
    if kind == "peaked":
        bins = np.arange(k)
        gaussian = np.exp(-0.5 * ((bins - k / 2) / 3.0) ** 2)
        left = right = Pmf(gaussian / gaussian.sum())
    else:
        values = rng.random((2, k))
        values[:, 1::2] = 0.0
        left, right = Pmf(values[0]), Pmf(values[1])
    uniform = generate_uniform_pair(k, 15)
    ratio = (best_of_3(p_norm_convolve, left, right, 1.0)
             / best_of_3(p_norm_convolve, *uniform, 1.0))
    assert ratio <= 10.0


def gaussian(k, mean, sigma):
    """A discretized Gaussian on k bins, normalized to sum 1; its tails run
    through the subnormal range to exact zeros about 38.6 sigma out."""
    dens = np.exp(-0.5 * ((np.arange(k) - mean) / sigma) ** 2)
    return dens / dens.sum()


def test_p1_subnormal_tails_cost_like_normal_ones():
    # the refine sums a row with subnormal products scaled by powers of
    # two, so the pair costs what the same pair scaled into the normal
    # range costs
    left = Pmf(gaussian(4096, 2048.0, 20.0))
    scaled = Pmf(np.ldexp(left.values, 500))
    ratio = (best_of_3(p_norm_convolve, left, left, 1.0)
             / best_of_3(p_norm_convolve, scaled, scaled, 1.0))
    assert ratio <= 1.6


@given(st.integers(0, 2**32 - 1), st.sampled_from([300, 400, 500]))
@settings(max_examples=72, deadline=None)
def test_p1_is_homogeneous_in_powers_of_two_on_subnormal_tails(seed, s):
    # Gaussians of sigma 2-8 on 2048 bins, whose tails pass through the
    # subnormal range; both operands take the same 2^s, as equal-length
    # operands are ordered by their bytes. Every nonzero output of the
    # scaled pair is at least 2^(2s - 1074), normal, so the check rounds
    # once; the unscaled pair's subnormal outputs must be rounded once too
    rng = np.random.default_rng(seed)
    left, right = (gaussian(2048, rng.uniform(0.0, 2047.0), rng.uniform(2.0, 8.0))
                   for _ in range(2))
    scaled = p_norm_convolve(Pmf(np.ldexp(left, s)), Pmf(np.ldexp(right, s)), 1.0)
    got = np.ldexp(scaled.values, -2 * s)
    assert got.tobytes() == p_norm_convolve(Pmf(left), Pmf(right), 1.0).values.tobytes()


def test_pair_counts():
    assert_array_equal(pair_counts(3, 5), [1, 2, 3, 3, 3, 2, 1])
    assert_array_equal(pair_counts(1, 4), [1, 1, 1, 1])
    assert pair_counts(1024, 1024).max() == 1024


# ---------------------------------------------------------------------------
# Batched pairs

def broad_rows(rng, shape, width):
    """Rows of ``width`` columns, each a Gaussian of sigma 18 to 22 at a
    random centre (``gaussian``): dense rows, whose tails run through the
    subnormal range to exact zeros where they reach about 38 sigma from
    the centre, so in rows of 400 columns they stay normal."""
    rows = np.empty(tuple(shape) + (width,))
    for row in rows.reshape(-1, width):
        row[:] = gaussian(width, rng.uniform(0.0, width - 1.0), rng.uniform(18.0, 22.0))
    return rows


def row_cases():
    """(left, right) row arrays: equal widths in both byte orders and equal
    rows, unequal widths both ways round, a 1-D row broadcast against many,
    the parent-against-two-siblings layout of the reverse pass and length-1
    rows. Then span pairs: narrow rows mixed with dense ones, short dense
    rows against long narrow ones and the parent-against-siblings layout
    of narrow rows. Then broad rows, whose small outputs the p-norm refines
    row by row: with normal tails only, mixed with dense random rows and
    with subnormal tails, and the parent-against-siblings layout of rows
    with subnormal tails."""
    rng = np.random.default_rng(17)
    equal = 0.01 + rng.random((5, 48)), 0.01 + rng.random((5, 48))
    equal[1][2] = equal[0][2]
    mixed = narrow_rows(rng, (7,), 400)
    mixed[[1, 3]] = 0.01 + rng.random((2, 400))
    broad = broad_rows(rng, (6,), 1200)
    broad[[1, 4]] = 0.01 + rng.random((2, 1200))
    return [equal,
            (0.01 + rng.random((4, 3)), 0.01 + rng.random((4, 257))),
            (0.01 + rng.random(100), 0.01 + rng.random((3, 48))),
            (0.01 + rng.random((3, 1, 95)), 0.01 + rng.random((3, 2, 48))),
            (0.01 + rng.random((2, 1)), 0.01 + rng.random((2, 1))),
            (mixed, narrow_rows(rng, (7,), 420)),
            (0.01 + rng.random((5, 12)), narrow_rows(rng, (5,), 600)),
            (narrow_rows(rng, (3, 1), 799), narrow_rows(rng, (3, 2), 400)),
            (broad_rows(rng, (4,), 400), broad_rows(rng, (4,), 430)),
            (broad, broad_rows(rng, (6,), 1000)),
            (broad_rows(rng, (3, 1), 1199), broad_rows(rng, (3, 2), 600))]


@pytest.mark.parametrize("block_floats", [fftconv.BLOCK_FLOATS, 3000, 2000, 1])
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
    for left, right in row_cases():
        got, _ = operator.apply_rows(left, right,
                                     window=(0, left.shape[-1] + right.shape[-1] - 1))
        lead = np.broadcast_shapes(left.shape[:-1], right.shape[:-1])
        assert got.shape == lead + (left.shape[-1] + right.shape[-1] - 1,)
        left, right = (np.broadcast_to(x, lead + x.shape[-1:]) for x in (left, right))
        for index in np.ndindex(lead):
            one = one_pair(Pmf(left[index]), Pmf(right[index]))
            assert got[index].tobytes() == one.values.tobytes()


def test_batched_piecewise_rejects_a_degenerate_operand():
    left, right = np.array([[1.0, 0.5], [0.0, 0.0]]), np.array([[0.5], [1.0]])
    with pytest.raises(DegenerateDistributionError):
        numeric_max_operator().apply_rows(left, right, window=(0, 2))


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
    out = max_convolve_normalized(Pmf([0.5]), Pmf([0.5]), 64.0)
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
        out = max_convolve_piecewise(Pmf([0.4], 1), Pmf([0.5], 2), cfg)
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


def test_default_ladder_matches_a_middle_rung_ladder():
    # a rung p = 32 between 4 and 64 changes only indices where S_32 clears
    # tau**32 and S_64 misses tau**64: 1 of 40,928 outputs of these pairs
    # moves by more than 1e-12 of the peak
    eps = np.finfo(float).eps
    three = PiecewiseConfig((4.0, 32.0, 64.0))
    moved = outputs = 0
    for k in (256, 1024):
        for seed in range(8):
            for left, right in (random_pair(k, seed), map(Pmf, peaked_pair(k, seed))):
                got = max_convolve_piecewise(left, right).values
                middle = max_convolve_piecewise(left, right, three).values
                moved += int(np.count_nonzero(np.abs(got - middle) > 1e-12 * middle.max()))
                outputs += got.size
                exact = naive_max_convolve(left, right).values
                limit = exact * pair_counts(k, k) ** 0.25 + 2.0 * eps ** 0.25 * exact.max()
                assert np.all(got <= limit)
    assert outputs == 40928
    assert moved <= 4


def peaked_pair(k, seed):
    """Two discretized Gaussians on k bins, sigma in [2, 8]: most outputs of
    every rung are exact zeros after the clip."""
    rng = np.random.default_rng(seed)
    bins = np.arange(k)
    pair = []
    for _ in range(2):
        mean, sigma = rng.uniform(0.0, k - 1.0), rng.uniform(2.0, 8.0)
        dens = np.exp(-0.5 * ((bins - mean) / sigma) ** 2)
        pair.append(dens / dens.sum())
    return pair


def comb_pair():
    """Rows with interior zeros, so many outputs have no nonzero term."""
    rng = np.random.default_rng(5)
    left, right = np.zeros(301), np.zeros(200)
    left[::7], right[::5] = 0.1 + rng.random(43), 0.1 + rng.random(40)
    return left, right


def plateau_pair():
    """A spike of 1 and a plateau of about 0.735 in each row. A plateau
    product, about 0.54, sums enough terms to clear tau = 0.6 at p = 32
    but not at p = 64, and a spike-by-plateau product clears both, so a
    ladder (4, 32, 64) takes each upper rung somewhere."""
    rng = np.random.default_rng(13)
    pair = []
    for spike, lo, hi in ((10, 100, 400), (5, 200, 450)):
        row = np.zeros(512)
        row[lo:hi] = 0.735 * (0.98 + 0.02 * rng.random(hi - lo))
        row[spike] = 1.0
        pair.append(row)
    return pair


def per_rung_ladder(left, right, ladder, tau, window):
    """The ladder kernel rung by rung: clip every output at zero, divide
    each rung by its row scale, root every kept column with np.power and
    stitch each upper rung p where its normalized power sum, before the
    root, is at least tau**p (the least subnormal where that underflows).
    A rung's row scale is its peak, or for a long-by-short pair
    (``fftconv._valid_part``) the peak of its circular convolution at the
    longer row's length. A span pair is cut to its spans, as the ladder
    cuts it. From CUT_FROM outputs on, each upper rung of a pair whose row
    cuts (``numeric._row_cuts``) make at most CUT_SHARE of its outputs is
    that rung's linear convolution of the two cuts, placed at the sum of
    their starts among zeros, and scaled by its peak."""

    def kernel(a, b, window):
        (a, a_peak), (b, b_peak) = numeric._max_normalized(a), numeric._max_normalized(b)
        scale = np.atleast_1d(a_peak * b_peak)
        lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        outputs = a.shape[-1] + b.shape[-1] - 1
        # every rung's clipped outputs, one transform per rung
        vms = np.stack([fftconv._convolve_rows(a, b, (p,))[0].reshape(-1, outputs)
                        for p in ladder])
        scales = vms.max(axis=-1)
        if fftconv._valid_part(a.shape[-1], b.shape[-1]):
            size = fftconv.fft_length(max(a.shape[-1], b.shape[-1]))
            for r, p in enumerate(ladder):
                circular = circular_convolution(a, b, (p,), size)[0]
                scales[r] = np.broadcast_to(circular.max(axis=-1), lead).reshape(-1)
        if len(ladder) > 1 and outputs >= numeric.CUT_FROM:
            theta = numeric._cut_level(ladder, tau, min(a.shape[-1], b.shape[-1]))
            pairs = zip(*(np.broadcast_to(x, lead + x.shape[-1:]).reshape(-1, x.shape[-1])
                          for x in (a, b)))
            for pair, rows in enumerate(pairs):
                (a_start, a_width), (b_start, b_width) = (
                    (int(start[0]), int(width[0]))
                    for start, width in (numeric._row_cuts(x[None], theta) for x in rows))
                if a_width + b_width - 1 > numeric.CUT_SHARE * outputs:
                    continue  # a whole pair
                a_cut = rows[0][a_start:a_start + a_width]
                b_cut = rows[1][b_start:b_start + b_width]
                for r, p in enumerate(ladder[1:], 1):
                    cut = fftconv._convolve_rows(a_cut, b_cut, (p,), linear=True)[0]
                    vms[r, pair] = 0.0
                    vms[r, pair, a_start + b_start:a_start + b_start + cut.size] = cut
                    scales[r, pair] = cut.max()
        vms = vms.reshape((len(ladder),) + lead + (outputs,))
        scales = scales.reshape((len(ladder),) + lead)
        stitched = None
        for vm, row_scale, p in zip(vms, scales, ladder):
            rung = vm[..., window[0]:window[0] + window[1]]
            rung /= row_scale[..., None]
            wins = rung >= max(tau ** p, math.ulp(0.0))
            np.power(rung, 1.0 / p, out=rung)
            if stitched is None:
                stitched = rung
            else:
                np.copyto(stitched, rung, where=wins)
        return stitched * scale.reshape(lead + (1,)), a_peak * b_peak

    return fftconv._cut_pair(kernel, left, right, window)


def reverse_layer_rows():
    """A parent message per row against its two children's siblings, as a
    reverse tree layer lays them out, with zeros inside and around, and the
    reverse layer's keep-window."""
    rng = np.random.default_rng(11)
    w = 40
    messages = rng.random((3, 1, 2 * w - 1)) ** 8
    messages[:, :, 30:50] = 0.0
    siblings = peaked_pair(w, 3)[0] * (rng.random((3, 2, w)) < 0.7)
    siblings[:, :, 0] += 0.01
    return messages, siblings, (w - 1, w)


def reverse_layer_mixed_rows():
    """Dense parent messages against siblings of which the first of each
    pair is a narrow bump and the second dense: from CUT_FROM on, the
    first pairs are cut and the second whole, in one call."""
    rng = np.random.default_rng(12)
    w = 40
    messages = 0.5 + rng.random((3, 1, 2 * w - 1))
    siblings = 0.5 + rng.random((3, 2, w))
    siblings[:, 0] = np.exp(-0.5 * ((np.arange(w) - rng.uniform(10, 30, (3, 1))) / 1.5) ** 2)
    return messages, siblings, (w - 1, w)


LADDER, TAU = numeric.DEFAULT_P_LADDER, numeric.DEFAULT_TAU
# a ladder with two upper rungs: ascending stitch, highest winner
TWO_UPPER = (4.0, 32.0, 64.0)
# (left, right, keep-window or None for the full one), ladder, tau
LADDER_CASES = {
    "peaked-8192": (lambda: (*peaked_pair(8192, 0), None), LADDER, TAU),
    "comb": (lambda: (*comb_pair(), None), LADDER, TAU),
    "tau-1": (lambda: (*peaked_pair(512, 1), None), LADDER, 1.0),
    "sqrt-rung": (lambda: (*peaked_pair(512, 2), None), (2.0, 64.0), TAU),
    "one-rung": (lambda: (*peaked_pair(512, 3), None), (16.0,), TAU),
    "floor-underflows": (lambda: (*comb_pair(), None), (4.0, 1500.0), TAU),
    "floor-root-rounds-to-tau": (lambda: (*peaked_pair(512, 4), None), (4.0, 1e300), 1.0),
    "reverse-window": (reverse_layer_rows, LADDER, TAU),
    "reverse-mixed-cut": (reverse_layer_mixed_rows, LADDER, TAU),
    "two-upper-rungs": (lambda: (*plateau_pair(), None), TWO_UPPER, TAU),
}


def assert_ladder_is_the_per_rung_finish(case):
    # at the stock VALID_FROM and with every long-by-short pair above it
    with pytest.MonkeyPatch.context() as patch:
        for floor in (fftconv.VALID_FROM, 1):
            patch.setattr(fftconv, "VALID_FROM", floor)
            assert_ladder_at_floor_is_the_per_rung_finish(case)


def assert_ladder_at_floor_is_the_per_rung_finish(case):
    make, ladder, tau = LADDER_CASES[case]
    left, right, window = make()
    full = (0, left.shape[-1] + right.shape[-1] - 1)
    window = window or full
    want, want_peak = per_rung_ladder(left, right, ladder, tau, window)
    if len(ladder) == 1:
        got = max_convolve_normalized(Pmf(left), Pmf(right), ladder[0]).values
        assert got.tobytes() == want.tobytes()
        return
    config = PiecewiseConfig(ladder, tau)
    got, peak = numeric_max_operator(config).apply_rows(left, right, window=window)
    assert got.tobytes() == want.tobytes()
    assert peak.tobytes() == want_peak.tobytes()
    if window == full:
        one = max_convolve_piecewise(Pmf(left), Pmf(right), config).values
        assert one.tobytes() == want.tobytes()


@pytest.mark.parametrize("block_floats", [fftconv.BLOCK_FLOATS, 3000, 1])
@pytest.mark.parametrize("case", LADDER_CASES)
def test_ladder_is_bit_identical_to_the_per_rung_finish(monkeypatch, block_floats, case):
    # every case is below CUT_FROM, so no pair is cut
    monkeypatch.setattr(fftconv, "BLOCK_FLOATS", block_floats)
    assert_ladder_is_the_per_rung_finish(case)


@pytest.mark.parametrize("block_floats", [fftconv.BLOCK_FLOATS, 3000, 1])
@pytest.mark.parametrize("case", LADDER_CASES)
def test_cut_ladder_is_bit_identical_to_the_per_rung_finish(monkeypatch, block_floats, case):
    # with every pair that has a narrower cut transformed over it
    monkeypatch.setattr(fftconv, "BLOCK_FLOATS", block_floats)
    monkeypatch.setattr(numeric, "CUT_FROM", 1)
    assert_ladder_is_the_per_rung_finish(case)


@pytest.mark.parametrize("block_floats", [fftconv.BLOCK_FLOATS, 3000, 1])
@pytest.mark.parametrize("cut_from", [numeric.CUT_FROM, 1])
def test_rows_that_peak_at_one_skip_only_a_multiply_by_one(monkeypatch, block_floats,
                                                           cut_from):
    # tree messages peak at exactly 1.0, and the ladder stitches such rows
    # in a fresh array with no multiply by their input scale. The same rows
    # halved take that multiply, by 0.25, which is exact; so each result is
    # the other times 0.25 bit for bit, whole pairs and cut ones alike
    monkeypatch.setattr(fftconv, "BLOCK_FLOATS", block_floats)
    monkeypatch.setattr(numeric, "CUT_FROM", cut_from)
    left, right, window = reverse_layer_mixed_rows()
    left, right = (x / x.max(axis=-1, keepdims=True) for x in (left, right))
    kernel = numeric_max_operator().apply_rows
    unit, unit_scale = kernel(left, right, window=window)
    kept = unit.copy()
    halved, halved_scale = kernel(0.5 * left, 0.5 * right, window=window)
    assert unit.tobytes() == kept.tobytes()  # no later call writes to it
    assert set(unit_scale.ravel()) == {1.0} and set(halved_scale.ravel()) == {0.25}
    assert (0.25 * unit).tobytes() == halved.tobytes()
    want, _ = per_rung_ladder(left, right, LADDER, TAU, window)
    assert unit.tobytes() == want.tobytes()


def test_two_upper_rungs_each_win_somewhere():
    # so the two-upper-rungs case checks the ascending stitch: p = 64 where
    # both upper rungs win, p = 32 where only it does
    left, right = plateau_pair()
    wins = {}
    for p in TWO_UPPER[1:]:
        sums = np.convolve(left ** p, right ** p)
        wins[p] = sums / sums.max() >= TAU ** p
    assert np.any(wins[32.0] & wins[64.0])
    assert np.any(wins[32.0] & ~wins[64.0])


def test_ladder_cases_reach_the_cut(monkeypatch):
    # with CUT_FROM at 1 the cut bit-identity cases above take the cut path:
    # every multi-rung case whose rows are not combs has a narrower cut
    monkeypatch.setattr(numeric, "CUT_FROM", 1)
    cut = []
    upper_cuts = numeric._upper_cuts

    def spying(a, b, theta):
        groups = upper_cuts(a, b, theta)
        cut.append(groups is not None)
        return groups

    monkeypatch.setattr(numeric, "_upper_cuts", spying)
    for case in ("peaked-8192", "tau-1", "sqrt-rung", "floor-root-rounds-to-tau",
                 "reverse-window"):
        make, ladder, tau = LADDER_CASES[case]
        left, right, window = make()
        cut.clear()
        numeric_max_operator(PiecewiseConfig(ladder, tau)).apply_rows(
            left, right, window=window or (0, left.shape[-1] + right.shape[-1] - 1))
        assert cut == [True], case


def ladder_row(kind, width, rng):
    """One max-normalized operand row: a broad bump, a narrow one over a
    dense floor, a comb or uniform values."""
    x = np.arange(width)
    if kind == "smooth":
        row = np.exp(-0.5 * ((x - rng.uniform(0, width)) / (width / 6)) ** 2)
    elif kind == "peaked":
        row = (np.exp(-0.5 * ((x - rng.uniform(0, width)) / rng.uniform(2, 8)) ** 2)
               + 1e-3 * rng.random(width))
    elif kind == "comb":
        row = np.zeros(width)
        row[::7] = 0.1 + rng.random(row[::7].size)
    else:
        row = rng.random(width)
    return row / row.max()


@pytest.mark.parametrize("tau", [TAU, 1.0])
@pytest.mark.parametrize("ladder", [LADDER, (2.0, 64.0), (4.0, 1500.0)])
@pytest.mark.parametrize("kinds", [("smooth", "peaked"), ("peaked", "peaked"),
                                   ("comb", "smooth"), ("uniform", "peaked"),
                                   ("uniform", "uniform")])
def test_cut_power_sums_are_whole_ones_where_a_rung_can_win(kinds, ladder, tau):
    # the terms an upper rung drops outside the two cuts sum, by direct
    # sums, to at most 2**-53 of the whole rows' power sum S_p at every
    # index where S_p / max(S_p) >= tau**p, where that rung can win
    rng = np.random.default_rng(sum(map(ord, "".join(kinds))) + len(ladder))
    a, b = ladder_row(kinds[0], 700, rng), ladder_row(kinds[1], 450, rng)
    theta = numeric._cut_level(ladder, tau, min(a.size, b.size))
    cuts = [numeric._row_cuts(x[None], theta) for x in (a, b)]
    if kinds == ("peaked", "peaked"):  # a case the cut narrows
        assert all(width[0] < x.size for (_, width), x in zip(cuts, (a, b)))
    for p in ladder[1:]:
        inside, outside = [], []
        for x, (start, width) in zip((a, b), cuts):
            powered, kept = x ** p, np.zeros(x.size)
            kept[start[0]:start[0] + width[0]] = powered[start[0]:start[0] + width[0]]
            inside.append(kept)
            outside.append(np.where(kept == 0.0, powered, 0.0))
        whole = np.convolve(a ** p, b ** p)
        dropped = np.convolve(outside[0], b ** p) + np.convolve(inside[0], outside[1])
        can_win = whole >= tau ** p * whole.max() * (1.0 - 1e-9)
        assert can_win.any()
        assert np.all(dropped[can_win] <= 2.0 ** -53 * whole[can_win])


def reverse_rows_in_cut_groups():
    """Four parent messages (4, 1, 8000) against two siblings each
    (4, 2, 6000), as a reverse layer lays them out, at peak 1 over a dense
    floor: the first two parents' siblings have significant spans of
    different widths, the third parent and its siblings span more than
    half of their rows, the fourth parent does too but only one of its
    siblings does, and the pairs' 13,999 outputs are above CUT_FROM."""
    rng = np.random.default_rng(21)

    def bumps(width, shape, *means_sigmas):
        x = np.arange(width)
        rows = np.array([np.exp(-0.5 * ((x - mean) / sigma) ** 2) for mean, sigma in means_sigmas])
        rows += 1e-3 * rng.random(rows.shape)
        return (rows / rows.max(axis=-1, keepdims=True)).reshape(shape + (width,))

    parents = bumps(8000, (4, 1), (3000, 400), (5000, 900), (4000, 4000), (3500, 4000))
    siblings = bumps(6000, (4, 2), (1000, 30), (4000, 600), (2500, 200), (3000, 1500),
                     (3000, 2000), (2500, 3000), (3000, 50), (2500, 3000))
    return parents, siblings, (5999, 6000)


@pytest.mark.parametrize("block_floats", [fftconv.BLOCK_FLOATS, 3000, 1])
def test_cut_groups_keep_every_row_its_one_pair_call(monkeypatch, block_floats):
    monkeypatch.setattr(fftconv, "BLOCK_FLOATS", block_floats)
    parents, siblings, window = reverse_rows_in_cut_groups()
    assert parents.shape[-1] + siblings.shape[-1] - 1 >= numeric.CUT_FROM
    # the cut geometry of a ladder whose lowest upper rung is p = 32
    config = PiecewiseConfig(TWO_UPPER)
    theta = numeric._cut_level(TWO_UPPER, TAU, siblings.shape[-1])
    groups = numeric._upper_cuts(parents, siblings, theta)
    widths = {int(pair): (a_cut.shape[-1], b_cut.shape[-1])
              for pairs, a_cut, b_cut, _ in groups for pair in pairs}
    # each of the first two parents' pairs fall in different groups, the
    # whole pairs join the full-width group, and the third parent is
    # transformed once for both of its whole pairs
    assert widths == {0: (2000, 188), 1: (2000, 3000), 2: (4000, 1500), 3: (4000, 6000),
                      4: (8000, 6000), 5: (8000, 6000), 6: (8000, 375), 7: (8000, 6000)}
    assert [(pairs.tolist(), a_cut.shape[0], b_cut.shape[1])
            for pairs, a_cut, b_cut, _ in groups if widths[int(pairs[0])] == (8000, 6000)] == [
        ([4, 5], 1, 2), ([7], 1, 1)]
    # the fourth parent, one of whose siblings is cut, is transformed once
    # for the fallback rung (the first, p = 4) of both of its pairs
    stacks = spy_transforms(monkeypatch)
    parent_powers = np.square(np.square(parents[3, 0]))  # as _ladder_powers climbs to 4

    def fallback_rows():
        count = 0
        for stack in stacks:
            rows = stack.reshape(-1, stack.shape[-1])[:, :parent_powers.size]
            if rows.shape[-1] == parent_powers.size:
                count += int((rows == parent_powers).all(axis=-1).sum())
        return count

    apply_rows = numeric_max_operator(config).apply_rows
    parents.flags.writeable = siblings.flags.writeable = False  # no kernel writes its operands
    for window in (window, (0, 13999)):
        stacks.clear()
        got, peak = apply_rows(parents, siblings, window=window)
        assert fallback_rows() == 1
        for i, j in np.ndindex(4, 2):
            one, one_peak = apply_rows(parents[i, 0], siblings[i, j], window=window)
            assert one.tobytes() == got[i, j].tobytes()
            assert np.asarray(one_peak).tobytes() == peak[i, j].tobytes()
            if window[0] == 0:
                whole = max_convolve_piecewise(Pmf(parents[i, 0]), Pmf(siblings[i, j]),
                                               config)
                assert whole.values.tobytes() == got[i, j].tobytes()


def test_cut_span_pair_outside_the_window_keeps_no_column(monkeypatch):
    # a span pair whose span output misses the keep-window runs its cut
    # ladder over an empty window, as a one-pair call and as a row of two
    monkeypatch.setattr(numeric, "CUT_FROM", 1)
    bump = np.zeros(300)
    bump[10:41] = np.exp(-0.5 * ((np.arange(10, 41) - 25) / 2.0) ** 2)
    apply_rows = numeric_max_operator().apply_rows
    full, full_peak = apply_rows(bump, bump, window=(0, 599))
    assert full[100:].tobytes() == bytes(8 * 499)
    one, one_peak = apply_rows(bump, bump, window=(400, 100))
    assert one.tobytes() == bytes(800)
    assert np.asarray(one_peak).tobytes() == np.asarray(full_peak).tobytes()
    rows = np.stack([bump, np.roll(bump, 250)])
    got, peak = apply_rows(rows, rows[::-1].copy(), window=(400, 100))
    for i in range(2):
        one, one_peak = apply_rows(rows[i], rows[1 - i], window=(400, 100))
        assert one.tobytes() == got[i].tobytes()
        assert np.asarray(one_peak).tobytes() == peak[i].tobytes()


def test_wide_span_pairs_keep_one_whole_ladder_stack(monkeypatch):
    # every uniform k = 8192 pair's significant spans are wider than half
    # of both its rows, so each operand takes (rungs, rows, size)
    # transforms, one row of the left operand per row of the product
    rungs = len(numeric.DEFAULT_P_LADDER)
    shapes = spy_transforms(monkeypatch, np.shape)
    size = fftconv.fft_length(8192 + 8192 - 1)
    left, right = random_pair(8192, 5)
    max_convolve_piecewise(left, right)
    assert shapes == [(rungs, 1, size)] * 2
    shapes.clear()
    pairs = [random_pair(8192, seed) for seed in (6, 7, 8)]
    numeric_max_operator().apply_rows(np.stack([l.values for l, _ in pairs]),
                                      np.stack([r.values for _, r in pairs]),
                                      window=(0, 16383))
    assert all(shape[0] == rungs and shape[2] == size for shape in shapes)
    assert sum(shape[1] for shape in shapes) == 2 * len(pairs)


def test_no_root_sees_a_zero(monkeypatch):
    # np.power takes several times as long on 0.0 as on other doubles
    roots = []
    power = np.power

    def spy(x, y, *args, **kwargs):
        if np.ndim(y) == 0 and y < 1.0:
            roots.append(int(np.count_nonzero(np.asarray(x)[kwargs.get("where", True)] == 0.0)))
        return power(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "power", spy)
    left, right = peaked_pair(8192, 0)
    assert (max_convolve_piecewise(Pmf(left), Pmf(right)).values == 0.0).any()
    left, right = comb_pair()
    got, _ = p_norm_operator(4.0).apply_rows(left, np.stack([right, right[::-1]]),
                                             window=(0, 500))
    assert (got == 0.0).any()
    assert len(roots) >= 4
    assert roots == [0] * len(roots)


def test_upper_rungs_root_only_above_their_floors(monkeypatch):
    # an upper rung p is rooted only where its normalized power sum is at
    # least tau**p, where it wins
    rooted = []
    power = np.power

    def spy(x, y, *args, **kwargs):
        if "where" in kwargs:
            x = np.asarray(x)
            rooted.append((1.0 / y, x.size, x[kwargs["where"]]))
        return power(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "power", spy)
    left, right = peaked_pair(8192, 0)
    max_convolve_piecewise(Pmf(left), Pmf(right))
    assert [round(p) for p, _, _ in rooted] == list(LADDER[1:])
    for p, size, values in rooted:
        assert (values >= TAU ** p).all()
        assert values.size < size / 2


@pytest.mark.parametrize("cut_from", [numeric.CUT_FROM, 1])
def test_top_rung_wins_only_where_its_power_sum_clears_tau(monkeypatch, cut_from):
    # with tau = 1, the rung p = 1e300 wins only where its normalized power
    # sum is 1, at the exact argmax; elsewhere its root of FFT round-off
    # rounds to 1 too, but must not take the index
    monkeypatch.setattr(numeric, "CUT_FROM", cut_from)
    config = PiecewiseConfig((4.0, 1e300), 1.0)
    for seed in range(4):
        left, right = random_pair(512, seed)
        got = max_convolve_piecewise(left, right, config).values
        want = max_convolve_normalized(left, right, 4.0).values
        argmax = int(np.argmax(naive_max_convolve(left, right).values))
        assert set(np.flatnonzero(got != want).tolist()) <= {argmax}


def test_ladder_roots_only_the_span_output(monkeypatch):
    # a span pair is finished over its span output, not its full row
    rooted = []
    power = np.power

    def spy(x, y, *args, **kwargs):
        if np.ndim(y) == 0 and y < 1.0:
            rooted.append(np.size(x))
        return power(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "power", spy)
    left, right = peaked_pair(8192, 0)
    (l_first, *_, l_last), (r_first, *_, r_last) = (np.flatnonzero(x) for x in (left, right))
    outputs = (l_last - l_first + 1) + (r_last - r_first + 1) - 1
    assert 2 * outputs < left.size
    max_convolve_piecewise(Pmf(left), Pmf(right))
    assert len(rooted) == len(LADDER)
    assert max(rooted) <= outputs


def test_root_reads_nonpositive_values_as_zero(monkeypatch):
    seen = []
    power = np.power

    def spy(x, y, *args, **kwargs):
        seen.append(np.asarray(x).copy())
        return power(x, y, *args, **kwargs)

    values = np.array([-1e-17, -0.0, 0.0, 0.3, 1e-300, 1.0, -2e-16, 0.7])
    want = power(values[values > 0.0], 1.0 / 4.0)
    monkeypatch.setattr(np, "power", spy)
    got = numeric._root(values.copy(), 4.0)
    assert got[values <= 0.0].tobytes() == np.zeros(4).tobytes()  # +0.0, not -0.0
    assert got[values > 0.0].tobytes() == want.tobytes()
    assert len(seen) == 1 and (seen[0] > 0.0).all()


# ---------------------------------------------------------------------------
# One-pair calls cut to their spans

ONE_PAIR = {
    "fast": (fast_convolve, fftconv.fast_convolve_rows),
    "pnorm1": (lambda l, r: p_norm_convolve(l, r, 1.0), p_norm_operator(1.0).apply_rows),
    "pnorm4": (lambda l, r: p_norm_convolve(l, r, 4.0), p_norm_operator(4.0).apply_rows),
    "normalized": (lambda l, r: max_convolve_normalized(l, r, 32.0),
                   partial(numeric._ladder_max_convolve, ladder=(32.0,), tau=numeric.DEFAULT_TAU)),
    "piecewise": (max_convolve_piecewise, numeric_max_operator().apply_rows),
}


def spy(monkeypatch, name) -> list:
    """The calls of ``fftconv.<name>`` from now on, by their first argument."""
    calls = []
    function = getattr(fftconv, name)

    def spying(x, *args, **kwargs):
        calls.append(x)
        return function(x, *args, **kwargs)

    monkeypatch.setattr(fftconv, name, spying)
    return calls


@pytest.mark.parametrize("name", ONE_PAIR)
def test_one_pair_calls_take_no_span_transform(monkeypatch, name):
    # a peaked pair is decided a span pair once and cut to its spans before
    # the kernel, and a uniform pair is probed once per operand, not again
    # in _convolve_rows
    one_pair, _ = ONE_PAIR[name]
    spans, probes = spy_span_pairs(monkeypatch), spy(monkeypatch, "_maybe_narrow")
    left, right = peaked_pair(8192, 0)
    one_pair(Pmf(left), Pmf(right))
    assert len(spans) == 1
    left, right = random_pair(300, 3)
    spans.clear()
    probes.clear()
    one_pair(left, right)
    assert spans == []
    assert len(probes) == 2 and all(x.ndim == 1 for x in probes)


@st.composite
def narrow_pairs(draw):
    """Two rows whose mass sits on short spans, of at most an eighth of
    each, or a long narrow row and a dense one of at most a quarter of its
    width; either way a span pair (``fftconv._one_pair_spans``). Each span
    holds random values, scaled by a drawn factor."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-3, 7.0, 1e100]))

    def narrow(width):
        n = draw(st.integers(1, width // 8))
        start = draw(st.integers(0, width - n))
        row = np.zeros(width)
        row[start:start + n] = scale * (0.05 + rng.random(n))
        return row

    a = draw(st.integers(16, 600))
    if draw(st.booleans()):
        return narrow(a), narrow(draw(st.integers(16, 600)))
    return narrow(a), scale * (0.05 + rng.random(draw(st.integers(1, a // 4))))


@given(narrow_pairs())
@settings(max_examples=60, deadline=None)
def test_one_pair_calls_are_their_rows_in_a_rows_call(pair):
    # each one-pair function, in both orders, is bit for bit its row of a
    # rows call that stacks the pair with a dense pair, which finds the
    # span pair and cuts it as its one-pair call
    rng = np.random.default_rng(0)
    with pytest.MonkeyPatch.context() as patch:
        spans = spy_span_pairs(patch)
        for left, right in (pair, pair[::-1]):
            rows = [np.stack([x, 0.05 + rng.random(x.size)]) for x in (left, right)]
            for name, (one_pair, apply_rows) in ONE_PAIR.items():
                spans.clear()
                got, _ = apply_rows(*rows, window=(0, left.size + right.size - 1))
                assert spans, name
                one = one_pair(Pmf(left), Pmf(right)).values
                assert one.tobytes() == got[0].tobytes(), name


def test_ladder_pair_above_one_takes_its_span_from_the_undivided_rows(monkeypatch):
    # dividing by a peak of 1e5 would zero the 1e-320 values at the ends of
    # the left span; the span rule reads the rows before the ladder divides
    # them, so the left span keeps both of those values
    left, right = np.zeros(400), np.zeros(400)
    left[100:110] = [1e-320, 1e5, 3.0, 1e5, 2.0, 1e5, 1.0, 1e5, 5.0, 1e-320]
    right[250:260] = 0.5 + np.random.default_rng(1).random(10)
    assert np.count_nonzero(left / left.max()) == 8
    dense = 0.5 + np.random.default_rng(2).random((2, 400))
    spans = spy_span_pairs(monkeypatch)
    for one_pair, apply_rows in (ONE_PAIR["piecewise"], ONE_PAIR["normalized"]):
        for x, y in ((left, right), (right, left)):
            spans.clear()
            got, peak = apply_rows(np.stack([x, dense[0]]), np.stack([y, dense[1]]),
                                   window=(0, 799))
            assert spans and all(slice(100, 110) in pair for pair in spans)
            kept, one_peak = apply_rows(x, y, window=(0, 799))
            assert kept.tobytes() == got[0].tobytes()
            assert one_peak.tobytes() == peak[0].tobytes()
            assert one_pair(Pmf(x), Pmf(y)).values.tobytes() == got[0].tobytes()


@pytest.mark.parametrize("window", [(0, 799), (150, 300), (0, 40), (700, 99), (300, 0)])
@pytest.mark.parametrize("name", ONE_PAIR)
def test_cut_one_pair_keeps_its_window_and_peak(name, window):
    # a one-pair rows call under a keep-window that cuts into its span
    # output or misses it: the kept columns and peak of the stacked call
    rng = np.random.default_rng(8)
    left, right = narrow_rows(rng, (2,), 400)
    dense = 0.05 + rng.random((2, 400))
    _, apply_rows = ONE_PAIR[name]
    got, peak = apply_rows(np.stack([left, dense[0]]), np.stack([right, dense[1]]),
                           window=window)
    kept, one_peak = apply_rows(left, right, window=window)
    assert kept.shape == (window[1],)
    assert kept.tobytes() == got[0].tobytes()
    assert one_peak.tobytes() == peak[0].tobytes()


@pytest.mark.parametrize("cut_from", [numeric.CUT_FROM, 1])
@pytest.mark.parametrize("name", ONE_PAIR)
def test_rows_whose_peaks_straddle_one_keep_their_one_pair_bits(monkeypatch, name, cut_from):
    # one rows call of row peaks on both sides of 1, a row scaled by 2**20
    # among rows peaking below 1, and span pairs among dense ones: every
    # row and its scale are its one-pair call's, and scaling the left
    # operand by 4 scales every scale and every normal output by exactly 4.
    # The p = 1 refine rounds a subnormal output once on the subnormal grid
    # (spacing 2**-1074), so there 4 * round(x) and round(4 x) can differ
    # by less than three of its steps
    monkeypatch.setattr(numeric, "CUT_FROM", cut_from)
    rng = np.random.default_rng(21)
    left = 0.5 * narrow_rows(rng, (6,), 400)
    right = 0.5 * np.concatenate([narrow_rows(rng, (3,), 400), 0.05 + rng.random((3, 400))])
    left[1] *= 2.0 ** 20
    _, kernel = ONE_PAIR[name]
    for window in [(0, 799), (150, 300)]:
        got, peak = kernel(left, right, window=window)
        for row in range(6):
            one, one_peak = kernel(left[row], right[row], window=window)
            assert one.tobytes() == got[row].tobytes(), row
            assert np.asarray(one_peak).tobytes() == peak[row].tobytes(), row
        scaled, scaled_peak = kernel(4.0 * left, right, window=window)
        normal = np.abs(got) >= np.finfo(float).tiny
        assert scaled[normal].tobytes() == (4.0 * got[normal]).tobytes()
        assert np.all(np.abs(scaled - 4.0 * got)[~normal] < 3 * 2.0 ** -1074)
        assert scaled_peak.tobytes() == (4.0 * peak).tobytes()


# ---------------------------------------------------------------------------
# Auto dispatch

def test_auto_small_input_is_exact():
    left, right = random_pair(8, 5)
    auto = max_convolve_auto(left, right)
    assert_array_equal(auto.values, naive_max_convolve(left, right).values)


def test_auto_delta_operand_is_exact():
    x = Pmf(np.random.default_rng(0).random(100))
    auto = max_convolve_auto(Pmf([0.5]), x)
    assert_array_equal(auto.values, naive_max_convolve(Pmf([0.5]), x).values)


@pytest.mark.parametrize("k", [5, 8192])
def test_auto_point_mass_is_the_naive_result_on_either_side(k):
    # one product per output, so the vector multiply keeps the naive bits
    rng = np.random.default_rng(k)
    values = rng.random(k) * (rng.random(k) < 0.7)
    x, point = Pmf(values, -3), Pmf([0.3 + rng.random()], 7)
    for left, right in ((point, x), (x, point)):
        auto, naive = max_convolve_auto(left, right), naive_max_convolve(left, right)
        assert auto.offset == naive.offset == 4
        assert auto.values.tobytes() == naive.values.tobytes()


def test_auto_large_input_uses_piecewise():
    left, right = random_pair(64, 17)
    auto = max_convolve_auto(left, right)
    assert_array_equal(auto.values, max_convolve_piecewise(left, right).values)
