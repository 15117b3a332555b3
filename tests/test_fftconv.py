import itertools
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import convtree.fftconv as fftconv
import convtree.numeric as numeric
from bruteforce import circular_convolution, narrow_rows, refine_per_index, spy_transforms
from convtree import (
    ConvolutionOperator,
    Pmf,
    convolution_tree,
    fast_convolve,
    fft_length,
    generate_subset_sum_instance,
    max_convolve_auto,
    max_convolve_normalized,
    max_convolve_piecewise,
    naive_convolve,
    naive_max_convolve,
    operator_from_name,
    p_norm_convolve,
    padded_length,
    pair_counts,
)
from convtree.fftconv import _canonical_rows
from convtree.numeric import (
    DEFAULT_P_LADDER,
    DEFAULT_TAU,
    REFINE_BELOW,
    _ladder_max_convolve,
    _p_norm_rows,
)


@pytest.mark.parametrize("n,expected", [
    (1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (4096, 4096), (4097, 8192), (0, 1),
])
def test_padded_length(n, expected):
    assert padded_length(n) == expected


def test_fft_length_is_5_smooth_and_at_most_padded():
    for n in [*range(1, 3000), 12286, 98209, 393121, (1 << 20) + 1]:
        size = fft_length(n)
        assert n <= size <= padded_length(n)
        for factor in (2, 3, 5):
            while size % factor == 0:
                size //= factor
        assert size == 1, n
    assert fft_length(12286) == 12288  # the tree-wide reverse step: not 16384
    assert fft_length(0) == 1


def tree_output_lengths(n, k):
    """a + b - 1 of every operator call of an n-leaf tree over k bins."""
    widths = [k]
    while n > 1:
        widths.append(2 * widths[-1] - 1)
        n //= 2
    return ([2 * w - 1 for w in widths[:-1]]
            + [parent + child - 1 for child, parent in zip(widths, widths[1:])])


def test_fft_length_is_scipy_next_fast_len():
    scipy_fft = pytest.importorskip("scipy.fft")
    search = fft_length.__wrapped__  # uncached, so every n runs the search
    for n in range(1, (1 << 17) + 1):
        assert search(n) == scipy_fft.next_fast_len(n, real=True), n
    # the benchmark trees and pairs, the baseline grid, and a sweep up to 3 * 2^18
    lengths = [2 * 8192 - 1, *range(1 << 17, 3 << 18, 97), 3 << 18]
    for n, k in [(1024, 64), (64, 4096), (32, 256), (1024, 256), (4096, 64), (256, 1024)]:
        lengths += tree_output_lengths(n, k)
    for n in lengths:
        assert fft_length(n) == scipy_fft.next_fast_len(n, real=True), n


@pytest.mark.parametrize("shape", [(3, 5), (1, 1)])
def test_numpy_fft_has_scipy_fft_bits(shape):
    # every transform runs on numpy.fft on the premise that it is the
    # pocketfft scipy.fft runs; a numpy whose bits diverge fails here
    scipy_fft = pytest.importorskip("scipy.fft")
    size = fft_length(1400)  # 1440 = 2^5 * 3^2 * 5
    assert size == 1440
    rng = np.random.default_rng(6)
    stack = np.zeros(shape + (size,))
    stack[..., :700] = rng.random(shape + (700,))
    spectrum = np.fft.rfft(stack)
    assert spectrum.tobytes() == scipy_fft.rfft(stack).tobytes()
    product = spectrum * np.fft.rfft(stack[::-1])
    assert np.fft.irfft(product, size).tobytes() == scipy_fft.irfft(product, size).tobytes()


def test_import_loads_no_scipy():
    # scipy's import would be most of the package's load time; nothing
    # the package or its CLI imports may pull it in
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys, convtree, convtree.cli, convtree.io; "
            "assert convtree.__file__.startswith(sys.argv[1]), convtree.__file__; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code, str(src)], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("kl,kr,expected", [
    (8, 8, "naive"),
    (4096, 4096, "fast"),
    (1, 1, "naive"),
    (1, 7, "naive"),
    (1, 8192, "naive"),  # a point mass stays exact
    (64, 64, "fast"),
    (16, 16, "naive"),  # 31 outputs
    (4, 100, "fast"),  # lopsided pairs cost the naive loop per output
    (16, 4096, "fast"),
    (2, 8192, "fast"),
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
    out = fast_convolve(Pmf([1.0]), x)
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


@pytest.mark.parametrize("size", [4096, 3000, 3375, 131072, fft_length(140000)])
def test_four_step_transform_convolves_as_one_rfft(monkeypatch, size):
    # powers of (rungs, rows) stacks at a power of two, even and odd
    # 5-smooth lengths: 3375 = 15^3 and fft_length(140000) = 140625 have
    # no factor 2, so N1 is odd (375 for both)
    monkeypatch.setattr(fftconv, "FOUR_STEP_FROM", 1)
    assert fft_length(140000) == 140625
    ladder = (1.0, 2.0)
    rng = np.random.default_rng(size)
    left, right = rng.random((3, 1, size // 2)), rng.random((3, 2, size - size // 2))
    got = circular_convolution(left, right, ladder, size)
    assert got.shape == (2, 3, 2, size)
    for (r, p), (i, j) in itertools.product(enumerate(ladder), np.ndindex(3, 2)):
        a, b = left[i, 0] ** p, right[i, j] ** p
        want = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)
        # round-off: a few ulps of the peak per factor-of-two level
        assert_allclose(got[r, i, j], want, rtol=0,
                        atol=4 * size.bit_length() * np.finfo(float).eps * want.max())


def test_twiddle_tables_are_cached_and_read_only():
    # 140625 = 375 * 375 and 375 = 15 * 25: the factors of W^(k1 n2),
    # n2 = 25 q + r, are W^(25 k1 q) and W^(k1 r)
    size = fft_length(140000)
    factors, conjugates = fftconv._twiddles(size)
    assert fftconv._twiddles(size)[0] is factors
    assert [table.shape for table in factors] == [(188, 15, 1), (188, 1, 25)]
    assert fftconv._spectrum_shape(size) == (188, 375)  # above FOUR_STEP_FROM
    below = fftconv.FOUR_STEP_FROM - 1
    assert fftconv._spectrum_shape(below) == (below // 2 + 1,)
    k1, n2 = np.ogrid[:188, :375]
    exact = np.exp(-2j * np.pi * (k1 * n2 % size) / size)
    eps = np.finfo(float).eps
    assert_allclose((factors[0] * factors[1]).reshape(188, 375), exact, rtol=0, atol=8 * eps)
    for table, conjugate in zip(factors, conjugates):
        assert conjugate.tobytes() == table.conj().tobytes()
        for t in (table, conjugate):
            assert not t.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                t[0, 0, 0] = 1.0


def test_fast_convolve_commutes():
    rng = np.random.default_rng(3)
    left = Pmf(rng.random(40))
    right = Pmf(rng.random(23))
    ab = fast_convolve(left, right)
    ba = fast_convolve(right, left)
    assert ab.offset == ba.offset
    assert np.abs(ab.values - ba.values).max() <= 1e-12


def canonical_cases():
    """Equal-width row pairs: (left, right) whose leading axes broadcast."""
    rng = np.random.default_rng(47)
    values = np.array([0.0, -0.0, 1.0, 0.5, 2.0, 1e-300, np.nextafter(1.0, 2.0)])
    left, right = rng.choice(values, (40, 6)), rng.choice(values, (40, 6))
    right[:5] = left[:5]  # equal rows
    right[5:10] = left[5:10]
    left[5:8, 2], right[5:8, 2] = 0.0, -0.0  # differ only in the sign of a zero
    left[8:10, 4], right[8:10, 4] = -0.0, 0.0
    # every pair ties on its first word: four equal rows, four decided at
    # the last word, the rest anywhere after the first
    tied = rng.choice(values, (20, 6)), rng.choice(values, (20, 6))
    tied[1][:, 0] = tied[0][:, 0]
    tied[1][:4] = tied[0][:4]
    tied[1][4:8, :5] = tied[0][4:8, :5]
    wide = rng.choice(values, (2, 80, 12))
    # exactly one pair of many swaps, pair 17
    one_swap = rng.random((30, 8)), rng.random((30, 8))
    for i, (x, y) in enumerate(zip(*one_swap)):
        if (x.tobytes() > y.tobytes()) != (i == 17):
            x[:], y[:] = y.copy(), x.copy()
    return {"rows": (left, right),
            "broadcast": (left, right[12:13]),
            "broadcast-both": (left[:5, None], right[None, 10:14]),
            "strided": (wide[0, 0::2, 0::2], wide[1, 1::2, 0::2]),
            "one-swap": one_swap,
            "tied-first-words": tied,
            "tied-broadcast": (tied[0][:, None], tied[1][None, :8])}


@pytest.mark.parametrize("case", canonical_cases())
def test_canonical_rows_order_equal_widths_by_their_bytes(case):
    # the row whose bytes (tobytes) compare lower goes first; equal rows stay
    left, right = canonical_cases()[case]
    a, b = _canonical_rows(left, right)
    shape = np.broadcast_shapes(left.shape, right.shape)
    left, right = np.broadcast_to(left, shape), np.broadcast_to(right, shape)
    assert a.shape == b.shape == shape
    for index in np.ndindex(shape[:-1]):
        want = sorted([left[index].tobytes(), right[index].tobytes()])
        assert [a[index].tobytes(), b[index].tobytes()] == want, index
    if case == "one-swap":
        assert [i for i in range(len(a)) if a[i].tobytes() != left[i].tobytes()] == [17]


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
    refined = p_norm_convolve(left, left, 1.0)
    # structural zeros and the 1e-26 cross term are exact after refinement
    assert refined.values[1] == 0.0
    assert refined.values[63] == 2e-13
    assert refined.values[126] == 1e-26
    # the plain FFT path cannot represent values this far below the peak
    assert plain.values[126] != 1e-26
    # untouched (large) outputs are identical to the plain path
    assert refined.values[0] == plain.values[0]


@pytest.mark.parametrize("values", [
    [0.0, 0.0, 0.3, 0.0], [0.7], [-0.0, 0.2, 0.0, 0.5, -0.0], [0.0, 0.0, 0.4, 0.1],
    [0.4, 0.1, 0.0, 0.0, 0.0], [1e-320, 0.0, 2.0], [0.0, 0.5, 0.0, 0.5, 0.0, 0.0],
    [0.3, 0.0, 0.0, 0.5],
], ids=["single", "one-value", "minus-zero-ends", "zeros-before", "zeros-after",
        "subnormal-end", "interior-zeros", "nonzero-ends"])
def test_trimmed_is_the_flatnonzero_view(values):
    x = np.array(values)
    nonzero = np.flatnonzero(x)
    start, stop = fftconv._edges(x)
    view = x[start:stop]
    assert start == nonzero[0]
    assert view.base is x or view is x
    assert view.tobytes() == x[nonzero[0]:nonzero[-1] + 1].tobytes()


def reference_scales(a, b):
    """The powers of two of the refine's direct sums, from the definition:
    (0, 0) when the least nonzero values of the trimmed ``a`` and ``b``
    multiply to a normal double, else those that put each maximum in
    [2^(top-1), 2^top), top = (1021 - min(a.size, b.size).bit_length()) // 2."""
    least_a, least_b = (x[x != 0.0].min() for x in (a, b))
    if least_a * least_b >= np.finfo(float).tiny:
        return 0, 0
    top = (1021 - min(a.size, b.size).bit_length()) // 2
    return top - np.frexp(a.max())[1], top - np.frexp(b.max())[1]


def test_scales_match_the_least_nonzero_products():
    # trimmed rows (nonzero at both ends) of normal values from 1e-200 to
    # 1, of subnormal values, and of interior zeros, in every mix
    rng = np.random.default_rng(23)
    tiny = np.finfo(float).tiny
    kinds = {"normal": lambda size: 10.0 ** rng.uniform(-200.0, 0.0, size),
             "subnormal": lambda size: tiny * rng.uniform(1e-15, 1.0, size),
             "zero": np.zeros}
    seen = set()
    for _ in range(600):
        rows = []
        for _ in range(2):
            row = kinds["normal"](int(rng.integers(1, 40)))
            for kind in rng.choice(list(kinds), size=rng.integers(0, 3)):
                inner = rng.random(row.size) < 0.3
                inner[[0, -1]] = False
                row[inner] = kinds[kind](int(inner.sum()))
            rows.append(row)
        a, b = rows
        expected = reference_scales(a, b)
        assert numeric._scales(a, b, a.min(), b.min()) == expected
        least = a[a != 0.0].min() * b[b != 0.0].min()
        seen.add(("plain minimum 0", a.min() * b.min() == 0.0))
        seen.add(("subnormal least product", least < tiny))
        # both least nonzero values are plain minima, read without a mask
        seen.add(("positive minima, subnormal product",
                  min(a.min(), b.min()) > 0.0 and a.min() * b.min() < tiny))
        if expected != (0, 0):
            top = (1021 - min(a.size, b.size).bit_length()) // 2
            for x, scale in zip((a, b), expected):
                assert 2.0 ** (top - 1) <= np.ldexp(x.max(), scale) < 2.0 ** top
    assert len(seen) == 6  # each case, both ways


def test_refine_handles_all_zero_input():
    out = p_norm_convolve(Pmf([0.0, 0.0]), Pmf([0.0, 0.0, 0.0]), 1.0)
    assert_array_equal(out.values, np.zeros(4))


def assert_refined_like_oracle(got, expected):
    """Equal within 1e-14 relative, with the same exact zeros."""
    assert_array_equal(got == 0.0, expected == 0.0)
    assert_allclose(got, expected, rtol=1e-14, atol=0.0)


# values from 1e-300 to 1, half of them zero, with zero runs at both ends
magnitudes = st.one_of(st.just(0.0),
                       st.floats(min_value=-300.0, max_value=0.0).map(lambda e: 10.0 ** e))
operands = st.tuples(st.integers(0, 6), st.lists(magnitudes, min_size=1, max_size=40),
                     st.integers(0, 6)).map(lambda t: [0.0] * t[0] + t[1] + [0.0] * t[2])


@given(operands, operands)
@settings(max_examples=300, deadline=None)
def test_refine_matches_per_index_direct_sums(left, right):
    # at most 40 nonzero terms per output, each product at least 1e-600
    # and normal once the refine scales its row by powers of two, so the
    # float sum is within 40 * 2^-53 < 1e-14 relative of the oracle's exact
    # one; a subnormal output is that sum rounded once, as the oracle's is
    left, right = Pmf(left), Pmf(right)
    expected = fast_convolve(left, right).values.copy()
    refine_per_index(expected, left.values, right.values, 1e-6)
    assert_refined_like_oracle(p_norm_convolve(left, right, 1.0).values,
                               expected)


def test_refine_matches_per_index_with_an_all_zero_operand():
    left, right = Pmf([0.0, 0.0, 0.0]), Pmf([0.5, 1e-300, 1.0])
    expected = fast_convolve(left, right).values.copy()
    refine_per_index(expected, left.values, right.values, 1e-6)
    got = p_norm_convolve(left, right, 1.0).values
    assert_array_equal(got, expected)
    assert_array_equal(got, np.zeros(5))


def refine_calls(out, a, b, window=None, refine=numeric._refine_small_values):
    """Refine ``out``, which holds every output column, in place
    (``refine`` may also be ``_refine_rows``) over ``window``, all of a
    row by default, against each row's peak; the number of direct-sum
    calls it made."""
    calls = []
    convolve = np.convolve

    def counting_convolve(*args, **kwargs):
        calls.append(1)
        return convolve(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numeric.np, "convolve", counting_convolve)
        refine(out, a, b, window or (0, out.shape[-1]), 0, out.max(axis=-1))
    return len(calls)


def test_refine_merges_runs_across_small_gaps():
    rng = np.random.default_rng(12)
    a, b = rng.random(50), rng.random(20)
    row = np.ones(69)
    # gaps of 8 and 7 indices merge, gaps of 9 and 29 do not: three runs
    small = [0, 1, 2, 11, 19, 20, 30, 60, 68]
    assert numeric._RUN_GAP == 8
    row[small] = 1e-9
    expected, got = row.copy(), row.copy()
    refine_per_index(expected, a, b, 1e-6)
    assert refine_calls(got, a, b) == 3
    assert_refined_like_oracle(got, expected)
    untouched = np.setdiff1d(np.arange(69), small)
    assert_array_equal(got[untouched], 1.0)


def test_refine_writes_a_piece_with_and_one_without_gaps():
    rng = np.random.default_rng(14)
    a, b = rng.random(50), rng.random(20)
    row = np.ones(69)
    # outputs 5..14 make a piece without gaps, 30, 31, 38 and 39 one with
    # gaps of 6 and 0 indices (at most _RUN_GAP)
    small = [*range(5, 15), 30, 31, 38, 39]
    row[small] = 1e-9
    expected, got = row.copy(), row.copy()
    refine_per_index(expected, a, b, 1e-6)
    assert refine_calls(got, a, b) == 2
    assert_refined_like_oracle(got, expected)
    untouched = np.setdiff1d(np.arange(69), small)
    assert_array_equal(got[untouched], 1.0)


def test_refine_cuts_a_long_run_into_capped_pieces():
    rng = np.random.default_rng(15)
    a, b = rng.random(400), rng.random(200)
    row = np.ones(599)
    row[40:40 + 2 * numeric.REFINE_RUN_CAP + 1] = 1e-9  # one run
    expected, got = row.copy(), row.copy()
    refine_per_index(expected, a, b, 1e-6)
    assert refine_calls(got, a, b) == 3
    assert_refined_like_oracle(got, expected)


def test_windowed_refine_skips_a_row_small_only_outside_its_window():
    rng = np.random.default_rng(16)
    a, b = 0.5 + rng.random(50), 0.5 + rng.random(20)
    a[:5] *= 1e-9
    a[-5:] *= 1e-9  # outputs 0..4 and 64..68 are small
    row = fast_convolve(Pmf(a), Pmf(b)).values
    full, got = row.copy(), row.copy()
    assert refine_calls(full, a, b) == 2
    assert refine_calls(got, a, b, window=(10, 40)) == 0
    assert got[10:50].tobytes() == full[10:50].tobytes()
    assert got.max() == full.max()
    rows = np.stack([row, row])
    assert refine_calls(rows, a, b, window=(10, 40), refine=numeric._refine_rows) == 0
    assert rows.tobytes() == np.stack([row, row]).tobytes()  # no row visited


def test_windowed_refine_sums_a_piece_cut_by_the_window_whole():
    rng = np.random.default_rng(17)
    a, b = 0.5 + rng.random(50), 0.5 + rng.random(20)
    a[:3] *= 1e-9
    a[10:40] *= 1e-9
    a[47:] *= 1e-9  # runs of small outputs 0..2, 29..39 and 66..68
    row = fast_convolve(Pmf(a), Pmf(b)).values
    full, got = row.copy(), row.copy()
    assert refine_calls(full, a, b) == 3
    assert refine_calls(got, a, b, window=(34, 20)) == 1  # the run 29..39
    assert got[29:54].tobytes() == full[29:54].tobytes()  # all of it, 29..33 too
    assert got.max() == full.max()


def test_windowed_reverse_layer_makes_fewer_direct_sums():
    # the reverse-layer calls (parent messages against sibling pairs, a
    # 3-D left operand) of a pnorm:1 solve at (32, 256)
    instance = generate_subset_sum_instance(32, 256, 0)
    stock = operator_from_name("pnorm:1")
    layers = []

    def recording_rows(left, right, window):
        if left.ndim == 3:
            layers.append((left, right, window))
        return stock.apply_rows(left, right, window=window)

    convolution_tree(instance.priors, instance.sum_likelihood,
                     ConvolutionOperator("pnorm:1", stock.apply, "max", apply_rows=recording_rows))
    assert len(layers) == 5
    for left, right, (lo, n) in layers:
        a, b = _canonical_rows(left, right)
        full, _ = fftconv._convolve_rows(a, b)
        windowed = full.copy()
        full_sums = refine_calls(full, a, b, refine=numeric._refine_rows)
        assert refine_calls(windowed, a, b, (lo, n), numeric._refine_rows) < full_sums
        assert windowed[..., lo:lo + n].tobytes() == full[..., lo:lo + n].tobytes()
        assert windowed.max(axis=-1).tobytes() == full.max(axis=-1).tobytes()


def test_refine_runs_stop_at_the_bounds_of_the_valid_columns(monkeypatch):
    # one output of a long-by-short pair (l = 2s - 1) is large, at column
    # 44; every other is small: one run over the gap it leaves, which the
    # valid columns 29..58 cut into three
    s = 30
    a, b = np.full(2 * s - 1, 1e-9), np.full(s, 1e-9)
    a[s - 1], b[s // 2] = 1.0, 1.0
    row = fast_convolve(Pmf(a), Pmf(b)).values
    expected = row.copy()
    refine_per_index(expected, a, b, 1e-6)
    got = row.copy()
    assert refine_calls(got, a, b) == 1
    monkeypatch.setattr(fftconv, "VALID_FROM", s)
    got = row.copy()
    assert refine_calls(got, a, b) == 3
    assert_refined_like_oracle(got, expected)


@pytest.mark.parametrize("window, held", [
    ((35, 10), (29, 30)), ((29, 30), (29, 30)), ((20, 20), (0, 59)), ((50, 20), (29, 59)),
    ((0, 20), (0, 29)), ((65, 20), (59, 29)), ((10, 70), (0, 88)), ((88, 0), (88, 0)),
])
def test_p_norm_sums_take_every_part_the_window_touches(monkeypatch, window, held):
    # the parts of a 59 by 30 pair: columns 0..28, the valid 29..58, 59..87
    monkeypatch.setattr(fftconv, "VALID_FROM", 30)
    windows = []
    convolve_rows = fftconv._convolve_rows

    def spying_convolve_rows(left, right, *args, **kwargs):
        windows.append(kwargs["window"])
        return convolve_rows(left, right, *args, **kwargs)

    monkeypatch.setattr(numeric, "_convolve_rows", spying_convolve_rows)
    rng = np.random.default_rng(22)
    for p in (1.0, 4.0):
        windows.clear()
        _p_norm_rows(rng.random((2, 1, 59)), rng.random((2, 2, 30)), p, window=window)
        assert windows == [held]
    # any other pair takes its whole row for a window that keeps a column
    windows.clear()
    _p_norm_rows(rng.random(59), rng.random(31), 1.0, window=window)
    assert windows == [(0, 89) if window[1] else window]


def test_support_counts_take_the_linear_transform(monkeypatch):
    # every count is needed, edges and valid columns alike, so a
    # long-by-short pair of combs takes one transform of its full output
    monkeypatch.setattr(fftconv, "VALID_FROM", 1)
    a, b = np.tile([1.0, 0.0], 40)[:-1], np.tile([1.0, 0.0], 10)[:-1]
    lengths = spy_transform_lengths(monkeypatch)
    counts = numeric._support_counts(a, b)
    assert lengths == [fft_length(79 + 19 - 1)] * 2
    assert_array_equal(counts, np.convolve(a, b))


def test_refine_leaves_a_row_without_small_outputs_alone():
    rng = np.random.default_rng(13)
    a, b = rng.random(30), rng.random(30)
    row = fast_convolve(Pmf(a), Pmf(b)).values.copy()
    got = row.copy()
    assert refine_calls(got, a, b) == 0
    assert got.tobytes() == row.tobytes()


def test_refine_zeroes_outputs_without_nonzero_terms_without_direct_sums():
    # a comb against a comb: every odd output has no nonzero term
    rng = np.random.default_rng(14)
    a, b = rng.random(101), rng.random(51)
    a[1::2], b[1::2] = 0.0, 0.0
    got = fast_convolve(Pmf(a), Pmf(b)).values.copy()
    expected = got.copy()
    refine_per_index(expected, a, b, 1e-6)
    assert refine_calls(got, a, b) == 0
    assert_array_equal(got, expected)
    assert np.all(got[1::2] == 0.0)


# ---------------------------------------------------------------------------
# Batched rows

def row_cases():
    """(left, right) row arrays: equal widths in both byte orders and equal
    rows, unequal widths both ways round, a 1-D row broadcast against many,
    the parent-against-two-siblings layout of the reverse pass, length-1
    rows and rows that decay far below their peak. Then span pairs:
    narrow rows mixed with dense ones, short dense rows against long
    narrow ones, the parent-against-siblings layout of narrow rows, and
    all-zero rows."""
    rng = np.random.default_rng(21)
    equal = rng.random((6, 40)), rng.random((6, 40))
    equal[1][3] = equal[0][3]
    mixed = narrow_rows(rng, (8,), 400)
    mixed[[2, 5]] = rng.random((2, 400))
    zeros = narrow_rows(rng, (2, 3), 400)
    zeros[0, 1] = 0.0
    zeros[1, :, :] = 0.0
    return [equal,
            (rng.random((5, 7)), rng.random((5, 300))),
            (rng.random(63), rng.random((4, 64))),
            (rng.random((3, 1, 63)), rng.random((3, 2, 32))),
            (rng.random((4, 1)), rng.random((4, 1))),
            (np.array([[0.7]]), rng.random((3, 2))),
            (np.exp(-40.0 * rng.random((4, 50))), np.exp(-40.0 * rng.random((4, 50)))),
            (mixed, narrow_rows(rng, (8,), 400)),
            (rng.random((6, 9)), narrow_rows(rng, (6,), 500)),
            (narrow_rows(rng, (3, 1), 799), narrow_rows(rng, (3, 2), 400)),
            (zeros, narrow_rows(rng, (2, 3), 450)),
            (np.zeros((2, 1)), np.zeros((2, 1)))]


@pytest.mark.parametrize("refine_below", [None, REFINE_BELOW])
@pytest.mark.parametrize("block_floats", [fftconv.BLOCK_FLOATS, 2000, 1])
def test_fast_convolve_many_is_bit_identical_to_one_pair_calls(
        monkeypatch, refine_below, block_floats):
    # many row pairs through fast_convolve_rows, or, refined below
    # REFINE_BELOW of each row's peak, through the p-norm rows at p = 1
    # and p = 4; small blocks cut the leading axis into several transforms
    monkeypatch.setattr(fftconv, "BLOCK_FLOATS", block_floats)
    if refine_below is None:
        kernels = [(fftconv.fast_convolve_rows, fast_convolve)]
    else:
        kernels = [(partial(_p_norm_rows, p=p), partial(p_norm_convolve, p=p))
                   for p in (1.0, 4.0)]
    for many, one_pair in kernels:
        for left, right in row_cases():
            got, _ = many(left, right, window=(0, left.shape[-1] + right.shape[-1] - 1))
            lead = np.broadcast_shapes(left.shape[:-1], right.shape[:-1])
            assert got.shape == lead + (left.shape[-1] + right.shape[-1] - 1,)
            left, right = (np.broadcast_to(x, lead + x.shape[-1:]) for x in (left, right))
            for index in np.ndindex(lead):
                one = one_pair(Pmf(left[index]), Pmf(right[index]))
                assert got[index].tobytes() == one.values.tobytes()


@pytest.mark.parametrize("block_floats", [fftconv.BLOCK_FLOATS, 1])
def test_shared_operand_is_transformed_once(monkeypatch, block_floats):
    monkeypatch.setattr(fftconv, "BLOCK_FLOATS", block_floats)
    shapes = spy_transforms(monkeypatch, np.shape)
    rng = np.random.default_rng(4)
    message, siblings = rng.random((1, 1, 63)), rng.random((1, 2, 32))
    fftconv.fast_convolve_rows(message, siblings, window=(0, 94))
    assert sum(np.prod(shape[:-1]) for shape in shapes) == 3  # rows transformed
    # a one-pair call is the one-row case of the same path: one transform
    # per operand of its zero-padded (rungs, rows, size) stack, every
    # ladder rung in that one call
    left, right = Pmf(rng.random(64)), Pmf(rng.random(64))
    size = fft_length(64 + 64 - 1)
    shapes.clear()
    fast_convolve(left, right)
    assert shapes == [(1, 1, size)] * 2
    shapes.clear()
    max_convolve_piecewise(left, right)
    assert shapes == [(len(DEFAULT_P_LADDER), 1, size)] * 2
    # so are the support counts of the p-norm refine: a comb pair's zero
    # outputs carry round-off, and its trimmed operands keep their gaps
    comb = Pmf(np.tile([1.0, 0.0], 32)[:-1])
    shapes.clear()
    p_norm_convolve(comb, comb, 4.0)
    assert shapes == [(1, 1, fft_length(63 + 63 - 1))] * 4


def spy_transform_lengths(monkeypatch) -> list:
    """The length of every forward transform made from now on, in order."""
    return spy_transforms(monkeypatch, lambda stack: stack.shape[-1])


def test_every_row_spanning_at_most_half_is_probed_narrow():
    # the probe reads four columns, so it may pass dense rows, but it must
    # pass every row whose nonzero span is at most half of it
    for n in range(1, 41):
        rows = [np.zeros(n)]  # all zero
        for length in range(1, n // 2 + 1):
            for start in range(n - length + 1):
                rows.append(np.zeros(n))
                rows[-1][start:start + length] = 1.0
        assert np.all(fftconv._maybe_narrow(np.array(rows))), n
    assert fftconv._maybe_narrow(np.ones((3, 1, 40))) is False


@pytest.mark.parametrize("spans, size", [((32, 32), 64), ((32, 33), 128)])
def test_a_pair_takes_a_span_transform_up_to_half_its_outputs(monkeypatch, spans, size):
    # two 64-bin rows: spans of 32 and 32 make 63 of the 127 outputs, at
    # most half; 32 and 33 make 64, and the pair is transformed whole
    left, right = np.zeros(64), np.zeros(64)
    left[:spans[0]] = 1.0
    right[10:10 + spans[1]] = 1.0
    lengths = spy_transform_lengths(monkeypatch)
    fast_convolve(Pmf(left), Pmf(right))
    assert lengths == [size] * 2


@pytest.mark.parametrize("one_pair", [fast_convolve, partial(p_norm_convolve, p=1.0),
                                      max_convolve_piecewise],
                         ids=["fast", "pnorm1", "piecewise"])
def test_peaked_pair_transforms_its_spans_only(monkeypatch, one_pair):
    # Gaussians of sigma 2 and 8 on 8192 bins underflow to exact zeros
    # about 38.6 sigma from their centres
    bins = np.arange(8192)
    left = Pmf(np.exp(-0.5 * ((bins - 1000.3) / 2.0) ** 2))
    right = Pmf(np.exp(-0.5 * ((bins - 5000.7) / 8.0) ** 2))
    (l_first, *_, l_last), (r_first, *_, r_last) = (np.flatnonzero(x.values)
                                                    for x in (left, right))
    outputs = int((l_last - l_first + 1) + (r_last - r_first + 1) - 1)
    assert 2 * outputs <= 8192 + 8192 - 1
    lengths = spy_transform_lengths(monkeypatch)
    out = one_pair(left, right).values
    assert lengths == [fft_length(outputs)] * 2
    first = l_first + r_first
    assert np.all(out[:first] == 0.0) and np.all(out[first + outputs:] == 0.0)


@pytest.mark.parametrize("name", ["sum", "max-numeric", "pnorm:1", "pnorm:4"])
def test_dense_tree_transforms_at_the_full_length(monkeypatch, name):
    # no row pair of a subset-sum solve is a span pair, and with 32 leaves of
    # k = VALID_FROM // 16 every child reach (at most 16k - 15) stays below
    # VALID_FROM, so every layer keeps the transforms, and the bits, of whole rows
    instance = generate_subset_sum_instance(32, fftconv.VALID_FROM // 16, 0)
    expected, lengths = [], spy_transform_lengths(monkeypatch)
    convolve_rows = fftconv._convolve_rows

    def spying_convolve_rows(left, right, *args, **kwargs):
        assert min(left.shape[-1], right.shape[-1]) < fftconv.VALID_FROM
        expected.append((len(lengths), fft_length(left.shape[-1] + right.shape[-1] - 1)))
        return convolve_rows(left, right, *args, **kwargs)

    for module in (fftconv, numeric):
        monkeypatch.setattr(module, "_convolve_rows", spying_convolve_rows)
    convolution_tree(instance.priors, instance.sum_likelihood, operator_from_name(name))
    assert len(lengths) == 2 * len(expected) >= 20
    for first, size in expected:
        assert lengths[first:first + 2] == [size, size]


@pytest.mark.parametrize("name", ["sum", "max-numeric", "pnorm:1", "pnorm:4"])
def test_dense_tree_transforms_forward_whole_and_reverse_at_the_parents_length(monkeypatch,
                                                                             name):
    # no row pair of a subset-sum solve is a span pair: a forward layer of
    # rows w wide transforms at fft_length(2w - 1), and a reverse layer of
    # parents W = 2w - 1 wide at fft_length(W) from VALID_FROM on, at
    # fft_length(W + w - 1) below it; reaches k, 2k - 1, 4k - 3, ... cross
    # the floor between the second and third reverse layers from the leaves
    instance = generate_subset_sum_instance(32, fftconv.VALID_FROM // 2, 0)
    expected, lengths = [], spy_transform_lengths(monkeypatch)
    convolve_rows = fftconv._convolve_rows

    def spying_convolve_rows(left, right, *args, **kwargs):
        (a, b), size = sorted((left.shape[-1], right.shape[-1]), reverse=True), None
        if a == b:  # forward
            size = fft_length(2 * a - 1)
        elif a == 2 * b - 1:  # reverse
            size = fft_length(a) if b >= fftconv.VALID_FROM else fft_length(a + b - 1)
        expected.append((len(lengths), size, a != b and b >= fftconv.VALID_FROM))
        return convolve_rows(left, right, *args, **kwargs)

    for module in (fftconv, numeric):
        monkeypatch.setattr(module, "_convolve_rows", spying_convolve_rows)
    convolution_tree(instance.priors, instance.sum_likelihood, operator_from_name(name))
    assert len(lengths) == 2 * len(expected) >= 20
    for first, size, _ in expected:
        assert lengths[first:first + 2] == [size, size]
    # reverse layers on both sides of the floor
    assert {circular for *_, circular in expected} == {True, False}


@pytest.mark.parametrize("name", ["sum", "max-numeric", "pnorm:1", "pnorm:4"])
def test_dense_reverse_layer_transforms_at_the_parents_length_only(monkeypatch, name):
    # the keep-window (w - 1, w) of parents 2w - 1 wide is their valid part
    rng = np.random.default_rng(21)
    w = fftconv.VALID_FROM
    message, siblings = rng.random((3, 1, 2 * w - 1)), rng.random((3, 2, w))
    lengths = spy_transform_lengths(monkeypatch)
    operator_from_name(name).apply_rows(message, siblings, window=(w - 1, w))
    assert lengths == [fft_length(2 * w - 1)] * 2
    # a window past the valid columns takes the linear transform too
    lengths.clear()
    operator_from_name(name).apply_rows(message, siblings, window=(w - 2, w))
    assert lengths == [fft_length(2 * w - 1)] * 2 + [fft_length(3 * w - 2)] * 2


def long_by_short_pairs():
    """Full one-pair calls of long-by-short pairs above VALID_FROM: l = 2s - 1
    and l > 2s - 1, random and peaked."""
    rng = np.random.default_rng(23)
    s = fftconv.VALID_FROM
    bins = np.arange(3 * s)
    return [(Pmf(rng.random(2 * s - 1)), Pmf(rng.random(s), offset=3)),
            (Pmf(rng.random(s)), Pmf(rng.random(3 * s), offset=-2)),
            (Pmf(np.exp(-0.5 * ((bins - 0.4 * s) / 40.0) ** 2)),
             Pmf(np.exp(-0.5 * ((bins[:s] - 0.7 * s) / 15.0) ** 2)))]


@pytest.mark.parametrize("pair", range(3))
def test_long_by_short_pairs_match_naive_convolution(pair):
    left, right = long_by_short_pairs()[pair]
    naive = naive_convolve(left, right)
    scale = naive.values.max()
    for one_pair in (fast_convolve, partial(p_norm_convolve, p=1.0)):
        out = one_pair(left, right)
        assert (out.offset, len(out)) == (naive.offset, len(naive))
        assert np.abs(out.values - naive.values).max() <= 1e-9 * scale


@pytest.mark.parametrize("pair", range(3))
def test_long_by_short_pairs_bound_the_max_convolution(pair):
    # the norm sandwich, the p = 64 ratio band and the piecewise median
    # error of equal-length pairs, on full one-pair calls
    left, right = long_by_short_pairs()[pair]
    exact = naive_max_convolve(left, right).values
    slack = 1e-9 * exact.max()
    t = pair_counts(len(left), len(right))
    for p in (4.0, 64.0):
        est = p_norm_convolve(left, right, p).values
        # below, only where the p-th power of the max-normalized exact value
        # is normal: a peaked pair's far tail underflows to zero at p = 64
        normal = (exact / exact.max()) ** p >= np.finfo(float).tiny
        assert np.all(est[normal] >= exact[normal] - slack)
        assert np.all(est <= exact * t ** (1.0 / p) + slack)
    band = exact >= 0.6 * exact.max()
    ratio = max_convolve_normalized(left, right, 64.0).values[band] / exact[band]
    assert np.all((ratio >= 1 / 1.2) & (ratio <= 1.2))
    keep = exact >= 1e-3 * exact.max()
    est = max_convolve_piecewise(left, right).values
    assert np.median(np.abs(est[keep] - exact[keep]) / exact[keep]) <= 0.1


@pytest.mark.parametrize("kernel", [
    fftconv.fast_convolve_rows,
    partial(_p_norm_rows, p=1.0),
    partial(_p_norm_rows, p=4.0),
    partial(_ladder_max_convolve, ladder=DEFAULT_P_LADDER, tau=DEFAULT_TAU),
], ids=["fast", "pnorm1", "pnorm4", "ladder"])
@pytest.mark.parametrize("left_shape,right_shape", [
    ((3, 0, 5), (3, 0, 4)), ((0, 5), (0, 4)), ((0, 2, 5), (0, 1, 4)), ((0, 3), (0, 5)),
])
def test_rows_with_an_empty_leading_axis_are_empty(kernel, left_shape, right_shape):
    lead = np.broadcast_shapes(left_shape[:-1], right_shape[:-1])
    n = left_shape[-1] + right_shape[-1] - 1
    out, peak = kernel(np.empty(left_shape), np.empty(right_shape), window=(0, n))
    assert out.shape == lead + (n,)
    assert peak.shape == lead


def test_refine_cost_stays_near_the_overlaps_of_its_outputs():
    # dense, smooth tails: two runs of about 6000 small outputs, each with
    # thousands of nonzero terms
    bins = np.arange(8192)
    a = np.exp(-0.5 * ((bins - 4095.5) / 300.0) ** 2)
    b = np.exp(-0.5 * ((bins - 4096.5) / 300.0) ** 2)
    out = fast_convolve(Pmf(a), Pmf(b)).values.copy()
    small = np.flatnonzero(out <= out.max() * 1e-6)
    overlaps = int(pair_counts(a.size, b.size)[small].sum())  # nothing to trim
    products = []
    convolve = np.convolve

    def counting_convolve(x, y, mode="full"):
        assert mode == "valid"
        products.append((abs(x.size - y.size) + 1) * min(x.size, y.size))
        return convolve(x, y, mode)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numeric.np, "convolve", counting_convolve)
        numeric._refine_small_values(out, a, b, (0, out.size), 0, out.max())
    assert small.size > 10000
    assert sum(products) <= 1.1 * overlaps


# ---------------------------------------------------------------------------
# Transform workspace

def _bytes(result) -> bytes:
    """The bytes of a kernel's (kept, peak) pair or of a Pmf."""
    if isinstance(result, Pmf):
        return result.values.tobytes() + str(result.offset).encode()
    return b"|".join(np.asarray(x).tobytes() for x in result)


def workspace_calls():
    """Every row kernel on large rows (buffers above KEEP_BYTES), small
    rows, rows cut into several blocks, rows with span pairs,
    large rows again and small rows again, then every one-pair function
    in the same order: (label, call) pairs."""
    rng = np.random.default_rng(31)
    ladder = partial(_ladder_max_convolve, ladder=DEFAULT_P_LADDER, tau=DEFAULT_TAU)
    kernels = {"fast": fftconv.fast_convolve_rows,
               "pnorm1": partial(_p_norm_rows, p=1.0),
               "pnorm4": partial(_p_norm_rows, p=4.0),
               "ladder": ladder}
    huge = rng.random((1, 100_000)), rng.random((1, 100_000))  # a 1.6 MB stack
    small = rng.random((3, 40)), rng.random((3, 40))
    rows = {"huge": huge,
            "small": small,
            "blocks": (rng.random((24, 2000)), rng.random((24, 2000))),
            # parent messages against sibling pairs, as a reverse layer lays them out
            "reverse": (rng.random((40, 1, 1999)) ** 8, rng.random((40, 2, 1000))),
            "right-broadcast": (rng.random((5, 2, 60)), rng.random((5, 1, 20))),
            "neither": (rng.random((4, 1, 50)), rng.random((1, 3, 30))),
            # the p-norm refine takes the support counts of its comb rows
            "comb": (np.tile([1.0, 0.0], 32)[:-1], np.tile([1.0, 0.0], 32)[:-1]),
            # span pairs, mixed with a dense pair, cut one by one
            "narrow": (narrow_rows(rng, (4,), 400), np.vstack([narrow_rows(rng, (3,), 400),
                                                               rng.random((1, 400))])),
            "huge-again": huge,
            "small-again": small}
    calls = []
    for name, (left, right) in rows.items():
        window = (0, left.shape[-1] + right.shape[-1] - 1)
        for kernel, fn in kernels.items():
            calls.append((f"{kernel}-{name}", partial(fn, left, right, window=window)))
    pairs = {"big": (Pmf(rng.random(1 << 15)), Pmf(rng.random(1 << 15))),  # a 1.5 MiB stack
             "small": (Pmf(rng.random(64)), Pmf(rng.random(50), 3)),
             "comb": (Pmf(np.tile([1.0, 0.0], 32)[:-1]), Pmf(np.tile([1.0, 0.0], 40)[:-1])),
             "narrow": tuple(Pmf(row) for row in narrow_rows(rng, (2,), 5000))}
    pairs["big-again"] = pairs["big"]
    one_pair = {"fast": fast_convolve,
                "pnorm1": partial(p_norm_convolve, p=1.0),
                "pnorm4": partial(p_norm_convolve, p=4.0),
                "normalized": partial(max_convolve_normalized, p=8.0),
                "piecewise": max_convolve_piecewise}
    for name, (left, right) in pairs.items():
        for function, fn in one_pair.items():
            calls.append((f"{function}-pair-{name}", partial(fn, left, right)))
    return calls


def test_no_result_aliases_the_workspace():
    # each call returns what it returns from a fresh workspace, and no later
    # call, larger, smaller or cut into blocks, changes an earlier result
    calls = workspace_calls()
    want = {}
    for label, call in calls:
        fftconv._workspace.buffers.clear()
        want[label] = _bytes(call())
    got = []
    for label, call in calls:
        got.append((label, call()))
        for earlier, result in got:
            assert _bytes(result) == want[earlier], (earlier, label)


def test_rows_that_neither_operand_spans_are_one_pair_calls():
    # (4, 1) rows against (1, 3) rows: the right operand is broadcast to (4, 3)
    rng = np.random.default_rng(33)
    left, right = rng.random((4, 1, 50)), rng.random((1, 3, 30))
    got, _ = fftconv.fast_convolve_rows(left, right, window=(0, 79))
    for i, j in np.ndindex(4, 3):
        one = fast_convolve(Pmf(left[i, 0]), Pmf(right[0, j])).values
        assert got[i, j].tobytes() == one.tobytes()


def span_calls():
    """Row kernels and one-pair functions on span pairs: a peaked pair,
    one pair and stacked with a dense pair, and a layer of
    narrow rows at different places, one of its pairs dense, under windows
    that cut into their span outputs or miss them. (label, call) pairs."""
    rng = np.random.default_rng(53)
    bins = np.arange(8192)
    peaked = (Pmf(np.exp(-0.5 * ((bins - 1000.3) / 2.0) ** 2)),
              Pmf(np.exp(-0.5 * ((bins - 5000.7) / 8.0) ** 2)))
    left, right = narrow_rows(rng, (6,), 400), narrow_rows(rng, (6,), 400)
    right[4] = rng.random(400)
    ladder = partial(_ladder_max_convolve, ladder=DEFAULT_P_LADDER, tau=DEFAULT_TAU)
    kernels = {"fast": fftconv.fast_convolve_rows,
               "pnorm1": partial(_p_norm_rows, p=1.0),
               "pnorm4": partial(_p_norm_rows, p=4.0),
               "ladder": ladder}
    one_pair = {"fast": fast_convolve,
                "pnorm1": partial(p_norm_convolve, p=1.0),
                "pnorm4": partial(p_norm_convolve, p=4.0),
                "piecewise": max_convolve_piecewise}
    calls = [(f"{name}-peaked", partial(fn, *peaked)) for name, fn in one_pair.items()]
    # the same peaked pair stacked with a dense pair, as rows
    stacked = [np.stack([x.values, rng.random(8192)]) for x in peaked]
    calls += [(f"{name}-peaked-rows", partial(fn, *stacked, window=(0, 16383)))
              for name, fn in kernels.items()]
    for window in [(0, 799), (150, 300), (0, 40), (700, 99)]:
        for name, fn in kernels.items():
            calls.append((f"{name}-narrow-{window}", partial(fn, left, right, window=window)))
    return calls


@pytest.mark.parametrize("label, call", span_calls(), ids=[c[0] for c in span_calls()])
def test_span_calls_read_no_workspace_column_they_did_not_write(label, call):
    # with every kept buffer of this thread filled with NaN, a call that
    # reads a column its transforms did not write returns NaN somewhere
    fftconv._workspace.buffers.clear()
    want = _bytes(call())
    buffers = fftconv._workspace.buffers
    assert set(buffers) == {"stack", "left", "right"}
    for buf in buffers.values():
        buf.fill(np.nan)
    assert _bytes(call()) == want


def test_workspace_keeps_no_buffer_above_the_cap():
    rng = np.random.default_rng(41)
    small = Pmf(rng.random(64)), Pmf(rng.random(64))
    big = Pmf(rng.random(1 << 15)), Pmf(rng.random(1 << 15))  # a 1.5 MiB stack
    buffers = fftconv._workspace.buffers
    max_convolve_piecewise(*small)
    kept = dict(buffers)
    assert kept and all(buf.nbytes <= fftconv.KEEP_BYTES for buf in kept.values())
    max_convolve_piecewise(*small)
    assert all(buffers[role] is buf for role, buf in kept.items())  # reused
    max_convolve_piecewise(*big)
    assert not buffers  # dropped, and the call's own buffers were not kept
    max_convolve_piecewise(*small)
    assert buffers and all(buf.nbytes <= fftconv.KEEP_BYTES for buf in buffers.values())


def test_concurrent_calls_return_the_serial_bits():
    # each thread has its own workspace; every worker loops over inputs of
    # its own sizes, so a shared buffer would mix them up
    rng = np.random.default_rng(43)
    operator = operator_from_name("max-numeric")
    jobs = []
    for k, (n, tree_k) in zip((300, 512, 777, 1000), ((8, 64), (8, 96), (16, 48), (4, 128))):
        left, right = Pmf(rng.random(k)), Pmf(rng.random(k - 37))
        instance = generate_subset_sum_instance(n, tree_k, k)
        calls = [partial(max_convolve_piecewise, left, right),
                 partial(p_norm_convolve, left, right, 4.0),
                 partial(convolution_tree, instance.priors, instance.sum_likelihood, operator)]
        jobs.append(calls)

    def digest(calls):
        results = [call() for call in calls]
        return [_bytes(r) if isinstance(r, Pmf)
                else b"".join(_bytes(p) for p in [*r.likelihoods, r.sum_prior])
                for r in results]

    serial = [digest(calls) for calls in jobs]

    def worker(calls, want):
        return all(digest(calls) == want for _ in range(25))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(worker, calls, want) for calls, want in zip(jobs, serial)]
            assert all(future.result(timeout=120) for future in futures)
    finally:
        sys.setswitchinterval(interval)
