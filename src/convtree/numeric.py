"""Numerical max-convolution in O(k log k) via the p-norm trick.

The max over the shifted products u_m[l] = L[l] * R[m-l] is the limit of
||u_m||_p as p -> infinity. For a finite exponent p the p-norm of every u_m
can be read off one standard convolution of the elementwise p-th powers:

    out[m] = (sum_l L[l]^p R[m-l]^p)^(1/p)

which overshoots the true max by at most t(m)^(1/p), t(m) being the number
of valid (l, m-l) pairs at index m. Larger p is closer to the max but loses
small values to underflow; the piecewise ladder picks, per index, the result
of the largest exponent whose (max-normalized) value is still trustworthy.

No kept column is rooted at or below zero: ``_root``, which roots the
p-norm and the ladder's fallback rung, reads such values as zero and keeps
them off np.power, which is several times slower on 0.0 (``_root`` says
by how much). Each upper rung is rooted only above its floor, far enough
below tau that the stitch takes nothing at or under it.

Neither operator works through the exact zeros of a span pair
(``fftconv._cut_pair``: a pair whose nonzero spans convolve to at most
half of its outputs). Such a pair is cut to its spans right after the
canonical order, so its normalization, transform, refine and root see the
spans alone, and every other kept column is exact +0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fftconv import (
    _canonical_rows,
    _convolve_rows,
    _cut_pair,
    _edges,
    _keep_window,
    _ladder_powers,
    _one_pair,
    padded_length,
)
from .pmf import DegenerateDistributionError, Pmf, naive_max_convolve

DEFAULT_P_LADDER = (4.0, 32.0, 64.0)
DEFAULT_TAU = 0.6

# Outputs of the exponent-convolve step below this fraction of the peak are
# recomputed by direct summation: the 1/p root turns the FFT's ~1e-16
# absolute round-off into order-one values at indices whose true result is
# tiny, which would break the norm inequalities the operator guarantees.
REFINE_BELOW = 1e-6

# Small outputs at most this many indices apart share one direct-sum call
# in _refine_small_values, up to REFINE_RUN_CAP outputs per call.
_RUN_GAP = 8
REFINE_RUN_CAP = 256


def _check_p(p: float) -> float:
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"invalid exponent: p must be finite and >= 1, got {p!r}")
    return p


def _p_label(p: float) -> str:
    """p spelled so it reads back bit for bit: ``repr`` of the float, with
    whole exponents as integers (2.0 reads 2, 2.50000001 keeps its digits)."""
    return repr(float(p)).removesuffix(".0")


@dataclass(frozen=True)
class PiecewiseConfig:
    """Ascending exponent ladder plus the trust threshold tau.

    tau applies to the max-normalized (pre-rescale) values, so it means
    "within tau of the largest output" regardless of input scale.
    """

    p_ladder: tuple[float, ...] = DEFAULT_P_LADDER
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        ladder = tuple(float(p) for p in self.p_ladder)
        if len(ladder) < 2:
            raise ValueError("p_ladder needs at least two exponents")
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError("p_ladder must be strictly ascending")
        for p in ladder:
            _check_p(p)
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau!r}")
        object.__setattr__(self, "p_ladder", ladder)
        object.__setattr__(self, "tau", float(self.tau))


def p_norm_convolve(left: Pmf, right: Pmf, p: float) -> Pmf:
    """p-norm convolution: out[m] = (sum_l L[l]^p R[m-l]^p)^(1/p).

    p = 1 is standard convolution; p -> infinity approaches max-convolution
    from above. Satisfies, up to round-off,

        max_conv[m] <= out[m] <= max_conv[m] * t(m)^(1/p)

    and is elementwise nonincreasing in p.
    """
    return _one_pair(_p_norm_rows, left, right, p)


def _p_norm_rows(left: np.ndarray, right: np.ndarray, p: float,
                 window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """p_norm_convolve of every row pair, cut to the keep-window
    ``window=(lo, n)``: the kept columns and each full row's peak.

    Inputs are divided by their maxima before the p-th power, so large
    values cannot overflow, and the output is scaled back. The powered
    operands are put in canonical order and convolved, and outputs below
    REFINE_BELOW of each row's peak are recomputed by direct summation.
    The refine and the root act on the kept columns only: the refine reads
    the whole row (``_refine_rows``) to find and cut its small outputs but
    sums only the pieces that reach into the window, and a row's peak,
    never small, is the root of its largest power sum, since the root is
    monotone. A span pair is cut to the spans of its powered operands
    after the canonical order (``_cut_pair``), so its convolution, refine
    and root run on the spans alone.
    """
    p = _check_p(p)
    left, right = np.asarray(left, dtype=float), np.asarray(right, dtype=float)
    if p == 1.0:  # no power to overflow and no root to take
        return _cut_pair(_p_norm_sums, *_canonical_rows(left, right), window)
    (left, left_peak), (right, right_peak) = _max_normalized(left), _max_normalized(right)
    left, right = _ladder_powers(left, (p,))[0], _ladder_powers(right, (p,))[0]
    out, peak = _cut_pair(partial(_p_norm_sums, p=p), *_canonical_rows(left, right), window)
    scale = left_peak * right_peak
    out *= scale[..., None]
    return out, peak * scale


def _p_norm_sums(a: np.ndarray, b: np.ndarray, window: tuple[int, int],
                 p: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """_p_norm_rows of the canonical powered operands (``_cut_pair``),
    before the input scale: the refined power sums of the kept columns
    and each full row's peak, both rooted."""
    sums = _convolve_rows(a, b)
    _refine_rows(sums, a, b, window)
    out, peak = _keep_window(sums, window)
    if p == 1.0:
        return out, peak
    return _root(out, p), np.power(peak, 1.0 / p)


def _root(x: np.ndarray, p: float) -> np.ndarray:
    """x**(1/p), in place, reading every value at or below zero (negative
    round-off, -0.0, 0.0) as zero. No such value reaches np.power: on
    numpy 2.4.6 (AVX-512 dispatch) it takes about 15 ns on 0.0 against
    about 4.3 ns on any other double. They are raised to 1 (the maximum
    of x and the mask, which leaves a positive value as it is), rooted to
    exactly 1 and lowered back to 0.0 by subtracting the mask. Zeros that
    interleave with round-off would make a masked np.power slower than
    these passes. Returns ``x``."""
    zero = x <= 0.0
    if zero.any():
        np.maximum(x, zero, out=x)
        np.power(x, 1.0 / p, out=x)
        x -= zero
        return x
    return np.power(x, 1.0 / p, out=x)


def _refine_rows(out: np.ndarray, a: np.ndarray, b: np.ndarray, window: tuple[int, int]):
    """_refine_small_values of each row of ``out`` that has a small output
    in the kept columns ``out[..., lo:lo + n]`` (``window=(lo, n)``), small
    meaning against the full row's peak."""
    # One pair: _refine_small_values finds its small outputs itself; the
    # scan and index loop below add 22-38 us to a 67-80 us one-pair
    # p_norm_convolve at k = 64 (2 vCPUs).
    if out.ndim == 1:
        _refine_small_values(out, a, b, window)
        return
    lo, n = window
    a, b = (np.broadcast_to(x, out.shape[:-1] + x.shape[-1:]) for x in (a, b))
    peak = out.max(axis=-1, keepdims=True)
    small = ((out[..., lo:lo + n] <= peak * REFINE_BELOW) & (peak > 0.0)).any(axis=-1)
    for index in map(tuple, np.argwhere(small)):
        _refine_small_values(out[index], a[index], b[index], window)


def _refine_small_values(out: np.ndarray, a: np.ndarray, b: np.ndarray,
                         window: tuple[int, int]):
    """Recompute the outputs in the kept columns ``out[lo:lo + n]``
    (``window=(lo, n)``) at or below REFINE_BELOW * max(out) by direct
    summation, in place.

    FFT round-off is absolute (~1e-16 of the peak), so outputs far below the
    peak can be pure noise; the direct sum is exact there. On peaked inputs
    almost every output is small, so the sums are not taken one output at a
    time. Instead:

    1. Each operand is trimmed to its first..last nonzero value; small
       outputs outside the trimmed output range are exactly zero.
    2. If a trimmed operand still has interior zeros, one FFT convolution of
       the two support indicators, rounded, counts the nonzero terms of
       every output; small outputs with none are exactly zero.
    3. The other small outputs are grouped into runs of consecutive indices,
       merging gaps of at most _RUN_GAP, and cut into pieces of at most
       REFINE_RUN_CAP outputs; each piece is one
       ``np.convolve(mode="valid")`` over the slices of both operands it
       needs.

    The steps see every small output of the row, so the pieces do not
    depend on ``window``; it only skips the direct sums of pieces that do
    not reach into it. Every kept output is then the same sum over the
    same piece as under the full window, bit for bit, and the row's peak
    is untouched. Small outputs outside the window are left at zero or at
    their direct sum, both far below the peak.

    Cost: at most one FFT; plus, in C, about the sum of the trimmed overlaps
    of the small outputs that have nonzero terms (a piece of R outputs
    costs R times the span of the shorter operand it reads, which the cap
    keeps within about R*R/2 products of its outputs' own overlaps); plus
    Python work per piece. Dense, smooth tails keep the middle term large,
    since each of their small outputs has many nonzero terms.
    """
    peak = out.max()
    if peak <= 0.0:
        return
    index = np.flatnonzero(out <= peak * REFINE_BELOW)
    if index.size == 0:
        return
    out[index] = 0.0  # the exact value of every output without a nonzero term
    (a_start, a), (b_start, b) = _trimmed(a), _trimmed(b)
    if b.size > a.size:  # slide the longer operand under the shorter one
        (a_start, a), (b_start, b) = (b_start, b), (a_start, a)
    shift = a_start + b_start
    index = index[(index >= shift) & (index < shift + a.size + b.size - 1)] - shift
    if not (a.all() and b.all()):
        index = index[_support_counts(a, b)[index] > 0.5]
    lo, n = window
    keep_first, keep_last = lo - shift, lo + n - 1 - shift  # in trimmed indices
    bounds = [0, *(np.flatnonzero(np.diff(index) > _RUN_GAP + 1) + 1).tolist(), index.size]
    for start, stop in zip(bounds, bounds[1:]):
        run = index[start:stop]
        for cut in range(0, run.size, REFINE_RUN_CAP):
            piece = run[cut:cut + REFINE_RUN_CAP]
            first, last = int(piece[0]), int(piece[-1])
            if last < keep_first or first > keep_last:
                continue
            # b[b_lo..b_hi] holds every b term of outputs first..last
            b_lo, b_hi = max(0, first - a.size + 1), min(b.size - 1, last)
            sums = np.convolve(_window(a, first - b_hi, last - b_lo), b[b_lo:b_hi + 1],
                               mode="valid")
            out[shift + piece] = sums[piece - first]


def _trimmed(x: np.ndarray) -> tuple[int, np.ndarray]:
    """The index of the first nonzero value of ``x`` (which has one) and the
    view from it to the last nonzero value (``_edges``)."""
    start, stop = _edges(x)
    return start, x[start:stop]


def _support_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The number of nonzero terms a[l] * b[m - l] of every output m of the
    trimmed ``a`` and ``b``, from one FFT convolution of the 0/1 support
    indicators."""
    return np.rint(_convolve_rows((a != 0.0).astype(float), (b != 0.0).astype(float)))


def _window(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """x[lo..hi] (lo <= hi), read as zero outside ``x``."""
    if lo >= 0 and hi < x.size:
        return x[lo:hi + 1]
    window = np.zeros(hi - lo + 1)
    start, stop = min(max(lo, 0), x.size), max(min(hi + 1, x.size), 0)
    window[start - lo:stop - lo] = x[start:stop]
    return window


def max_convolve_normalized(left: Pmf, right: Pmf, p: float) -> Pmf:
    """Numerical max-convolution with max-normalization against underflow.

    The one-rung case of the piecewise ladder. Scale-equivariant by
    construction: scaling either input by c scales the output by c.
    """
    return _one_pair(_ladder_max_convolve, left, right, (_check_p(p),), DEFAULT_TAU)


def _max_normalized(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row divided by its maximum, and those maxima.

    A row whose maximum is 1.0 (or 0, all-zero) is divided by 1.0, which
    keeps its bits. Tree messages all peak at exactly 1.0, so when every
    row does, ``x`` itself is returned rather than a copy of it; no kernel
    writes to its operands. One row (1-D ``x``) takes scalar steps with
    the same bits: its reduction wrappers and ``np.where`` would cost
    about 8 us of fixed overhead, more than the division of a cut span.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        peak = x.max()
        return (x if peak == 1.0 else x / (peak or 1.0)), peak
    peak = x.max(axis=-1)
    if np.all(peak == 1.0):
        return x, peak
    return x / np.where(peak == 0.0, 1.0, peak)[..., None], peak


def _ladder_max_convolve(left: np.ndarray, right: np.ndarray,
                         ladder: tuple[float, ...], tau: float,
                         window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Max-normalized p-norm estimate at every rung, stitched per index, of
    every row pair of ``left`` (..., a) and ``right`` (..., b), whose
    leading axes broadcast, cut to the keep-window ``window=(lo, n)``: the
    kept columns lo..lo+n-1 and each full row's peak.

    Both inputs of a pair are divided by their maxima before exponentiation
    so the dominant terms start at 1 and survive the p-th power; each rung's
    convolution is divided by its own peak before the 1/p root, and the
    input scale is multiplied back at the end. Each index takes the value of
    the largest exponent whose normalized result clears tau; the smallest
    exponent is the fallback, so a one-rung ladder never reads tau.

    All rungs of all rows ride the stacked transforms of _convolve_rows,
    and every step after them acts on each row alone, so each row is
    bit-identical to the one-pair call. Each rung's peak is taken over all
    a + b - 1 outputs; the divide, root and stitch run on the kept columns
    only. Every stitched row peaks at exactly 1 (the top rung's root of
    its own peak, which clears tau; no root of a value <= 1 exceeds 1), so
    a full row's peak is its input scale.

    The rows arrive unclipped. A rung's raw peak equals its clipped one,
    since every rung peaks at about 1. The fallback's kept columns go from
    that division straight into ``_root``; each upper rung roots only its
    values above its floor (defined below): no index could take the rest.

    A span pair is cut to its spans right after the canonical order
    (``_cut_pair``), so only the spans are divided by their peaks. The
    span rule reads the divided rows, and dividing by a peak of at most 1
    zeroes no value, so the undivided rows give the same decision; when a
    value is above 1 every row is divided whole before the cut.
    """
    a, b = _canonical_rows(np.asarray(left, dtype=float), np.asarray(right, dtype=float))
    kernel = partial(_ladder_rows, ladder=ladder, tau=tau)
    if a.size and b.size and max(a.max(), b.max()) > 1.0:
        # divided whole, every pair peaks at 1: its kernel scales by 1.0,
        # which keeps every bit, and the scale is multiplied back here
        (a, a_peak), (b, b_peak) = _max_normalized(a), _max_normalized(b)
        kept, _ = _cut_pair(kernel, a, b, window)
        peak = a_peak * b_peak
        return kept * peak[..., None], peak
    return _cut_pair(kernel, a, b, window)


def _ladder_rows(a: np.ndarray, b: np.ndarray, window: tuple[int, int],
                 ladder: tuple[float, ...], tau: float) -> tuple[np.ndarray, np.ndarray]:
    """_ladder_max_convolve of the canonical operands (``_cut_pair``)."""
    (a, a_peak), (b, b_peak) = _max_normalized(a), _max_normalized(b)
    if not (np.all(a_peak > 0.0) and np.all(b_peak > 0.0)):
        raise DegenerateDistributionError("degenerate distribution: total mass is zero")
    peak = a_peak * b_peak
    scale = np.atleast_1d(peak)
    # A value at or below its rung's floor 0.5 * tau**p would root to at
    # most tau * 0.5**(1/p), about ln2/p below tau: over 1e6 ulps up to
    # p = 2**32, so no index takes it. Left unrooted, it is below tau
    # itself, so still none does. By p = 1e16 that gap is within
    # round-off, so rungs above 2**32 leave only nonpositive values
    # unrooted.
    floors = [0.5 * tau ** p if p <= 2.0 ** 32 else 0.0 for p in ladder[1:]]

    def finish(rows, vms, kept):
        kept = vms[..., kept]
        kept /= vms.max(axis=-1, keepdims=True)
        stitched = _root(kept[0], ladder[0])  # smallest exponent is the fallback
        take = np.empty(stitched.shape, bool)  # every mask, so one allocation per call
        for rung, p, floor in zip(kept[1:], ladder[1:], floors):
            np.power(rung, 1.0 / p, out=rung, where=np.greater(rung, floor, out=take))
            np.copyto(stitched, rung, where=np.greater_equal(rung, tau, out=take))
        return stitched * scale[rows, ..., None]

    return _convolve_rows(a, b, ladder, finish, window), peak


def max_convolve_piecewise(left: Pmf, right: Pmf,
                           config: PiecewiseConfig | None = None) -> Pmf:
    """Per-index choice among an exponent ladder.

    Every rung is computed eagerly (the same estimate max_convolve_normalized
    gives for that exponent); each output index takes the value from the
    largest exponent whose max-normalized result clears tau, falling back to
    the smallest exponent where none does. High-p values below tau are
    indistinguishable from underflow/round-off, so the stabler low-p estimate
    is used there.
    """
    if config is None:
        config = PiecewiseConfig()
    return _one_pair(_ladder_max_convolve, left, right, config.p_ladder, config.tau)


def max_convolve_auto(left: Pmf, right: Pmf,
                      config: PiecewiseConfig | None = None) -> Pmf:
    """Exact naive max-convolution on small problems, piecewise otherwise.

    Naive when its k_L * k_R products are no more than the transform work
    size * max(1, log2 size), size being ``padded_length`` of the output
    (the next power of two), not the 5-smooth ``fft_length`` the
    transforms run at; the log is floored at 1 so length-1 problems still
    take the naive path.
    """
    size = padded_length(len(left) + len(right) - 1)
    if len(left) * len(right) <= size * max(1.0, math.log2(size)):
        return naive_max_convolve(left, right)
    return max_convolve_piecewise(left, right, config)


def pair_counts(k_left: int, k_right: int) -> np.ndarray:
    """t(m): number of (l, m-l) index pairs contributing to each output index.

    t(m)^(1/p) is the analytic ceiling on p_norm_convolve overshoot.
    """
    m = np.arange(k_left + k_right - 1)
    return np.minimum(m, k_left - 1) - np.maximum(0, m - k_right + 1) + 1
