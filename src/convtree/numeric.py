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
by how much). Each upper rung p is rooted only where it wins: where its
normalized power sum is at least tau**p, or the least subnormal where
tau**p underflows, so never at or below zero.

The ladder's upper rungs of a wide pair are transformed over each
operand row's significant span only; ``_ladder_rows`` bounds what that
drops.

Each row is scaled by the scale ``fftconv._convolve_rows`` gives it: its
full row's peak, or for a long-by-short pair the peak of its circular
transform. That is each rung's normalizer in the ladder and the refine
threshold of the p-norm, and it is the same under every keep-window, so a
windowed row keeps the bits of its full call.

The p-norm's small-value refine sums a row with a subnormal product on
operands scaled by powers of two (``_scales``), so its subnormal outputs
are rounded once and cost what normal ones do; every other row keeps the
bits of its unscaled sums. Each row decides this from its own trimmed
operands, so a rows call refines every row as its one-pair call does. Its
per-row bookkeeping does only what can change a sum: a positive plain
minimum is taken as its operand's least nonzero value, two binary searches
cut the small outputs to the trimmed range, and a piece of outputs without
gaps takes its sums in one slice.

Neither operator works through the exact zeros of a span pair
(``fftconv._cut_pair``: a pair whose nonzero spans convolve to at most
half of its outputs). Such a pair is cut to its spans right after the
canonical order, so the ladder's normalization and both operators'
transform, refine and root see the spans alone, and every other kept
column is exact +0.0. The p-norm powers whole rows before the cut.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fftconv import (
    _convolve_rows,
    _cut_pair,
    _edges,
    _ladder_powers,
    _one_pair,
    _valid_part,
)
from .pmf import DegenerateDistributionError, Pmf, naive_max_convolve

# The fallback rung p = 4 and one upper rung p = 64. Each rung costs one
# transform per operand. A middle rung p = 32 would set an index only
# where S_32 clears tau**32 and S_64 misses tau**64: just below tau times
# the peak, where many terms sit near it. On uniform and peaked (sigma
# 2-8) pairs at k = 256 and 1024, seeds 0-7, it moved 1 of 40,928 outputs
# by more than 1e-12 of the peak, and max-numeric solves took 0.76-0.80x
# as long without it (in-process, alternating, 2-vCPU VM).
DEFAULT_P_LADDER = (4.0, 64.0)
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

# The least normal double. The CPU rounds a subnormal product coarsely and
# takes several times as long over it, so a row whose least nonzero values
# multiply to less than this is summed scaled by powers of two that put
# each operand's maximum in [2^(top-1), 2^top), with
# top = (1021 - min(a.size, b.size).bit_length()) // 2: every product is
# then below 2^(2 top) and an output sums fewer than
# 2^bit_length(min(a.size, b.size)) of them, so no sum reaches 2^1021.
_TINY = np.finfo(float).tiny


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

    tau applies to the max-normalized (pre-rescale) values: an upper rung p
    wins an index where its power sum divided by the rung's peak, before
    the 1/p root, is at least tau**p (the least subnormal where that
    underflows), so tau means "within tau of the largest output"
    regardless of input scale.
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

    and is elementwise nonincreasing in p. The lower bound holds where the
    p-th power of the normalized exact value, max_conv[m] / (max(L) max(R)),
    is a normal double. Below that the powers underflow and the output can
    fall under the max, down to 0.0 (at p = 64, where the exact value is
    1.2e-9 of the peak).
    """
    return _one_pair(_p_norm_rows, left, right, p)


def _p_norm_rows(left: np.ndarray, right: np.ndarray, p: float,
                 window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """p_norm_convolve of every row pair, cut to the keep-window
    ``window=(lo, n)``: the kept columns and each row's scale
    (``fftconv._convolve_rows``).

    Whole rows are divided by their maxima before the p-th power, so large
    values cannot overflow, and the output is scaled back. The powered
    rows go to ``_cut_pair``, which puts them in canonical order and cuts
    a span pair to their spans, so its convolution, refine and root run on
    the spans alone. Outputs below REFINE_BELOW of each row's scale are
    recomputed by direct summation. The refine and the root act on the
    kept columns only: the refine reads every part of the row that the
    window touches (``_p_norm_sums``) to find and cut its small outputs
    but sums only the pieces that reach into the window, and a row's scale
    is the root of its power sums' scale, since the root is monotone.
    """
    p = _check_p(p)
    if p == 1.0:  # no power to overflow and no root to take
        return _cut_pair(_p_norm_sums, left, right, window)
    (left, left_peak), (right, right_peak) = _max_normalized(left), _max_normalized(right)
    left, right = _ladder_powers(left, (p,))[0], _ladder_powers(right, (p,))[0]
    out, peak = _cut_pair(partial(_p_norm_sums, p=p), left, right, window)
    scale = left_peak * right_peak
    out *= scale[..., None]
    return out, peak * scale


def _p_norm_sums(a: np.ndarray, b: np.ndarray, window: tuple[int, int],
                 p: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """_p_norm_rows of the canonical powered operands (``_cut_pair``),
    before the input scale: the refined power sums of the kept columns
    and each row's scale (``fftconv._convolve_rows``), both rooted.

    The sums are taken over every part (``_parts``) that the window
    touches, so the refine finds all the small outputs of those parts."""
    lo, n = window
    start, stop = lo, lo + n
    if n:
        bounds = _parts(a.shape[-1], b.shape[-1])
        start = bounds[bisect.bisect_right(bounds, lo) - 1]
        stop = bounds[bisect.bisect_left(bounds, lo + n)]
    sums, peak = _convolve_rows(a, b, window=(start, stop - start))
    _refine_rows(sums, a, b, window, start, peak)
    out = sums[..., lo - start:lo - start + n]
    if p == 1.0:
        return out, peak
    return _root(out, p), np.power(peak, 1.0 / p)


def _parts(a: int, b: int) -> list[int]:
    """The column bounds of the parts of the a + b - 1 outputs of a row
    pair of ``a`` and ``b`` values that the refine takes apart: the edges
    and valid columns of a long-by-short pair (``fftconv._valid_part``),
    the whole row of any other. A part's kept columns are the same whatever
    the keep-window, and so are its pieces of direct sums."""
    return [0, *(_valid_part(a, b) or ()), a + b - 1]


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


def _refine_rows(out: np.ndarray, a: np.ndarray, b: np.ndarray, window: tuple[int, int],
                 start: int, peak: np.ndarray):
    """_refine_small_values of each row of ``out``, which holds output
    columns start, start + 1, ... of every row pair, that has a small output
    in the kept columns of ``window=(lo, n)``, small meaning against the
    row's ``peak``. Each row is refined as its one-pair call refines it."""
    # One pair: _refine_small_values finds its small outputs itself; the
    # scan and index loop below add 22-38 us to a 67-80 us one-pair
    # p_norm_convolve at k = 64 (2 vCPUs).
    if out.ndim == 1:
        _refine_small_values(out, a, b, window, start, peak)
        return
    lo, n = window
    kept = out[..., lo - start:lo - start + n]
    small = ((kept <= peak[..., None] * REFINE_BELOW) & (peak > 0.0)[..., None]).any(axis=-1)
    if not small.any():
        return
    a, b = (np.broadcast_to(x, out.shape[:-1] + x.shape[-1:]) for x in (a, b))
    for index in map(tuple, np.argwhere(small)):
        _refine_small_values(out[index], a[index], b[index], window, start, peak[index])


def _refine_small_values(out: np.ndarray, a: np.ndarray, b: np.ndarray,
                         window: tuple[int, int], start: int, peak: float):
    """Recompute the outputs of ``out``, which holds output columns start,
    start + 1, ..., at or below REFINE_BELOW * ``peak`` that are kept
    columns of ``window=(lo, n)``, by direct summation, in place.

    FFT round-off is absolute (~1e-16 of the peak), so outputs far below the
    peak can be pure noise; the direct sum is within 1e-14 relative of the
    exact sum there, whatever its size. A row with a subnormal product is
    summed on operands scaled by powers of two (``_scales``) and scaled
    back once, so a subnormal output is its scaled sum rounded once. On
    peaked inputs almost every output is small, so the sums are not taken
    one output at a time. Instead:

    1. Each operand is trimmed to its first..last nonzero value; small
       outputs outside the trimmed output range are exactly zero.
    2. If a trimmed operand still has interior zeros, one FFT convolution of
       the two support indicators, rounded, counts the nonzero terms of
       every output; small outputs with none are exactly zero.
    3. The other small outputs are grouped into runs of consecutive indices
       in one part (``_parts``), merging gaps of at most _RUN_GAP, and cut
       into pieces of at most REFINE_RUN_CAP outputs; each piece is one
       ``np.convolve(mode="valid")`` over the slices of both operands it
       needs.
    4. The pieces are walked by their bounds in the sorted small outputs. A
       piece without gaps writes its sums with one slice assignment; only a
       piece with gaps gathers the sums of its outputs and scatters them.

    The steps see every small output that ``out`` holds, and ``out`` holds
    whole parts, so the pieces do not depend on ``window``; it only skips
    the direct sums of pieces that do not reach into it. Every kept output
    is then the same sum over the same piece as under the full window, bit
    for bit. Small outputs outside the window are left at zero or at their
    direct sum, both far below the peak.

    Cost: at most one FFT; plus, in C, about the sum of the trimmed overlaps
    of the small outputs that have nonzero terms (a piece of R outputs
    costs R times the span of the shorter operand it reads, which the cap
    keeps within about R*R/2 products of its outputs' own overlaps); plus
    a few scalar steps of Python per piece, and a gather and a scatter for
    a piece with gaps. Dense, smooth tails keep the middle term large,
    since each of their small outputs has many nonzero terms.
    """
    if peak <= 0.0:
        return
    index = np.flatnonzero(out <= peak * REFINE_BELOW)
    if index.size == 0:
        return
    out[index] = 0.0  # the exact value of every output without a nonzero term
    parts = _parts(a.size, b.size)
    (a_start, a_stop), (b_start, b_stop) = _edges(a), _edges(b)
    a, b = a[a_start:a_stop], b[b_start:b_stop]
    if b.size > a.size:  # slide the longer operand under the shorter one
        a, b = b, a
    shift = a_start + b_start
    offset = shift - start  # of trimmed indices in ``out``
    # the sorted small outputs inside the trimmed output range, in trimmed
    # indices from here on
    inside = np.searchsorted(index, (offset, offset + a.size + b.size - 1))
    index = index[inside[0]:inside[1]]
    index -= offset
    # nonnegative operands: a plain minimum is 0.0 exactly where its
    # operand holds a zero, and else is its least nonzero value
    a_min, b_min = a.min(), b.min()
    if not (a_min and b_min):
        index = index[_support_counts(a, b)[index] > 0.5]
    if index.size == 0:
        return
    a_scale = b_scale = 0
    if a_min * b_min < _TINY:
        a_scale, b_scale = _scales(a, b, a_min, b_min)
    if a_scale or b_scale:
        a, b = np.ldexp(a, a_scale), np.ldexp(b, b_scale)
    lo, n = window
    keep_first, keep_last = lo - shift, lo + n - 1 - shift
    breaks = np.diff(index) > _RUN_GAP + 1
    if len(parts) > 2:  # no run crosses the bound of a part
        breaks |= np.diff(np.searchsorted(np.array(parts) - shift, index, side="right")) != 0
    # the pieces tile ``index``: each ends where the next begins
    bounds = [0, *(np.flatnonzero(breaks) + 1).tolist(), index.size]
    begins = [cut for begin, end in zip(bounds, bounds[1:])
              for cut in range(begin, end, REFINE_RUN_CAP)]
    ends = begins[1:] + [index.size]
    firsts, lasts = index[begins].tolist(), index[np.subtract(ends, 1)].tolist()
    for begin, end, first, last in zip(begins, ends, firsts, lasts):
        if last < keep_first or first > keep_last:
            continue
        # b[b_lo..b_hi] holds every b term of outputs first..last
        b_lo, b_hi = max(0, first - a.size + 1), min(b.size - 1, last)
        sums = np.convolve(_window(a, first - b_hi, last - b_lo), b[b_lo:b_hi + 1],
                           mode="valid")
        if a_scale or b_scale:
            np.ldexp(sums, -(a_scale + b_scale), out=sums)
        if last - first == end - begin - 1:  # no gaps: outputs first..last
            out[offset + first:offset + last + 1] = sums
        else:
            piece = index[begin:end]
            out[offset + piece] = sums[piece - first]


def _scales(a: np.ndarray, b: np.ndarray, a_min: float, b_min: float) -> tuple[int, int]:
    """The powers of two by which the direct sums scale the trimmed ``a``
    and ``b``, whose plain minima are ``a_min`` and ``b_min``: (0, 0) when
    no product of their nonzero values is subnormal, else those that put
    each maximum just below 2^top (see _TINY). A positive plain minimum is
    its operand's least nonzero value; only an operand that holds a zero
    (a plain minimum of 0) takes a masked reduction for it.
    ``_refine_small_values`` calls it only where the plain minima multiply
    to less than _TINY; where they do not, the answer is (0, 0)."""
    least_a, least_b = (x_min or np.min(x, where=x != 0.0, initial=np.inf)
                        for x, x_min in ((a, a_min), (b, b_min)))
    if least_a * least_b >= _TINY:
        return 0, 0
    top = (1021 - min(a.size, b.size).bit_length()) // 2
    return top - int(np.frexp(a.max())[1]), top - int(np.frexp(b.max())[1])


def _support_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The number of nonzero terms a[l] * b[m - l] of every output m of the
    trimmed ``a`` and ``b``, from one FFT convolution of the 0/1 support
    indicators."""
    return np.rint(_convolve_rows((a != 0.0).astype(float), (b != 0.0).astype(float),
                                  linear=True)[0])


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
    row does, ``x`` itself is returned rather than a copy of it (and only
    then: ``_ladder_rows`` reads it as input scales of 1.0); no kernel
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
    kept columns lo..lo+n-1 and each row's input scale, the product of its
    operands' maxima.

    Each index takes the value of the largest exponent p whose normalized
    power sum is at least tau**p (``_ladder_rows``); the smallest exponent
    is the fallback, so a one-rung ladder never reads tau. A span pair is
    cut to its spans (``fftconv._cut_pair``), which the span rule finds on
    the undivided rows. ``_ladder_rows`` then normalizes, convolves, roots
    and stitches the rows it receives, each on its own, so every row is
    bit-identical to its one-pair call.
    """
    return _cut_pair(partial(_ladder_rows, ladder=ladder, tau=tau), left, right, window)


# Output width a + b - 1 from which _ladder_rows transforms the upper rung
# of a pair over its cuts. Each _ladder_rows call of max-numeric solves at
# (32, 256) seeds 0-1, (1024, 64), (64, 4096) and (256, 1024) seed 0, timed
# with the cut and without it (default ladder, best of 7, alternating, two
# runs, 2-vCPU VM): calls of 16,129 outputs or more took 0.55-0.95x as
# long, except the reverse layers of 4 to 16 parents at (64, 4096) and
# (256, 1024), whose cuts make 0.35-0.83 of their outputs (1.03-1.25x);
# calls of 12,097 to 12,286 outputs took 1.11-1.52x, of 8,065 to 8,191
# outputs 0.92-1.63x and of 4,033 to 4,093 outputs 0.89-1.88x, the
# gathers, the extra transform calls and the per-pair placement costing
# more than the shorter transforms of the one upper rung save.
CUT_FROM = 12288
# A pair is cut only when its cut outputs wa + wb - 1 are at most this
# share of its a + b - 1; a whole pair's upper rung runs over its whole
# rows. Whole max-numeric solves, against no cut (default ladder, median
# of 9-11 alternating solves, three runs, 2-vCPU VM): at (64, 4096)
# 0.88-0.90x with 0.75, 0.86-0.88x with 1.0 (no share rule) and
# 0.89-0.91x at 0.5; at (1024, 64) 0.91-0.93x with 0.75, 0.90-0.93x with
# 1.0 and 0.91-0.95x at 0.5; at (256, 1024) 0.84-0.86x with 0.75,
# 0.89-0.91x with 1.0 and 0.84-0.87x at 0.5. 0.5, 0.75 and 1.0 are within
# that spread but for 1.0 at (256, 1024).
CUT_SHARE = 0.75


def _ladder_rows(a: np.ndarray, b: np.ndarray, window: tuple[int, int],
                 ladder: tuple[float, ...], tau: float) -> tuple[np.ndarray, np.ndarray]:
    """_ladder_max_convolve of the canonical operands (``_cut_pair``).

    Both operands of a pair are divided by their maxima before the powers,
    so the dominant terms start at 1 and survive the p-th power, and the
    stitched row is multiplied by the product of those maxima, its input
    scale, at the end. When every input scale is exactly 1.0, as for tree
    messages, the fallback rung is divided into a fresh array instead, and
    the stitched row is that array, with no multiply (x * 1.0 == x). Each
    rung's convolution is divided by its own row scale
    (``fftconv._convolve_rows``: its peak, or a long-by-short pair's
    circular peak) before the 1/p root. Each rung's scale is taken over
    all its outputs, whatever the window; the divide, root and stitch run
    on the kept columns only. The returned scale is the input scale. A
    stitched row whose top rung is scaled by its own peak peaks at exactly
    1 (the root of that peak, which wins; no root of a value <= 1 exceeds
    1), so its input scale is its full row's peak. A long-by-short
    pair's circular peak can exceed its linear one (a wrapped column sums
    two outputs), and then its row peaks below 1.

    The rows arrive unclipped. A rung's raw scale equals its clipped one,
    since every rung peaks at about 1. The fallback's kept columns go from
    that division straight into ``_root``. An upper rung p wins an index
    where its normalized power sum, the rung divided by its row scale
    before the root, is at least tau**p, or the least subnormal where
    tau**p underflows (every positive sum then roots above tau, and no
    value at or below zero wins). Each upper rung, in ascending order, is
    rooted only where it wins, straight into the stitched row, so the
    highest rung that wins an index gives its value.

    From an output width of CUT_FROM on, a pair's upper rungs (every rung
    above the fallback) are transformed over each operand row's significant
    span only: its first through last column at or above

        theta = tau * (2**-53 / t)**(1 / p1),

    in the max-normalized row, t = min(a, b), p1 the lowest upper rung. A
    rung p >= p1 wins an index only where its power sum S_p, divided by
    its peak, is at least tau**p, so where S_p >= tau**p (S_p peaks at 1 or
    more). Every term the cut drops holds a value below theta, so is below
    theta**p, and at most t of them fall on one index: they sum to less
    than t * theta**p <= 2**-53 * tau**p <= 2**-53 * S_p. There the cut
    changes nothing but FFT round-off, and a rung choice can flip only
    where S_p over its peak lies within round-off of tau**p.

    Each row's cut depends on that row alone, so every row keeps the bits
    of its one-pair call: its width is halved (rounding up) while it still
    holds the span, and the cut starts at the span, or ends at the row's
    end when the span sits closer to it than that width. A pair whose cuts
    make more than CUT_SHARE of its outputs is whole, and takes its whole
    rows as its cuts. A call none of whose pairs is cut, such as one of
    uniform k = 8192 pairs, is one stack of every rung over whole rows. Any
    other call takes two steps: the fallback rung, in one call over the
    operands as they arrive, so a reverse layer's parent is transformed
    once for both of its children; then the upper rungs, in one
    ``_convolve_rows`` call per group of pairs of one cut width per
    operand (``_upper_cuts``). The fallback call runs the stack's own
    finish, which scales it and has no upper rung to stitch; the upper
    rungs are stitched into zeros, so a pair's cut result is positive
    exactly where a rung wins, and there it replaces the fallback, scaled
    by the pair's input scale, at the sum of its cuts' starts. Every step
    acts on each row alone and runs the float operations of the stack, so
    both paths give the same bits. The cuts take the linear transform and
    are scaled by their own peaks, but a whole pair takes the transforms
    that the stack would give it (``fftconv._convolve_rows``), so a row's
    bits do not depend on whether another row of its call is cut.
    """
    normalized = _max_normalized(a), _max_normalized(b)
    # an operand comes back itself only when each of its rows peaks at 1.0,
    # as tree messages do; the input scale is then 1.0, and x * 1.0 == x
    unit = normalized[0][0] is a and normalized[1][0] is b
    (a, a_peak), (b, b_peak) = normalized
    if not (np.all(a_peak > 0.0) and np.all(b_peak > 0.0)):
        raise DegenerateDistributionError("degenerate distribution: total mass is zero")
    peak = a_peak * b_peak
    scale = np.atleast_1d(peak)
    bars = [max(tau ** p, math.ulp(0.0)) for p in ladder[1:]]  # the least sum that wins

    def upper(rungs, stitched):
        """Root each normalized upper rung into ``stitched`` where it wins,
        in ascending order."""
        win = np.empty(stitched.shape, bool)  # every mask, so one allocation per call
        for rung, p, bar in zip(rungs, ladder[1:], bars):
            np.power(rung, 1.0 / p, out=stitched, where=np.greater_equal(rung, bar, out=win))
        return stitched

    def finish(rows, kept, scales):
        if not unit:
            kept /= scales[..., None]
            return upper(kept[1:], _root(kept[0], ladder[0])) * scale[rows, ..., None]
        # the fallback divided into a fresh array, stitched with no multiply
        stitched = _root(np.divide(kept[0], scales[0, ..., None]), ladder[0])
        return upper(np.divide(kept[1:], scales[1:, ..., None], out=kept[1:]), stitched)

    def cut(rows, kept, scales):
        kept /= scales[..., None]
        return upper(kept, np.zeros(kept.shape[1:]))

    na, nb = a.shape[-1], b.shape[-1]
    groups = None
    if len(ladder) > 1 and na + nb - 1 >= CUT_FROM:
        groups = _upper_cuts(a, b, _cut_level(ladder, tau, min(na, nb)))
    if groups is None:
        return _convolve_rows(a, b, ladder, finish, window)[0], peak
    lo, n = window
    # the fallback rung through the stack's finish, scaled; no upper rung to stitch
    flat = _convolve_rows(a, b, ladder[:1], finish, window)[0].reshape(scale.size, n)
    for pairs, a_rows, b_rows, offsets in groups:
        # the cut output columns that some pair of the group keeps
        outputs = a_rows.shape[-1] + b_rows.shape[-1] - 1
        first = int(np.clip(lo - offsets.max(), 0, outputs))
        stop = int(np.clip(lo + n - offsets.min(), first, outputs))
        if stop == first:
            continue
        # whole pairs keep the transforms of the whole stack
        whole = a_rows.shape[-1] == na and b_rows.shape[-1] == nb
        values = _convolve_rows(a_rows, b_rows, ladder[1:], cut, (first, stop - first),
                                linear=not whole)[0].reshape(len(pairs), -1)
        for row, offset, value in zip(pairs.tolist(), offsets.tolist(), values):
            start, end = max(first, lo - offset), min(stop, lo + n - offset)
            if end > start:
                # a cut value is positive exactly where a rung won
                piece = value[start - first:end - first]
                np.copyto(flat[row, start + offset - lo:end + offset - lo],
                          piece * scale.flat[row], where=piece > 0.0)
    return flat.reshape(np.shape(peak) + (n,)), peak


def _cut_level(ladder: tuple[float, ...], tau: float, t: int) -> float:
    """theta of ``_ladder_rows``: the value from which a max-normalized
    operand column counts toward its row's significant span."""
    return tau * (2.0 ** -53 / t) ** (1.0 / ladder[1])


def _row_cuts(rows: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's cut (``_ladder_rows``): its start and width, the row's
    width halved, rounding up, while it still holds the row's first
    through last column at or above ``theta`` (every row holds its peak,
    1 >= theta)."""
    width = rows.shape[-1]
    big = rows >= theta
    first = big.argmax(axis=-1)
    span = width - big[:, ::-1].argmax(axis=-1) - first
    widths = [width]
    while widths[-1] > 1:
        widths.append(-(-widths[-1] // 2))
    widths = np.array(widths[::-1])
    cut = widths[np.searchsorted(widths, span)]  # the narrowest that holds the span
    return np.minimum(first, width - cut), cut


def _upper_cuts(a: np.ndarray, b: np.ndarray, theta: float):
    """The upper-rung groups of ``_ladder_rows`` over the row pairs of the
    max-normalized ``a`` (..., na) and ``b`` (..., nb), or None when every
    pair is whole: its cuts (``_row_cuts``) make more than CUT_SHARE of
    its outputs, and it takes the whole rows (0, na) and (0, nb) instead.

    Each group is ``(pairs, a_rows, b_rows, offsets)``: the flat indices
    of its pairs in the broadcast leading shape, their cuts of one width
    per operand, shaped (g, 1, wa) and (g, m, wb) for g left rows and m
    pairs each, and the column of each pair's full output at which its
    cut output starts. A left row broadcast along the last leading axis,
    such as a reverse layer's parent against its two children, goes once
    into a group that holds all m of its pairs, so it is cut and
    transformed once; every other pair goes with m = 1.
    """
    a_rows, b_rows = (x.reshape(-1, x.shape[-1]) for x in (a, b))
    na, nb = a_rows.shape[-1], b_rows.shape[-1]
    (a_start, a_width), (b_start, b_width) = (_row_cuts(x, theta) for x in (a_rows, b_rows))
    if a_width.min() + b_width.min() - 1 > CUT_SHARE * (na + nb - 1):
        return None  # the narrowest cuts make a whole pair, so every pair is whole
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    share = lead[-1] if lead and a.shape[:-1] == lead[:-1] + (1,) else 1
    a_of, b_of = (np.broadcast_to(np.arange(len(rows)).reshape(x.shape[:-1]), lead).ravel()
                  for x, rows in ((a, a_rows), (b, b_rows)))
    # per pair from here on
    a_start, a_width, b_start, b_width = a_start[a_of], a_width[a_of], b_start[b_of], b_width[b_of]
    whole = a_width + b_width - 1 > CUT_SHARE * (na + nb - 1)
    if np.all(whole):
        return None
    a_start[whole], a_width[whole], b_start[whole], b_width[whole] = 0, na, 0, nb
    codes = a_width * (nb + 1) + b_width
    order = np.argsort(codes, kind="stable")
    groups = []
    for pairs in np.split(order, np.flatnonzero(np.diff(codes[order])) + 1):
        shared = np.bincount(a_of[pairs])[a_of[pairs]] == share
        for part, m in ((pairs[shared], share), (pairs[~shared], 1)):
            if part.size == 0:
                continue
            wa, wb = a_width[part[0]], b_width[part[0]]
            groups.append((part, _gathered(a_rows, a_of[part[::m]], a_start[part[::m]], wa)
                           .reshape(-1, 1, wa),
                           _gathered(b_rows, b_of[part], b_start[part], wb).reshape(-1, m, wb),
                           a_start[part] + b_start[part]))
    return groups


def _gathered(rows: np.ndarray, which: np.ndarray, start: np.ndarray,
              width: int) -> np.ndarray:
    """rows[which[i], start[i]:start[i] + width] for each i, as one array."""
    if width == rows.shape[-1]:
        return rows[which]
    return np.lib.stride_tricks.sliding_window_view(rows, width, axis=-1)[which, start]


def max_convolve_piecewise(left: Pmf, right: Pmf,
                           config: PiecewiseConfig | None = None) -> Pmf:
    """Per-index choice among an exponent ladder.

    Every rung is computed eagerly (the same estimate max_convolve_normalized
    gives for that exponent); each output index takes the value from the
    largest exponent p whose max-normalized power sum, before the 1/p root,
    is at least tau**p (the least subnormal where that underflows), falling
    back to the smallest exponent where none does. High-p power sums below
    tau**p are indistinguishable from underflow/round-off, so the stabler
    low-p estimate is used there.
    """
    if config is None:
        config = PiecewiseConfig()
    return _one_pair(_ladder_max_convolve, left, right, config.p_ladder, config.tau)


# Output length up to which max_convolve_auto takes the exact naive loop.
# One-pair calls of uniform values (median of 200-300 alternating calls,
# 2-vCPU VM): the naive loop costs 2.5-4.8 us per output and the piecewise
# ladder has a floor of 100-240 us, as the machine's load moved both;
# naive over piecewise read 0.91 at 31 outputs (16x16), 0.92 at 35, 0.98
# at 39 and 0.96-1.24 at 47, and 1.55 at 103 (4x100). Lopsided pairs
# belong to the ladder: 16x4096 took 17.4 ms naive against 0.63 ms, and
# 2x8192 34.2 ms against 1.33 ms.
NAIVE_UP_TO = 40


def max_convolve_auto(left: Pmf, right: Pmf,
                      config: PiecewiseConfig | None = None) -> Pmf:
    """Exact naive max-convolution where it is cheaper, piecewise otherwise.

    Naive when the output has at most NAIVE_UP_TO values. A point mass (an
    operand of one value) stays exact: its result is the other operand
    times that value, shifted, and each output is the one product the
    naive loop takes, so the same bits in one vector multiply.
    """
    if min(len(left), len(right)) == 1:
        point, other = (left, right) if len(left) == 1 else (right, left)
        return Pmf(other.values * point.values[0], left.offset + right.offset)
    if len(left) + len(right) - 1 <= NAIVE_UP_TO:
        return naive_max_convolve(left, right)
    return max_convolve_piecewise(left, right, config)


def pair_counts(k_left: int, k_right: int) -> np.ndarray:
    """t(m): number of (l, m-l) index pairs contributing to each output index.

    t(m)^(1/p) is the analytic ceiling on p_norm_convolve overshoot.
    """
    m = np.arange(k_left + k_right - 1)
    return np.minimum(m, k_left - 1) - np.maximum(0, m - k_right + 1) + 1
