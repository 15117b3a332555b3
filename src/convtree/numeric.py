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

The ladder's upper rungs (every exponent above the fallback) of a pair
with at least CUT_FROM outputs are transformed over each max-normalized
operand row's significant span only, its first through last value at or
above theta = tau * (2**-53 / t)**(1/p1), t = min(a, b), p1 the lowest
upper rung. A rung p >= p1 wins an index only where its power sum
S_p >= tau**p, and there the dropped terms, each below theta**p and at
most t of them, sum to less than 2**-53 * S_p: only FFT round-off moves,
and a rung choice can flip only where a root sits within round-off of tau.
The fallback rung still runs over whole rows (``_ladder_rows``).

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


def _max_normalized(x: np.ndarray, peak=None) -> tuple[np.ndarray, np.ndarray]:
    """Each row divided by its maximum ``peak`` (taken here if not given),
    and those maxima.

    A row whose maximum is 1.0 (or 0, all-zero) is divided by 1.0, which
    keeps its bits. Tree messages all peak at exactly 1.0, so when every
    row does, ``x`` itself is returned rather than a copy of it; no kernel
    writes to its operands. One row (1-D ``x``) takes scalar steps with
    the same bits: its reduction wrappers and ``np.where`` would cost
    about 8 us of fixed overhead, more than the division of a cut span.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        peak = x.max() if peak is None else peak
        return (x if peak == 1.0 else x / (peak or 1.0)), peak
    peak = x.max(axis=-1) if peak is None else peak
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
    its outputs; the divide, root and stitch run on the kept columns only.
    Every stitched row peaks at exactly 1 (the top rung's root of its own
    peak, which clears tau; no root of a value <= 1 exceeds 1), so a full
    row's peak is its input scale. The upper rungs of a wide pair are
    transformed over its significant spans only (``_ladder_rows``).

    The rows arrive unclipped. A rung's raw peak equals its clipped one,
    since every rung peaks at about 1. The fallback's kept columns go from
    that division straight into ``_root``; each upper rung roots only its
    values above its floor (defined below): no index could take the rest.

    Each operand's row maxima are taken once, here, and handed on with the
    rows. A span pair is cut to its spans right after the canonical order
    (``_cut_pair``), so only the spans are divided by their peaks, which
    are their rows'. The span rule reads the divided rows, and dividing by
    a peak of at most 1 zeroes no value, so the undivided rows give the
    same decision; when a value is above 1 every row is divided whole
    before the cut, and then peaks at exactly 1.
    """
    a, b = _canonical_rows(np.asarray(left, dtype=float), np.asarray(right, dtype=float))
    a_peak, b_peak = a.max(axis=-1), b.max(axis=-1)
    kernel = partial(_ladder_rows, ladder=ladder, tau=tau)
    if a.ndim == b.ndim == 1:  # two scalars, compared without numpy's reductions
        above = max(a_peak, b_peak) > 1.0
    else:
        above = a_peak.size and b_peak.size and max(a_peak.max(), b_peak.max()) > 1.0
    if above:
        # divided whole, every pair peaks at 1: its kernel scales by 1.0,
        # which keeps every bit, and the scale is multiplied back here
        (a, _), (b, _) = _max_normalized(a, a_peak), _max_normalized(b, b_peak)
        kept, _ = _cut_pair(kernel, a, b, window, np.sign(a_peak), np.sign(b_peak))
        peak = a_peak * b_peak
        return kept * peak[..., None], peak
    return _cut_pair(kernel, a, b, window, a_peak, b_peak)


# Output width a + b - 1 from which _ladder_rows transforms the upper rungs
# of a pair over its cuts. Each _ladder_rows call of max-numeric solves at
# (32, 256) seeds 0-1, (1024, 64) and (64, 4096) seed 0, timed with the cut
# and without it (best of 7, alternating, 2-vCPU VM): calls of 16,129
# outputs or more took 0.33-0.83x as long, except two tree-wide reverse
# layers of 16 and 32 pairs whose operands are rarely cut (0.92-1.20x,
# moving that much between repeated runs); calls of 12,097 to 12,286
# outputs took 0.74-1.13x, of 8,161 outputs 1.17-1.22x and of 4,081
# outputs 1.37-1.78x, the gathers, the extra transform calls and the
# per-pair placement costing more than the shorter transforms save. The
# (32, 256) solves, whose one cut call has 12,241 outputs, read no faster
# with it in perfbench (oracle seed 11, +0.5%, 2 of 6 pairs faster).
CUT_FROM = 12288
# A pair is cut only when its cut outputs wa + wb - 1 are at most this
# share of its a + b - 1. A reverse pair whose parent keeps its width and
# whose child is halved saves a sixth of each upper-rung transform, less
# than transforming the parent once more costs. Whole max-numeric solves,
# against no cut (median of 9-11 alternating solves, 2-vCPU VM): at
# (64, 4096) 0.65-0.72x with 0.75 against 0.75x with no share rule and
# 0.78x at 0.5; at (1024, 64) 0.74-0.83x with 0.75 and 0.80-0.90x at 0.5
# to 1.0.
CUT_SHARE = 0.75


def _ladder_rows(a: np.ndarray, b: np.ndarray, window: tuple[int, int],
                 a_peak: np.ndarray, b_peak: np.ndarray,
                 ladder: tuple[float, ...], tau: float) -> tuple[np.ndarray, np.ndarray]:
    """_ladder_max_convolve of the canonical operands (``_cut_pair``), whose
    row maxima are ``a_peak`` and ``b_peak``.

    From an output width of CUT_FROM on, a pair's upper rungs (every rung
    above the fallback) are transformed over each operand row's significant
    span only: its first through last column at or above

        theta = tau * (2**-53 / t)**(1 / p1),

    in the max-normalized row, t = min(a, b), p1 the lowest upper rung. A
    rung p >= p1 can win an index only where its normalized power sum is
    at least tau, so where S_p >= tau**p (S_p peaks at 1 or more). Every
    term the cut drops holds a value below theta, so is below theta**p,
    and at most t of them fall on one index: they sum to less than
    t * theta**p <= 2**-53 * tau**p <= 2**-53 * S_p. There the cut changes
    nothing but FFT round-off, and a rung choice can flip only where a
    root lies within round-off of tau.

    Each row's cut depends on that row alone, so every row keeps the bits
    of its one-pair call: its width is halved (rounding up) while it still
    holds the span, and the cut starts at the span, or ends at the row's
    end when the span sits closer to it than that width. A pair whose cuts
    make more than CUT_SHARE of its outputs is whole: it keeps the
    three-rung stack of whole rows, as does every pair of a call none of
    whose pairs is cut, such as one of uniform k = 8192 pairs. The other
    pairs take their fallback rung over whole rows, and their upper rungs
    in one ``_convolve_rows`` call per pair of cut widths, over the
    gathered cuts; a pair's upper-rung outputs sit at the sum of its cuts'
    starts among exact zeros (``_upper_cuts``).
    """
    if not (np.all(a_peak > 0.0) and np.all(b_peak > 0.0)):
        raise DegenerateDistributionError("degenerate distribution: total mass is zero")
    (a, _), (b, _) = _max_normalized(a, a_peak), _max_normalized(b, b_peak)
    peak = a_peak * b_peak
    scale = np.atleast_1d(peak)
    # A value at or below its rung's floor 0.5 * tau**p would root to at
    # most tau * 0.5**(1/p), about ln2/p below tau: over 1e6 ulps up to
    # p = 2**32, so no index takes it. Left unrooted, it is below tau
    # itself, so still none does. By p = 1e16 that gap is within
    # round-off, so rungs above 2**32 leave only nonpositive values
    # unrooted.
    floors = [0.5 * tau ** p if p <= 2.0 ** 32 else 0.0 for p in ladder[1:]]

    def normalized(vms, kept):
        kept = vms[..., kept]
        kept /= vms.max(axis=-1, keepdims=True)
        return kept

    def upper(rungs, stitched):
        """Root each upper rung above its floor, in place, and copy it
        into ``stitched`` where it clears tau, in ascending order."""
        take = np.empty(stitched.shape, bool)  # every mask, so one allocation per call
        for rung, p, floor in zip(rungs, ladder[1:], floors):
            np.power(rung, 1.0 / p, out=rung, where=np.greater(rung, floor, out=take))
            np.copyto(stitched, rung, where=np.greater_equal(rung, tau, out=take))
        return stitched

    def finish(rows, vms, kept, scale=scale):
        kept = normalized(vms, kept)
        stitched = _root(kept[0], ladder[0])  # smallest exponent is the fallback
        return upper(kept[1:], stitched) * scale[rows, ..., None]

    def fallback(rows, vms, kept):
        return _root(vms[0][..., kept] / vms[0].max(axis=-1, keepdims=True), ladder[0])

    na, nb = a.shape[-1], b.shape[-1]
    calls = None
    if len(ladder) > 1 and na + nb - 1 >= CUT_FROM:
        calls = _upper_cuts(a, b, _cut_level(ladder, tau, min(na, nb)))
    if calls is None:
        return _convolve_rows(a, b, ladder, finish, window), peak
    lo, n = window
    flat, scales = np.empty((scale.size, n)), scale.reshape(-1)
    cut = []  # the pairs whose upper rungs are placed over their fallback
    for rungs, pairs, a_rows, b_rows, offsets in calls:
        if rungs == "all":
            flat[pairs] = _convolve_rows(a_rows, b_rows, ladder, partial(
                finish, scale=scales[pairs].reshape(b_rows.shape[:-1])), window).reshape(-1, n)
            continue
        if rungs == "fallback":
            flat[pairs] = _convolve_rows(a_rows, b_rows, ladder[:1], fallback,
                                         window).reshape(-1, n)
            cut.append(pairs)
            continue
        # the cut output columns that some pair of the group keeps
        outputs = a_rows.shape[-1] + b_rows.shape[-1] - 1
        first = int(np.clip(lo - offsets.max(), 0, outputs))
        stop = int(np.clip(lo + n - offsets.min(), first, outputs))
        if stop == first:
            continue
        values = _convolve_rows(a_rows, b_rows, ladder[1:],
                                lambda rows, vms, kept: upper(normalized(vms, kept), np.zeros(
                                    vms.shape[1:-1] + (kept.stop - kept.start,))),
                                (first, stop - first)).reshape(len(pairs), -1)
        for row, offset, value in zip(pairs.tolist(), offsets.tolist(), values):
            start, end = max(first, lo - offset), min(stop, lo + n - offset)
            if end > start:
                piece = value[start - first:end - first]
                np.copyto(flat[row, start + offset - lo:end + offset - lo], piece,
                          where=piece >= tau)
    cut = np.concatenate(cut)
    flat[cut] *= scales[cut, None]
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


def _may_cut(rows: np.ndarray, theta: float) -> bool:
    """Whether some row may have a cut narrower than itself, from 16 of
    its columns: eight ending at column q and eight starting at column
    n - 1 - q, q = (n - ceil(n/2) - 1) // 2. Two columns at or above
    ``theta``, one from each, are at least ceil(n/2) apart, so a row that
    has both spans more than half of itself rounded up and keeps its
    width. A uniform row almost always has both."""
    n = rows.shape[-1]
    q = (n - -(-n // 2) - 1) // 2
    if q < 0:  # one column
        return False
    left, right = rows[:, max(q - 7, 0):q + 1], rows[:, n - 1 - q:n + 7 - q]
    return not ((left >= theta).any(axis=-1) & (right >= theta).any(axis=-1)).all()


def _upper_cuts(a: np.ndarray, b: np.ndarray, theta: float):
    """The transform calls of ``_ladder_rows`` over the row pairs of the
    max-normalized ``a`` (..., na) and ``b`` (..., nb), or None when every
    pair's cuts (``_row_cuts``) are its whole rows.

    Each call is ``(rungs, pairs, a_rows, b_rows, offsets)``: which rungs
    it transforms, the flat indices of its pairs in the broadcast leading
    shape and their rows, shaped (g, 1, wa) and (g, m, wb) for g left rows
    and m pairs each. The calls come in this order: "all" the rungs of
    the whole pairs, the "fallback" rung of the cut pairs over their whole
    rows, and the "upper" rungs of the cut pairs of one cut width per
    operand over their cuts, with ``offsets`` the column of each pair's
    full output at which its cut output starts. A left row broadcast
    along the last leading axis, such as a reverse layer's parent against
    its two children, goes once into a call that holds all m of its pairs,
    so it is cut and transformed once; every other pair goes with m = 1.
    """
    a_rows, b_rows = (x.reshape(-1, x.shape[-1]) for x in (a, b))
    if not (_may_cut(a_rows, theta) or _may_cut(b_rows, theta)):
        return None
    (a_start, a_width), (b_start, b_width) = (_row_cuts(x, theta) for x in (a_rows, b_rows))
    na, nb = a_rows.shape[-1], b_rows.shape[-1]
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    share = lead[-1] if lead and a.shape[:-1] == lead[:-1] + (1,) else 1
    a_of, b_of = (np.broadcast_to(np.arange(len(rows)).reshape(x.shape[:-1]), lead).ravel()
                  for x, rows in ((a, a_rows), (b, b_rows)))
    a_width, b_width = a_width[a_of], b_width[b_of]  # per pair from here on
    whole = a_width + b_width - 1 > CUT_SHARE * (na + nb - 1)
    if np.all(whole):
        return None
    codes = a_width * (nb + 1) + b_width
    calls = []

    def add(rungs, pairs):
        shared = np.bincount(a_of[pairs])[a_of[pairs]] == share
        for part, m in ((pairs[shared], share), (pairs[~shared], 1)):
            if part.size == 0:
                continue
            ai, bi = a_of[part[::m]], b_of[part]
            if rungs != "upper":  # whole rows
                calls.append((rungs, part, a_rows[ai].reshape(-1, 1, na),
                              b_rows[bi].reshape(-1, m, nb), None))
                continue
            wa, wb = a_width[part[0]], b_width[part[0]]
            calls.append((rungs, part, _gathered(a_rows, ai, a_start[ai], wa).reshape(-1, 1, wa),
                          _gathered(b_rows, bi, b_start[bi], wb).reshape(-1, m, wb),
                          np.repeat(a_start[ai], m) + b_start[bi]))

    add("all", np.flatnonzero(whole))
    add("fallback", np.flatnonzero(~whole))
    order = np.flatnonzero(~whole)[np.argsort(codes[~whole], kind="stable")]
    for pairs in np.split(order, np.flatnonzero(np.diff(codes[order])) + 1):
        add("upper", pairs)
    return calls


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
