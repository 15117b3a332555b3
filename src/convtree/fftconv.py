"""FFT-backed standard convolution of rows, batched over many pairs.

This is the O(k log k) engine under every numerical max-convolution. Each
transform is padded to the shortest 5-smooth length that holds the full
output (``fft_length``). The kernel convolves every row pair of two arrays
whose leading axes broadcast, in one stacked real FFT per block, so a
convolution-tree layer costs a few numpy calls instead of several per
pair; a one-pair call is its one-row case. Every row of a stacked
transform is computed exactly as it would be alone, so each row of a
batched result is bit-identical to the one-pair call on that row pair.
Inputs are nonnegative, so any negative round-off in the
inverse transform is clipped to zero before downstream fractional powers
see it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.fft

from .pmf import Pmf

# Floats one stacked block may hold (4 MiB of float64), counting every
# operand row and every product/output row it transforms. A wide layer is
# split along its leading axis into blocks of this size so batching never
# raises peak memory by more than about one block; one leading index (a row
# pair, or a parent and its two children) larger than this is a block on
# its own.
BLOCK_FLOATS = 1 << 19

# Small outputs at most this many indices apart share one direct-sum call
# in _refine_small_values, up to REFINE_RUN_CAP outputs per call.
_RUN_GAP = 8
REFINE_RUN_CAP = 256


def padded_length(n_out: int) -> int:
    """Next power of two >= n_out."""
    return 1 << max(0, (n_out - 1).bit_length())


def fft_length(n_out: int) -> int:
    """Transform length for an n_out-point linear convolution: the next
    5-smooth number (2^a 3^b 5^c) >= n_out, never above padded_length."""
    return scipy.fft.next_fast_len(n_out, real=True)


def _canonical_rows(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Put every row pair in one fixed operand order, so swapped arguments
    run the same float program.

    Complex multiplication is not bitwise commutative under FMA, so without
    this, op(L, R) and op(R, L) could differ by an ulp; downstream threshold
    tests would then amplify that into visible noncommutativity. The longer
    operand goes first, which is one test for the whole call. Of equal
    lengths, the row whose bytes (as ``tobytes`` lays them out) compare
    lower goes first, in one vectorized comparison over all rows.
    """
    if left.shape[-1] != right.shape[-1]:
        return (left, right) if left.shape[-1] > right.shape[-1] else (right, left)
    if left.size == right.size == left.shape[-1]:  # one pair
        return (left, right) if left.tobytes() <= right.tobytes() else (right, left)
    lb, rb = (np.ascontiguousarray(x).view(np.uint8) for x in (left, right))
    differ = lb != rb
    first = differ.argmax(axis=-1)[..., None]  # 0 where the rows are equal
    swap = (np.take_along_axis(np.broadcast_to(lb, differ.shape), first, -1)
            > np.take_along_axis(np.broadcast_to(rb, differ.shape), first, -1))
    if not swap.any():
        return left, right
    return np.where(swap, right, left), np.where(swap, left, right)


def _convolve_rows(left: np.ndarray, right: np.ndarray,
                   finish: Callable[[slice, np.ndarray], np.ndarray],
                   rungs: int = 1, powers: Callable[..., object] | None = None,
                   width: int | None = None) -> np.ndarray:
    """Linear convolutions of every row pair of ``left`` (..., a) and
    ``right`` (..., b), taken in the order given, whose leading axes
    broadcast; one stacked transform per block.

    ``powers(x, out=...)`` writes ``rungs`` elementwise maps of an operand
    into ``out[0..rungs-1]``, and each map is convolved; without it the
    operands themselves are, as one rung. The leading axis is cut into
    blocks of at most BLOCK_FLOATS live floats (one index at least), so a
    row shared through broadcasting within a block, such as a parent
    message against its two children, is transformed once. Per block,
    ``finish(rows, out)`` maps ``out``, a (rungs, *block, size) array whose
    rows start with their a + b - 1 output values clipped at zero, to that
    block's (*block, width) results, ``width`` being the number of output
    columns the caller keeps (all a + b - 1 by default); the results of all
    blocks are returned as one (..., width) array. The transform length
    depends on a + b - 1 only.

    A plain one-pair call runs two 1-D transforms; with ``powers``, both
    operands' maps go straight into one zeroed (rungs, 2, size) stack.
    """
    lead = np.broadcast_shapes(left.shape[:-1], right.shape[:-1])
    a, b = left.shape[-1], right.shape[-1]
    size = fft_length(a + b - 1)
    width = a + b - 1 if width is None else width
    shape = (lead or (1,)) + (a + b - 1,)
    left, right = (x.reshape((1,) * (len(shape) - x.ndim) + x.shape) for x in (left, right))
    rows_per_index = [math.prod(x.shape[1:-1]) for x in (left, right)]
    floats = (2 * sum(rows_per_index) + 3 * math.prod(shape[1:-1])) * rungs * size
    blocks = range(0, shape[0], max(1, BLOCK_FLOATS // floats))
    result = None if len(blocks) == 1 else np.empty(shape[:-1] + (width,))
    for start in blocks:
        rows = slice(start, start + blocks.step)
        l, r = (x if x.shape[0] == 1 else x[rows] for x in (left, right))
        if powers is None:
            if l.size == a and r.size == b:
                product = scipy.fft.rfft(l.ravel(), size) * scipy.fft.rfft(r.ravel(), size)
            else:
                product = scipy.fft.rfft(l, size) * scipy.fft.rfft(r, size)
            out = scipy.fft.irfft(product, size)[None]
        else:
            l2, r2 = l.reshape(-1, a), r.reshape(-1, b)
            stack = np.zeros((rungs, len(l2) + len(r2), size))
            powers(l2, out=stack[:, :len(l2), :a])
            powers(r2, out=stack[:, len(l2):, :b])
            spectra = scipy.fft.rfft(stack)
            del stack
            product = (spectra[:, :len(l2)].reshape(rungs, *l.shape[:-1], -1)
                       * spectra[:, len(l2):].reshape(rungs, *r.shape[:-1], -1))
            del spectra
            out = scipy.fft.irfft(product, size)
        del product
        np.maximum(out, 0.0, out=out)
        done = finish(rows, out.reshape(rungs, -1, *shape[1:-1], size))
        del out
        if result is None:
            result = done
        else:
            result[rows] = done
    return result.reshape(lead + (width,))


def _refine_small_values(out: np.ndarray, a: np.ndarray, b: np.ndarray,
                         rel_threshold: float) -> None:
    """Recompute outputs at or below rel_threshold * max(out) by direct
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
    index = np.flatnonzero(out <= peak * rel_threshold)
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
    if index.size == 0:
        return
    starts = np.flatnonzero(np.diff(index) > _RUN_GAP + 1) + 1
    runs = (piece for run in np.split(index, starts)
            for piece in np.split(run, range(REFINE_RUN_CAP, run.size, REFINE_RUN_CAP)))
    for run in runs:
        first, last = int(run[0]), int(run[-1])
        # b[lo..hi] holds every b term of outputs first..last
        lo, hi = max(0, first - a.size + 1), min(b.size - 1, last)
        sums = np.convolve(_window(a, first - hi, last - lo), b[lo:hi + 1], mode="valid")
        out[shift + run] = sums[run - first]


def _trimmed(x: np.ndarray) -> tuple[int, np.ndarray]:
    """The index of the first nonzero value of ``x`` (which has one) and the
    view from it to the last nonzero value."""
    nonzero = np.flatnonzero(x)
    return int(nonzero[0]), x[nonzero[0]:nonzero[-1] + 1]


def _support_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The number of nonzero terms a[l] * b[m - l] of every output m, from
    one FFT convolution of the 0/1 support indicators."""
    size = fft_length(a.size + b.size - 1)
    spectrum = (scipy.fft.rfft((a != 0.0).astype(float), size)
                * scipy.fft.rfft((b != 0.0).astype(float), size))
    return np.rint(scipy.fft.irfft(spectrum, size)[:a.size + b.size - 1])


def _window(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """x[lo..hi] (lo <= hi), read as zero outside ``x``."""
    if lo >= 0 and hi < x.size:
        return x[lo:hi + 1]
    window = np.zeros(hi - lo + 1)
    start, stop = min(max(lo, 0), x.size), max(min(hi + 1, x.size), 0)
    window[start - lo:stop - lo] = x[start:stop]
    return window


def fast_convolve_rows(left: np.ndarray, right: np.ndarray,
                       refine_below: float | None = None,
                       window: tuple[int, int] | None = None):
    """fast_convolve of every row pair of ``left`` (..., a) and ``right``
    (..., b), whose leading axes broadcast: a (..., a + b - 1) array, or
    with ``window`` its kept columns and row peaks (see ``_keep_window``).

    Each row is bit-identical to the one-pair call on that row pair.
    """
    a, b = _canonical_rows(np.asarray(left, dtype=float), np.asarray(right, dtype=float))
    n_out = a.shape[-1] + b.shape[-1] - 1
    out = _convolve_rows(a, b, lambda rows, out: out[0, ..., :n_out])
    if refine_below is not None:
        _refine_rows(out, a, b, refine_below)
    return _keep_window(out, window)


def _keep_window(out: np.ndarray, window: tuple[int, int] | None):
    """``out`` itself without a window; with ``window=(lo, n)``, the kept
    columns ``out[..., lo:lo + n]`` and each full row's peak
    ``out.max(axis=-1)``: the keep-window contract of ``apply_rows``."""
    if window is None:
        return out
    lo, n = window
    return out[..., lo:lo + n], out.max(axis=-1)


def _refine_rows(out: np.ndarray, a: np.ndarray, b: np.ndarray,
                 rel_threshold: float) -> None:
    """_refine_small_values of each row of ``out`` that has a small output."""
    if out.ndim == 1:
        _refine_small_values(out, a, b, rel_threshold)
        return
    peak = out.max(axis=-1, keepdims=True)
    small = ((out <= peak * rel_threshold) & (peak > 0.0)).any(axis=-1)
    a, b = (np.broadcast_to(x, out.shape[:-1] + x.shape[-1:]) for x in (a, b))
    for index in map(tuple, np.argwhere(small)):
        _refine_small_values(out[index], a[index], b[index], rel_threshold)


def fast_convolve(left: Pmf, right: Pmf, refine_below: float | None = None) -> Pmf:
    """Standard convolution via real FFT; the one-row fast_convolve_rows.

    Matches naive_convolve to ~1e-15 of the peak. When ``refine_below`` is
    given, outputs under that fraction of the peak are recomputed exactly by
    direct summation (used by the p-norm path, where the 1/p root would blow
    round-off noise up to order one).
    """
    return Pmf(fast_convolve_rows(left.values, right.values, refine_below),
               left.offset + right.offset)
