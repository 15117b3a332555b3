"""FFT convolution of the elementwise powers of rows, batched over pairs.

The O(k log k) engine under every numerical max-convolution: one kernel
convolves the powers of an exponent ladder, (1.0,) for standard
convolution, (p,) for a p-norm, several rungs for the piecewise ladder.
Each transform is padded to the shortest 5-smooth length that holds the
full output (``fft_length``). Per block of row pairs (their leading axes
broadcast), each operand's rows, every rung, take one stacked real FFT, so
a tree layer costs a few numpy calls and a one-pair call is its one-row
case, bit for bit: each row of a stacked transform is computed as it
would be alone. Every transform runs on ``numpy.fft``, which since numpy
2.0 is the C++ pocketfft that ``scipy.fft`` runs, with the same bits;
scipy is not imported, since its import alone would take about three
quarters of the package's load time. Every forward transform in the
package is one ``_spectra`` call and every inverse one is in
``_convolve_rows``, the support counts of the exact refine of small
outputs (``_refine_rows``, which belongs to the p-norm path) included.

The transforms run in buffers that each thread keeps from call to call
(``_scratch``): a zero-padded stack of powers, which also takes the
inverse transform, and one spectra buffer per operand, which also takes
the product. Fresh ones per call cost more than the transforms on small
problems, since glibc can hand such blocks back as fresh pages: a
``max-numeric`` solve at n = 32, k = 256 took about 2,200 minor faults
and 16.4 ms with them, against 11.5 ms with none (2-vCPU VM). Only
buffers of at most KEEP_BYTES (1 MiB) are kept: a call that needs a
larger one drops the kept ones and allocates its own, because holding
large blocks keeps glibc's mmap threshold low and makes the rest of the
process fault instead. Nothing the kernel returns aliases
a kept buffer, and each thread has its own, so every operation stays safe
to call concurrently.

Negative round-off never reaches a fractional power, and neither does an
exact zero: on numpy 2.4.6 (AVX-512 dispatch) ``np.power(x, 1/p)`` takes
about 15 ns on 0.0 and about 4.3 ns on any other double, and after the
clip about half of each rung of a peaked k = 8192 pair is exact zeros.
Without a ``finish`` the kernel clips its outputs at zero, and the
caller roots them with ``_root``, which keeps zeros off np.power. A
``finish`` receives the rows unclipped and does both itself (the
piecewise ladder clamps its upper rungs up to a floor instead).

Every row kernel takes a keep-window ``(lo, n)`` and returns the kept
columns of its full rows and each full row's peak (``_keep_window``); a
one-pair function is its kernel over the full window (``_one_pair``).
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from typing import Callable

import numpy as np

from .pmf import Pmf

# Floats one stacked block may hold (4 MiB of float64), counting every
# operand row and every product/output row it transforms. A wide layer is
# split along its leading axis into blocks of this size so batching never
# raises peak memory by more than about one block; one leading index (a row
# pair, or a parent and its two children) larger than this is a block on
# its own.
BLOCK_FLOATS = 1 << 19

# Bytes up to which one transform buffer is kept in its thread's workspace
# for the next call (1 MiB). glibc serves a block above its mmap threshold
# from fresh pages, a minor fault each; the threshold starts at 128 KiB
# and rises only when a larger mmapped block is freed, so keeping larger
# buffers would hold it low for every other allocation of the process.
KEEP_BYTES = 1 << 20

# Small outputs at most this many indices apart share one direct-sum call
# in _refine_small_values, up to REFINE_RUN_CAP outputs per call.
_RUN_GAP = 8
REFINE_RUN_CAP = 256


def padded_length(n_out: int) -> int:
    """Next power of two >= n_out."""
    return 1 << max(0, (n_out - 1).bit_length())


@lru_cache(maxsize=256)
def fft_length(n_out: int) -> int:
    """Transform length for an n_out-point linear convolution: the next
    5-smooth number (2^a 3^b 5^c) >= n_out, never above padded_length.

    Each odd part 3^b 5^c below the best length so far takes the smallest
    power of two that lifts it to n_out or more: the next power of two of
    ceil(n_out / odd), one bit_length. A process uses few lengths, so each
    is searched once (about 8 us on a 2-vCPU Xeon VM).
    """
    best = padded_length(n_out)
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:
            length = odd << (-(-n_out // odd) - 1).bit_length()
            if length < best:
                best = length
            odd *= 3
        fives *= 5
    return best


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
    # One pair: comparing bytes skips the uint8 views and gathers below,
    # about 30 us of a 55-65 us one-pair fast_convolve at k = 64 (2 vCPUs).
    if left.size == right.size == left.shape[-1]:
        return (left, right) if left.tobytes() <= right.tobytes() else (right, left)
    lb, rb = (np.ascontiguousarray(x).view(np.uint8) for x in (left, right))
    differ = lb != rb
    first = differ.argmax(axis=-1)[..., None]  # 0 where the rows are equal
    swap = (np.take_along_axis(np.broadcast_to(lb, differ.shape), first, -1)
            > np.take_along_axis(np.broadcast_to(rb, differ.shape), first, -1))
    if not swap.any():
        return left, right
    return np.where(swap, right, left), np.where(swap, left, right)


def _ladder_powers(x: np.ndarray, ladder: tuple[float, ...],
                   out: np.ndarray | None = None) -> list[np.ndarray]:
    """x**p for each ladder rung, sharing square chains between them.

    Power-of-two rungs come from repeated squaring (p = 1 is x itself).
    Climbing from x**q to x**p composes to exactly the squarings that would
    start over from x, so each rung is bit-identical to computing it alone.
    Other rungs use np.power. Given ``out`` (one slot per rung), rung r is
    written to ``out[r]`` instead of a new array.
    """
    powers = []
    climbed, climbed_p = x, 1
    for r, p in enumerate(ladder):
        dest = None if out is None else out[r]
        exp = int(p)
        if exp == p and exp & (exp - 1) == 0:
            while climbed_p < exp:
                climbed = np.square(climbed, out=dest)
                climbed_p *= 2
            if dest is not None and climbed is not dest:  # p = 1
                np.copyto(dest, climbed)
                climbed = dest
            powers.append(climbed)
        else:
            powers.append(np.power(x, p, out=dest))
    return powers


def _spectra(x: np.ndarray, ladder: tuple[float, ...], size: int,
             stack: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Real FFTs of the ladder powers of every row of ``x`` (..., n),
    zero-padded to ``size``: a (rungs, ..., size // 2 + 1) array in the
    flat buffer ``spectra``, from one transform of the (rungs, rows, size)
    stack that the powers and their zero pad fill in the flat buffer
    ``stack``."""
    rows = x.reshape(-1, x.shape[-1])
    padded = np.ndarray((len(ladder), len(rows), size), np.float64, stack)
    _ladder_powers(rows, ladder, out=padded[..., :x.shape[-1]])
    padded[..., x.shape[-1]:].fill(0.0)
    out = np.ndarray(padded.shape[:-1] + (size // 2 + 1,), np.complex128, spectra)
    return np.fft.rfft(padded, out=out).reshape(len(ladder), *x.shape[:-1], -1)


class _Workspace(threading.local):
    """One thread's kept transform buffers: a flat float64 array by role."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}


_workspace = _Workspace()


def _scratch(floats: dict[str, int]) -> dict[str, np.ndarray]:
    """A flat float64 buffer of at least ``floats[role]`` items for each
    role, contents undefined. When every one fits in KEEP_BYTES they come
    from the calling thread's workspace, grown as needed and kept for its
    next call. Otherwise the workspace is dropped and every buffer is
    allocated for this call only."""
    kept = _workspace.buffers
    if max(floats.values()) * 8 > KEEP_BYTES:
        kept.clear()
        return {role: np.empty(n) for role, n in floats.items()}
    for role, n in floats.items():
        if role not in kept or kept[role].size < n:
            kept[role] = np.empty(n)
    return kept


def _convolve_rows(left: np.ndarray, right: np.ndarray, ladder: tuple[float, ...] = (1.0,),
                   finish: Callable[[slice, np.ndarray], np.ndarray] | None = None,
                   width: int | None = None) -> np.ndarray:
    """Linear convolutions of the elementwise p-th powers of every row pair
    of ``left`` (..., a) and ``right`` (..., b), taken in the order given,
    whose leading axes broadcast, for each exponent p of ``ladder``.

    The leading axis is cut into blocks of at most BLOCK_FLOATS live floats
    (one index at least). Per block, each operand takes one transform of
    every rung of its rows (``_spectra``), so a row shared through
    broadcasting within a block, such as a parent message against its two
    children, is transformed once. Then ``finish(rows, out)`` maps ``out``,
    a (rungs, *block, size) array whose rows start with their a + b - 1
    output values, not clipped (round-off can leave them slightly
    negative), to that block's (*block, width) results, ``width`` being
    the number of output columns the caller keeps (all a + b - 1 by
    default). Without ``finish`` the results are the first rung's outputs
    clipped at zero. The results of all blocks are returned as one
    (..., width) array. The transform length depends on a + b - 1 only.

    The transforms run in the calling thread's workspace (``_scratch``,
    which keeps no buffer above KEEP_BYTES; the module docstring says why):
    one stack, which holds each operand's zero-padded powers in turn and
    then the inverse transform, and one spectra buffer per operand. The
    product is taken in place in the spectra of the operand that spans the
    block's rows, or in a product buffer of its own when neither does.
    ``out`` is a view of the stack, which ``finish`` may overwrite but must
    not return or keep: nothing returned aliases the workspace, so a later
    call, such as the support counts that ``_refine_rows`` takes of a
    result, cannot change a result already returned.
    """
    lead = left.shape[:-1]
    if right.shape[:-1] != lead:  # np.broadcast_shapes costs about 2 us
        lead = np.broadcast_shapes(lead, right.shape[:-1])
    a, b = left.shape[-1], right.shape[-1]
    size = fft_length(a + b - 1)
    width = a + b - 1 if width is None else width
    rungs = len(ladder)
    shape = (lead or (1,)) + (a + b - 1,)
    left, right = (x.reshape((1,) * (len(shape) - x.ndim) + x.shape) for x in (left, right))
    rows_per_index = [math.prod(x.shape[1:-1]) for x in (left, right)]
    floats = (2 * sum(rows_per_index) + 3 * math.prod(shape[1:-1])) * rungs * size
    blocks = range(0, shape[0], max(1, BLOCK_FLOATS // floats))
    # rows of each operand and of the product in the first, largest block;
    # an operand with as many rows as the product has its shape in every block
    step = min(blocks.step, shape[0])
    l_rows = (1 if left.shape[0] == 1 else step) * rows_per_index[0]
    r_rows = (1 if right.shape[0] == 1 else step) * rows_per_index[1]
    p_rows = step * math.prod(shape[1:-1])
    half = size // 2 + 1
    counts = {"stack": rungs * max(l_rows, r_rows, p_rows) * size,
              "left": 2 * rungs * l_rows * half,  # floats of complex spectra
              "right": 2 * rungs * r_rows * half}
    into = "right" if p_rows == r_rows else "left" if p_rows == l_rows else "product"
    if into == "product":
        counts["product"] = 2 * rungs * p_rows * half
    buffers = _scratch(counts)
    result = None if finish is not None and len(blocks) == 1 else np.empty(shape[:-1] + (width,))
    for start in blocks:
        rows = slice(start, start + blocks.step)
        l, r = (x if x.shape[0] == 1 else x[rows] for x in (left, right))
        block = (rungs, min(blocks.step, shape[0] - start), *shape[1:-1])
        right_spectra = _spectra(r, ladder, size, buffers["stack"], buffers["right"])
        left_spectra = _spectra(l, ladder, size, buffers["stack"], buffers["left"])
        product = (right_spectra if into == "right" else left_spectra if into == "left"
                   else np.ndarray(block + (half,), np.complex128, buffers["product"]))
        np.multiply(left_spectra, right_spectra, out=product)
        out = np.fft.irfft(product, size, out=np.ndarray(block + (size,), np.float64,
                                                         buffers["stack"]))
        if finish is None:
            np.maximum(out[0, ..., :width], 0.0, out=result[rows])
        elif result is None:
            result = finish(rows, out)
        else:
            result[rows] = finish(rows, out)
    return result.reshape(lead + (width,))


def _root(x: np.ndarray, p: float) -> np.ndarray:
    """x**(1/p) of a nonnegative array, in place, with exact zeros kept off
    np.power (which takes about 3.5 times as long on 0.0 as on any other
    double): zeros are raised to 1, rooted to exactly 1 and lowered back
    to 0, and every other value is left unchanged by adding and subtracting
    0. Returns ``x``."""
    zero = x == 0.0
    if zero.any():
        x += zero
        np.power(x, 1.0 / p, out=x)
        x -= zero
        return x
    return np.power(x, 1.0 / p, out=x)


def _refine_small_values(out: np.ndarray, a: np.ndarray, b: np.ndarray,
                         rel_threshold: float, window: tuple[int, int]):
    """Recompute the outputs in the kept columns ``out[lo:lo + n]``
    (``window=(lo, n)``) at or below rel_threshold * max(out) by direct
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

    Steps 1-3 read the whole row, so the pieces do not depend on
    ``window``; it only skips the direct sums of pieces that do not reach
    into it. Every kept output is then the same sum over the same piece
    as under the full window, bit for bit, and the row's peak is
    untouched. Small outputs outside the window are left at zero or at
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
    view from it to the last nonzero value."""
    nonzero = np.flatnonzero(x)
    return int(nonzero[0]), x[nonzero[0]:nonzero[-1] + 1]


def _support_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The number of nonzero terms a[l] * b[m - l] of every output m, from
    one FFT convolution of the 0/1 support indicators."""
    return np.rint(_convolve_rows((a != 0.0).astype(float), (b != 0.0).astype(float)))


def _window(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """x[lo..hi] (lo <= hi), read as zero outside ``x``."""
    if lo >= 0 and hi < x.size:
        return x[lo:hi + 1]
    window = np.zeros(hi - lo + 1)
    start, stop = min(max(lo, 0), x.size), max(min(hi + 1, x.size), 0)
    window[start - lo:stop - lo] = x[start:stop]
    return window


def fast_convolve_rows(left: np.ndarray, right: np.ndarray,
                       window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """fast_convolve of every row pair of ``left`` (..., a) and ``right``
    (..., b), whose leading axes broadcast, cut to the keep-window
    ``window=(lo, n)``: the kept columns and row peaks (``_keep_window``).

    Each row is bit-identical to the one-pair call on that row pair.
    """
    a, b = _canonical_rows(np.asarray(left, dtype=float), np.asarray(right, dtype=float))
    return _keep_window(_convolve_rows(a, b), window)


def _keep_window(out: np.ndarray, window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The kept columns ``out[..., lo:lo + n]`` of ``window=(lo, n)`` and
    each full row's peak ``out.max(axis=-1)``: what every row kernel
    returns."""
    lo, n = window
    return out[..., lo:lo + n], out.max(axis=-1)


def _one_pair(kernel: Callable, left: Pmf, right: Pmf, *args) -> Pmf:
    """The row kernel ``kernel(left, right, *args, window=...)`` of one pair
    over its full window, as a Pmf at the summed offset."""
    out, _ = kernel(left.values, right.values, *args, window=(0, len(left) + len(right) - 1))
    return Pmf(out, left.offset + right.offset)


def _refine_rows(out: np.ndarray, a: np.ndarray, b: np.ndarray,
                 rel_threshold: float, window: tuple[int, int]):
    """_refine_small_values of each row of ``out`` that has a small output
    in the kept columns ``out[..., lo:lo + n]`` (``window=(lo, n)``), small
    meaning against the full row's peak."""
    # One pair: _refine_small_values finds its small outputs itself; the
    # scan and index loop below add 22-38 us to a 67-80 us one-pair
    # p_norm_convolve at k = 64 (2 vCPUs).
    if out.ndim == 1:
        _refine_small_values(out, a, b, rel_threshold, window)
        return
    lo, n = window
    peak = out.max(axis=-1, keepdims=True)
    small = ((out[..., lo:lo + n] <= peak * rel_threshold) & (peak > 0.0)).any(axis=-1)
    a, b = (np.broadcast_to(x, out.shape[:-1] + x.shape[-1:]) for x in (a, b))
    for index in map(tuple, np.argwhere(small)):
        _refine_small_values(out[index], a[index], b[index], rel_threshold, window)


def fast_convolve(left: Pmf, right: Pmf) -> Pmf:
    """Standard convolution via real FFT; the one-row fast_convolve_rows.

    Matches naive_convolve to ~1e-15 of the peak: outputs far below the
    peak carry that absolute round-off (``p_norm_convolve`` at p = 1 is
    the same convolution with those outputs recomputed exactly).
    """
    return _one_pair(fast_convolve_rows, left, right)
