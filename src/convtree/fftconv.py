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
``_convolve_rows``.

The transforms run in three buffers that each thread keeps from call to
call (``_scratch``): a zero-padded stack of powers, which also takes the
inverse transform, and one spectra buffer per operand; the product is
taken in place in the right operand's spectra. Fresh ones per call cost
more than the transforms on small problems, since glibc can hand such
blocks back as fresh pages: a ``max-numeric`` solve at n = 32, k = 256
took about 2,200 minor faults and 16.4 ms with them, against 11.5 ms
with none (2-vCPU VM). Only buffers of at most KEEP_BYTES (1 MiB) are
kept: a call that needs a larger one drops the kept ones and allocates
its own, because holding large blocks keeps glibc's mmap threshold low
and makes the rest of the process fault instead. Nothing the kernel
returns aliases a kept buffer, and each thread has its own, so every
operation stays safe to call concurrently.

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
    every rung of its rows (``_spectra``), so a left row shared through
    broadcasting within a block, such as a parent message against its two
    children, is transformed once. Then ``finish(rows, out)`` maps ``out``,
    a (rungs, *block, size) array whose rows start with their a + b - 1
    output values, not clipped (round-off can leave them slightly
    negative), to that block's (*block, width) results, ``width`` being
    the number of output columns the caller keeps (all a + b - 1 by
    default). Without ``finish`` the results are the first rung's outputs
    clipped at zero. The results of all blocks are returned as one
    (..., width) array, empty when a leading axis is. The transform length
    depends on a + b - 1 only.

    The transforms run in three buffers of the calling thread's workspace
    (``_scratch``, which keeps no buffer above KEEP_BYTES; the module
    docstring says why): one stack, which holds each operand's zero-padded
    powers in turn and then the inverse transform, and one spectra buffer
    per operand. The product is taken in place in the right operand's
    spectra, so a right operand whose leading shape is not the product's
    is first broadcast to it. ``out`` is a view of the stack, which
    ``finish`` may overwrite but must not return or keep: nothing returned
    aliases the workspace, so a later call, such as the support counts
    that ``numeric._refine_rows`` takes of a result, cannot change a
    result already returned.
    """
    lead = left.shape[:-1]
    if right.shape[:-1] != lead:  # np.broadcast_shapes costs about 2 us
        lead = np.broadcast_shapes(lead, right.shape[:-1])
    a, b = left.shape[-1], right.shape[-1]
    size = fft_length(a + b - 1)
    width = a + b - 1 if width is None else width
    if 0 in lead:
        return np.empty(lead + (width,))
    rungs = len(ladder)
    shape = (lead or (1,)) + (a + b - 1,)
    left, right = (x.reshape((1,) * (len(shape) - x.ndim) + x.shape) for x in (left, right))
    if right.shape[:-1] != shape[:-1]:
        right = np.broadcast_to(right, shape[:-1] + (b,))
    # rows per leading index of the left operand and of the product (and right)
    l_per, p_per = math.prod(left.shape[1:-1]), math.prod(shape[1:-1])
    floats = (2 * (l_per + p_per) + 3 * p_per) * rungs * size
    blocks = range(0, shape[0], max(1, BLOCK_FLOATS // floats))
    # rows of the left operand and of the product in the first, largest block
    step = min(blocks.step, shape[0])
    l_rows, p_rows = (1 if left.shape[0] == 1 else step) * l_per, step * p_per
    half = size // 2 + 1
    buffers = _scratch({"stack": rungs * p_rows * size,
                        "left": 2 * rungs * l_rows * half,  # floats of complex spectra
                        "right": 2 * rungs * p_rows * half})
    result = None if finish is not None and len(blocks) == 1 else np.empty(shape[:-1] + (width,))
    for start in blocks:
        rows = slice(start, start + blocks.step)
        l, r = (x if x.shape[0] == 1 else x[rows] for x in (left, right))
        right_spectra = _spectra(r, ladder, size, buffers["stack"], buffers["right"])
        left_spectra = _spectra(l, ladder, size, buffers["stack"], buffers["left"])
        product = np.multiply(left_spectra, right_spectra, out=right_spectra)
        out = np.fft.irfft(product, size, out=np.ndarray(product.shape[:-1] + (size,),
                                                         np.float64, buffers["stack"]))
        if finish is None:
            np.maximum(out[0, ..., :width], 0.0, out=result[rows])
        elif result is None:
            result = finish(rows, out)
        else:
            result[rows] = finish(rows, out)
    return result.reshape(lead + (width,))


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


def fast_convolve(left: Pmf, right: Pmf) -> Pmf:
    """Standard convolution via real FFT; the one-row fast_convolve_rows.

    Matches naive_convolve to ~1e-15 of the peak: outputs far below the
    peak carry that absolute round-off (``p_norm_convolve`` at p = 1 is
    the same convolution with those outputs recomputed exactly).
    """
    return _one_pair(fast_convolve_rows, left, right)
