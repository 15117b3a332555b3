"""FFT convolution of the elementwise powers of rows, batched over pairs.

The O(k log k) engine under every numerical max-convolution: one kernel
convolves the powers of an exponent ladder, (1.0,) for standard
convolution, (p,) for a p-norm, several rungs for the piecewise ladder.
Each transform is padded to the shortest 5-smooth length that holds the
full output (``fft_length``), except that a long-by-short pair (shorter
row s at least VALID_FROM long, longer row l at least 2s - 1) takes its
valid columns s - 1..l - 1 and its row scales from a circular transform
at ``fft_length(l)`` (``_valid_part``); the linear one then gives only
the kept columns outside them. Per block of row pairs (their leading axes
broadcast), each operand's rows, every rung, take one stacked real FFT, so
a tree layer costs a few numpy calls and a one-pair call is its one-row
case, bit for bit: each row of a stacked transform is computed as it
would be alone. Every transform runs on ``numpy.fft``, which since numpy
2.0 is the C++ pocketfft that ``scipy.fft`` runs, with the same bits;
scipy is not imported, since its import alone would take about three
quarters of the package's load time. Every forward transform in the
package is one ``_spectra`` call and every inverse one is in
``_transform``.

From FOUR_STEP_FROM points on, a transform is taken in four steps
(Bailey, "FFTs in external or hierarchical memory", 1990): each
zero-padded row of N = N1 N2 points is read as an (N1, N2) array, takes
one ``rfft`` along N1, the twiddle factors W^(k1 n2) (``_twiddles``) and
one ``fft`` along N2, and its spectrum stays in that (N1 / 2 + 1, N2)
layout, since the convolution only multiplies spectra elementwise; the
inverse undoes the steps into the stack. Its short transforms fit in a
core's cache where one long ``rfft`` does not: a one-pair fast_convolve
of 2^16 to 2^18 points took 0.54-0.71 times as long. A transform of each
length takes one form, whatever the call, and each short transform reads
one row of its operand alone, as a one-row stack would, so every row
still keeps the bits of its one-pair call. Four steps and one ``rfft``
agree to round-off (about 1e-15 of the peak), not bit for bit.

A row pair whose mass sits on short spans is cut to them (``_cut_pair``).
Each operand row's span runs from its first to its last nonzero value, as
the kernel receives it: powered (``pnorm:<p>``) and in canonical order.
When the spans convolve to at most half of the pair's a + b - 1 outputs
(a span pair), the kernel runs on the two spans alone, at the
``fft_length`` of their output, and its kept columns are written back
among exact +0.0. A one-pair call decides this right after the canonical
order. A rows call transforms every pair whole and then computes each of
its span pairs as that one-pair call, so every row keeps the bits of its
one-pair call. Span pairs are rare in rows calls: ``convolution_tree``
cuts its priors at their nonzero edges and runs each layer in segments
as wide as their widest node, so a tree makes them only where a message
itself is narrow, such as the top reverse layer under point evidence. A
row can span at most half of itself only if it is zero at one of its two
quarter-in columns, so dense layers read those two columns and scan
nothing (``_maybe_narrow``).

The piecewise ladder transforms the upper rungs of a wide pair over cuts
of its rows, one ``_convolve_rows`` call per cut width, so this module's
transforms keep their layout (``numeric._ladder_rows`` bounds what the
cuts drop).

The transforms run in three buffers that each thread keeps from call to
call (``_scratch``): a zero-padded stack of powers, which also takes the
inverse transform, and one spectra buffer per operand; the product is
taken in place in the right operand's spectra. Fresh
buffers per call cost more than the transforms on small problems, since
glibc can hand such blocks back as fresh pages: a ``max-numeric`` solve
at n = 32, k = 256 took about 2,200 minor faults and 16.4 ms with them,
against 11.5 ms with none (2-vCPU VM). Only buffers of at most
KEEP_BYTES (1 MiB) are kept: a call that needs a larger one drops the
kept ones and allocates its own, because holding large blocks keeps
glibc's mmap threshold low and makes the rest of the process fault
instead. Nothing the kernel returns aliases a kept buffer, and each
thread has its own, so every operation stays safe to call concurrently.

Every row kernel, ``_convolve_rows`` first, takes a keep-window
``window=(lo, n)`` and returns the kept columns of its full rows and each
row's scale: its full row's peak, or for a long-by-short pair the peak of
its circular transform, as ``_convolve_rows`` scales it. Neither depends
on the window. A one-pair function is its kernel over the full window
(``_one_pair``).
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

# Shorter-row length from which a long-by-short row pair takes its valid
# columns and row scales from a circular transform at its longer row's
# length (``_valid_part``), so a dense reverse tree layer transforms at its
# parent's length only. Such layer calls of random rows (32,768 sibling
# columns a call) took 0.45-0.95x as long at every width from 64 to 4096.
# Whole solves, against no circular transform (best of 15, floors
# alternating in one process, 2-vCPU VM): at (1024, 64) sum 0.82x with the
# floor at 1024 and 0.75x at 256, max-numeric 0.88x and 0.82x; at
# (32, 256) sum 0.86x and 0.84x, max-numeric 0.87x and 0.84x, pnorm:1
# 0.97x and 0.91x. A floor of 64 read 0-5% below 256 at (1024, 64), about
# the spread between runs. What a lower floor costs is its full calls:
# a one-pair call of such a pair pays both transforms and took 1.3-1.7x as
# long at widths 64 to 2048 (2.7x at 4096).
VALID_FROM = 256

# Transform length from which a transform is taken in four steps
# (``_spectra``). One-pair fast_convolve of dense rows, one rfft against
# four steps (best of 11, alternating in one process, 2-vCPU VM with 2 MiB
# of L2 per core): 0.64 -> 0.51 ms at 16,384 points, 1.85 -> 1.11 ms at
# 32,768, 4.11 -> 2.21 ms at 65,536, 7.27 -> 5.17 ms at 131,072 and 17.1 ->
# 12.0 ms at 262,144. Whole solves (perfbench, 10 s runs, 4-6 alternating
# rounds): on tree-wide, floors of 32,768, 65,536 and 131,072 read within
# each other's spread (tree.sum.s medians 0.185, 0.186 and 0.182 s against
# 0.212 s with none); on tree-deep a floor of 32,768 read no faster than
# none (sum 0.0625 against 0.0632 s, max-numeric 0.167 against 0.163 s),
# so the floor stays above its largest transform, 64,800 points.
FOUR_STEP_FROM = 1 << 16


def padded_length(n_out: int) -> int:
    """Next power of two >= n_out."""
    return 1 << (max(n_out, 1) - 1).bit_length()


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
    lower goes first: the rows are compared as 8-byte words, without a
    copy, and each pair is decided at its first differing word, read
    big-endian so that its order is the order of its bytes. One vectorized
    comparison of the first words decides most pairs; only the pairs that
    tie there are gathered and scanned for their first differing word.
    """
    if left.shape[-1] != right.shape[-1]:
        return (left, right) if left.shape[-1] > right.shape[-1] else (right, left)
    # One pair: comparing bytes skips the word views and gathers below,
    # about 30 us of a 55-65 us one-pair fast_convolve at k = 64 (2 vCPUs).
    if left.size == right.size == left.shape[-1]:
        return (left, right) if left.tobytes() <= right.tobytes() else (right, left)
    lw, rw = left.view(np.uint64), right.view(np.uint64)
    l0, r0 = lw[..., 0], rw[..., 0]
    swap = l0.view(">u8") > r0.view(">u8")
    tie = l0 == r0
    if tie.any():  # only rows equal in their first words are read further
        tied = np.nonzero(tie)
        lw, rw = (np.broadcast_to(w, tie.shape + w.shape[-1:])[tied] for w in (lw, rw))
        first = (lw != rw).argmax(axis=-1)[:, None]  # 0 where the rows are equal
        swap[tied] = (np.take_along_axis(lw, first, -1).view(">u8")
                      > np.take_along_axis(rw, first, -1).view(">u8"))[:, 0]
    if not swap.any():
        return left, right
    swap = swap[..., None]
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


@lru_cache(maxsize=32)
def _twiddles(size: int) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The twiddle factors W^(k1 n2), W = exp(-2 pi i / size), of a
    four-step transform of ``size`` = N1 N2 points, for k1 <= N1 / 2 and
    n2 < N2, and their conjugates, each as two read-only factors.

    N1 is the largest divisor of ``size`` up to 512, so N1 > 512 / 5 for
    any 5-smooth size above 512. With n2 = q B + r, N2 = Q B and Q the largest
    divisor of N2 up to its square root, W^(k1 n2) is the product of an
    (N1 // 2 + 1, Q, 1) factor W^(k1 q B) and an (N1 // 2 + 1, 1, B) factor
    W^(k1 r): about N1 sqrt(N2) values where the full table would hold
    size / 2 (0.4 MB with the conjugates at 2^18 points, against 4.2 MB).
    They cost one more pass over the spectra each way. Each angle is
    reduced mod ``size`` in integers before it is scaled, so no factor
    carries the round-off of a large angle.
    """
    n1 = next(d for d in range(512, 0, -1) if size % d == 0)
    n2 = size // n1
    q = next(d for d in range(math.isqrt(n2), 0, -1) if n2 % d == 0)
    k1, blocks, offsets = np.ogrid[:n1 // 2 + 1, :q, :n2 // q]
    factors = tuple(np.exp((k1 * n % size) * (-2j * np.pi / size))
                    for n in (blocks * (n2 // q), offsets))
    conjugates = tuple(f.conj() for f in factors)
    for table in factors + conjugates:
        table.flags.writeable = False
    return factors, conjugates


def _spectrum_shape(size: int) -> tuple[int, ...]:
    """The shape of one row's ``size``-point spectrum as ``_spectra`` lays
    it out: (size // 2 + 1,), or (N1 // 2 + 1, N2) from FOUR_STEP_FROM on,
    where spectrum value (k1, k2) is the DFT's value at k1 + N1 k2."""
    if size < FOUR_STEP_FROM:
        return (size // 2 + 1,)
    (outer, inner), _ = _twiddles(size)
    return outer.shape[0], outer.shape[1] * inner.shape[2]


def _twiddle(spectra: np.ndarray, factors: tuple[np.ndarray, np.ndarray]) -> None:
    """Multiply the (..., N1 // 2 + 1, N2) ``spectra`` in place by the two
    factors of a twiddle table (``_twiddles``)."""
    outer, inner = factors
    blocks = spectra.reshape(spectra.shape[:-1] + (outer.shape[1], inner.shape[2]))
    np.multiply(blocks, outer, out=blocks)
    np.multiply(blocks, inner, out=blocks)


def _spectra(x: np.ndarray, ladder: tuple[float, ...], size: int,
             stack: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Real FFTs of the ladder powers of every row of ``x`` (..., n),
    zero-padded to ``size``: a (rungs, ..., *_spectrum_shape(size)) array
    in the flat buffer ``spectra``, from the (rungs, rows, size) stack that
    the powers and their zero pad fill in the flat buffer ``stack``.

    Below FOUR_STEP_FROM this is one ``rfft`` of the stack. From it on, each
    row is taken as an (N1, N2) array in four steps (Bailey 1990): one
    ``rfft`` along its N1 axis, the twiddle factors (``_twiddles``), one
    ``fft`` along its N2 axis, in place. The spectra stay in that layout,
    untransposed, since a convolution only multiplies them elementwise."""
    rows = x.reshape(-1, x.shape[-1])
    padded = np.ndarray((len(ladder), len(rows), size), np.float64, stack)
    _ladder_powers(rows, ladder, out=padded[..., :x.shape[-1]])
    padded[..., x.shape[-1]:].fill(0.0)
    shape = _spectrum_shape(size)
    out = np.ndarray(padded.shape[:-1] + shape, np.complex128, spectra)
    if len(shape) == 1:
        np.fft.rfft(padded, out=out)
    else:
        np.fft.rfft(padded.reshape(padded.shape[:-1] + (-1, shape[1])), axis=-2, out=out)
        _twiddle(out, _twiddles(size)[0])
        np.fft.fft(out, out=out)
    return out.reshape(len(ladder), *x.shape[:-1], *shape)


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


def _valid_part(a: int, b: int) -> tuple[int, int] | None:
    """The valid columns ``(s - 1, l)`` of a long-by-short pair of rows of
    ``a`` and ``b`` values, s the shorter length and l the longer: one with
    s >= VALID_FROM and l >= 2s - 1. None for any other pair.

    Every term of a valid column has both operands inside their rows, so a
    circular convolution at any length N >= l gives these columns without
    aliasing: a wrapped column j - N of an output j <= l + s - 2 lies below
    s - 1.
    """
    s, l = min(a, b), max(a, b)
    return (s - 1, l) if s >= VALID_FROM and l >= 2 * s - 1 else None


def _convolve_rows(left: np.ndarray, right: np.ndarray, ladder: tuple[float, ...] = (1.0,),
                   finish: Callable[[slice, np.ndarray, np.ndarray], np.ndarray] | None = None,
                   window: tuple[int, int] | None = None,
                   linear: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Linear convolutions of the elementwise p-th powers of every row pair
    of ``left`` (..., a) and ``right`` (..., b), taken in the order given,
    whose leading axes broadcast, for each exponent p of ``ladder``, cut to
    the keep-window ``window=(lo, n)`` (all a + b - 1 outputs by default).
    Returns what every row kernel returns: the (..., n) results, and the
    (...) row scales, here the first rung's.

    The leading axis is cut into blocks of at most BLOCK_FLOATS live floats
    (one index at least). Per block, each operand takes one transform of
    every rung of its rows (``_spectra``), so a left row shared through
    broadcasting within a block, such as a parent message against its two
    children, is transformed once. Every pair is transformed whole. Most
    pairs take one linear transform, at ``fft_length(a + b - 1)``, which
    gives every kept column and each row's scale, its peak over all a + b -
    1 outputs. A long-by-short pair (``_valid_part``, unless ``linear``)
    takes a circular transform at ``fft_length(l)`` instead, which gives its
    valid columns and each row's scale, its peak over the whole circular
    output; only a window that reaches past the valid columns also takes
    the linear transform, for its columns outside them. So every kept
    column and every scale of a row is the same whatever the window, and
    a reverse tree layer, whose window is its valid columns, transforms at
    the parent's length only. Outputs are not clipped (round-off can leave
    them slightly negative).

    ``finish(rows, kept, scales)`` maps ``kept``, the (rungs, *block, n)
    kept columns of the block ``rows`` (a slice of the leading axis), and
    ``scales``, the (rungs, *block) row scales, to the block's (*block, n)
    results. Without ``finish`` the results are the first rung's kept
    columns clipped at zero. The results and scales of all blocks are
    returned as one array each, empty when a leading axis is.

    The transforms run in the buffers of the calling thread's workspace
    (``_scratch``, which keeps no buffer above KEEP_BYTES; the module
    docstring says why): one stack, which holds each operand's zero-padded
    powers in turn and then the inverse transform, and one spectra buffer
    per operand. The product is taken in place in the right operand's
    spectra, so a right operand whose leading shape is not the product's
    is first broadcast to it. ``kept`` may be a view of the workspace,
    which ``finish`` may overwrite but must not return or keep: nothing
    returned aliases the workspace, so a later call, such as the support
    counts that ``numeric._refine_rows`` takes of a result, cannot change a
    result already returned.
    """
    lead = left.shape[:-1]
    if right.shape[:-1] != lead:  # np.broadcast_shapes costs about 2 us
        lead = np.broadcast_shapes(lead, right.shape[:-1])
    a, b = left.shape[-1], right.shape[-1]
    lo, n = (0, a + b - 1) if window is None else window
    if 0 in lead:
        return np.empty(lead + (n,)), np.empty(lead)
    # the transform lengths, the first giving the scales and the kept
    # columns first..stop - 1, a second the other kept columns
    sizes, first, stop = [fft_length(a + b - 1)], lo, lo + n
    valid = None if linear else _valid_part(a, b)
    if valid is not None:
        first = min(max(lo, valid[0]), lo + n)
        stop = max(min(lo + n, valid[1]), first)
        sizes = [fft_length(valid[1])] + (sizes if stop - first < n else [])
    size = max(sizes)
    rungs = len(ladder)
    shape = (lead or (1,)) + (n,)
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
    spectrum = math.prod(_spectrum_shape(size))
    buffers = _scratch({"stack": rungs * p_rows * size,
                        "left": 2 * rungs * l_rows * spectrum,  # floats of complex spectra
                        "right": 2 * rungs * p_rows * spectrum})
    peaks = np.empty(shape[:-1])
    if finish is None or len(blocks) > 1:
        result = np.empty(shape)
    else:
        result = None  # the finish of the one block returns it
    for start in blocks:
        rows = slice(start, start + blocks.step)
        l, r = (x if x.shape[0] == 1 else x[rows] for x in (left, right))
        kept, scales = _kept_columns(l, r, ladder, sizes, (lo, n), (first, stop), buffers)
        peaks[rows] = scales[0]
        if result is None:
            result = finish(rows, kept, scales)
        elif finish is None:
            np.maximum(kept[0], 0.0, out=result[rows])
        else:
            result[rows] = finish(rows, kept, scales)
    return result.reshape(lead + (n,)), peaks.reshape(lead)


def _kept_columns(left: np.ndarray, right: np.ndarray, ladder: tuple[float, ...],
                  sizes: list[int], window: tuple[int, int], columns: tuple[int, int],
                  buffers: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The (rungs, *lead, n) kept columns of ``window=(lo, n)`` of every row
    pair of one block of ``_convolve_rows`` and the (rungs, *lead) row
    scales.

    The transform at ``sizes[0]`` gives the scales, each row's peak over
    its first a + b - 1 columns (past them a circular transform holds only
    round-off), and the kept columns ``columns=(first, stop)``; one at
    ``sizes[1]``, if there is one, gives the other kept columns. The kept
    columns of one transform are a view of ``buffers["stack"]``.
    """
    (lo, n), (first, stop) = window, columns
    outputs = left.shape[-1] + right.shape[-1] - 1
    out = _transform(left, right, ladder, sizes[0], buffers)[..., :outputs]
    if len(sizes) == 1:
        return out[..., lo:lo + n], out.max(axis=-1)
    scales = out.max(axis=-1)
    kept = np.empty(out.shape[:-1] + (n,))
    kept[..., first - lo:stop - lo] = out[..., first:stop]
    out = _transform(left, right, ladder, sizes[1], buffers)
    kept[..., :first - lo] = out[..., lo:first]
    kept[..., stop - lo:] = out[..., stop:lo + n]
    return kept, scales


def _transform(left: np.ndarray, right: np.ndarray, ladder: tuple[float, ...], size: int,
               buffers: dict[str, np.ndarray]) -> np.ndarray:
    """The (rungs, *lead, size) inverse transform of the product of the
    ``size``-point spectra of every rung of ``left`` (..., a) and ``right``
    (*lead, b), ``left`` broadcasting to ``right``: each row's a + b - 1
    linear convolution outputs, then round-off. It lies in
    ``buffers["stack"]``."""
    right_spectra = _spectra(right, ladder, size, buffers["stack"], buffers["right"])
    left_spectra = _spectra(left, ladder, size, buffers["stack"], buffers["left"])
    product = np.multiply(left_spectra, right_spectra, out=right_spectra)
    shape = _spectrum_shape(size)
    out = np.ndarray(product.shape[:-len(shape)] + (size,), np.float64, buffers["stack"])
    if len(shape) == 1:
        return np.fft.irfft(product, size, out=out)
    # the four steps of _spectra undone: ifft along N2, the conjugate
    # twiddle factors, irfft along N1 into the rows of the stack
    np.fft.ifft(product, out=product)
    _twiddle(product, _twiddles(size)[1])
    rows = out.reshape(out.shape[:-1] + (-1, shape[1]))
    np.fft.irfft(product, size // shape[1], axis=-2, out=rows)
    return out


def _maybe_narrow(x: np.ndarray) -> np.ndarray | bool:
    """Whether each row of ``x`` (..., n) may span at most half of it, from
    four of its columns; False when no row may.

    Such a row is zero at one of its two quarter-in columns, which lie
    more than n / 2 apart, and at one of its end columns. A layer whose
    rows are all nonzero at their quarter-in columns is read no further,
    and one row (1-D ``x``) is read as four scalars.
    """
    n = x.shape[-1]
    quarter = (n - 1) // 4
    if x.ndim == 1:  # the quarter-in columns are quarter and n - 1 - quarter
        return bool((x[0] == 0.0 or x[-1] == 0.0)
                    and (x[quarter] == 0.0 or x[-1 - quarter] == 0.0))
    inner = x[..., quarter::max(n - 1 - 2 * quarter, 1)]  # the two quarter-in columns
    if np.count_nonzero(inner) == inner.size:  # half the cost of inner.all()
        return False
    return ((x[..., 0] == 0.0) | (x[..., -1] == 0.0)) & ~inner.all(axis=-1)


def _edges(x: np.ndarray) -> tuple[int, int]:
    """The first nonzero column of the 1-D ``x`` and one past its last,
    from one boolean pass and an argmax from each end; (0, x.size) when
    every value is zero (-0.0 is zero)."""
    nonzero = x != 0.0
    return int(nonzero.argmax()), x.size - int(nonzero[::-1].argmax())


def _one_pair_spans(a: np.ndarray, b: np.ndarray) -> tuple[slice, slice] | None:
    """The spans of the 1-D rows ``a`` and ``b`` when they make a span
    pair, or None for a dense pair.

    A span pair is one whose spans sa, sb convolve to at most half of its
    outputs, sa + sb - 1 <= (a + b - 1) / 2. Each row is probed once
    (``_maybe_narrow``), and only a row that may be narrow in a pair that
    can qualify is scanned (``_edges``); every other row is taken whole,
    and a pair with a whole row b can qualify only if its other row, of
    sa >= 1, is longer (sa <= (a - b + 1) / 2). So a dense pair costs
    eight scalar reads and a peaked one about two boolean passes.
    """
    na, nb = a.size, b.size
    l_maybe, r_maybe = _maybe_narrow(a), _maybe_narrow(b)
    if not (l_maybe and (r_maybe or na > nb) or r_maybe and nb > na):
        return None
    l_start, l_stop = _edges(a) if l_maybe else (0, na)
    r_start, r_stop = _edges(b) if r_maybe else (0, nb)
    if 2 * (l_stop - l_start + r_stop - r_start - 1) > na + nb - 1:
        return None
    return slice(l_start, l_stop), slice(r_start, r_stop)


def _cut_pair(kernel: Callable[..., tuple[np.ndarray, np.ndarray]], left: np.ndarray,
              right: np.ndarray, window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """``kernel(a, b, window=window)`` of the rows ``left`` and ``right``
    as floats in canonical order (``_canonical_rows``), with every span
    pair (``_one_pair_spans``) cut to its spans. The kernel, a row kernel
    such as ``_convolve_rows``, returns the kept columns and row scales of
    the rows it receives, and takes any peak it needs from them (a span
    holds its row's maximum).

    A one-pair call (1-D rows) that is a dense pair goes to ``kernel`` as
    it is. A span pair goes as its two spans, under the keep-window moved
    to where its span output starts and cut to that output. Its kept
    columns are written back among exact +0.0, and its scale is its
    spans' (a span output's peak is the full row's whenever the pair has
    mass).

    A rows call goes to ``kernel`` whole. Only rows probed narrow
    (``_maybe_narrow``) can make a span pair, and each span pair among
    them is then computed again as its one-pair call, which replaces its
    row and scale; so every row is bit-identical to its one-pair call.
    Half is well above the round-off zeros at the ends of tree messages
    (up to about a quarter of a row in ``max-numeric`` solves at n = 1024,
    k = 64), so their pairs stay dense, as rows and one by one alike.
    """
    a, b = _canonical_rows(np.asarray(left, dtype=float), np.asarray(right, dtype=float))
    if a.ndim == b.ndim == 1:
        spans = _one_pair_spans(a, b)
        if spans is None:
            return kernel(a, b, window=window)
        left, right = spans
        first, stop = left.start + right.start, left.stop + right.stop - 1  # the span output
        lo, n = window
        start = min(max(lo, first), stop)
        end = max(start, min(lo + n, stop))
        kept, peak = kernel(a[left], b[right], window=(start - first, end - start))
        out = np.zeros(n)
        out[start - lo:end - lo] = kept
        return out, peak
    out, peak = kernel(a, b, window=window)
    maybe = _maybe_narrow(a) | _maybe_narrow(b)
    if maybe is False:  # np.any(False) alone costs about 5 us
        return out, peak
    lead = out.shape[:-1]
    a, b = (np.broadcast_to(x, lead + x.shape[-1:]) for x in (a, b))
    for index in zip(*np.nonzero(np.broadcast_to(maybe, lead))):
        if _one_pair_spans(a[index], b[index]) is not None:
            out[index], peak[index] = _cut_pair(kernel, a[index], b[index], window)
    return out, peak


def fast_convolve_rows(left: np.ndarray, right: np.ndarray,
                       window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """fast_convolve of every row pair of ``left`` (..., a) and ``right``
    (..., b), whose leading axes broadcast, cut to the keep-window
    ``window=(lo, n)``: the kept columns and row scales (``_convolve_rows``).

    Each row is bit-identical to the one-pair call on that row pair, which
    is cut to its spans (``_cut_pair``).
    """
    return _cut_pair(_convolve_rows, left, right, window)


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
