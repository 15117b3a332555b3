"""FFT-backed standard convolution, batched over many pairs.

This is the O(k log k) engine under every numerical max-convolution. Each
transform is padded to the shortest 5-smooth length that holds the full
output (``fft_length``). Pairs that share a transform length are stacked
into one 2-D real FFT, and an operand object that appears in several pairs
is transformed once, so a convolution-tree layer costs a few numpy calls
instead of several per pair; a block of one pair uses plain 1-D
transforms. Every row of a stacked transform is computed exactly as it
would be alone, so a batched result is bit-identical to the one-pair call.
Inputs are nonnegative, so any negative round-off in the
inverse transform is clipped to zero before downstream fractional powers
see it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.fft

from .pmf import Pmf

# Floats one stacked block may hold (4 MiB of float64), counting every
# operand row and every product/output row it transforms. A wide layer is
# split into blocks of this size so batching never raises peak memory by
# more than one block; a single pair larger than this is a block on its own.
BLOCK_FLOATS = 1 << 19

# Small outputs at most this many indices apart share one direct-sum call
# in _refine_small_values.
_RUN_GAP = 8


def padded_length(n_out: int) -> int:
    """Next power of two >= n_out."""
    return 1 << max(0, (n_out - 1).bit_length())


def fft_length(n_out: int) -> int:
    """Transform length for an n_out-point linear convolution: the next
    5-smooth number (2^a 3^b 5^c) >= n_out, never above padded_length."""
    return scipy.fft.next_fast_len(n_out, real=True)


def _canonical_order(left: Pmf, right: Pmf) -> tuple[Pmf, Pmf]:
    """Fix the operand order so swapped arguments run the same float program.

    Complex multiplication is not bitwise commutative under FMA, so without
    this, op(L, R) and op(R, L) could differ by an ulp; downstream threshold
    tests would then amplify that into visible noncommutativity.
    """
    if len(left) != len(right):
        return (left, right) if len(left) > len(right) else (right, left)
    if left.values.tobytes() <= right.values.tobytes():
        return left, right
    return right, left


def _operand_slots(pairs: list[tuple[Pmf, Pmf]]) -> tuple[list[Pmf], list[tuple[int, int]]]:
    """The distinct operand objects of ``pairs`` and each pair's indices
    into them; an object used by several pairs gets one slot."""
    index: dict[Pmf, int] = {}
    slots = [(index.setdefault(a, len(index)), index.setdefault(b, len(index)))
             for a, b in pairs]
    return list(index), slots


def _stacked_convolve(
    operands: list[np.ndarray],
    pairs: list[tuple[int, int]],
    finish: Callable[[list[int], np.ndarray], None],
    rungs: int = 1,
    powers: Callable[..., object] | None = None,
) -> None:
    """Linear convolutions of operand rows, one stacked transform per block.

    ``pairs`` holds (i, j) indices into ``operands``. ``powers(x, out=...)``
    writes ``rungs`` elementwise maps of an operand into ``out[0..rungs-1]``,
    and each map is convolved pairwise; without it the operands themselves
    are, as one rung. Calls
    ``finish(members, outputs)`` once per block with the indices of its
    pairs and a (rungs, len(members), size) array: row [k, r] starts with
    the n_i + n_j - 1 rung-k output values of pair ``members[r]``, clipped
    at zero. The kernel drops the array when ``finish`` returns, so a
    block's memory is freed before the next block starts unless ``finish``
    keeps views into it.

    Pairs are grouped by transform length. Within a group an operand's
    spectra are computed once; when a block boundary falls between two of
    its uses, they are carried over to the next block.
    """
    groups: dict[int, list[int]] = {}
    for index, (i, j) in enumerate(pairs):
        size = fft_length(operands[i].size + operands[j].size - 1)
        groups.setdefault(size, []).append(index)
    for size, members in groups.items():
        _convolve_group(operands, pairs, members, size, finish, rungs, powers)


def _convolve_group(operands, pairs, members, size, finish, rungs, powers):
    last_use = {o: index for index in members for o in pairs[index]}
    carried: dict[int, np.ndarray] = {}
    start = 0
    while start < len(members):
        block, new = _next_block(pairs, members[start:], carried, size, rungs)
        start += len(block)
        kept = [o for o in new if last_use[o] > block[-1]]
        if len(block) == 1 and powers is None:
            outputs, spectra = _convolve_pair(operands, pairs[block[0]], carried, kept, size)
        else:
            outputs, spectra = _convolve_stack(operands, [pairs[index] for index in block],
                                               new, carried, kept, size, rungs, powers)
        carried = {o: v for o, v in carried.items() if last_use[o] > block[-1]}
        carried.update(spectra)
        finish(block, outputs)
        del outputs


def _convolve_pair(operands, pair, carried, kept, size):
    """A block of one pair without powers, from 1-D transforms.

    The same per-row arithmetic as _convolve_stack, so the output is
    bit-identical, but a large pair allocates only what plain rfft/irfft
    calls do. A 2-row stack doubles each temporary, and on a small heap the
    allocator then maps fresh pages, and takes their faults, on every call.
    """
    spectra = {o: carried[o] if o in carried else scipy.fft.rfft(operands[o], size)[None]
               for o in pair}
    i, j = pair
    out = scipy.fft.irfft(spectra[i] * spectra[j], size)
    np.maximum(out, 0.0, out=out)
    return out[:, None], {o: spectra[o] for o in kept}


def _convolve_stack(operands, pairs, new, carried, kept, size, rungs, powers):
    """A block of pairs in one stacked rfft and irfft over all rungs.

    Returns the (rungs, pairs, size) outputs and the (rungs, size // 2 + 1)
    spectra of the ``kept`` operands, which later blocks reuse.
    """
    used = [o for o in carried if any(o in pair for pair in pairs)]
    rows = {**new, **{o: len(new) + n for n, o in enumerate(used)}}
    powered = np.zeros((rungs, len(new), size))
    for o, row in new.items():
        n = operands[o].size
        if powers is None:
            powered[0, row, :n] = operands[o]
        else:
            powers(operands[o], out=powered[:, row, :n])
    spectra = scipy.fft.rfft(powered, axis=-1)
    del powered
    if used:
        spectra = np.concatenate([spectra, *(carried[o][:, None] for o in used)], axis=1)
    product = (_take_rows(spectra, [rows[i] for i, _ in pairs])
               * _take_rows(spectra, [rows[j] for _, j in pairs]))
    carry = {o: spectra[:, new[o]].copy() for o in kept}
    del spectra
    out = scipy.fft.irfft(product, size, axis=-1)
    del product
    np.maximum(out, 0.0, out=out)
    return out, carry


def _take_rows(a: np.ndarray, rows: list[int]) -> np.ndarray:
    """``a[:, rows]``, as a strided view (no copy) when ``rows`` is evenly
    spaced."""
    step = rows[1] - rows[0] if len(rows) > 1 else 1
    if step > 0 and rows == list(range(rows[0], rows[-1] + 1, step)):
        return a[:, rows[0]:rows[-1] + 1:step]
    return a[:, rows]


def _next_block(pairs, members, carried, size, rungs):
    """The longest run of ``members`` (at least one pair) whose live floats
    fit in BLOCK_FLOATS, and the new operands it transforms, by row.

    Live floats, all rungs: each new operand's padded powers and their
    spectra; each pair's product, a gathered factor and its outputs; and
    the spectra carried in from earlier blocks.
    """
    block, new = [], {}
    floats = len(carried) * rungs * size
    for index in members:
        added = [o for o in dict.fromkeys(pairs[index]) if o not in carried and o not in new]
        cost = (2 * len(added) + 3) * rungs * size
        if block and floats + cost > BLOCK_FLOATS:
            break
        block.append(index)
        floats += cost
        for o in added:
            new[o] = len(new)
    return block, new


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
       merging gaps of at most _RUN_GAP, and each run is one
       ``np.convolve(mode="valid")`` over the slices of both operands it
       needs.

    Cost: at most one FFT; plus, in C, about the sum of the trimmed overlaps
    of the small outputs that have nonzero terms (a run of R outputs costs R
    times the span of the shorter operand it reads); plus Python work per
    run. Dense, smooth tails keep the middle term large, since each of their
    small outputs has many nonzero terms.
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
    for run in np.split(index, starts):
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
    """x[lo..hi], read as zero outside ``x``."""
    if lo >= 0 and hi < x.size:
        return x[lo:hi + 1]
    window = np.zeros(hi - lo + 1)
    window[max(0, -lo):min(x.size, hi + 1) - lo] = x[max(0, lo):hi + 1]
    return window


def fast_convolve_many(pairs: list[tuple[Pmf, Pmf]],
                       refine_below: float | None = None) -> list[Pmf]:
    """fast_convolve of every (left, right) pair, batched.

    Pairs with equal transform lengths share one stacked FFT, and an operand
    object used by several pairs is transformed once. Each result is
    bit-identical to the one-pair call. Results of one block are views
    into one array, which stays alive while any of them does.
    """
    ordered = [_canonical_order(left, right) for left, right in pairs]
    operands, slots = _operand_slots(ordered)
    results: list[Pmf] = [None] * len(ordered)

    def finish(block, outputs):
        (out,) = outputs
        for row, index in enumerate(block):
            a, b = ordered[index]
            values = out[row, :len(a) + len(b) - 1]
            if refine_below is not None:
                _refine_small_values(values, a.values, b.values, refine_below)
            results[index] = Pmf(values, a.offset + b.offset)

    _stacked_convolve([x.values for x in operands], slots, finish)
    return results


def fast_convolve(left: Pmf, right: Pmf, refine_below: float | None = None) -> Pmf:
    """Standard convolution via real FFT; the one-pair fast_convolve_many.

    Matches naive_convolve to ~1e-15 of the peak. When ``refine_below`` is
    given, outputs under that fraction of the peak are recomputed exactly by
    direct summation (used by the p-norm path, where the 1/p root would blow
    round-off noise up to order one).
    """
    return fast_convolve_many([(left, right)], refine_below)[0]
