"""FFT-backed standard convolution with power-of-two padding.

This is the O(k log k) engine under every numerical max-convolution. Inputs
are nonnegative, so any negative round-off in the inverse transform is
clipped to zero before downstream fractional powers see it.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .pmf import Pmf


def padded_length(n_out: int) -> int:
    """Next power of two >= n_out."""
    return 1 << max(0, (n_out - 1).bit_length())


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


def _fft_convolve_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n_out = a.size + b.size - 1
    size = padded_length(n_out)
    out = scipy.fft.irfft(
        scipy.fft.rfft(a, size) * scipy.fft.rfft(b, size), size
    )[:n_out]
    np.maximum(out, 0.0, out=out)
    return out


def _refine_small_values(out: np.ndarray, a: np.ndarray, b: np.ndarray,
                         rel_threshold: float) -> None:
    """Recompute outputs below rel_threshold * max(out) by direct summation.

    FFT round-off is absolute (~1e-16 of the peak), so outputs far below the
    peak can be pure noise; the direct sum is exact there. Nonnegative inputs
    mean a small computed value implies few/small true terms, so this stays
    cheap on the inputs it is used for.
    """
    peak = out.max()
    if peak <= 0.0:
        return
    threshold = peak * rel_threshold
    for m in np.nonzero(out <= threshold)[0]:
        lo = max(0, m - b.size + 1)
        hi = min(a.size - 1, m)
        out[m] = float(np.dot(a[lo:hi + 1], b[m - hi:m - lo + 1][::-1]))


def fast_convolve(left: Pmf, right: Pmf, refine_below: float | None = None) -> Pmf:
    """Standard convolution via real FFT, padded to the next power of two.

    Matches naive_convolve to ~1e-15 of the peak. When ``refine_below`` is
    given, outputs under that fraction of the peak are recomputed exactly by
    direct summation (used by the p-norm path, where the 1/p root would blow
    round-off noise up to order one).
    """
    left, right = _canonical_order(left, right)
    out = _fft_convolve_values(left.values, right.values)
    if refine_below is not None:
        _refine_small_values(out, left.values, right.values, refine_below)
    return Pmf(out, left.offset + right.offset)
