"""Numerical max-convolution in O(k log k) via the p-norm trick.

The max over the shifted products u_m[l] = L[l] * R[m-l] is the limit of
||u_m||_p as p -> infinity. For a finite exponent p the p-norm of every u_m
can be read off one standard convolution of the elementwise p-th powers:

    out[m] = (sum_l L[l]^p R[m-l]^p)^(1/p)

which overshoots the true max by at most t(m)^(1/p), t(m) being the number
of valid (l, m-l) pairs at index m. Larger p is closer to the max but loses
small values to underflow; the piecewise ladder picks, per index, the result
of the largest exponent whose (max-normalized) value is still trustworthy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fftconv import (
    _canonical_rows,
    _convolve_rows,
    _keep_window,
    fast_convolve_rows,
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


def _check_p(p: float) -> float:
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"invalid exponent: p must be finite and >= 1, got {p!r}")
    return p


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
    return Pmf(_p_norm_rows(left.values, right.values, p), left.offset + right.offset)


def _p_norm_rows(left: np.ndarray, right: np.ndarray, p: float,
                 window: tuple[int, int] | None = None):
    """p_norm_convolve of every row pair, through fast_convolve_rows; with
    ``window``, the kept columns and each full row's peak.

    Inputs are divided by their maxima before the p-th power, so large
    values cannot overflow, and the output is scaled back; outputs below
    REFINE_BELOW of each row's peak are recomputed by direct summation.
    The refine sees the full output, the root only the kept columns: the
    root is monotone, so a row's peak is the root of its largest power sum.
    """
    p = _check_p(p)
    if p == 1.0:  # no power to overflow and no root to take
        return fast_convolve_rows(left, right, refine_below=REFINE_BELOW, window=window)
    (left, left_peak), (right, right_peak) = _max_normalized(left), _max_normalized(right)
    sums = fast_convolve_rows(_ladder_powers(left, (p,))[0], _ladder_powers(right, (p,))[0],
                              refine_below=REFINE_BELOW)
    out, peak = (sums, None) if window is None else _keep_window(sums, window)
    scale = left_peak * right_peak
    out = np.power(out, 1.0 / p, out=out)
    out *= scale[..., None]
    return out if window is None else (out, np.power(peak, 1.0 / p) * scale)


def max_convolve_normalized(left: Pmf, right: Pmf, p: float) -> Pmf:
    """Numerical max-convolution with max-normalization against underflow.

    The one-rung case of the piecewise ladder. Scale-equivariant by
    construction: scaling either input by c scales the output by c.
    """
    return Pmf(_ladder_max_convolve(left.values, right.values, (_check_p(p),), DEFAULT_TAU),
               left.offset + right.offset)


def _max_normalized(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row divided by its maximum, and those maxima.

    A row whose maximum is 1.0 (or 0, all-zero) is divided by 1.0, which
    keeps its bits, so tree messages, which arrive max-normalized, are
    unchanged.
    """
    x = np.asarray(x, dtype=float)
    peak = x.max(axis=-1)
    return x / np.where(peak == 0.0, 1.0, peak)[..., None], peak


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


def _ladder_max_convolve(left: np.ndarray, right: np.ndarray,
                         ladder: tuple[float, ...], tau: float,
                         window: tuple[int, int] | None = None):
    """Max-normalized p-norm estimate at every rung, stitched per index, of
    every row pair of ``left`` (..., a) and ``right`` (..., b), whose
    leading axes broadcast; with ``window=(lo, n)``, only the kept columns
    lo..lo+n-1 and each full row's peak.

    Both inputs of a pair are divided by their maxima before exponentiation
    so the dominant terms start at 1 and survive the p-th power; each rung's
    convolution is divided by its own peak before the 1/p root, and the
    input scale is multiplied back at the end. Each index takes the value of
    the largest exponent whose normalized result clears tau; the smallest
    exponent is the fallback, so a one-rung ladder never reads tau.

    All rungs of all rows ride the stacked transforms of _convolve_rows,
    and every step after them acts on each row alone, so each row is
    bit-identical to the one-pair call. Each rung's peak is taken over its
    whole transform; the divide, root and stitch run on the kept columns
    only. Every stitched row peaks at exactly 1 (the top rung's root of its
    own peak, which clears tau; no root of a value <= 1 exceeds 1), so a
    full row's peak is its input scale.
    """
    a, b = _canonical_rows(np.asarray(left, dtype=float), np.asarray(right, dtype=float))
    (a, a_peak), (b, b_peak) = _max_normalized(a), _max_normalized(b)
    if not (np.all(a_peak > 0.0) and np.all(b_peak > 0.0)):
        raise DegenerateDistributionError("degenerate distribution: total mass is zero")
    peak = a_peak * b_peak
    scale = np.atleast_1d(peak)
    lo, n = window or (0, a.shape[-1] + b.shape[-1] - 1)

    def finish(rows, vms):
        stitched = None
        for vm, p in zip(vms, ladder):
            kept = vm[..., lo:lo + n]
            kept /= vm.max(axis=-1, keepdims=True)
            rung = np.power(kept, 1.0 / p, out=kept)
            if stitched is None:
                stitched = rung  # smallest exponent is the fallback
            else:
                np.copyto(stitched, rung, where=rung >= tau)
        return stitched * scale[rows, ..., None]

    out = _convolve_rows(a, b, finish, len(ladder), partial(_ladder_powers, ladder=ladder),
                         width=n)
    return out if window is None else (out, peak)


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
    return Pmf(_ladder_max_convolve(left.values, right.values, config.p_ladder, config.tau),
               left.offset + right.offset)


def max_convolve_auto(left: Pmf, right: Pmf,
                      config: PiecewiseConfig | None = None) -> Pmf:
    """Exact naive max-convolution on small problems, piecewise otherwise.

    Naive when its k_L * k_R products are no more than the transform work
    size * max(1, log2 size), size being the padded FFT length; the log is
    floored at 1 so length-1 problems still take the naive path.
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
