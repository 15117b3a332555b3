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
    _canonical_order,
    _operand_slots,
    _stacked_convolve,
    fast_convolve_many,
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
    if not p >= 1.0:
        raise ValueError(f"invalid exponent: p must be >= 1, got {p!r}")
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
    return _p_norm_many([(left, right)], p)[0]


def _p_norm_many(pairs: list[tuple[Pmf, Pmf]], p: float) -> list[Pmf]:
    """p_norm_convolve of every pair, batched through fast_convolve_many.

    Inputs are divided by their maxima before the p-th power, so large
    values cannot overflow, and the output is scaled back; outputs below
    REFINE_BELOW of each row's peak are recomputed by direct summation.
    """
    p = _check_p(p)
    if p == 1.0:  # no power to overflow and no root to take
        return fast_convolve_many(pairs, refine_below=REFINE_BELOW)
    powered = {}
    for x in dict.fromkeys(x for pair in pairs for x in pair):
        values, peak = _max_normalized(x)
        powered[x] = Pmf(_ladder_powers(values, (p,))[0], x.offset), peak
    convolved = fast_convolve_many(
        [(powered[left][0], powered[right][0]) for left, right in pairs],
        refine_below=REFINE_BELOW)
    results = []
    for out, (left, right) in zip(convolved, pairs):
        values = np.power(out.values, 1.0 / p)
        values *= powered[left][1] * powered[right][1]
        results.append(Pmf(values, out.offset))
    return results


def max_convolve_normalized(left: Pmf, right: Pmf, p: float) -> Pmf:
    """Numerical max-convolution with max-normalization against underflow.

    The one-rung case of the piecewise ladder. Scale-equivariant by
    construction: scaling either input by c scales the output by c.
    """
    return _ladder_max_convolve([(left, right)], (_check_p(p),), DEFAULT_TAU)[0]


def _max_normalized(x: Pmf) -> tuple[np.ndarray, float]:
    """The values divided by their maximum, and that maximum.

    Dividing by 1.0 (or by an all-zero vector's 0) is skipped, so tree
    messages, which arrive max-normalized, keep their bits.
    """
    peak = float(x.values.max())
    return (x.values if peak in (0.0, 1.0) else x.values / peak), peak


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


def _ladder_max_convolve(pairs: list[tuple[Pmf, Pmf]], ladder: tuple[float, ...],
                         tau: float) -> list[Pmf]:
    """Max-normalized p-norm estimate at every rung, stitched per index.

    Both inputs of a pair are divided by their maxima before exponentiation
    so the dominant terms start at 1 and survive the p-th power; each rung's
    convolution is divided by its own peak before the 1/p root, and the
    input scale is multiplied back at the end. Each index takes the value of
    the largest exponent whose normalized result clears tau; the smallest
    exponent is the fallback, so a one-rung ladder never reads tau.

    All rungs of all pairs ride the stacked transforms of _stacked_convolve,
    and every step after them acts on each row alone, so each result is
    bit-identical to the one-pair call.
    """
    ordered = [_canonical_order(left, right) for left, right in pairs]
    operands, slots = _operand_slots(ordered)
    normalized = [_max_normalized(x) for x in operands]
    if any(peak <= 0.0 for _, peak in normalized):
        raise DegenerateDistributionError("degenerate distribution: total mass is zero")

    results: list[Pmf] = [None] * len(pairs)

    def finish(block, vms):
        stitched = None
        for vm, p in zip(vms, ladder):
            vm /= vm.max(axis=1, keepdims=True)
            rung = np.power(vm, 1.0 / p, out=vm)
            if stitched is None:
                stitched = rung  # smallest exponent is the fallback
            else:
                np.copyto(stitched, rung, where=rung >= tau)
        for row, index in enumerate(block):
            (a, b), (i, j) = ordered[index], slots[index]
            scale = normalized[i][1] * normalized[j][1]
            results[index] = Pmf(stitched[row, :len(a) + len(b) - 1] * scale,
                                 a.offset + b.offset)

    _stacked_convolve([values for values, _ in normalized], slots, finish,
                     len(ladder), partial(_ladder_powers, ladder=ladder))
    return results


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
    return _ladder_max_convolve([(left, right)], config.p_ladder, config.tau)[0]


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
