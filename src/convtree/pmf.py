"""Discrete PMF data model and the exact (naive) convolution references.

A :class:`Pmf` stores nonnegative mass over a contiguous range of integer
outcomes; ``values[i]`` is the mass of outcome ``offset + i``. The offset is
first-class: a variable's support may start at any integer, negative ones
included, and the support of a sum starts at the sum of the offsets.

Everything here is a pure function of immutable inputs: no operation mutates
its arguments, so all of them are safe to call concurrently.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


class DegenerateDistributionError(ValueError):
    """Raised where positive mass is required but every value is zero."""


def _as_values(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-D array")
    # min/max reductions cover NaN, infinities and negatives in two passes
    if not (v.min() >= 0.0 and v.max() < np.inf):
        if np.isnan(v.min()) or v.max() == np.inf:
            raise ValueError("values must be finite")
        raise ValueError("values must be nonnegative")
    return v


def _as_offset(offset) -> int:
    # a float with a fraction, a bool or a string would otherwise be
    # truncated or coerced into a shifted support; integral floats (a JSON
    # number may be one) and numpy integers are fine
    if isinstance(offset, bool) or not (
            isinstance(offset, numbers.Integral)
            or isinstance(offset, float) and offset.is_integer()):
        raise ValueError(f"PMF offset must be an integer, got {offset!r}")
    return int(offset)


@dataclass(frozen=True, eq=False)
class Pmf:
    """Nonnegative masses (or unnormalized likelihoods) with an integer offset.

    The vector is treated as immutable once wrapped; none of the library
    functions write to it.
    """

    values: np.ndarray
    offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.values))
        object.__setattr__(self, "offset", _as_offset(self.offset))

    def __len__(self) -> int:
        return self.values.size

    @property
    def outcomes(self) -> np.ndarray:
        """Integer outcomes covered by the support, aligned with ``values``."""
        return np.arange(self.offset, self.offset + self.values.size)

    def argmax_outcome(self) -> int:
        """Outcome carrying the largest mass; ties go to the lowest outcome."""
        return self.offset + int(np.argmax(self.values))

    def to_dict(self) -> dict:
        return {"offset": self.offset, "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Pmf":
        if not isinstance(data, dict):
            raise ValueError(f"PMF must be an object, got {type(data).__name__}")
        for key in ("offset", "values"):
            if key not in data:
                raise ValueError(f"PMF object has no {key!r} key")
        values = data["values"]
        # numpy would raise TypeError on an object and coerce bools or
        # numeric strings into masses
        if not (isinstance(values, list) and all(
                isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values)):
            raise ValueError("PMF 'values' must be an array of numbers")
        return cls(np.asarray(values, dtype=float), data["offset"])

    @classmethod
    def _checked_rows(cls, rows: np.ndarray, like: list["Pmf"]) -> list["Pmf"]:
        """Row j of the 2-D ``rows``, cut to the length of ``like[j]``, as a
        Pmf at ``like[j].offset``; ``rows`` is validated once as a whole
        instead of once per row."""
        _as_values(rows.ravel())
        pmfs = []
        for row, p in zip(rows, like):
            pmf = object.__new__(cls)
            object.__setattr__(pmf, "values", row[:len(p)])
            object.__setattr__(pmf, "offset", p.offset)
            pmfs.append(pmf)
        return pmfs


def delta(outcome: int = 0, mass: float = 1.0) -> Pmf:
    """Point mass at a single outcome."""
    return Pmf(np.array([mass], dtype=float), outcome)


def _divided(p: Pmf, scale: float) -> Pmf:
    """``p`` divided by its positive sum or peak ``scale``."""
    if scale <= 0.0:
        raise DegenerateDistributionError("degenerate distribution: total mass is zero")
    return Pmf(p.values / scale, p.offset)


def normalize_sum(p: Pmf) -> Pmf:
    """Scale so the values sum to one."""
    return _divided(p, float(p.values.sum()))


def normalize_max(p: Pmf) -> Pmf:
    """Scale so the largest value is exactly one."""
    return _divided(p, float(p.values.max()))


def naive_convolve(left: Pmf, right: Pmf) -> Pmf:
    """Exact standard convolution: out[m] = sum_l left[l] * right[m-l].

    Direct O(k_L * k_R) summation (np.convolve does not use FFT); this is the
    reference against which the fast path is validated.
    """
    return Pmf(np.convolve(left.values, right.values), left.offset + right.offset)


def naive_max_convolve(left: Pmf, right: Pmf) -> Pmf:
    """Exact max-convolution: out[m] = max_l left[l] * right[m-l].

    O(k_L * k_R); the oracle for every numerical max-convolution estimate.
    """
    a, b = left.values, right.values
    ka, kb = a.size, b.size
    out = np.empty(ka + kb - 1)
    for m in range(ka + kb - 1):
        lo = max(0, m - kb + 1)
        hi = min(ka - 1, m)
        # a[lo..hi] pairs with b[m-lo] down to b[m-hi]
        out[m] = (a[lo:hi + 1] * b[m - hi:m - lo + 1][::-1]).max()
    return Pmf(out, left.offset + right.offset)


def relative_absolute_error(numerical: Pmf, exact: Pmf) -> np.ndarray:
    """Per-index |numerical - exact| / exact against a reference result.

    NaN where the exact value is zero (the relative error is undefined).
    """
    if len(numerical) != len(exact) or numerical.offset != exact.offset:
        raise ValueError(
            "shape mismatch: numerical and exact must share length and offset"
        )
    ex = exact.values
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(numerical.values - ex) / ex
    return np.where(ex == 0.0, np.nan, err)
