"""Probabilistic convolution tree: per-variable distributions from a sum.

Given n prior PMFs and evidence on their sum M = X_1 + ... + X_n, a full
binary tree of pairwise convolutions (the forward pass) and of subtractions
by negate-and-convolve (the reverse pass) yields the distribution of every
variable given the evidence - in O(n k log(nk) log n) for an O(k log k)
convolution operator, instead of the O(k^n) joint enumeration.

The pairwise "addition" is pluggable: standard convolution gives sum-product
marginals, a max-convolution gives max-product (best joint event) ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .fftconv import _keep_window, _one_pair, fast_convolve_rows, padded_length
from .numeric import (
    PiecewiseConfig,
    _check_p,
    _ladder_max_convolve,
    _p_label,
    _p_norm_rows,
    _window,
)
from .pmf import DegenerateDistributionError, Pmf, naive_max_convolve


class InconsistentEvidenceError(ValueError):
    """The sum evidence rules out every outcome of some variable."""


# A message cut to a support whose peak is this far below the uncut peak is
# treated as all-zero: FFT-backed operators leave ~1e-16 round-off where the
# true value is zero, so an exact zero test would never fire for them.
ZERO_MASS_REL_TOL = 1e-12


@dataclass(frozen=True)
class ConvolutionOperator:
    """Pairwise addition rule for the tree plus its normalization convention.

    ``apply`` must return the full-support result (length k_L + k_R - 1,
    offsets summed), commute up to round-off and be positively homogeneous
    (scaling an operand scales the result), so the tree may rescale its
    messages freely. ``normalization`` is "sum" for averaging semantics
    (sum-product) or "max" for best-case semantics (max-product); it fixes
    only how the tree's outputs are scaled: each likelihood and the sum
    prior sum to 1 ("sum") or peak at 1 ("max").

    ``apply_rows(left, right, window=(lo, n))``, if given, takes a (..., a)
    and a (..., b) array whose leading axes broadcast and returns the pair
    ``(full[..., lo:lo + n], full.max(axis=-1))``, bit for bit, where
    every row of ``full`` is ``apply`` of that row pair: a kernel may skip
    work on the columns it drops. The tree makes one call per layer, the
    forward layers keeping their longest reach ``(0, reach)`` and the
    reverse layers each child's window ``(w - 1, w)``. Without
    ``apply_rows`` the tree calls ``apply`` once per pair, on the same rows
    wrapped as Pmfs at offset 0.
    """

    name: str
    apply: Callable[[Pmf, Pmf], Pmf]
    normalization: str
    apply_rows: Callable[..., tuple[np.ndarray, np.ndarray]] | None = field(
        default=None, kw_only=True)

    def __post_init__(self):
        if self.normalization not in ("sum", "max"):
            raise ValueError(f"unknown normalization {self.normalization!r}")


def _from_rows(name: str, apply_rows: Callable[..., tuple[np.ndarray, np.ndarray]],
               normalization: str) -> ConvolutionOperator:
    """The operator whose ``apply`` is the one-pair case of ``apply_rows``."""
    return ConvolutionOperator(name, partial(_one_pair, apply_rows), normalization,
                               apply_rows=apply_rows)


def standard_operator() -> ConvolutionOperator:
    """Sum-product addition: FFT convolution, messages normalized by sum."""
    return _from_rows("sum", fast_convolve_rows, "sum")


def naive_max_operator() -> ConvolutionOperator:
    """Exact max-product addition; quadratic per pairing."""
    return ConvolutionOperator("max-naive", naive_max_convolve, "max")


def numeric_max_operator(config: PiecewiseConfig | None = None) -> ConvolutionOperator:
    """Fast numerical max-product addition (piecewise exponent ladder)."""
    cfg = config if config is not None else PiecewiseConfig()
    return _from_rows("max-numeric",
                      partial(_ladder_max_convolve, ladder=cfg.p_ladder, tau=cfg.tau), "max")


def p_norm_operator(p: float) -> ConvolutionOperator:
    """Addition on the continuum between sum-product (p=1) and max-product."""
    p = _check_p(p)
    return _from_rows(f"pnorm:{_p_label(p)}", partial(_p_norm_rows, p=p), "max")


OPERATOR_NAMES = "sum | max-naive | max-numeric | pnorm:<p>"


def operator_from_name(name: str,
                       config: PiecewiseConfig | None = None) -> ConvolutionOperator:
    """The stock operator whose ``ConvolutionOperator.name`` is ``name``.

    ``name`` is one of OPERATOR_NAMES; ``config`` applies to max-numeric
    only. Raises ValueError for any other name or an invalid exponent.
    """
    if name == "sum":
        return standard_operator()
    if name == "max-naive":
        return naive_max_operator()
    if name == "max-numeric":
        return numeric_max_operator(config)
    if name.startswith("pnorm:"):
        try:
            return p_norm_operator(float(name.split(":", 1)[1]))
        except ValueError as exc:
            raise ValueError(f"bad pnorm operator {name!r}: {exc}") from exc
    raise ValueError(f"unknown operator {name!r}; expected {OPERATOR_NAMES}")


@dataclass(frozen=True)
class TreeResult:
    """Per-variable distributions given the sum, plus the prior of the total.

    ``likelihoods[j]`` covers exactly the support of the j-th input prior and
    reflects every joint event consistent with each outcome: the evidence
    message arriving at leaf j times leaf j's own (normalized) prior.
    """

    likelihoods: list[Pmf]
    sum_prior: Pmf


def convolution_tree(priors: list[Pmf], sum_likelihood: Pmf,
                     operator: ConvolutionOperator) -> TreeResult:
    """Run the forward/reverse passes; per variable, cut the evidence
    message to the prior's support and fold the prior itself back in.

    Each layer of the tree is one (nodes, width) array, applied with one
    ``apply_rows`` call. Every prior is zero-padded on the right to the
    longest one, and when n is not a power of two the leaf layer is padded
    with point masses at zero (they do not change the sum); their outputs
    are dropped. Each later layer is as wide as its widest node support.
    Every row the tree holds, and every row it passes to the operator, is
    divided by its peak, whatever the operator; ``operator.normalization``
    is read once, on the way out, and a "sum" operator's outputs are then
    divided by their sums.

    Raises DegenerateDistributionError for an all-zero prior or evidence,
    and InconsistentEvidenceError when the evidence excludes every
    reachable outcome of some variable.
    """
    if len(priors) < 1:
        raise ValueError("need at least one prior")
    apply_rows = operator.apply_rows or partial(_per_pair_rows, operator.apply)
    leaves = np.zeros((padded_length(len(priors)), max(len(p) for p in priors)))
    leaves[len(priors):, 0] = 1.0  # padding leaves: point masses at zero
    for row, prior in zip(leaves, priors):
        row[:len(prior)] = prior.values

    # Forward: pair up each layer until a single root (the prior of the sum).
    # A row holds only round-off past its reach (the length of its node's
    # support), so each layer keeps only its longest reach: ragged priors
    # pay for their padding at the leaves only.
    reach = np.array([len(p) for p in priors] + [1] * (len(leaves) - len(priors)))
    forward = [_rescaled(leaves)]
    while len(forward[-1]) > 1:
        layer = forward[-1]
        reach = reach[0::2] + reach[1::2] - 1
        merged, _ = apply_rows(layer[0::2], layer[1::2], window=(0, reach.max()))
        forward.append(_rescaled(merged))
    root = forward[-1]

    # The root's message is the evidence over the sum's support, zero
    # outside the evidence. Rebinding frees the uncut evidence.
    offset = sum(p.offset for p in priors)
    messages = _rescaled(sum_likelihood.values[None])
    lo = offset - sum_likelihood.offset
    messages = _rescaled(_window(messages[0], lo, lo + root.shape[1] - 1)[np.newaxis],
                         ZERO_MASS_REL_TOL)

    # Reverse: the message for a child is the parent's message minus the
    # sibling, i.e. convolution with the negated (reversed) sibling, cut
    # back down to the child's own support, which is the same window of
    # every row; the operator computes only that window, plus each full
    # row's peak for the zero-mass floor (a sum or p-norm row peaks above
    # 1 before the cut, and FFT round-off scales with that peak). Both
    # children share the parent's message.
    for children in reversed(forward[:-1]):
        width = children.shape[1]
        siblings = children.reshape(len(messages), 2, width)[:, ::-1, ::-1]
        kept, peak = apply_rows(messages[:, None], siblings, window=(width - 1, width))
        messages = _rescaled(kept.reshape(len(children), width),
                             ZERO_MASS_REL_TOL * peak.reshape(len(children)))

    # Fold each leaf's own prior into its evidence message.
    product = _rescaled(messages[:len(priors)] * forward[0][:len(priors)], ZERO_MASS_REL_TOL)
    if operator.normalization == "sum":
        product, root = (rows / rows.sum(axis=1)[:, None] for rows in (product, root))
    return TreeResult(Pmf._checked_rows(product, priors), Pmf(root[0], offset))


def _rescaled(rows: np.ndarray, floor: np.ndarray | float | None = None) -> np.ndarray:
    """Each row divided by its peak, so that it peaks at exactly 1.0.

    Without ``floor`` every row must have mass, else
    DegenerateDistributionError. With it, a row whose peak is at or below
    its entry of ``floor`` (or ``floor`` itself, a scalar) holds only
    round-off: InconsistentEvidenceError.
    """
    peak = rows.max(axis=1)
    if floor is None:
        if not np.all(peak > 0.0):
            raise DegenerateDistributionError("degenerate distribution: total mass is zero")
    elif np.any(peak <= floor):
        raise InconsistentEvidenceError(
            "inconsistent evidence: zero mass over the target support")
    return rows / peak[:, None]


def _per_pair_rows(apply: Callable[[Pmf, Pmf], Pmf], left: np.ndarray,
                   right: np.ndarray, window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """``apply`` of every row pair, one call each in row order, for an
    operator without ``apply_rows``; the window is cut from the full rows."""
    lead = np.broadcast_shapes(left.shape[:-1], right.shape[:-1])
    left, right = (np.broadcast_to(x, lead + x.shape[-1:]) for x in (left, right))
    out = np.empty(lead + (left.shape[-1] + right.shape[-1] - 1,))
    for index in np.ndindex(lead):
        out[index] = apply(Pmf(left[index]), Pmf(right[index])).values
    return _keep_window(out, window)


def tree_cost_estimate(n: int, k: int) -> float:
    """Step-count model for the tree with an O(k log k) operator.

    sum over levels u of (n / 2^u) convolutions of length-(k 2^u) operands;
    n is rounded up to a power of two. Used only to report the tree's cost
    against the naive n^2 k^2 count (acceptance criterion 11); it never
    selects a code path and is never compared with wall time.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    n_padded = padded_length(n)
    levels = int(math.log2(n_padded))
    return float(sum(
        (n_padded / 2 ** u) * (k * 2 ** u) * math.log2(k * 2 ** u)
        for u in range(1, levels + 1)
    ))
