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

from .fftconv import _keep_window, _window, fast_convolve, fast_convolve_rows, padded_length
from .numeric import (
    PiecewiseConfig,
    _check_p,
    _ladder_max_convolve,
    _p_norm_rows,
    max_convolve_piecewise,
    p_norm_convolve,
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
    offsets summed) and commute up to round-off. ``normalization`` is "sum"
    for averaging semantics (sum-product) or "max" for best-case semantics
    (max-product); it fixes how every tree message is rescaled.

    ``apply_rows``, if given, takes a (..., a) and a (..., b) array whose
    leading axes broadcast and returns the (..., a + b - 1) array whose
    every row is ``apply`` of that row pair, bit for bit; the tree then
    makes one call per layer. Given a keep-window ``window=(lo, n)`` it
    returns instead the pair ``(full[..., lo:lo + n], full.max(axis=-1))``,
    bit for bit, so a kernel may skip work on the columns it drops; the
    reverse layers use it. Without ``apply_rows`` the tree calls ``apply``
    once per pair, on the same rows wrapped as Pmfs at offset 0.
    """

    name: str
    apply: Callable[[Pmf, Pmf], Pmf]
    normalization: str
    apply_rows: Callable[..., np.ndarray | tuple[np.ndarray, np.ndarray]] | None = field(
        default=None, kw_only=True)

    def __post_init__(self):
        if self.normalization not in ("sum", "max"):
            raise ValueError(f"unknown normalization {self.normalization!r}")


def standard_operator() -> ConvolutionOperator:
    """Sum-product addition: FFT convolution, messages normalized by sum."""
    return ConvolutionOperator("sum", fast_convolve, "sum",
                               apply_rows=fast_convolve_rows)


def naive_max_operator() -> ConvolutionOperator:
    """Exact max-product addition; quadratic per pairing."""
    return ConvolutionOperator("max-naive", naive_max_convolve, "max")


def numeric_max_operator(config: PiecewiseConfig | None = None) -> ConvolutionOperator:
    """Fast numerical max-product addition (piecewise exponent ladder)."""
    cfg = config if config is not None else PiecewiseConfig()
    return ConvolutionOperator(
        "max-numeric", lambda l, r: max_convolve_piecewise(l, r, cfg), "max",
        apply_rows=partial(_ladder_max_convolve, ladder=cfg.p_ladder, tau=cfg.tau),
    )


def p_norm_operator(p: float) -> ConvolutionOperator:
    """Addition on the continuum between sum-product (p=1) and max-product."""
    p = _check_p(p)
    return ConvolutionOperator(
        f"pnorm:{p:g}", lambda l, r: p_norm_convolve(l, r, p), "max",
        apply_rows=partial(_p_norm_rows, p=p),
    )


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
    Every message is rescaled by its sum or its peak, per
    ``operator.normalization``.

    Raises DegenerateDistributionError for an all-zero prior or evidence,
    and InconsistentEvidenceError when the evidence excludes every
    reachable outcome of some variable.
    """
    if len(priors) < 1:
        raise ValueError("need at least one prior")
    apply_rows = operator.apply_rows or partial(_per_pair_rows, operator.apply)
    normalization = operator.normalization
    leaves = np.zeros((padded_length(len(priors)), max(len(p) for p in priors)))
    leaves[len(priors):, 0] = 1.0  # padding leaves: point masses at zero
    for row, prior in zip(leaves, priors):
        row[:len(prior)] = prior.values

    # Forward: pair up each layer until a single root (the prior of the sum).
    # A row holds only round-off past its reach (the length of its node's
    # support), so each layer is cut to its longest reach: ragged priors
    # pay for their padding at the leaves only.
    reach = np.array([len(p) for p in priors] + [1] * (len(leaves) - len(priors)))
    forward = [_rescaled(leaves, normalization)]
    while len(forward[-1]) > 1:
        layer = forward[-1]
        reach = reach[0::2] + reach[1::2] - 1
        merged = apply_rows(layer[0::2], layer[1::2])[:, :reach.max()]
        forward.append(_rescaled(merged, normalization))
    sum_prior = Pmf(forward[-1][0], sum(p.offset for p in priors))

    # The root's message is the evidence over the sum's support, zero
    # outside the evidence. Rebinding frees the uncut evidence.
    messages = _rescaled(sum_likelihood.values[None], normalization)
    lo = sum_prior.offset - sum_likelihood.offset
    messages = _rescaled(_window(messages[0], lo, lo + len(sum_prior) - 1)[None],
                         normalization, ZERO_MASS_REL_TOL * messages.max(axis=1))

    # Reverse: the message for a child is the parent's message minus the
    # sibling, i.e. convolution with the negated (reversed) sibling, cut
    # back down to the child's own support, which is the same window of
    # every row; the operator computes only that window, plus each full
    # row's peak for the zero-mass floor. Both children share the parent's
    # message.
    for children in reversed(forward[:-1]):
        width = children.shape[1]
        siblings = children.reshape(len(messages), 2, width)[:, ::-1, ::-1]
        kept, peak = apply_rows(messages[:, None], siblings, window=(width - 1, width))
        messages = _rescaled(kept.reshape(len(children), width), normalization,
                             ZERO_MASS_REL_TOL * peak.reshape(len(children)))

    # Fold each leaf's own prior into its evidence message.
    messages, leaves = messages[:len(priors)], forward[0][:len(priors)]
    product = _rescaled(messages * leaves, normalization,
                        ZERO_MASS_REL_TOL * messages.max(axis=1) * leaves.max(axis=1))
    return TreeResult(Pmf._checked_rows(product, priors), sum_prior)


def _rescaled(rows: np.ndarray, normalization: str,
              floor: np.ndarray | None = None) -> np.ndarray:
    """Each row divided by its sum ("sum") or its peak ("max").

    Without ``floor`` every row must have mass, else
    DegenerateDistributionError. With it, a row whose peak is at or below
    its entry of ``floor`` holds only round-off: InconsistentEvidenceError.
    """
    peak = rows.max(axis=1)
    if floor is None:
        if not np.all(peak > 0.0):
            raise DegenerateDistributionError("degenerate distribution: total mass is zero")
    elif np.any(peak <= floor):
        raise InconsistentEvidenceError(
            "inconsistent evidence: zero mass over the target support")
    return rows / (rows.sum(axis=1) if normalization == "sum" else peak)[:, None]


def _per_pair_rows(apply: Callable[[Pmf, Pmf], Pmf], left: np.ndarray,
                   right: np.ndarray, window: tuple[int, int] | None = None):
    """``apply`` of every row pair, one call each in row order, for an
    operator without ``apply_rows``; a window is cut from the full rows."""
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
