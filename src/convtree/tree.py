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
from itertools import starmap
from typing import Callable, Iterable

import numpy as np

from .fftconv import fast_convolve, fast_convolve_many, padded_length
from .numeric import (
    PiecewiseConfig,
    _check_p,
    _ladder_max_convolve,
    _p_norm_many,
    max_convolve_piecewise,
    p_norm_convolve,
)
from .pmf import Pmf, delta, naive_max_convolve, negate, normalize_max, normalize_sum


class InconsistentEvidenceError(ValueError):
    """The sum evidence rules out every outcome of some variable."""


_NORMALIZERS = {"sum": normalize_sum, "max": normalize_max}

# A narrowed message whose peak is this far below the pre-narrowing peak is
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

    ``apply_many``, if given, takes a list of (left, right) pairs and
    returns ``[apply(l, r) for l, r in pairs]``, bit for bit; the tree
    then makes one call per layer. Without it the tree calls ``apply``
    once per pair.
    """

    name: str
    apply: Callable[[Pmf, Pmf], Pmf]
    normalization: str
    apply_many: Callable[[list[tuple[Pmf, Pmf]]], list[Pmf]] | None = field(
        default=None, kw_only=True)

    def __post_init__(self):
        if self.normalization not in _NORMALIZERS:
            raise ValueError(f"unknown normalization {self.normalization!r}")

    def normalize(self, p: Pmf) -> Pmf:
        return _NORMALIZERS[self.normalization](p)


def standard_operator() -> ConvolutionOperator:
    """Sum-product addition: FFT convolution, messages normalized by sum."""
    return ConvolutionOperator("sum", fast_convolve, "sum",
                               apply_many=fast_convolve_many)


def naive_max_operator() -> ConvolutionOperator:
    """Exact max-product addition; quadratic per pairing."""
    return ConvolutionOperator("max-naive", naive_max_convolve, "max")


def numeric_max_operator(config: PiecewiseConfig | None = None) -> ConvolutionOperator:
    """Fast numerical max-product addition (piecewise exponent ladder)."""
    cfg = config if config is not None else PiecewiseConfig()
    return ConvolutionOperator(
        "max-numeric", lambda l, r: max_convolve_piecewise(l, r, cfg), "max",
        apply_many=partial(_ladder_max_convolve, ladder=cfg.p_ladder, tau=cfg.tau),
    )


def p_norm_operator(p: float) -> ConvolutionOperator:
    """Addition on the continuum between sum-product (p=1) and max-product."""
    p = _check_p(p)
    return ConvolutionOperator(
        f"pnorm:{p:g}", lambda l, r: p_norm_convolve(l, r, p), "max",
        apply_many=partial(_p_norm_many, p=p),
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


def narrow_to_support(wide: Pmf, target: Pmf,
                      normalization: str | None = None) -> Pmf:
    """Slice ``wide`` to exactly the index range of ``target``.

    Outcomes of the target not covered by ``wide`` are zero-filled: evidence
    can legitimately exclude them. No overlap at all (or all-zero overlap
    when normalizing) means the evidence is inconsistent with the target.
    ``normalization`` is None, "sum" or "max".
    """
    if normalization is not None and normalization not in _NORMALIZERS:
        raise ValueError(f"unknown normalization {normalization!r}")
    lo = target.offset - wide.offset
    hi = lo + len(target)
    if hi <= 0 or lo >= len(wide):
        raise InconsistentEvidenceError(
            "inconsistent evidence: no overlap with the target support"
        )
    out = np.zeros(len(target))
    src_lo, src_hi = max(lo, 0), min(hi, len(wide))
    out[src_lo - lo:src_hi - lo] = wide.values[src_lo:src_hi]
    if normalization is None:
        return Pmf(out, target.offset)
    peak = out.max()
    if peak <= ZERO_MASS_REL_TOL * wide.values.max():
        raise InconsistentEvidenceError(
            "inconsistent evidence: zero mass over the target support"
        )
    out /= out.sum() if normalization == "sum" else peak
    return Pmf(out, target.offset)


def convolution_tree(priors: list[Pmf], sum_likelihood: Pmf,
                     operator: ConvolutionOperator) -> TreeResult:
    """Run the forward/reverse passes; per variable, narrow the evidence
    message to the prior's support and fold the prior itself back in.

    When n is not a power of two the leaf layer is padded with point masses
    at zero (they do not change the sum); their outputs are dropped. Raises
    DegenerateDistributionError for an all-zero prior and
    InconsistentEvidenceError when the evidence excludes every reachable
    outcome of some variable.
    """
    if len(priors) < 1:
        raise ValueError("need at least one prior")
    leaves = [operator.normalize(p) for p in priors]
    evidence = operator.normalize(sum_likelihood)
    n_real = len(leaves)

    if n_real == 1:
        narrowed = narrow_to_support(evidence, leaves[0], operator.normalization)
        return TreeResult([_combine_with_prior(narrowed, leaves[0], operator)],
                          leaves[0])

    while len(leaves) & (len(leaves) - 1):
        leaves.append(delta())

    # Forward: pair up each layer until a single root (the prior of the sum).
    forward = [leaves]
    while len(forward[-1]) > 1:
        layer = forward[-1]
        forward.append([operator.normalize(merged) for merged in
                        _apply_layer(operator, list(zip(layer[::2], layer[1::2])))])

    # Reverse: the message for a child is the parent's message minus the
    # sibling, i.e. convolution with the negated sibling, cut back down to
    # the child's own support. Both children share the parent's message.
    messages = [evidence]
    for depth in range(len(forward) - 2, -1, -1):
        children = forward[depth]
        pairs = []
        for j, msg in enumerate(messages):
            lhs, rhs = children[2 * j], children[2 * j + 1]
            pairs += [(msg, negate(rhs)), (msg, negate(lhs))]
        messages = [narrow_to_support(wide, child, operator.normalization)
                    for wide, child in zip(_apply_layer(operator, pairs), children)]

    likelihoods = [
        _combine_with_prior(msg, leaf, operator)
        for msg, leaf in zip(messages[:n_real], leaves[:n_real])
    ]
    return TreeResult(likelihoods, forward[-1][0])


def _apply_layer(operator: ConvolutionOperator,
                 pairs: list[tuple[Pmf, Pmf]]) -> Iterable[Pmf]:
    """``operator.apply`` of every pair: one ``apply_many`` call when the
    operator has one, else per-pair calls in order, made as they are read
    so each result can be reduced before the next pair runs."""
    if operator.apply_many is None:
        return starmap(operator.apply, pairs)
    return operator.apply_many(pairs)


def _combine_with_prior(message: Pmf, leaf: Pmf,
                        operator: ConvolutionOperator) -> Pmf:
    """Fold the leaf's own prior into its evidence message."""
    product = message.values * leaf.values
    peak = product.max()
    if peak <= ZERO_MASS_REL_TOL * message.values.max() * leaf.values.max():
        raise InconsistentEvidenceError(
            "inconsistent evidence: no outcome of a prior survives the evidence"
        )
    product /= product.sum() if operator.normalization == "sum" else peak
    return Pmf(product, leaf.offset)


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
