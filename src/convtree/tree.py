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

from .fftconv import _edges, _one_pair, fast_convolve_rows, padded_length
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
    ``(full[..., lo:lo + n], scale)``, bit for bit, where every row of
    ``full`` is ``apply`` of that row pair: a kernel may skip work on the
    columns it drops. ``scale`` holds each row's scale, the same whatever
    the window: ``full.max(axis=-1)``, or, for a stock operator's
    long-by-short pair (``fftconv._valid_part``), the peak of its circular
    transform as its kernel scales it. The tree makes one call per segment
    of a layer (``convolution_tree``), a forward segment keeping its
    parents' longest reach ``(0, reach)`` and a reverse segment each
    child's window ``(w - 1, w)``. Without ``apply_rows`` the tree calls
    ``apply`` once per pair, on the same rows wrapped as Pmfs at offset 0.
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

    Every prior is cut to its first through last nonzero value, its offset
    moved to match, and the leaves hold the cut priors longest first (a
    stable sort, so priors of one length keep their order). When n is not
    a power of two, point masses at zero pad the leaves (they do not
    change the sum) and come last; their outputs are dropped. A node's
    reach is the length of its support, so reaches descend along every
    layer. Each layer runs as segments of sibling pairs (``_segments``),
    one ``apply_rows`` call each, and a segment is as wide as its widest
    node: ragged priors cost about their own supports, not the layer's
    nodes times its widest reach. Each likelihood goes back to its
    prior's place and, with the sum prior, is padded back to the full
    support with exact zeros. Every row the tree holds, and every row it
    passes to the operator, is divided by its peak, whatever the operator;
    ``operator.normalization`` is read once, on the way out, and a "sum"
    operator's outputs are then divided by their sums.

    Raises DegenerateDistributionError for an all-zero prior or evidence,
    and InconsistentEvidenceError when the evidence excludes every
    reachable outcome of some variable.
    """
    if len(priors) < 1:
        raise ValueError("need at least one prior")
    apply_rows = operator.apply_rows or partial(_per_pair_rows, operator.apply)
    n = len(priors)
    # Cut each prior with a zero end to its first through last nonzero
    # value (an all-zero one stays whole); starts[i] is where a cut one's
    # mass starts.
    masses, starts = [p.values for p in priors], {}
    for i, values in enumerate(masses):
        if values[0] == 0.0 or values[-1] == 0.0:
            start, stop = _edges(values)
            masses[i], starts[i] = values[start:stop], start
    spans = [mass.size for mass in masses]
    order = sorted(range(n), key=spans.__getitem__, reverse=True)  # stable
    # Each level's node reaches and segments; a node's row is held as wide
    # as its prior, above the leaves as the keep-window of its segment.
    reaches, segments = [[spans[i] for i in order] + [1] * (padded_length(n) - n)], []
    held = reaches[0]
    while len(held) > 1:
        segments.append(_segments(held, -(-n >> len(reaches))))
        reach = reaches[-1]
        reaches.append([a + b - 1 for a, b in zip(reach[0::2], reach[1::2])])
        held = [reaches[-1][p0] for p0, p1 in segments[-1] for _ in range(p0, p1)]

    # Forward: pair up each layer until a single root (the prior of the sum).
    # A layer is a list of (first node, rows) segments; inputs[level] keeps
    # the rows each segment of a level's pairs was applied to. A row holds
    # only round-off past its reach, so each segment keeps only its longest.
    leaves = []
    for lo, hi in [(2 * p0, 2 * p1) for p0, p1 in segments[0]] if segments else [(0, 1)]:
        rows = np.zeros((hi - lo, reaches[0][lo]))
        rows[max(n - lo, 0):, 0] = 1.0  # padding leaves: point masses at zero
        for row, i in zip(rows, order[lo:hi]):
            row[:spans[i]] = masses[i]
        leaves.append((lo, _rescaled(rows)))
    layer, inputs = leaves, []
    for pairs, reach, parent_reach in zip(segments, reaches, reaches[1:]):
        inputs.append([_rows(layer, 2 * p0, 2 * p1, reach[2 * p0]) for p0, p1 in pairs])
        layer = [(p0, _rescaled(apply_rows(rows[0::2], rows[1::2],
                                           window=(0, parent_reach[p0]))[0]))
                 for (p0, _), rows in zip(pairs, inputs[-1])]
    root = layer[0][1]

    # The root's message is the evidence over the sum's support, zero
    # outside the evidence. Rebinding frees the uncut evidence.
    shift = sum(starts.values())  # the cut sum's first outcome within the full one
    offset = sum(p.offset for p in priors) + shift
    message = _rescaled(sum_likelihood.values[None])
    lo = offset - sum_likelihood.offset
    messages = [(0, _rescaled(_window(message[0], lo, lo + root.shape[1] - 1)[np.newaxis],
                              ZERO_MASS_REL_TOL))]

    # Reverse: the message for a child is the parent's message minus the
    # sibling, i.e. convolution with the negated (reversed) sibling, cut
    # back down to the child's own support, which is the same window of
    # every row of a segment; the operator computes only that window, plus
    # each row's scale for the zero-mass floor (a sum or p-norm row peaks
    # above 1 before the cut, and FFT round-off scales with that peak; a
    # long-by-short pair's scale, the peak of the circular transform that
    # gives its window, bounds the round-off of that transform). Both
    # children share the parent's message. A segment of
    # padding pairs is applied too, as every pair is, but no output reads
    # its messages: they are kept as point masses, unchecked.
    for level in reversed(range(len(segments))):
        new = []
        for (p0, p1), children in zip(segments[level], inputs[level]):
            width = children.shape[1]
            parents = _rows(messages, p0, p1, reaches[level + 1][p0])
            siblings = children.reshape(p1 - p0, 2, width)[:, ::-1, ::-1]
            kept, peak = apply_rows(parents[:, None], siblings, window=(width - 1, width))
            if 2 * p0 << level >= n:  # padding nodes, one outcome wide
                new.append((2 * p0, np.ones((len(children), 1))))
                continue
            # a narrower child's columns past its own reach hold its
            # parent's values past the parent's reach, not its message:
            # zeroed, so its peak and zero-mass test read its reach alone;
            # a padding child among them is a point mass, as above
            rows, reach = kept.reshape(-1, width), reaches[level][2 * p0:2 * p1]
            if reach[-1] < width:  # reaches descend along a segment
                rows = np.where(np.arange(width) >= np.array(reach)[:, None], 0.0, rows)
                rows[np.arange(2 * p0, 2 * p1) << level >= n, 0] = 1.0
            new.append((2 * p0, _rescaled(rows, ZERO_MASS_REL_TOL * peak.reshape(-1))))
        messages = new

    # Fold each leaf's own prior into its evidence message, and put each
    # likelihood back in its prior's place.
    likelihoods = np.zeros((n, max(len(p) for p in priors)))
    for (lo, message), (_, leaf) in zip(messages, leaves):
        hi = min(lo + len(leaf), n)
        if hi > lo:
            rows = _rescaled(message[:hi - lo] * leaf[:hi - lo], ZERO_MASS_REL_TOL)
            if operator.normalization == "sum":
                rows = rows / rows.sum(axis=1)[:, None]
            likelihoods[order[lo:hi], :rows.shape[1]] = rows
    if operator.normalization == "sum":
        root = root / root.sum(axis=1)[:, None]
    if starts:  # pad every cut output back to its full support with exact zeros
        for i, start in starts.items():
            values = likelihoods[i, :spans[i]].copy()
            likelihoods[i] = 0.0
            likelihoods[i, start:start + spans[i]] = values
        rows, root = root, np.zeros((1, sum(len(p) for p in priors) - n + 1))
        root[0, shift:shift + rows.shape[1]] = rows[0]
        offset -= shift
    return TreeResult(Pmf._checked_rows(likelihoods, priors), Pmf(root[0], offset))


def _rescaled(rows: np.ndarray, floor: np.ndarray | float | None = None) -> np.ndarray:
    """Each row divided by its peak, so that it peaks at exactly 1.0:
    ``rows`` itself when every row already does (x / 1.0 == x), so the
    tree writes to no row this returns.

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
    # x / 1.0 == x; the first peak decides most calls in one scalar test
    if peak[0] == 1.0 and (peak == 1.0).all():
        return rows
    return rows / peak[:, None]


def _segments(held: list[int], padding: int) -> list[tuple[int, int]]:
    """The sibling pairs of a layer whose rows are held ``held`` wide, as
    segments ``(first, stop)``: runs of pairs whose left rows share a
    ``padded_length``, the pairs of padding nodes (from ``padding`` on)
    in a segment of their own.

    Rows descend along a layer, so a pair's left row is its wider one. A
    segment runs as wide as its first node's reach, which is its widest.
    The one node that holds both priors and padding is held as wide as
    its segment made it, so for priors of one length, at any n, it stays
    with the rest of its layer, at the width and with the bits of a
    whole-layer call.
    """
    classes = [(w - 1).bit_length() for w in held[0:2 * padding:2]]
    classes += [-1] * (len(held) // 2 - len(classes))
    bounds = [p for p in range(1, len(classes)) if classes[p] != classes[p - 1]]
    return list(zip([0, *bounds], [*bounds, len(classes)]))


def _rows(layer: list[tuple[int, np.ndarray]], lo: int, hi: int, width: int) -> np.ndarray:
    """Nodes lo..hi-1 of a layer held as ``(first node, rows)`` segments,
    as one (hi - lo, width) array: a view when one segment holds them all
    at that width, else each row cut or zero-padded to it."""
    pieces = [rows[max(lo - first, 0):hi - first, :width]
              for first, rows in layer if first < hi and first + len(rows) > lo]
    if len(pieces) == 1 and pieces[0].shape[1] == width:
        return pieces[0]
    out = np.zeros((hi - lo, width))
    row = 0
    for piece in pieces:
        out[row:row + len(piece), :piece.shape[1]] = piece
        row += len(piece)
    return out


def _per_pair_rows(apply: Callable[[Pmf, Pmf], Pmf], left: np.ndarray,
                   right: np.ndarray, window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """``apply`` of every row pair, one call each in row order, for an
    operator without ``apply_rows``; the window is cut from the full rows."""
    lead = np.broadcast_shapes(left.shape[:-1], right.shape[:-1])
    left, right = (np.broadcast_to(x, lead + x.shape[-1:]) for x in (left, right))
    out = np.empty(lead + (left.shape[-1] + right.shape[-1] - 1,))
    for index in np.ndindex(lead):
        out[index] = apply(Pmf(left[index]), Pmf(right[index])).values
    lo, n = window
    return out[..., lo:lo + n], out.max(axis=-1)


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
