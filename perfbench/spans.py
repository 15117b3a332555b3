"""Traced tree solves for the per-layer metrics.

The stock operator's ``apply`` is wrapped in a timed ``ConvolutionOperator``
and ``normalize`` is timed through a subclass, so the library itself is not
changed and the untraced path never sees the wrapper. The tree calls
``apply`` in a fixed order: the first n_pad - 1 calls are the forward pass,
leaves first, and the rest are the reverse pass, root first. Pass and depth
are read off that order. Spans stay in memory until the run ends.

If the wrapper cannot be built, or the call count does not match that
order, the solve falls back to tree-level numbers and is flagged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from time import perf_counter

from convtree import ConvolutionOperator, convolution_tree, padded_length


class SpanLog:
    """Apply spans (start, end, len_left, len_right) and normalize spans."""

    def __init__(self):
        self.apply: list[tuple[float, float, int, int]] = []
        self.normalize: list[tuple[float, float]] = []

    def timed(self, apply):
        def timed_apply(left, right):
            t0 = perf_counter()
            out = apply(left, right)
            self.apply.append((t0, perf_counter(), len(left), len(right)))
            return out
        return timed_apply


@dataclass(frozen=True)
class TimedOperator(ConvolutionOperator):
    """Stock operator whose ``normalize`` calls are recorded in ``log``."""

    log: SpanLog = dataclasses.field(default=None, compare=False, repr=False)

    def normalize(self, p):
        t0 = perf_counter()
        out = super().normalize(p)
        self.log.normalize.append((t0, perf_counter()))
        return out


def call_layers(n: int) -> list[tuple[str, int]]:
    """(pass, depth) of every apply call the tree makes for n priors.

    Forward depth 1 merges the leaves; reverse depth 1 splits the root.
    """
    if n < 2:
        return []
    levels = padded_length(n).bit_length() - 1
    n_pad = 1 << levels
    order = []
    for depth in range(1, levels + 1):
        order += [("fwd", depth)] * (n_pad >> depth)
    for depth in range(1, levels + 1):
        order += [("rev", depth)] * (1 << depth)
    return order


def traced_solve(stock: ConvolutionOperator, priors, evidence, rungs: int):
    """Solve once through the timed wrapper; return (result, summary).

    ``rungs`` is the number of exponent-ladder convolutions one apply runs,
    which scales the computed FFT points.
    """
    log = SpanLog()
    try:
        operator = TimedOperator(stock.name, log.timed(stock.apply),
                                 stock.normalization, log)
    except TypeError:
        operator = None
    t0 = perf_counter()
    result = convolution_tree(priors, evidence, operator or stock)
    t1 = perf_counter()
    return result, summarize(t1 - t0, log if operator else None,
                             call_layers(len(priors)), rungs)


def summarize(wall: float, log: SpanLog | None, layers, rungs: int) -> dict:
    """Split one solve's wall time into apply, normalize and tree self time."""
    if log is None or len(log.apply) != len(layers):
        return {"wall_s": wall, "self_s": wall, "normalize_s": 0.0,
                "apply_s": 0.0, "apply_calls": 0,
                "fwd_apply_s": 0.0, "rev_apply_s": 0.0,
                "fwd_fft_points": 0, "rev_fft_points": 0,
                "depths": {}, "spans": [], "fallback": True}
    totals = {"fwd": [0.0, 0], "rev": [0.0, 0]}
    depths: dict[str, dict] = {}
    for (start, end, k_left, k_right), (pass_, depth) in zip(log.apply, layers):
        points = padded_length(k_left + k_right - 1) * rungs
        totals[pass_][0] += end - start
        totals[pass_][1] += points
        row = depths.setdefault(f"{pass_}{depth}", {
            "calls": 0, "apply_s": 0.0, "fft_points": 0, "max_operand": 0})
        row["calls"] += 1
        row["apply_s"] += end - start
        row["fft_points"] += points
        row["max_operand"] = max(row["max_operand"], k_left, k_right)
    apply_s = totals["fwd"][0] + totals["rev"][0]
    normalize_s = sum(end - start for start, end in log.normalize)
    origin = log.apply[0][0] if log.apply else 0.0
    return {
        "wall_s": wall,
        "self_s": wall - apply_s - normalize_s,
        "normalize_s": normalize_s,
        "apply_s": apply_s,
        "apply_calls": len(log.apply),
        "fwd_apply_s": totals["fwd"][0],
        "rev_apply_s": totals["rev"][0],
        "fwd_fft_points": totals["fwd"][1],
        "rev_fft_points": totals["rev"][1],
        "depths": depths,
        "spans": [(pass_, depth, start - origin, end - origin, k_left, k_right)
                  for (start, end, k_left, k_right), (pass_, depth)
                  in zip(log.apply, layers)],
        "fallback": False,
    }


SECONDS_KEYS = ("wall_s", "self_s", "normalize_s", "apply_s", "fwd_apply_s",
                "rev_apply_s")


def scaled(summary: dict, factor: float) -> dict:
    """The summary with every duration multiplied by ``factor``."""
    out = dict(summary, **{key: summary[key] * factor for key in SECONDS_KEYS})
    out["depths"] = {d: dict(row, apply_s=row["apply_s"] * factor)
                     for d, row in summary["depths"].items()}
    return out
