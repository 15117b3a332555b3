"""Exhaustive-enumeration oracles for convolution-tree results.

Deliberately dumb O(n^2 k^n) calculations, independent of the tree code:
every joint assignment is visited and its weight accumulated (sum mode) or
kept if best (max mode).
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def brute_force_tree(priors, evidence, mode):
    """Return (per-variable likelihood arrays, sum-prior array, sum offset).

    The weight of a joint assignment is the product of every prior value
    times the evidence at the assignment total; the distribution for
    variable j at outcome o aggregates the weights of all joint events with
    that outcome (sum mode adds them, max mode keeps the best).
    """
    assert mode in ("sum", "max")
    n = len(priors)
    lik = [np.zeros(len(p)) for p in priors]
    sum_lo = sum(p.offset for p in priors)
    sum_hi = sum(p.offset + len(p) - 1 for p in priors)
    sum_prior = np.zeros(sum_hi - sum_lo + 1)

    for assignment in itertools.product(*(range(len(p)) for p in priors)):
        total = sum(priors[i].offset + a for i, a in enumerate(assignment))
        full = 1.0
        for i, a in enumerate(assignment):
            full *= priors[i].values[a]
        if mode == "sum":
            sum_prior[total - sum_lo] += full
        else:
            sum_prior[total - sum_lo] = max(sum_prior[total - sum_lo], full)

        ev_idx = total - evidence.offset
        ev = evidence.values[ev_idx] if 0 <= ev_idx < len(evidence) else 0.0
        w = full * ev
        for j, a in enumerate(assignment):
            if mode == "sum":
                lik[j][a] += w
            else:
                lik[j][a] = max(lik[j][a], w)

    return lik, sum_prior, sum_lo


def normalize_mode(arr, mode):
    arr = np.asarray(arr, dtype=float)
    scale = arr.sum() if mode == "sum" else arr.max()
    return arr / scale


def refine_per_index(out, a, b, rel_threshold):
    """Recompute, in place, every output at or below rel_threshold * max(out)
    as its exact direct sum, rounded once to the nearest double.

    The oracle for the p-norm's small-value refinement: the same selection,
    visiting the outputs one at a time. Each sum is taken in exact rational
    arithmetic (``fractions.Fraction``), so it carries none of the rounding
    of float products and sums, subnormal ones included.
    """
    peak = out.max()
    if peak <= 0.0:
        return
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    for m in np.nonzero(out <= peak * rel_threshold)[0]:
        lo = max(0, m - len(b) + 1)
        hi = min(len(a) - 1, m)
        out[m] = float(sum(a[l] * b[m - l] for l in range(lo, hi + 1)))


def narrow_rows(rng, shape, width):
    """Rows of ``width`` columns that are exact zeros outside a short span,
    in turn: a discretized Gaussian of sigma 0.5 to 1.5 at a random centre
    (exp underflows to 0.0 about 38.6 sigma from it), a short prior
    zero-padded on the right, and a run of random values at a random place.
    A Gaussian spans at most 116 columns and a run at most width // 16, so
    two such rows of width 400 or more convolve to under half their full
    output: span pairs (``fftconv._one_pair_spans``)."""
    rows = np.zeros(tuple(shape) + (width,))
    bins = np.arange(width)
    for i, row in enumerate(rows.reshape(-1, width)):
        if i % 3 == 0:
            sigma = rng.uniform(0.5, 1.5)
            row[:] = np.exp(-0.5 * ((bins - rng.uniform(0.0, width - 1.0)) / sigma) ** 2)
        else:
            n = int(rng.integers(2, width // 16 + 1))
            start = 0 if i % 3 == 1 else int(rng.integers(0, width - n + 1))
            row[start:start + n] = 0.05 + rng.random(n)
    return rows


def spy_span_pairs(monkeypatch) -> list:
    """The spans of every pair that ``fftconv._one_pair_spans`` calls a span
    pair from now on. A rows call tests each candidate row pair and then
    cuts each span pair as a one-pair call, so its span pairs show twice."""
    import convtree.fftconv as fftconv

    found = []
    one_pair_spans = fftconv._one_pair_spans

    def spying(a, b):
        spans = one_pair_spans(a, b)
        if spans is not None:
            found.append(spans)
        return spans

    monkeypatch.setattr(fftconv, "_one_pair_spans", spying)
    return found


def spy_transforms(monkeypatch, record=np.copy) -> list:
    """``record(stack)`` of the (rungs, rows, size) zero-padded stack of
    powers that every forward transform (``fftconv._spectra``) reads from
    now on, in order (a copy of it by default). Its length is the
    transform's, whether one ``rfft`` or four steps take it."""
    import convtree.fftconv as fftconv

    records = []
    spectra = fftconv._spectra

    def spying(x, ladder, size, stack, out):
        result = spectra(x, ladder, size, stack, out)
        shape = (len(ladder), math.prod(x.shape[:-1]), size)
        records.append(record(np.ndarray(shape, np.float64, stack)))
        return result

    monkeypatch.setattr(fftconv, "_spectra", spying)
    return records


def circular_convolution(a, b, ladder, size):
    """The (rungs, *lead, size) ``size``-point circular convolutions of the
    powers of every row pair of ``a`` and ``b``, in that operand order,
    whose leading axes broadcast, for each exponent of ``ladder``, through
    the package's own transform (``fftconv._transform``): the kernel's
    bits, whether one ``rfft`` or four steps take that length."""
    import convtree.fftconv as fftconv

    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    rows = len(ladder) * math.prod(lead)
    spectrum = 2 * rows * math.prod(fftconv._spectrum_shape(size))
    buffers = {"stack": np.empty(rows * size), "left": np.empty(spectrum),
               "right": np.empty(spectrum)}
    b = np.broadcast_to(b, lead + b.shape[-1:])
    return fftconv._transform(a, b, tuple(ladder), size, buffers).copy()
