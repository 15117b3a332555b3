"""Exhaustive-enumeration oracles for convolution-tree results.

Deliberately dumb O(n^2 k^n) calculations, independent of the tree code:
every joint assignment is visited and its weight accumulated (sum mode) or
kept if best (max mode).
"""

import itertools

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
    as its direct sum, one np.dot per output.

    The oracle for fftconv's small-value refinement: the same selection,
    visiting the outputs one at a time.
    """
    peak = out.max()
    if peak <= 0.0:
        return
    for m in np.nonzero(out <= peak * rel_threshold)[0]:
        lo = max(0, m - b.size + 1)
        hi = min(a.size - 1, m)
        out[m] = float(np.dot(a[lo:hi + 1], b[m - hi:m - lo + 1][::-1]))
