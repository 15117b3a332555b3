"""Workloads of the convtree benchmark: inputs, references and timed loops.

A run is one process with one thread in a closed loop: every call starts
after the previous one returned. A round takes one sample of each timed
operation, in a fixed order, and rounds repeat until the run's time is up.
A tree sample solves one instance, cycling through the instances round by
round; a pair sample is the mean over every pair of a kind. Every timed
output is checked; a call that raises or fails a check is a failed call and
gives no timing.

Every workload runs the same operations. The workload fixes the shape of the
main tree instance (timed with ``sum`` and ``max-numeric``). All workloads
share the oracle panel, drawn from the seed: demo-sized subset-sum instances
(n=32, k=256) timed with ``pnorm:1`` and checked against exact references,
and single pairs at k=8192, uniform and peaked. On ``oracle`` the main
instances are the panel instances.
"""

from __future__ import annotations

import resource
import statistics
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

import convtree as ct
import checks
import spans


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    panel_n: int = 32
    panel_k: int = 256
    # the argmax agreement of one panel instance ranges from 13/32 to 31/32
    # across seeds; eight instances keep its run-to-run spread inside the bound
    panel_instances: int = 8
    pair_k: int = 8192
    # one pair's err_hi varies by 12% across seeds; eight pairs steady the mean
    pairs: int = 8


WORKLOADS = {w.name: w for w in (
    Workload("tree-deep", n=1024, k=64),
    Workload("tree-wide", n=64, k=4096),
    Workload("oracle", n=32, k=256),
)}

# independent random streams drawn from one workload seed
MAIN, PANEL, UNIFORM, PEAKED = range(4)
PEAKED_SIGMA = (2.0, 8.0)
UNDER_REL = 1e-9

TREE_OPS = ("sum", "max-numeric", "pnorm1")
PAIR_KINDS = ("uniform", "peaked")
# exponent-ladder convolutions per apply, for the computed FFT points
RUNGS = {"sum": 1, "max-numeric": len(ct.DEFAULT_P_LADDER), "pnorm1": 1}


def operators() -> dict:
    """The stock operator of every timed tree operation."""
    return {"sum": ct.standard_operator(),
            "max-numeric": ct.numeric_max_operator(),
            "pnorm1": ct.p_norm_operator(1.0)}


def pnorm1_convolve(left, right):
    return ct.p_norm_convolve(left, right, 1.0)


def _sub_seed(seed: int, stream: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def peaked_pair(k: int, key) -> tuple:
    """Two discretized Gaussians on k bins, seed-drawn mean and sigma."""
    rng = np.random.default_rng(key)
    bins = np.arange(k)
    pair = []
    for _ in range(2):
        mean = rng.uniform(0.0, k - 1.0)
        sigma = rng.uniform(*PEAKED_SIGMA)
        dens = np.exp(-0.5 * ((bins - mean) / sigma) ** 2)
        pair.append(ct.Pmf(dens / dens.sum()))
    return tuple(pair)


@dataclass
class Inputs:
    main: list
    panel: list
    pairs: dict  # kind -> list of (left, right)

    def tree_instance(self, op: str, r: int):
        """Instance of round r for a tree operation, and its index."""
        instances = self.panel if op == "pnorm1" else self.main
        return instances[r % len(instances)], r % len(instances)


def make_inputs(w: Workload, seed: int) -> Inputs:
    panel = [ct.generate_subset_sum_instance(w.panel_n, w.panel_k,
                                             _sub_seed(seed, PANEL, i))
             for i in range(w.panel_instances)]
    if (w.n, w.k) == (w.panel_n, w.panel_k):
        main = panel
    else:
        main = [ct.generate_subset_sum_instance(w.n, w.k, _sub_seed(seed, MAIN, 0))]
    pairs = {
        "uniform": [ct.generate_uniform_pair(w.pair_k, (seed, UNIFORM, i))
                    for i in range(w.pairs)],
        "peaked": [peaked_pair(w.pair_k, (seed, PEAKED, i)) for i in range(w.pairs)],
    }
    return Inputs(main, panel, pairs)


def pair_ops(trace: bool) -> dict:
    ops = {"piecewise": ct.max_convolve_piecewise, "pnorm1": pnorm1_convolve}
    if trace:
        ops["fast"] = ct.fast_convolve
    return ops


def warm_up(inputs: Inputs, ops: dict, trace: bool) -> None:
    """One call per timed operation, so lazy set-up lands in set-up time."""
    for name, op in ops.items():
        instance, _ = inputs.tree_instance(name, 0)
        ct.convolution_tree(instance.priors, instance.sum_likelihood, op)
    for kind in PAIR_KINDS:
        for fn in pair_ops(trace).values():
            fn(*inputs.pairs[kind][0])


# Timings are reported in reference-speed seconds. On a shared host the
# machine's speed changes by up to a third from one minute to the next, as
# neighbours come and go, which moves the raw wall medians of whole runs by
# about 25%. So every timed call is followed by a fixed kernel that does not
# touch convtree, and its wall time is scaled by SPEED_REF_S over the mean
# kernel time just before and just after it. Raw wall times stay in the record.
SPEED_REF_S = 0.003
SPEED_FFT = np.linspace(0.0, 1.0, 1 << 16)


def speed_kernel() -> float:
    """Wall seconds of small numpy FFTs, a Python loop and one 2^16 FFT."""
    t0 = perf_counter()
    x = np.linspace(0.0, 1.0, 64)
    for _ in range(40):
        y = np.fft.rfft(x, 128)
        x = np.abs(np.fft.irfft(y * y, 128)[:64]) * 1e-3 + 0.5
    s = 0
    for i in range(4000):
        s += i * i % 7
    np.fft.irfft(np.fft.rfft(SPEED_FFT))
    return perf_counter() - t0


@dataclass
class Tally:
    """Attempted and failed calls, with the first few failure messages,
    and the raw wall seconds of every call by label."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    raw: dict = field(default_factory=lambda: defaultdict(list))
    last_factor: float = 1.0
    kernel_s: float = field(default_factory=speed_kernel)

    def fail(self, label: str, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {problem}")

    def call(self, label: str, fn, check=None):
        """Run one checked call; return (output, reference-speed seconds),
        or (None, None) if it raised or failed its check."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a call that raises is a failed call
            self.fail(label, "".join(traceback.format_exception_only(exc)).strip())
            return None, None
        seconds = perf_counter() - t0
        kernel_s = speed_kernel()
        self.last_factor = SPEED_REF_S / ((self.kernel_s + kernel_s) / 2)
        self.kernel_s = kernel_s
        problems = check(out) if check is not None else []
        if problems:
            self.fail(label, problems[0])
            return None, None
        self.raw[label].append(seconds)
        return out, seconds * self.last_factor


def _solve(op, instance):
    return partial(ct.convolution_tree, instance.priors, instance.sum_likelihood, op)


@dataclass
class References:
    panel_sum: list
    exact: dict  # kind -> naive max-convolution per pair
    fast: dict   # kind -> fast_convolve per pair, checked against naive_convolve
    naive_tree_s: list
    naive_pair_s: list
    accuracy: dict


def build_references(inputs: Inputs, ops: dict, tally: Tally) -> References:
    """Exact references, computed once per run outside every timing."""
    panel_sum = []
    naive_tree_s = []
    agree = total = 0
    for instance in inputs.panel:
        tree_ok = partial(checks.tree_result, priors=instance.priors)
        result, _ = tally.call("panel sum tree", _solve(ops["sum"], instance),
                               partial(_sum_tree_check, instance=instance))
        panel_sum.append(result)
        naive, seconds = tally.call(
            "max-naive tree", _solve(ct.naive_max_operator(), instance),
            partial(tree_ok, normalization="max"))
        numeric, _ = tally.call("panel max-numeric tree",
                                _solve(ops["max-numeric"], instance),
                                partial(tree_ok, normalization="max"))
        if naive is not None:
            naive_tree_s.append(seconds)
        if naive is not None and numeric is not None:
            agree += sum(a.argmax_outcome() == b.argmax_outcome()
                         for a, b in zip(naive.likelihoods, numeric.likelihoods))
            total += len(instance.priors)

    exact = {kind: [] for kind in PAIR_KINDS}
    fast = {kind: [] for kind in PAIR_KINDS}
    naive_pair_s = []
    under, err_hi, leak = [], [], [0.0]
    for kind in PAIR_KINDS:
        for left, right in inputs.pairs[kind]:
            ex, seconds = tally.call("naive max pair",
                                     partial(ct.naive_max_convolve, left, right))
            exact[kind].append(ex)
            if ex is not None:
                naive_pair_s.append(seconds)
            conv = ct.naive_convolve(left, right)
            out, _ = tally.call("fast pair", partial(ct.fast_convolve, left, right),
                                partial(checks.fast_matches_naive, naive=conv))
            fast[kind].append(out)
            if ex is None:
                continue
            est, _ = tally.call("piecewise pair",
                                partial(ct.max_convolve_piecewise, left, right),
                                partial(_piecewise_check, exact=ex,
                                        k_left=len(left), k_right=len(right)))
            if est is None:
                continue
            acc = pair_accuracy(est, ex)
            if kind == "uniform":
                under.append(acc["under_frac"])
                err_hi.append(acc["err_hi"])
            else:
                leak.append(acc["zero_leak"])
    accuracy = {
        "tree.max-numeric.argmax_agree": agree / total if total else 0.0,
        "pair.piecewise.err_hi": _mean(err_hi),
        "pair.piecewise.under_frac": _mean(under),
        "numeric.piecewise.zero_leak": max(leak),
    }
    return References(panel_sum, exact, fast, naive_tree_s, naive_pair_s, accuracy)


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def pair_accuracy(estimate, exact) -> dict:
    """Lower-side misses, error on high outputs and leak onto exact zeros."""
    est, ex = estimate.values, exact.values
    peak = ex.max()
    high = ex >= ct.DEFAULT_TAU * peak
    zeros = ex == 0.0
    return {
        "under_frac": float(np.mean(est < ex * (1.0 - UNDER_REL))),
        "err_hi": float(np.mean(np.abs(est[high] - ex[high]) / ex[high])),
        "zero_leak": float(est[zeros].max() / peak) if zeros.any() else 0.0,
    }


def _sum_tree_check(result, instance) -> list:
    return (checks.tree_result(result, instance.priors, "sum")
            or checks.sum_identities(result, instance.priors, instance.sum_likelihood))


def _piecewise_check(est, exact, k_left, k_right) -> list:
    if exact is None:
        return ["no exact reference"]
    return checks.piecewise_upper_bound(est, exact, k_left, k_right)


def _matches_fast_check(out, fast) -> list:
    if fast is None:
        return ["no fast_convolve reference"]
    return checks.pnorm1_matches_fast(out, fast)


def _pnorm_tree_check(result, instance, sum_result) -> list:
    if sum_result is None:
        return ["no sum tree reference"]
    return (checks.tree_result(result, instance.priors, "max")
            or checks.matches_sum_tree(result, sum_result))


def tree_check(op: str, instance, index: int, refs: References):
    if op == "sum":
        return partial(_sum_tree_check, instance=instance)
    if op == "pnorm1":
        return partial(_pnorm_tree_check, instance=instance,
                       sum_result=refs.panel_sum[index])
    return partial(checks.tree_result, priors=instance.priors, normalization="max")


def pair_calls(inputs: Inputs, refs: References, trace: bool):
    """(sample name, [(call, check) per pair]) of every pair operation."""
    for kind in PAIR_KINDS:
        pairs = inputs.pairs[kind]
        matches_fast = [partial(_matches_fast_check, fast=f) for f in refs.fast[kind]]
        per_pair = {
            "piecewise": [partial(_piecewise_check, exact=ex, k_left=len(left),
                                  k_right=len(right))
                          for (left, right), ex in zip(pairs, refs.exact[kind])],
            "pnorm1": matches_fast,
            "fast": matches_fast,
        }
        for name, fn in pair_ops(trace).items():
            prefix = "fftconv" if name == "fast" else "pair"
            yield (f"{prefix}.{name}.{kind}.s",
                   [(partial(fn, *pair), check)
                    for pair, check in zip(pairs, per_pair[name])])


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def identical(a, b) -> bool:
    """Bit-identical tree results."""
    pmfs_a = [*a.likelihoods, a.sum_prior]
    pmfs_b = [*b.likelihoods, b.sum_prior]
    return len(pmfs_a) == len(pmfs_b) and all(
        x.offset == y.offset and np.array_equal(x.values, y.values)
        for x, y in zip(pmfs_a, pmfs_b))


@dataclass
class Loop:
    samples: dict = field(default_factory=lambda: defaultdict(list))
    input_ids: dict = field(default_factory=lambda: defaultdict(list))
    traces: dict = field(default_factory=lambda: defaultdict(list))
    minflt: dict = field(default_factory=lambda: defaultdict(list))
    rounds: int = 0

    def add(self, name: str, seconds: float, input_id: int) -> None:
        self.samples[name].append(seconds)
        self.input_ids[name].append(input_id)

    def per_input_mean(self, name: str) -> float:
        """Mean over inputs of each input's median time.

        Costs such as the refine path of ``pnorm:1`` depend on the input, so
        a plain median over rounds would move with the mix of inputs drawn.
        """
        by_input = defaultdict(list)
        for seconds, input_id in zip(self.samples[name], self.input_ids[name]):
            by_input[input_id].append(seconds)
        if not by_input:
            return float("nan")
        return statistics.mean(statistics.median(v) for v in by_input.values())


def run_loop(inputs: Inputs, refs: References, ops: dict, seconds: float,
             trace: bool, tally: Tally) -> Loop:
    """Timed rounds until ``seconds`` have passed (at least one round).

    The traced run solves each tree twice per round, traced and untraced,
    alternating which goes first, and requires bit-identical results.
    """
    loop = Loop()
    pair_samples = list(pair_calls(inputs, refs, trace))
    deadline = perf_counter() + seconds
    while loop.rounds == 0 or perf_counter() < deadline:
        r = loop.rounds
        for op_name in TREE_OPS:
            instance, index = inputs.tree_instance(op_name, r)
            check = tree_check(op_name, instance, index, refs)
            name = f"tree.{op_name}.s"
            if not trace:
                _, dt = tally.call(name, _solve(ops[op_name], instance), check)
                if dt is not None:
                    loop.add(name, dt, index)
                continue
            plain = traced = None
            for is_traced in ((False, True) if r % 2 == 0 else (True, False)):
                if is_traced:
                    out, dt = tally.call(name + " traced", partial(
                        spans.traced_solve, ops[op_name], instance.priors,
                        instance.sum_likelihood, RUNGS[op_name]),
                        lambda res: check(res[0]))
                    if out is not None:
                        traced = out[0]
                        loop.traces[op_name].append(
                            spans.scaled(out[1], tally.last_factor))
                else:
                    before = _minflt()
                    plain, dt = tally.call(name, _solve(ops[op_name], instance), check)
                    if plain is not None:
                        loop.minflt[op_name].append(_minflt() - before)
                        loop.add(name, dt, index)
            if plain is not None and traced is not None and not identical(plain, traced):
                tally.fail(name + " traced", "traced result differs from untraced")
        # one pair sample is the mean time over every pair of a kind, so
        # each sample covers the same inputs; each call is timed on its own
        for name, calls in pair_samples:
            times = [tally.call(name, fn, check)[1] for fn, check in calls]
            if None not in times:
                loop.add(name, statistics.mean(times), 0)
        loop.rounds += 1
    return loop


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def end_to_end(loop: Loop, refs: References) -> dict:
    values = {name: loop.per_input_mean(name) for name in loop.samples}
    for name in ("tree.max-numeric.argmax_agree", "pair.piecewise.err_hi"):
        values[name] = refs.accuracy[name]
    return values


def per_layer(loop: Loop, refs: References) -> dict:
    """Per-layer values; per-solve series are added to ``loop.samples``."""
    values = {name: loop.per_input_mean(name) for name in loop.samples}
    series = {"pmf.naive_max.pair_s": refs.naive_pair_s,
              "pmf.naive_max.tree_s": refs.naive_tree_s}
    for op_name in TREE_OPS:
        summaries = loop.traces[op_name]
        prefix = f"tree.{op_name}."
        for key in ("self_s", "normalize_s", "fwd_apply_s", "rev_apply_s",
                    "apply_calls", "fwd_fft_points", "rev_fft_points"):
            series[prefix + key] = [s[key] for s in summaries]
        series[prefix + "apply_us_per_call"] = [
            1e6 * s["apply_s"] / s["apply_calls"] if s["apply_calls"] else 0.0
            for s in summaries]
        faults = loop.minflt[op_name]
        values[prefix + "minflt_per_call"] = (
            sum(faults) / len(faults) if faults else float("nan"))
        values[prefix + "trace_overhead"] = (
            _median([s["wall_s"] for s in summaries])
            / _median(loop.samples[f"tree.{op_name}.s"]))
    loop.samples.update(series)
    values.update({name: _median(s) for name, s in series.items()})
    nan = float("nan")
    values["numeric.pnorm1.peaked_over_uniform"] = (
        values.get("pair.pnorm1.peaked.s", nan) / values.get("pair.pnorm1.uniform.s", nan))
    values["numeric.piecewise.over_fast"] = (
        values.get("pair.piecewise.uniform.s", nan)
        / values.get("fftconv.fast.uniform.s", nan))
    for name in ("numeric.piecewise.zero_leak", "pair.piecewise.under_frac"):
        values[name] = refs.accuracy[name]
    return values


def trace_report(loop: Loop) -> dict:
    """Per-depth split (mean per solve) and the last solve's apply spans."""
    report = {}
    for op_name, summaries in loop.traces.items():
        depths = defaultdict(lambda: defaultdict(float))
        for s in summaries:
            for depth, row in s["depths"].items():
                for key, value in row.items():
                    depths[depth][key] += value / len(summaries)
        report[op_name] = {
            "solves": len(summaries),
            "fallback": any(s["fallback"] for s in summaries),
            "per_depth": {d: dict(row) for d, row in depths.items()},
            "last_solve_spans": summaries[-1]["spans"] if summaries else [],
        }
    return report
