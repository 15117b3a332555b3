"""convtree benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload tree-deep --seed 0 --seconds 20 --trace 0

Workloads and metrics are listed in BENCHMARK.json at the repository root,
which also gives each metric's unit and better direction; perfbench/README.md
says what each one is for. ``--trace 0`` measures the end-to-end metrics
with the stock operators; ``--trace 1`` is a separate run that gives the
per-layer metrics. The program under test is imported from ``src/`` of the
same checkout, never from an installed copy.

Standard output holds a readable report, and its last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The full record (environment, every sample, tails, failures
and the trace) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
# one thread per process: numpy's BLAS and OpenMP pools are pinned to one
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up is measured in the run's own process and again in fresh processes;
# the median is reported
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def import_program():
    """Import convtree from this checkout's src/ and the benchmark modules."""
    sys.path.insert(0, str(ROOT / "src"))
    import convtree
    import convtree.cli  # noqa: F401  (their import cost belongs to set-up)
    import convtree.io  # noqa: F401
    if not Path(convtree.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"convtree imported from {convtree.__file__}, not src/")
    import workloads
    return workloads


def set_up(workload_name: str, seed: int, trace: bool):
    """Import, generate inputs, warm up every timed operation.

    The set-up time is returned in reference-speed seconds, scaled by the
    speed kernel run right after it (see workloads.SPEED_REF_S).
    """
    t0 = time.perf_counter()
    workloads = import_program()
    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload_name!r}; expected one of "
                         f"{sorted(workloads.WORKLOADS)}")
    inputs = workloads.make_inputs(workloads.WORKLOADS[workload_name], seed)
    ops = workloads.operators()
    workloads.warm_up(inputs, ops, trace)
    seconds = time.perf_counter() - t0
    kernel_s = statistics.mean(workloads.speed_kernel() for _ in range(3))
    return workloads, inputs, ops, seconds * workloads.SPEED_REF_S / kernel_s


def setup_in_fresh_process(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def tail(samples) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            pos = (n - 1) * pct / 100.0
            lo = int(pos)
            hi = min(lo + 1, n - 1)
            value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
            return {"percentile": pct, "value": value, "samples": n}
    return None


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, inherited_threads: dict) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "convtree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_inherited": inherited_threads,
        "git_commit": git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    inherited_threads = {v: os.environ.get(v) for v in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        workloads, inputs, ops, setup_s = set_up(args.workload, args.seed,
                                                 bool(args.trace))
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = workloads.Tally()
    refs = workloads.build_references(inputs, ops, tally)
    loop = workloads.run_loop(inputs, refs, ops, args.seconds, bool(args.trace), tally)
    if args.trace:
        listed = spec["per_layer"]
        values = workloads.per_layer(loop, refs)
    else:
        listed = spec["end_to_end"]
        setup_samples = [setup_s] + [setup_in_fresh_process(args)
                                     for _ in range(SETUP_SAMPLES - 1)]
        values = workloads.end_to_end(loop, refs)
        values["setup_s"] = statistics.median(setup_samples)
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loop.samples["setup_s"] = setup_samples

    metrics, rows = {}, []
    for m in listed:
        value = values.get(m["name"])
        if value is None or value != value:  # missing or NaN: nothing measured
            value = None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        samples = loop.samples.get(m["name"], [])
        raw = tally.raw.get(m["name"])
        rows.append({**m, "value": value, "samples": len(samples),
                     "tail": tail(samples) if samples else None,
                     "raw_wall_median": statistics.median(raw) if raw else None})
    correct = tally.failed == 0 and all(m["value"] is not None for m in metrics.values())
    env = environment(args, inherited_threads)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"environment": env, "rounds": loop.rounds,
              "attempted": tally.attempted, "failed": tally.failed,
              "fail_frac": tally.failed / max(tally.attempted, 1),
              "problems": tally.problems, "metrics": rows,
              "samples": dict(loop.samples)}
    if args.trace:
        record["trace"] = workloads.trace_report(loop)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# convtree benchmark {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={loop.rounds} record={out_file.relative_to(ROOT)}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# fail_frac {record['fail_frac']!r} "
          f"({tally.failed} failed of {tally.attempted} calls)")
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    print("# timings are reference-speed seconds; raw = median raw wall seconds")
    print(f"{'metric':40} {'value':>24} {'unit':>6} {'better':>7} {'n':>4}  tail")
    for row in rows:
        t = row["tail"]
        extra = f"p{t['percentile']:g}={t['value']!r}" if t else "-"
        if row["raw_wall_median"] is not None:
            extra += f" raw={row['raw_wall_median']!r}"
        print(f"{row['name']:40} {row['value']!r:>24} {row['unit']:>6} "
              f"{row.get('better', '-'):>7} {row['samples']:>4}  {extra}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
