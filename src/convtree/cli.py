"""Command-line interface.

Subcommands: ``maxconv`` (one pairwise max-convolution), ``tree`` (full
convolution-tree inference), ``bench speed`` / ``bench accuracy`` (CSV
sweeps), and ``demo subset-sum``. List-valued options are comma-separated,
e.g. ``--p-ladder 4,32,64``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io
from .harness import (
    ACCURACY_K_LIST,
    ACCURACY_P_LIST,
    DEMO_MODES,
    SPEED_K_LIST,
    accuracy_sweep_rows,
    run_speed_bench,
    run_subset_sum_demo,
)
from .numeric import (
    DEFAULT_P_LADDER,
    DEFAULT_TAU,
    PiecewiseConfig,
    max_convolve_auto,
    max_convolve_piecewise,
)
from .pmf import naive_max_convolve
from .tree import OPERATOR_NAMES, convolution_tree, operator_from_name


def _list_of(convert):
    """argparse type: comma-separated ``convert`` values, e.g. ``4,32,64``."""
    def parse(text: str) -> list:
        return [convert(tok) for tok in text.split(",") if tok]
    parse.__name__ = f"{convert.__name__} list"
    return parse


def _piecewise_config(args) -> PiecewiseConfig:
    return PiecewiseConfig(tuple(args.p_ladder), args.tau)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convtree",
        description="Fast numerical max-convolution and convolution-tree inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ladder = argparse.ArgumentParser(add_help=False)
    ladder.add_argument("--p-ladder", type=_list_of(float),
                        default=list(DEFAULT_P_LADDER))
    ladder.add_argument("--tau", type=float, default=DEFAULT_TAU)

    p_max = sub.add_parser("maxconv", parents=[ladder],
                           help="max-convolve two PMF files")
    p_max.add_argument("--left", required=True)
    p_max.add_argument("--right", required=True)
    p_max.add_argument("--method", choices=("naive", "numeric", "auto"),
                       default="auto")
    p_max.add_argument("--out", required=True)
    p_max.set_defaults(run=_cmd_maxconv)

    p_tree = sub.add_parser("tree", parents=[ladder],
                            help="convolution-tree inference")
    p_tree.add_argument("--priors", required=True, help="ndjson, one PMF per line")
    p_tree.add_argument("--sum", required=True, help="PMF JSON of the sum evidence")
    p_tree.add_argument("--op", default="max-numeric", help=OPERATOR_NAMES)
    p_tree.add_argument("--out", required=True)
    p_tree.set_defaults(run=_cmd_tree)

    p_bench = sub.add_parser("bench", help="timing and accuracy sweeps")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_speed = bench_sub.add_parser("speed", help="naive vs numeric wall time")
    p_speed.add_argument("--k-list", type=_list_of(int), default=list(SPEED_K_LIST))
    p_speed.add_argument("--replicates", type=int, default=5)
    p_speed.add_argument("--seed", type=int, default=0)
    p_speed.add_argument("--out", required=True)
    p_speed.set_defaults(run=_cmd_bench_speed)

    p_acc = bench_sub.add_parser("accuracy", help="per-index error vs exact")
    p_acc.add_argument("--k-list", type=_list_of(int), default=list(ACCURACY_K_LIST))
    p_acc.add_argument("--p-list", type=_list_of(float), default=list(ACCURACY_P_LIST))
    p_acc.add_argument("--replicates", type=int, default=64)
    p_acc.add_argument("--seed", type=int, default=0)
    p_acc.add_argument("--out", required=True)
    p_acc.set_defaults(run=_cmd_bench_accuracy)

    p_demo = sub.add_parser("demo", help="end-to-end demonstrations")
    demo_sub = p_demo.add_subparsers(dest="demo_command", required=True)

    p_ss = demo_sub.add_parser("subset-sum", help="probabilistic subset sum")
    p_ss.add_argument("--n", type=int, default=32)
    p_ss.add_argument("--k", type=int, default=256)
    p_ss.add_argument("--seed", type=int, default=0)
    p_ss.add_argument("--modes", type=_list_of(str), default=list(DEMO_MODES))
    p_ss.add_argument("--out-dir", required=True)
    p_ss.set_defaults(run=_cmd_demo_subset_sum)

    return parser


def _cmd_maxconv(args) -> int:
    left = io.read_pmf(args.left)
    right = io.read_pmf(args.right)
    if args.method == "naive":
        result = naive_max_convolve(left, right)
    elif args.method == "numeric":
        result = max_convolve_piecewise(left, right, _piecewise_config(args))
    else:
        result = max_convolve_auto(left, right, _piecewise_config(args))
    io.write_pmf(result, args.out)
    return 0


def _cmd_tree(args) -> int:
    priors = io.read_pmf_ndjson(args.priors)
    evidence = io.read_pmf(args.sum)
    # only max-numeric reads --p-ladder/--tau
    config = _piecewise_config(args) if args.op == "max-numeric" else None
    operator = operator_from_name(args.op, config)
    result = convolution_tree(priors, evidence, operator)
    with open(args.out, "w") as fh:
        json.dump({
            "op": operator.name,
            "likelihoods": [p.to_dict() for p in result.likelihoods],
            "sum_prior": result.sum_prior.to_dict(),
        }, fh)
        fh.write("\n")
    return 0


def _cmd_bench_speed(args) -> int:
    records = run_speed_bench(args.k_list, args.replicates, args.seed)
    io.write_speed_csv(records, args.out)
    return 0


def _cmd_bench_accuracy(args) -> int:
    rows = accuracy_sweep_rows(args.k_list, args.p_list, args.replicates, args.seed)
    io.write_accuracy_csv(rows, args.out)
    return 0


def _cmd_demo_subset_sum(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    demo = run_subset_sum_demo(args.n, args.k, args.seed, args.modes)
    with open(out_dir / "report.json", "w") as fh:
        json.dump(demo.report, fh, indent=2)
        fh.write("\n")
    for mode, result in demo.results.items():
        io.write_pmf_ndjson(result.likelihoods, out_dir / f"likelihoods_{mode}.ndjson")
    return 0


def main(argv=None) -> int:
    """Run one subcommand; invalid input (a ValueError or OSError) exits
    with status 1 and a single ``convtree: ...`` line."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"convtree: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
