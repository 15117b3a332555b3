"""Fast numerical max-convolution and probabilistic convolution trees.

Estimates the max-convolution of nonnegative vectors in O(k log k) by
convolving p-th powers via FFT and taking the 1/p root, with normalization
against underflow and a per-index exponent ladder; plugs that (or exact
operators) into a convolution tree for sum-product and max-product inference
on sums of discrete random variables.
"""

from .fftconv import fast_convolve, fast_convolve_many, fft_length, padded_length
from .harness import (
    BenchRecord,
    DemoOutput,
    SubsetSumInstance,
    accuracy_sweep_rows,
    generate_subset_sum_instance,
    generate_uniform_pair,
    run_speed_bench,
    run_subset_sum_demo,
)
from .numeric import (
    DEFAULT_P_LADDER,
    DEFAULT_TAU,
    PiecewiseConfig,
    max_convolve_auto,
    max_convolve_normalized,
    max_convolve_piecewise,
    p_norm_convolve,
    pair_counts,
)
from .pmf import (
    DegenerateDistributionError,
    Pmf,
    delta,
    naive_convolve,
    naive_max_convolve,
    negate,
    normalize_max,
    normalize_sum,
    relative_absolute_error,
)
from .tree import (
    ConvolutionOperator,
    InconsistentEvidenceError,
    TreeResult,
    convolution_tree,
    naive_max_operator,
    narrow_to_support,
    numeric_max_operator,
    operator_from_name,
    p_norm_operator,
    standard_operator,
    tree_cost_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "ConvolutionOperator",
    "DEFAULT_P_LADDER",
    "DEFAULT_TAU",
    "DegenerateDistributionError",
    "DemoOutput",
    "InconsistentEvidenceError",
    "PiecewiseConfig",
    "Pmf",
    "SubsetSumInstance",
    "TreeResult",
    "accuracy_sweep_rows",
    "convolution_tree",
    "delta",
    "fast_convolve",
    "fast_convolve_many",
    "fft_length",
    "generate_subset_sum_instance",
    "generate_uniform_pair",
    "max_convolve_auto",
    "max_convolve_normalized",
    "max_convolve_piecewise",
    "naive_convolve",
    "naive_max_convolve",
    "naive_max_operator",
    "narrow_to_support",
    "negate",
    "normalize_max",
    "normalize_sum",
    "numeric_max_operator",
    "operator_from_name",
    "p_norm_convolve",
    "p_norm_operator",
    "padded_length",
    "pair_counts",
    "relative_absolute_error",
    "run_speed_bench",
    "run_subset_sum_demo",
    "standard_operator",
    "tree_cost_estimate",
]
