"""SHA-256 digests of the outputs of fixed solves and pairs, one per line.

A change that claims to keep every output bit for bit prints the same
lines as its parent. Run it at both commits and compare:

    PYTHONPATH=src python tests/digests.py

Each digest covers the output values' bytes and offsets: for a tree, every
likelihood and the sum prior of ``convolution_tree`` on
``generate_subset_sum_instance(n, k, seed)``; for a pair, the one-pair
result on two k = 8192 PMFs, uniform (``generate_uniform_pair``) or
peaked (discretized Gaussians of sigma 2 to 8 at random means). The first
line names the numpy version, since the FFT's bits may differ between
versions. pytest does not collect this file.
"""

import hashlib

import numpy as np

import convtree as ct

TREES = [(op, shape, seed)
         for op in ("sum", "max-numeric", "pnorm:1", "pnorm:64")
         for shape, seed in (((32, 256), 0), ((32, 256), 1), ((1024, 64), 0))]
TREES += [(op, (64, 4096), 0) for op in ("sum", "max-numeric")]
PAIR_K = 8192
PAIRS = {
    "fast_convolve": ct.fast_convolve,
    "max_convolve_piecewise": ct.max_convolve_piecewise,
    "p_norm_convolve(p=1)": lambda left, right: ct.p_norm_convolve(left, right, 1.0),
    "p_norm_convolve(p=64)": lambda left, right: ct.p_norm_convolve(left, right, 64.0),
}


def peaked_pair(k: int, seed: int) -> tuple:
    """Two discretized Gaussians on k bins, each of a random mean and a
    sigma from 2 to 8."""
    rng = np.random.default_rng(seed)
    bins = np.arange(k)
    return tuple(ct.Pmf(np.exp(-0.5 * ((bins - rng.uniform(0.0, k - 1.0))
                                       / rng.uniform(2.0, 8.0)) ** 2))
                 for _ in range(2))


def digest(pmfs) -> str:
    sha = hashlib.sha256()
    for pmf in pmfs:
        sha.update(np.int64(pmf.offset).tobytes())
        sha.update(np.ascontiguousarray(pmf.values, dtype=float).tobytes())
    return sha.hexdigest()


def main() -> None:
    print(f"numpy {np.__version__}")
    for op, (n, k), seed in TREES:
        instance = ct.generate_subset_sum_instance(n, k, seed)
        result = ct.convolution_tree(instance.priors, instance.sum_likelihood,
                                     ct.operator_from_name(op))
        print(f"tree {op} n={n} k={k} seed={seed} "
              f"{digest([*result.likelihoods, result.sum_prior])}")
    pairs = {"uniform": ct.generate_uniform_pair(PAIR_K, 0), "peaked": peaked_pair(PAIR_K, 0)}
    for name, fn in PAIRS.items():
        for kind, (left, right) in pairs.items():
            print(f"pair {name} {kind} k={PAIR_K} {digest([fn(left, right)])}")


if __name__ == "__main__":
    main()
