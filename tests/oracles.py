"""Oracles and measuring instruments shared by the test suite.

Two helpers are independent oracles that avoid the library's own solution
paths: ``brute_force_lsap_cost`` enumerates all permutations, and
``halton_point`` computes one radical inverse with a scalar digit loop and
its own primality check.

``assignment_cost`` is the one statement of an assignment's total cost.

``reduced_rank_costs`` is the rank cost matrix as whole-matrix numpy passes:
``cdist / n``, then a potential off each column, the row minima, the column
minima and the row minima again. The library builds the same matrix in row
blocks and leaves out the last pass, which subtracts exact zeros; the tests
hold it to these bits.

Three are instruments built on the library's solvers, for measuring
samples rather than for checking those solvers: ``row_ranks`` and
``rank_discrepancy`` read ranks from ``empirical_ranks``, and
``wasserstein_exact`` solves its matching with ``solve_lsap``.

``numpy_summary`` and ``numpy_gaussian_forward`` are the plain numpy
expressions for a Gaussian summary and the Gaussian transport's forward map,
evaluated in numpy's own loop order over a ``(..., n, d)`` stack. The library
runs the same arithmetic in a different loop layout; the tests hold it to
these bits, so a numpy release that reorders either sum shows up as a failure.
``row_major_layouts`` gives the layouts those tests feed both.
"""

import itertools
import math

import numpy as np
from scipy.spatial.distance import cdist

from pai import InputError
from pai.assignment import solve_lsap
from pai.halton import halton_block
from pai.ranks import empirical_ranks


def assignment_cost(costs: np.ndarray, perm) -> float:
    """Total cost of assigning column ``i`` the row ``perm[i]``: ``sum(costs[perm[i], i])``."""
    perm = np.asarray(perm, dtype=np.intp)
    return float(costs[perm, np.arange(perm.shape[0])].sum())


def reduced_rank_costs(points: np.ndarray, targets: np.ndarray, potential=None) -> np.ndarray:
    """``cdist(points, targets, "sqeuclidean") / n``, reduced by ``potential`` when one is given."""
    costs = cdist(points, targets, "sqeuclidean")
    costs /= points.shape[0]
    if potential is not None:
        costs -= potential
        costs -= costs.min(axis=1)[:, None]
        costs -= costs.min(axis=0)
        costs -= costs.min(axis=1)[:, None]
    return costs


def numpy_summary(sample: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and (n-1)-denominator covariance of ``sample`` over its last two axes."""
    n = sample.shape[-2]
    mean = sample.mean(axis=-2)
    centered = sample - mean[..., None, :]
    return mean, np.swapaxes(centered, -1, -2) @ centered / (n - 1)


def numpy_gaussian_forward(mean: np.ndarray, chol: np.ndarray, latent: np.ndarray) -> np.ndarray:
    """``mean + L v`` for each row ``v`` of ``latent``."""
    return mean + latent @ chol.T


def row_major_layouts(rng: np.random.Generator, n: int, d: int) -> dict:
    """``(..., n, d)`` samples whose rows each lie in one piece of memory, by name.

    A C-ordered stack, the two strided halves of a pooled stack that the
    coherence statistic summarises, a stack of every other row of a larger
    one, one matrix and, for ``d = 1``, a 1-D column.
    """
    stack = rng.standard_normal((4, n, d)) * 3.0 + rng.standard_normal(d)
    pooled = rng.standard_normal((4, 2 * n + 1, d)) - 2.0
    layouts = {
        "stack": stack,
        "first half": pooled[:, :n],
        "second half": pooled[:, n:],
        "every other row": (rng.standard_normal((4, 2 * n, d)) + 5.0)[:, ::2],
        "matrix": stack[0],
    }
    if d == 1:
        layouts["column"] = stack[0, :, 0]
    return layouts


def brute_force_lsap_cost(costs: np.ndarray) -> float:
    """Minimum assignment cost by full enumeration (n <= 8)."""
    n = costs.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        total = assignment_cost(costs, perm)
        if total < best:
            best = float(total)
    return best


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    k = 2
    while k * k <= m:
        if m % k == 0:
            return False
        k += 1
    return True


def halton_point(index: int, base: int) -> float:
    """Radical inverse of ``index`` in a prime ``base``.

    The digits of ``index`` in the given base are mirrored around the radix
    point: index 3 in base 2 (binary ``11``) becomes ``0.11`` = 0.75. Index 0
    would map to 0.0, outside the open interval, and is rejected.
    """
    index = int(index)
    base = int(base)
    if index < 1:
        raise InputError("Halton index must be >= 1 (0 maps outside (0,1))")
    if not _is_prime(base):
        raise InputError(f"Halton base must be a prime >= 2, got {base}")
    value = 0.0
    f = 1.0
    i = index
    while i > 0:
        f /= base
        value += f * (i % base)
        i //= base
    return value


def row_ranks(sample: np.ndarray) -> np.ndarray:
    """Halton rank of each row of the 2-D ``sample``, in row order."""
    perm = empirical_ranks(sample)
    ranks = np.empty(np.shape(sample))
    ranks[perm] = halton_block(*ranks.shape)
    return ranks


def rank_discrepancy(a: np.ndarray, b: np.ndarray) -> float:
    """Root-mean-square distance between row-wise ranks of two samples.

    Both samples are ranked independently against the same Halton targets;
    rows are paired by index. Samples whose rows induce the same matching
    (in particular identical samples) have discrepancy exactly 0. A rank map
    from the cache equals a fresh solve, so the result does not depend on
    what was ranked before.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError(f"shape mismatch: {a.shape} != {b.shape}")
    diff = row_ranks(a) - row_ranks(b)
    return float(np.sqrt(np.mean(np.einsum("ij,ij->i", diff, diff))))


def wasserstein_exact(a: np.ndarray, b: np.ndarray, order: int = 2) -> float:
    """Exact empirical Wasserstein distance between equal-size samples.

    Order 2 is the square root of the minimal average squared distance over
    perfect matchings; order 1 is the minimal average distance. Balanced
    matching only: the two samples must have the same number of rows.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise InputError("samples must be 2-D with matching dimension")
    if a.shape[0] != b.shape[0]:
        raise InputError(
            f"balanced matching needs equal sample sizes, got {a.shape[0]} and {b.shape[0]}"
        )
    if order not in (1, 2):
        raise InputError(f"order must be 1 or 2, got {order}")
    n = a.shape[0]
    if n == 0:
        raise InputError("samples must be non-empty")
    metric = "sqeuclidean" if order == 2 else "euclidean"
    costs = cdist(a, b, metric=metric) / n
    total = assignment_cost(costs, solve_lsap(costs))
    return math.sqrt(total) if order == 2 else total
