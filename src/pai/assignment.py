"""Exact balanced linear sum assignment.

Cost matrices are plain square ``numpy`` arrays of non-negative finite reals;
``solve_lsap`` returns the minimum-cost perfect matching as a column-to-row
permutation (no caller reads its total cost, so none is summed). The solver
is scipy's shortest-augmenting-path implementation (Jonker-Volgenant family,
worst case O(n^3)); this module owns the cost-matrix check, the permutation
orientation used throughout the package, and desk-scale size guards. ``rank_cost_matrix`` takes its points and
targets through :func:`pai.dataio.as_matrix`, the package's one matrix rule,
and adds only its own: equal shapes. Tie-breaking among equally optimal
permutations follows the solver's deterministic scan order and is not part of
the contract - only the minimality of the total cost is.

The solver starts from zero dual variables. A caller that knows a near-optimal
dual warm-starts it through the costs alone: subtracting a constant from a
row or a column moves the total of every permutation by the same amount, so
the reduced matrix has the same optimal permutations, and augmenting paths
from a near-optimal dual are short. The start can change which of several
equally optimal permutations is returned, so a caller that needs the
tie-break of the plain solve passes the unreduced costs. :mod:`pai.ranks`
reduces its rank-map costs by the Gaussian-to-cube transport potential, and
keeps the unreduced costs for samples with repeated rows.
"""

from __future__ import annotations

import warnings

import numpy as np

from .dataio import as_matrix
from .errors import InputError

# Above the soft limit an n^3 solve is minutes of work; above the hard limit
# it is no longer a desk-scale computation at all.
SOFT_SIZE_LIMIT = 4096
HARD_SIZE_LIMIT = 16384


def _validate_costs(costs: np.ndarray) -> np.ndarray:
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2 or costs.shape[0] != costs.shape[1]:
        raise InputError(f"cost matrix must be square 2-D, got shape {costs.shape}")
    if costs.size:
        # Two reductions and no n x n temporary: NaN propagates through both,
        # and an infinite entry shows in one of them.
        low, high = costs.min(), costs.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            raise InputError("cost matrix contains NaN or infinite entries")
        if low < 0:
            raise InputError("cost matrix entries must be non-negative")
    return costs


def solve_lsap(costs: np.ndarray) -> np.ndarray:
    """Minimum-cost perfect matching of a square cost matrix.

    Returns the permutation ``perm`` that assigns column ``i`` the row
    ``perm[i]``, with ``sum(costs[perm[i], i])`` minimal over all
    permutations. An empty matrix yields the empty permutation.
    """
    from scipy.optimize import linear_sum_assignment

    costs = _validate_costs(costs)
    n = costs.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.intp)
    if n > HARD_SIZE_LIMIT:
        raise InputError(
            f"assignment size {n} exceeds the hard limit {HARD_SIZE_LIMIT}"
        )
    if n > SOFT_SIZE_LIMIT:
        warnings.warn(
            f"assignment size {n} exceeds {SOFT_SIZE_LIMIT}; an O(n^3) solve "
            "at this scale may take a long time",
            RuntimeWarning,
            stacklevel=2,
        )
    row_ind, col_ind = linear_sum_assignment(costs)
    perm = np.empty(n, dtype=np.intp)
    perm[col_ind] = row_ind
    return perm


def rank_cost_matrix(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Cost matrix ``C[i, j] = ||points_i - targets_j||^2 / n``.

    This is the matching cost between sample rows and their candidate rank
    targets; dividing by ``n`` makes the optimal total an average squared
    distance. The only ``n x n`` allocation is the result itself.
    """
    from scipy.spatial.distance import cdist

    points = as_matrix(points, "points")
    targets = as_matrix(targets, "targets")
    if points.shape != targets.shape:
        raise InputError(
            f"points shape {points.shape} != targets shape {targets.shape}"
        )
    n = points.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    costs = cdist(points, targets, "sqeuclidean")
    costs /= n
    return costs
