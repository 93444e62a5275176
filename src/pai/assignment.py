"""Exact balanced linear sum assignment.

Cost matrices are plain square ``numpy`` arrays of non-negative finite reals;
``solve_lsap`` returns the minimum-cost perfect matching as a column-to-row
permutation (no caller reads its total cost, so none is summed). The solver
is scipy's shortest-augmenting-path implementation (Jonker-Volgenant family,
worst case O(n^3)); this module owns the cost-matrix check and the
permutation orientation used throughout the package, and no size guard: the
``n x n`` cost matrix is allocated by :func:`pai.dataio.allocate` under the
package's one size budget. ``rank_cost_matrix`` takes its points and targets
through :func:`pai.dataio.as_matrix`, the package's one matrix rule, and
adds only its own: equal shapes. Tie-breaking among equally optimal permutations
follows the solver's deterministic scan order and is not part of the
contract - only the minimality of the total cost is.

The solver starts from zero dual variables. A caller that knows a near-optimal
dual warm-starts it through the costs alone: subtracting a constant from a
row or a column moves the total of every permutation by the same amount, so
the reduced matrix has the same optimal permutations, and augmenting paths
from a near-optimal dual are short. The start can change which of several
equally optimal permutations is returned, so a caller that needs the
tie-break of the plain solve passes the unreduced costs. :mod:`pai.ranks`
passes ``rank_cost_matrix`` the Gaussian-to-cube transport potential, and
keeps the unreduced costs for samples with repeated rows.

``rank_cost_matrix`` builds and reduces the matrix in one sweep over the row
blocks of :func:`~pai.dataio.chunk_starts` (``n`` values a row, so a block
fits in cache), two blocks in flight: the odd blocks on the
:func:`~pai.dataio.two_threads` worker, the even ones on the calling thread.
Each block gets its squared distances over ``n``, the potential and its own
row minima, while each thread keeps the minima of the columns it has seen;
the two minima merge exactly and a second two-thread sweep subtracts them.
Every step is elementwise or an exact minimum, so the matrix has the bits of
the same passes over the whole matrix. A row whose squared distances would
overflow float64 is a :class:`~pai.errors.NumericError`, found from the
inputs before the matrix is allocated.
"""

from __future__ import annotations

import numpy as np

from .dataio import allocate, as_matrix, chunk_starts, two_threads
from .errors import InputError, NumericError


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
    row_ind, col_ind = linear_sum_assignment(costs)
    perm = np.empty(n, dtype=np.intp)
    perm[col_ind] = row_ind
    return perm


def _cost_rows(
    points: np.ndarray, targets: np.ndarray, potential: np.ndarray | None, costs: np.ndarray, blocks: list[slice]
) -> np.ndarray:
    """Fill ``costs[block]`` block by block; return the column minima of the blocks.

    Each block gets its squared distances over ``n`` and, with a
    ``potential``, that potential off each column and then each row's own
    minimum; without one the minima stay ``+inf``.
    """
    from scipy.spatial.distance import cdist

    n = costs.shape[0]
    column_min = np.full(n, np.inf)
    for block in blocks:
        rows = costs[block]
        cdist(points[block], targets, "sqeuclidean", out=rows)
        rows /= n
        if potential is not None:
            rows -= potential
            rows -= rows.min(axis=1)[:, None]
            np.minimum(column_min, rows.min(axis=0), out=column_min)
    return column_min


def _shift_columns(costs: np.ndarray, column_min: np.ndarray, blocks: list[slice]) -> None:
    """Subtract ``column_min`` from the rows of each block of ``costs``."""
    for block in blocks:
        costs[block] -= column_min


def rank_cost_matrix(points: np.ndarray, targets: np.ndarray, potential: np.ndarray | None = None) -> np.ndarray:
    """Cost matrix ``C[i, j] = ||points_i - targets_j||^2 / n``, reduced by ``potential`` when one is given.

    This is the matching cost between sample rows and their candidate rank
    targets; dividing by ``n`` makes the optimal total an average squared
    distance. A target-side ``potential`` (one value per target) is
    subtracted from each column, then each row's minimum, then each column's
    minimum, so every entry stays exactly non-negative and the optimal
    permutations are those of the plain costs. The sweep is the module
    docstring's; the only ``n x n`` allocation is the result itself.
    """
    points = as_matrix(points, "points")
    targets = as_matrix(targets, "targets")
    if points.shape != targets.shape:
        raise InputError(
            f"points shape {points.shape} != targets shape {targets.shape}"
        )
    n = points.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    # Each squared distance of row i is at most sum_k (|p_ik| + max_j |t_jk|)^2.
    with np.errstate(over="ignore"):
        reach = np.square(np.abs(points) + np.abs(targets).max(axis=0)).sum(axis=1)
    far = np.flatnonzero(np.isinf(reach))
    if far.size:
        raise NumericError(
            f"the squared distances from sample row {far[0]} ({points[far[0]].tolist()}) "
            "to the rank targets overflow float64"
        )
    costs = allocate((n, n))
    starts = chunk_starts(n, n)
    blocks = [slice(start, start + starts.step) for start in starts]
    odd, even = blocks[1::2], blocks[::2]
    minima = two_threads(_cost_rows, (points, targets, potential, costs, odd), (points, targets, potential, costs, even))
    if potential is not None:
        column_min = np.minimum(*minima)
        two_threads(_shift_columns, (costs, column_min, odd), (costs, column_min, even))
    return costs
