"""Empirical multivariate ranks via optimal matching to Halton targets.

The empirical rank of a sample row is the Halton point it is matched to by
the minimum-cost assignment between the sample and the first ``n`` Halton
points - the discrete Monge solution. ``empirical_ranks`` returns that
matching as the permutation :func:`~pai.assignment.solve_lsap` returns
(its cost is not summed), and ``match_ranks`` composes two such permutations into the
permutation ``r`` that aligns the ranks of a base sample with those of a
latent sample. Both take their samples through
:func:`pai.dataio.as_matrix`.

In one dimension squared cost on a line is solved exactly by the monotone
(Monge) pairing, so the map pairs the stable sort order of the sample with
the sort order of the Halton points and no assignment problem is solved.
Tied values keep their row order; any resolution of a tie is optimal. In
higher dimensions the map is the exact LSAP solution on the ``cdist`` cost
matrix.

That solve is warm-started. The samples being ranked are standard normal
latents, and the optimal map from N(0, I) to the uniform cube is ``Phi``
applied coordinate by coordinate, whose Kantorovich potential on the target
side is ``v(h) = |h|^2 + 2 * sum_k pdf(ndtri(h_k))`` in closed form. The cost
matrix is reduced in place: ``v / n`` is subtracted from every column, then
the row minima, the column minima and the row minima again. Subtracting a
constant from a row or a column moves the total of every permutation by the
same amount, so the optimal permutations are those of the original costs,
but the solver then starts next to the optimal dual and its augmenting paths
stay short. Every reduced entry stays non-negative exactly, as the solver
requires, and the permutation is that of the plain solve. A sample with
repeated rows (equal as floats) has several optimal permutations, and a
different dual start can break the tie differently, so such a sample gets
the plain solve on the unreduced costs.

Solved maps are memoised by the bytes of the sample, so rank-matched
synthesis solves the latent map of an inference sample once rather than
once per replicate. Equal bytes give the same deterministic solve, so a
cached map is exactly the map a fresh solve would return.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .assignment import HARD_SIZE_LIMIT, rank_cost_matrix, solve_lsap
from .dataio import as_matrix
from .errors import InputError
from .halton import halton_block

# Enough for the latent and base maps of a few consecutive replicates.
RANK_MAP_CACHE_SIZE = 8


@lru_cache(maxsize=64)
def _target_potential(n: int, d: int) -> np.ndarray:
    """Read-only ``v / n`` over the rows ``h`` of ``halton_block(n, d)``.

    ``v(h) = |h|^2 + 2 * sum_k pdf(ndtri(h_k))`` is the target-side potential
    of the squared-cost transport from N(0, I) to the uniform cube. The block
    starts at index 1, so every ``ndtri`` is finite.
    """
    from scipy.special import ndtri

    targets = halton_block(n, d)
    z = ndtri(targets)
    potential = (targets**2).sum(axis=1) + 2 * np.exp(-0.5 * z * z).sum(axis=1) / np.sqrt(2 * np.pi)
    potential /= n
    potential.setflags(write=False)
    return potential


def _has_repeated_rows(sample: np.ndarray) -> bool:
    """Whether two rows of ``sample`` are equal as floats (``-0.0 == 0.0``)."""
    ordered = sample[np.lexsort(sample.T)]
    return bool((ordered[1:] == ordered[:-1]).all(axis=1).any())


def _reduce_costs(costs: np.ndarray, potential: np.ndarray) -> None:
    """Shift the rows and columns of ``costs`` in place towards the optimal dual.

    Each step subtracts a constant per row or per column, which moves every
    permutation's total alike. Subtracting a row's or column's own minimum
    leaves each entry exactly non-negative in floating point.
    """
    costs -= potential
    costs -= costs.min(axis=1)[:, None]
    costs -= costs.min(axis=0)
    costs -= costs.min(axis=1)[:, None]


@lru_cache(maxsize=RANK_MAP_CACHE_SIZE)
def _solve_rank_map(key: bytes, n: int, d: int) -> np.ndarray:
    """Read-only rank-map permutation of the sample whose float64 bytes are ``key``."""
    sample = np.frombuffer(key, dtype=np.float64).reshape(n, d)
    targets = halton_block(n, d)
    if d == 1:
        perm = np.empty(n, dtype=np.intp)
        perm[np.argsort(targets[:, 0])] = np.argsort(sample[:, 0], kind="stable")
    else:
        costs = rank_cost_matrix(sample, targets)
        if not _has_repeated_rows(sample):
            _reduce_costs(costs, _target_potential(n, d))
        perm = solve_lsap(costs)
    perm.setflags(write=False)
    return perm


def empirical_ranks(sample: np.ndarray) -> np.ndarray:
    """Solve the discrete Monge problem from ``sample`` to Halton targets.

    Returns the permutation ``perm``, a copy the caller owns: ``perm[t]`` is
    the sample row assigned to target ``t``, the ``t``-th row of
    ``halton_block(n, d)``, so that row's empirical rank is that target.
    """
    sample = as_matrix(sample, "sample")
    n, d = sample.shape
    if n > HARD_SIZE_LIMIT:
        raise InputError(
            f"rank map size {n} exceeds the hard limit {HARD_SIZE_LIMIT}"
        )
    key = np.ascontiguousarray(sample).tobytes()
    return _solve_rank_map(key, n, d).copy()


def match_ranks(latent: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Permutation ``r`` aligning base ranks with latent ranks.

    After reindexing, ``base[r[i]]`` is matched to the same Halton target as
    ``latent[i]``, so the two share ranks exactly.
    """
    latent = as_matrix(latent, "latent")
    base = as_matrix(base, "base")
    if latent.shape != base.shape:
        raise InputError(
            f"latent shape {latent.shape} != base shape {base.shape}"
        )
    perm_latent = empirical_ranks(latent)
    perm_base = empirical_ranks(base)
    inv_latent = np.empty_like(perm_latent)
    inv_latent[perm_latent] = np.arange(perm_latent.shape[0])
    return perm_base[inv_latent]
