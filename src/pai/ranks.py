"""Empirical multivariate ranks via optimal matching to Halton targets.

The empirical rank of a sample row is the Halton point it is matched to by
the minimum-cost assignment between the sample and the first ``n`` Halton
points - the discrete Monge solution. ``match_ranks`` composes two such
matchings into the permutation ``r`` that aligns the ranks of a base sample
with those of a latent sample.

In one dimension squared cost on a line is solved exactly by the monotone
(Monge) pairing, so the map pairs the stable sort order of the sample with
the sort order of the Halton points and no assignment problem is solved.
Tied values keep their row order; any resolution of a tie is optimal. In
higher dimensions the map is the exact LSAP solution on the ``cdist`` cost
matrix.

Solved maps are memoised by the bytes of the sample, so rank-matched
synthesis solves the latent map of an inference sample once rather than
once per replicate. Equal bytes give the same deterministic solve, so a
cached map is exactly the map a fresh solve would return.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .assignment import HARD_SIZE_LIMIT, Assignment, rank_cost_matrix, solve_lsap
from .errors import InputError
from .halton import halton_block

# Enough for the latent and base maps of a few consecutive replicates.
RANK_MAP_CACHE_SIZE = 8


def _validate_sample(sample: np.ndarray, name: str = "sample") -> np.ndarray:
    sample = np.asarray(sample, dtype=np.float64)
    if sample.ndim == 1:
        sample = sample[:, None]
    if sample.ndim != 2 or sample.shape[0] < 1:
        raise InputError(f"{name} must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(sample)):
        raise InputError(f"{name} contains non-finite entries")
    return sample


@lru_cache(maxsize=RANK_MAP_CACHE_SIZE)
def _solve_rank_map(key: bytes, n: int, d: int) -> tuple[np.ndarray, float]:
    """``(perm, total_cost)`` of the sample whose float64 bytes are ``key``."""
    sample = np.frombuffer(key, dtype=np.float64).reshape(n, d)
    targets = halton_block(n, d)
    if d == 1:
        perm = np.empty(n, dtype=np.intp)
        perm[np.argsort(targets[:, 0])] = np.argsort(sample[:, 0], kind="stable")
        total = float(((sample[perm, 0] - targets[:, 0]) ** 2 / n).sum())
    else:
        assignment = solve_lsap(rank_cost_matrix(sample, targets))
        perm, total = assignment.perm, assignment.total_cost
    perm.setflags(write=False)
    return perm, total


def empirical_ranks(sample: np.ndarray) -> Assignment:
    """Solve the discrete Monge problem from ``sample`` to Halton targets.

    ``perm[t]`` is the sample row assigned to target ``t``, the ``t``-th row
    of ``halton_block(n, d)``, so that row's empirical rank is that target;
    ``total_cost`` is the achieved average squared distance.
    """
    sample = _validate_sample(sample)
    n, d = sample.shape
    if n > HARD_SIZE_LIMIT:
        raise InputError(
            f"rank map size {n} exceeds the hard limit {HARD_SIZE_LIMIT}"
        )
    key = np.ascontiguousarray(sample).tobytes()
    perm, total = _solve_rank_map(key, n, d)
    return Assignment(perm=perm.copy(), total_cost=total)


def match_ranks(latent: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Permutation ``r`` aligning base ranks with latent ranks.

    After reindexing, ``base[r[i]]`` is matched to the same Halton target as
    ``latent[i]``, so the two share ranks exactly.
    """
    latent = _validate_sample(latent, "latent")
    base = _validate_sample(base, "base")
    if latent.shape != base.shape:
        raise InputError(
            f"latent shape {latent.shape} != base shape {base.shape}"
        )
    perm_latent = empirical_ranks(latent).perm
    perm_base = empirical_ranks(base).perm
    inv_latent = np.empty_like(perm_latent)
    inv_latent[perm_latent] = np.arange(perm_latent.shape[0])
    return perm_base[inv_latent]
