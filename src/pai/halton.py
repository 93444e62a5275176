"""Halton low-discrepancy sequences.

Halton points serve as the canonical multivariate rank targets: the rank of
a sample row is the Halton point assigned to it by a minimum-cost matching
(see :mod:`pai.ranks`). The sequence here is the plain, unscrambled Halton
sequence over the first ``d`` primes, started at index 1 so every point lies
strictly inside the open unit hypercube. Determinism matters more than
uniformity refinements for this role, so no scrambling is applied; dimensions
above 20 are rejected because unscrambled Halton coordinates for large primes
are badly correlated.

Only whole blocks are built: one vectorised digit loop per tabulated prime,
cached by shape. The test suite checks every entry bit for bit against an
independent scalar radical inverse over independently computed primes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .dataio import argument, integer
from .errors import InputError

_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
)

MAX_DIM = len(_PRIMES)


def _radical_inverses(indices: np.ndarray, base: int) -> np.ndarray:
    """Radical inverse of every entry of ``indices`` in one prime base.

    The digits of an index in ``base`` are mirrored around the radix point:
    index 3 in base 2 (binary ``11``) becomes ``0.11`` = 0.75. The float
    operations are those of the scalar digit loop ``halton_point`` in the
    test suite's oracles, in the same order, so each entry is bit-identical
    to the scalar result. An entry whose digits are used up only gains
    ``f * 0 == 0.0`` per extra step.
    """
    values = np.zeros(indices.shape[0], dtype=np.float64)
    f = 1.0
    i = indices.copy()
    while i.any():
        f /= base
        values += f * (i % base)
        i //= base
    return values


@lru_cache(maxsize=64)
def _cached_block(n: int, d: int) -> np.ndarray:
    indices = np.arange(1, n + 1, dtype=np.int64)
    out = np.empty((n, d), dtype=np.float64)
    for j in range(d):
        out[:, j] = _radical_inverses(indices, _PRIMES[j])
    out.setflags(write=False)
    return out


def _check_shape(n: int, d: int) -> tuple[int, int]:
    """``(n, d)`` as ints, or the ``InputError`` that ``halton_block(n, d)`` raises."""
    n = argument(n, "Halton block size n", integer, least=1)
    d = argument(d, "Halton dimension d", integer, least=1)
    if d > MAX_DIM:
        raise InputError(
            f"unsupported dimension {d}: only the first {MAX_DIM} primes are "
            "tabulated and unscrambled Halton degrades beyond that"
        )
    return n, d


def halton_block(n: int, d: int) -> np.ndarray:
    """First ``n`` points of the ``d``-dimensional Halton sequence.

    Row ``i`` (0-based) holds the radical inverses of index ``i + 1`` in the
    first ``d`` primes. Rows are pairwise distinct and the empirical measure
    converges weakly to the uniform law on the unit cube as ``n`` grows.
    """
    return _cached_block(*_check_shape(n, d)).copy()
