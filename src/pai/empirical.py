"""Empirical null distributions and Monte Carlo p-values.

An :class:`EmpiricalDistribution` is the sorted vector of statistic values
computed on independent synthetic replicates; it reads its draws as one
column through :func:`pai.dataio.as_matrix`. P-values come in two flavours:
``RAW`` reproduces the plain empirical-CDF rules (and can return 0 when the
observed statistic is beyond every draw), while ``PLUS_ONE`` - the default
everywhere - counts the observed statistic as one extra draw, which keeps
p-values in ``[1/(D+1), 1]`` and gives exact finite-sample level control.
Each correction gives a lower-tail and an upper-tail value, and the
sidedness picks one of them or the two-sided ``min(1, 2 min(lower, upper))``.
The enums are the parsers of their arguments: :func:`p_value` and every
procedure read a ``Sidedness`` or ``Correction`` (or its string value, such
as ``"upper"``) through :func:`pai.dataio.argument`, as report files do.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dataio import argument, as_matrix, exactly, number, numbers
from .errors import InputError


class Sidedness(enum.Enum):
    TWO_SIDED = "two"
    UPPER_TAIL = "upper"
    LOWER_TAIL = "lower"


class Correction(enum.Enum):
    RAW = "raw"
    PLUS_ONE = "plus-one"


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted Monte Carlo draws of a scalar statistic."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = as_matrix(self.values, "draws", 1)[:, 0]
        if values.shape[0] < 2:
            raise InputError("an empirical distribution needs at least 2 draws")
        values = np.sort(values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return int(self.values.shape[0])

    def quantile(self, q) -> np.ndarray:
        """Linear-interpolated order-statistic quantile(s) at the level or levels ``q``, each in [0, 1]."""
        return np.quantile(self.values, argument(q, "quantile level q", _unit_levels))


def _unit_levels(raw) -> np.ndarray:
    """A number, or nested lists of numbers, under the rule of :func:`pai.dataio.numbers`, each in [0, 1]."""
    levels = numbers(raw, (None,) * np.ndim(raw))
    if not ((levels >= 0.0) & (levels <= 1.0)).all():
        raise ValueError(f"expected levels in [0, 1], got {raw!r}")
    return levels


def p_value(
    dist: EmpiricalDistribution,
    statistic: float,
    sidedness: Sidedness = Sidedness.TWO_SIDED,
    correction: Correction = Correction.PLUS_ONE,
) -> float:
    """P-value of ``statistic`` against the empirical null.

    RAW mode: lower tail ``F(T)``, upper tail ``1 - F(T)``, with ``F`` the
    draws' empirical CDF. PLUS_ONE mode counts the observed statistic as an
    extra draw in each tail. The two-sided value is
    ``min(1, 2 min(lower, upper))`` in either mode.
    """
    dist = argument(dist, "dist", exactly(EmpiricalDistribution))
    statistic = argument(statistic, "test statistic", number)
    sidedness = argument(sidedness, "sidedness", Sidedness)
    correction = argument(correction, "correction", Correction)
    values = dist.values
    D = dist.size
    n_le = int(np.searchsorted(values, statistic, side="right"))
    if correction is Correction.RAW:
        lower = n_le / D
        upper = 1.0 - lower
    else:
        n_ge = D - int(np.searchsorted(values, statistic, side="left"))
        lower, upper = (1 + n_le) / (D + 1), (1 + n_ge) / (D + 1)
    if sidedness is Sidedness.TWO_SIDED:
        return min(1.0, 2.0 * min(lower, upper))
    return lower if sidedness is Sidedness.LOWER_TAIL else upper
