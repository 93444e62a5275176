"""Distribution-preserving perturbation of standard Gaussian base samples.

A base sample is jittered with scaled Gaussian noise and then pushed back to
the standard Gaussian law by the linear rescaling
``W(x) = x / sqrt(1 + tau^2)``, so the perturbed rows still follow the base
distribution exactly while individual rows move. Every transport family in
:mod:`pai.generators` has a standard normal latent, so this is the only base
law the package needs. Because ``W`` is strictly increasing in every
coordinate, the perturbation approximately preserves multivariate ranks,
degrading only with the noise size ``tau``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class PerturbationSpec:
    """Noise size of a perturbation step.

    ``tau = 0`` makes the perturbation the identity map.
    """

    tau: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.tau) or self.tau < 0:
            raise InputError(f"perturbation size tau must be finite and >= 0, got {self.tau}")


def perturb(
    base_rows: np.ndarray,
    spec: PerturbationSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Apply ``V_i = W(U_i + tau * eps_i)`` row by row.

    ``base_rows`` must already follow the standard Gaussian law (and already
    carry any rank-matching permutation); the output follows the same law
    exactly. At ``tau = 0`` the input is returned unchanged and no noise is
    consumed from ``rng``.
    """
    rows = np.asarray(base_rows, dtype=np.float64)
    if rows.ndim != 2:
        raise InputError("base_rows must be a 2-D matrix")
    if not np.all(np.isfinite(rows)):
        raise InputError("base_rows contain non-finite entries")
    if spec.tau == 0.0:
        return rows.copy()
    noisy = rows + spec.tau * rng.standard_normal(rows.shape)
    return noisy / math.sqrt(1.0 + spec.tau**2)
