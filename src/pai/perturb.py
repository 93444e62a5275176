"""Distribution-preserving perturbation of standard Gaussian base samples.

A base sample is jittered with scaled Gaussian noise and then pushed back to
the standard Gaussian law by the linear rescaling
``W(x) = x / sqrt(1 + tau^2)``, so the perturbed rows still follow the base
distribution exactly while individual rows move. Every transport family in
:mod:`pai.generators` has a standard normal latent, so this is the only base
law the package needs. Because ``W`` is strictly increasing in every
coordinate, the perturbation approximately preserves multivariate ranks,
degrading only with the noise size ``tau``.

:func:`perturb` draws nothing: the caller passes the noise it drew from the
sample's stream (right after the base, in the layout
:func:`pai.generators.latent_block` writes), and ``None`` at ``tau = 0``,
where a stream yields no noise. So a whole ``(B, n, dim)`` chunk of Monte
Carlo replicates is perturbed in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import argument, as_matrix, exactly, scalar
from .errors import InputError


@dataclass(frozen=True)
class PerturbationSpec:
    """Noise size of a perturbation step.

    ``tau = 0`` makes the perturbation the identity map.
    """

    tau: float

    def __post_init__(self) -> None:
        tau = argument(self.tau, "perturbation size tau", scalar, least=0.0)
        # perturb divides by sqrt(1 + tau**2), which a huge finite tau overflows
        # (squared as a float: a float product overflows to inf, not an error).
        if not math.isfinite(float(tau) * tau):
            raise InputError(f"perturbation size tau is too large: tau**2 overflows at {tau}")
        object.__setattr__(self, "tau", tau)


def perturb(
    base_rows: np.ndarray,
    spec: PerturbationSpec,
    noise: np.ndarray | None,
) -> np.ndarray:
    """Apply ``V_i = W(U_i + tau * eps_i)`` row by row.

    ``base_rows`` is an ``(n, dim)`` matrix or a ``(..., n, dim)`` stack of
    them; it must already follow the standard Gaussian law (and already carry
    any rank-matching permutation), and the output follows the same law
    exactly. ``noise`` holds the already-drawn standard normal ``eps``, of the
    same shape, and must be ``None`` at ``tau = 0``, where the input is
    returned unchanged (as a copy). A stack maps each slice bit for bit as a
    call on that slice alone.
    """
    spec = argument(spec, "spec", exactly(PerturbationSpec))
    rows = as_matrix(base_rows, "base_rows", stack=True)
    if spec.tau == 0.0:
        if noise is not None:
            raise InputError("perturbation noise given at tau = 0, where none is drawn")
        return rows.copy()
    if noise is None:
        raise InputError(f"perturbation at tau = {spec.tau} needs its noise")
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != rows.shape:
        raise InputError(f"noise has shape {noise.shape}, base_rows {rows.shape}")
    noisy = rows + spec.tau * noise
    return noisy / math.sqrt(1.0 + spec.tau**2)
