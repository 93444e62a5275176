"""Frechet distance between Gaussian summaries.

A sample is summarised by its mean and covariance; the Frechet distance
between two summaries is the squared 2-Wasserstein distance between the
Gaussians they fit. It is the statistic of the two-sample fid and coherence
tests. Both functions broadcast over leading stack axes, so a chunk of Monte
Carlo replicates is summarised and compared in one call; every slice equals
the single-sample result bit for bit, because each step (the means, stacked
matrix products and ``eigh``, diagonal traces) runs the same arithmetic per
slice.

The layout rule of ``gaussian_summary``: with ``d >= 2`` columns it sums and
centres a new row-major copy of the sample, ``(n, ..., d)``, adding its rows
in sequence. That is the order numpy itself uses for a row-major ``(..., n, d)``
sample, but each step is one long loop over the whole stack instead of ``n``
loops over ``d`` values per sample; and the bits depend on the values alone,
not on how the caller's array is laid out. A single column (``d = 1``) keeps
numpy's own mean along the rows: on a row-major sample that is a pairwise sum,
already one long loop, and a row-major copy would add the rows in sequence
and change its bits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import argument, as_matrix, check_field, exactly
from .errors import InputError, NumericError

# Eigenvalue clamp threshold: more negative mass than this in a covariance
# square root indicates a genuinely ill-conditioned input worth flagging.
_NEG_EIG_WARN = 1e-6


@dataclass(frozen=True)
class GaussianSummary:
    """First two moments of a sample, or a stack of them.

    ``mean`` has shape ``(..., d)`` and ``cov`` shape ``(..., d, d)``; the
    leading axes, if any, index the samples of a stack.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        check_field(self, "mean", np.asarray, dtype=np.float64)
        check_field(self, "cov", np.asarray, dtype=np.float64)
        want = self.mean.shape + self.mean.shape[-1:]
        if self.mean.ndim < 1 or self.cov.shape != want:
            raise InputError(f"cov must have shape (..., d, d) for a mean of shape (..., d), got {self.cov.shape} "
                             f"for {self.mean.shape}")

    @property
    def dim(self) -> int:
        return int(self.mean.shape[-1])


def gaussian_summary(sample: np.ndarray) -> GaussianSummary:
    """Sample mean and (n-1)-denominator covariance over the last two axes.

    ``sample`` is an ``(n, d)`` matrix (a 1-D array is one column) or a
    ``(..., n, d)`` stack of them; each slice of a stacked summary equals the
    summary of that slice alone, bit for bit.
    """
    sample = as_matrix(sample, "sample", stack=True)
    n = sample.shape[-2]
    if n < 2:
        raise InputError(f"need at least 2 rows for a Gaussian summary, got {n}")
    if sample.shape[-1] == 1:
        # numpy already sums a column along its rows, pairwise, in one long loop
        mean = sample.mean(axis=-2)
        centered = sample - mean[..., None, :]
    else:
        # A new row-major copy (never the caller's array, which is centred in
        # place): its sum runs row by row, each row one long loop over the stack.
        rows = np.moveaxis(sample, -2, 0).copy(order="C")
        mean = np.add.reduce(rows, axis=0) / n
        rows -= mean
        centered = np.moveaxis(rows, 0, -2)
    cov = np.swapaxes(centered, -1, -2) @ centered / (n - 1)
    return GaussianSummary(mean=mean, cov=cov)


def _trace(matrix: np.ndarray) -> np.ndarray:
    return np.trace(matrix, axis1=-2, axis2=-1)


def _sqrtm_psd(matrix: np.ndarray, label: str) -> np.ndarray:
    """Symmetric PSD square root of a matrix or of each matrix in a stack."""
    sym = 0.5 * (matrix + np.swapaxes(matrix, -1, -2))
    try:
        eigvals, eigvecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed for {label}") from exc
    neg = -float(eigvals.min(initial=0.0))
    if neg > _NEG_EIG_WARN:
        warnings.warn(
            f"{label} has negative eigenvalue mass {neg:.3e}; clamping to 0",
            RuntimeWarning,
            stacklevel=3,
        )
    eigvals = np.maximum(eigvals, 0.0)
    return (eigvecs * np.sqrt(eigvals)[..., None, :]) @ np.swapaxes(eigvecs, -1, -2)


def fid(a: GaussianSummary, b: GaussianSummary):
    """Frechet distance between two Gaussian summaries.

    ``||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_b S_a)^{1/2})``, with the cross
    square root evaluated through the symmetric sandwich
    ``S_a^{1/2} S_b S_a^{1/2}`` (same trace, always PSD). The result is
    clamped at 0 against rounding. Stacked summaries broadcast over their
    leading axes and give an array of distances, each equal bit for bit to
    the float of its slices alone.
    """
    a = argument(a, "summary a", exactly(GaussianSummary))
    b = argument(b, "summary b", exactly(GaussianSummary))
    if a.dim != b.dim:
        raise InputError(f"dimension mismatch: {a.dim} != {b.dim}")
    delta = a.mean - b.mean
    root_a = _sqrtm_psd(a.cov, "covariance")
    cross = _sqrtm_psd(root_a @ b.cov @ root_a, "cross covariance product")
    squared_shift = (delta[..., None, :] @ delta[..., :, None])[..., 0, 0]
    value = np.maximum(squared_shift + _trace(a.cov) + _trace(b.cov) - 2.0 * _trace(cross), 0.0)
    return float(value) if value.ndim == 0 else value
