"""Frechet distance between Gaussian summaries.

A sample is summarised by its mean and covariance; the Frechet distance
between two summaries is the squared 2-Wasserstein distance between the
Gaussians they fit. It is the statistic of the two-sample fid test.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError

# Eigenvalue clamp threshold: more negative mass than this in a covariance
# square root indicates a genuinely ill-conditioned input worth flagging.
_NEG_EIG_WARN = 1e-6


@dataclass(frozen=True)
class GaussianSummary:
    """First two moments of a sample."""

    mean: np.ndarray
    cov: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.mean.shape[0])


def gaussian_summary(sample: np.ndarray) -> GaussianSummary:
    """Sample mean and (n-1)-denominator covariance."""
    sample = np.asarray(sample, dtype=np.float64)
    if sample.ndim == 1:
        sample = sample[:, None]
    if sample.ndim != 2:
        raise InputError("sample must be a 2-D matrix")
    n = sample.shape[0]
    if n < 2:
        raise InputError(f"need at least 2 rows for a Gaussian summary, got {n}")
    if not np.all(np.isfinite(sample)):
        raise InputError("sample contains non-finite entries")
    mean = sample.mean(axis=0)
    centered = sample - mean
    cov = centered.T @ centered / (n - 1)
    return GaussianSummary(mean=mean, cov=cov)


def _sqrtm_psd(matrix: np.ndarray, label: str) -> np.ndarray:
    sym = 0.5 * (matrix + matrix.T)
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
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T


def fid(a: GaussianSummary, b: GaussianSummary) -> float:
    """Frechet distance between two Gaussian summaries.

    ``||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_b S_a)^{1/2})``, with the cross
    square root evaluated through the symmetric sandwich
    ``S_a^{1/2} S_b S_a^{1/2}`` (same trace, always PSD). The result is
    clamped at 0 against rounding.
    """
    if a.dim != b.dim:
        raise InputError(f"dimension mismatch: {a.dim} != {b.dim}")
    delta = a.mean - b.mean
    root_a = _sqrtm_psd(a.cov, "covariance")
    cross = _sqrtm_psd(root_a @ b.cov @ root_a, "cross covariance product")
    value = float(delta @ delta + np.trace(a.cov) + np.trace(b.cov) - 2.0 * np.trace(cross))
    return max(value, 0.0)
