"""Distributional distances and test statistics.

Implements the Frechet distance between Gaussian summaries (the squared
2-Wasserstein distance between fitted Gaussians), exact empirical 1- and
2-Wasserstein distances via optimal matching, and two-sample and one-sample
Kolmogorov-Smirnov machinery.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import ndtr

from .assignment import solve_lsap
from .errors import InputError, NumericError

# Eigenvalue clamp threshold: more negative mass than this in a covariance
# square root indicates a genuinely ill-conditioned input worth flagging.
_NEG_EIG_WARN = 1e-6


@dataclass(frozen=True)
class GaussianSummary:
    """First two moments of a sample."""

    mean: np.ndarray
    cov: np.ndarray
    n: int

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
    return GaussianSummary(mean=mean, cov=cov, n=n)


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


def wasserstein_exact(a: np.ndarray, b: np.ndarray, order: int = 2) -> float:
    """Exact empirical Wasserstein distance between equal-size samples.

    Order 2 is the square root of the minimal average squared distance over
    perfect matchings; order 1 is the minimal average distance. Balanced
    matching only: the two samples must have the same number of rows.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise InputError("samples must be 2-D with matching dimension")
    if a.shape[0] != b.shape[0]:
        raise InputError(
            f"balanced matching needs equal sample sizes, got {a.shape[0]} and {b.shape[0]}"
        )
    if order not in (1, 2):
        raise InputError(f"order must be 1 or 2, got {order}")
    n = a.shape[0]
    if n == 0:
        raise InputError("samples must be non-empty")
    metric = "sqeuclidean" if order == 2 else "euclidean"
    costs = cdist(a, b, metric=metric) / n
    total = solve_lsap(costs).total_cost
    return math.sqrt(total) if order == 2 else total


def _validate_sorted(values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.shape[0] == 0:
        raise InputError(f"{name} must be non-empty")
    if not np.all(np.isfinite(values)):
        raise InputError(f"{name} contains non-finite entries")
    if np.any(np.diff(values) < 0):
        raise InputError(f"{name} must be sorted ascending")
    return values


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sup distance between the empirical CDFs of two sorted samples."""
    a = _validate_sorted(a, "a")
    b = _validate_sorted(b, "b")
    grid = np.concatenate((a, b))
    fa = np.searchsorted(a, grid, side="right") / a.shape[0]
    fb = np.searchsorted(b, grid, side="right") / b.shape[0]
    right = np.abs(fa - fb).max()
    # Left limits at the jump points catch gaps opening just below a jump.
    fa_left = np.searchsorted(a, grid, side="left") / a.shape[0]
    fb_left = np.searchsorted(b, grid, side="left") / b.shape[0]
    left = np.abs(fa_left - fb_left).max()
    return float(max(right, left))


def kolmogorov_survival(lam: float, tol: float = 1e-12) -> float:
    """Asymptotic Kolmogorov distribution tail ``P(K > lam)``.

    Alternating series ``2 sum_k (-1)^{k-1} exp(-2 k^2 lam^2)``, truncated
    once the terms drop below ``tol``.
    """
    if lam <= 0:
        return 1.0
    total = 0.0
    k = 1
    while True:
        term = math.exp(-2.0 * k * k * lam * lam)
        if term < tol:
            break
        total += term if k % 2 == 1 else -term
        k += 1
    return min(1.0, max(0.0, 2.0 * total))


def ks_test_standard_gaussian(sample: np.ndarray) -> tuple[float, float]:
    """One-sample KS test of a sample against the standard normal law.

    Returns ``(statistic, p_value)`` with the two-sided p-value from the
    asymptotic Kolmogorov distribution evaluated at ``sqrt(n) * D_n``.
    """
    sample = np.asarray(sample, dtype=np.float64).ravel()
    n = sample.shape[0]
    if n < 5:
        raise InputError(f"KS test needs at least 5 observations, got {n}")
    if not np.all(np.isfinite(sample)):
        raise InputError("sample contains non-finite entries")
    xs = np.sort(sample)
    cdf = ndtr(xs)
    i = np.arange(1, n + 1)
    statistic = float(max((i / n - cdf).max(), (cdf - (i - 1) / n).max()))
    p = kolmogorov_survival(math.sqrt(n) * statistic)
    return statistic, p
