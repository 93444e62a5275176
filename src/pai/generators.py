"""Invertible transport generators and the synthesis pipeline.

Three closed-form transport families stand in for trained generative
models:

* :class:`GaussianTransport` - an affine map ``G(v) = mu + L v`` with ``L``
  the Cholesky factor of a (ridge-regularized) covariance estimate; exact
  maximum likelihood for Gaussian data.
* :class:`CopulaTransport` - a Gaussian copula with smoothed empirical
  marginals: the forward map correlates a standard normal latent vector,
  pushes it through the normal CDF, and applies each coordinate's empirical
  quantile function.
* :class:`LocationScaleTransport` - a triangular (Knothe-Rosenblatt) map
  for a response in column 0 given features in columns 1..: the features go
  through a Gaussian copula, and the response is
  ``m(x) + s(x) * Q_e(Phi(z_0))`` with a quadratic location ``m``, a
  log-linear scale ``s`` (multiplicative heteroscedasticity) and the
  empirical quantile function ``Q_e`` of the standardized residuals. Unlike
  the other two, its conditional spread of the response varies with the
  features.

All three expose the invertible pair ``forward`` (latent to data) /
``inverse`` (data to latent), which is all the synthesis pipeline needs;
``forward`` also maps a ``(..., n, dim)`` stack of latent samples, each
slice bit for bit as alone (every matrix product runs slice by slice, with
the sizes of one sample, because BLAS rounding can depend on a row's place in
a larger product; the Gaussian kind then adds its mean to each sample's
``n * dim`` values as one row, ``mean`` tiled ``n`` times, in one long loop
instead of ``n`` loops of ``dim`` values, with the same sums);
``fit_model`` fits the family named by one of :data:`KINDS`. Each class also
owns what differs by kind elsewhere: ``conditional_response`` maps a
``(points, m)`` block of standard-normal draws to the response's conditional
law at a ``(points, dim - 1)`` block of feature points, row by row (what
:func:`pai.predict.conditional_sample` samples), and its dataclass fields are
the keys of its model file, one to one, checked when the object is built, so
a fitted, loaded or hand-built model meets one rule. :func:`save_model` and
:func:`load_model` are one envelope, which names no kind.
``pass_synthesize`` draws a base sample, optionally permutes it to align its
multivariate ranks with a latent representation of an inference sample,
perturbs it without changing its law, and maps it through the transport.
``sample_statistic_null`` is the one Monte Carlo engine of the package: it
draws the ``D`` such samples, without rank matching, of every null
distribution the inference procedures build, in stacked chunks of at most
the package's one budget ``pai.dataio._CHUNK_VALUES`` of values, each
through one ``forward`` call, and applies a batched statistic (a chunk of
``B`` samples to ``B`` values) to each chunk. Every indexed draw of the
package - a synthesis replicate, a chunk of null replicates, the
conditional draws of :func:`pai.predict.conditional_sample`, the truth
draws of :func:`pai.predict.run_prediction_study` - comes from
:func:`latent_block`, which takes stream ``(mc_seed, tag, k)``
from ``derive_rng_block`` and fills it in the one layout, base rows first
and perturbation noise second. So a null replicate equals the
:func:`pass_synthesize` sample of the same index bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .dataio import argument, as_matrix, check_field, chunk_starts, exactly, field_name, integer, numbers, read_field
from .dataio import read_json_object, write_json
from .empirical import EmpiricalDistribution
from .errors import InputError, NumericError
from .halton import _check_shape
from .perturb import PerturbationSpec, perturb
from .ranks import match_ranks
# derive_rng is not called here; the benchmark's tracer tests read it as
# pai.generators.derive_rng.
from .streams import PATH_PASS, derive_rng, derive_rng_block  # noqa: F401

MODEL_SCHEMA = "pai-model/1"

# Relative ridge that fit_gaussian adds to the covariance diagonal.
_RIDGE = 1e-10

# Offset, relative to the mean absolute residual, inside the log of the
# location-scale fit's scale regression.
_SCALE_OFFSET = 0.01

# Clip for CDF values before the normal quantile; keeps latents finite.
_EPS = 1e-12


def _data_hash(data: np.ndarray) -> str:
    data = np.ascontiguousarray(data, dtype=np.float64)
    digest = hashlib.sha256()
    digest.update(str(data.shape).encode())
    digest.update(data.tobytes())
    return digest.hexdigest()


# Parsers of model fields for dataio.check_field: each refuses a value with a ValueError or TypeError.


def _positive(raw, size: int) -> np.ndarray:
    value = numbers(raw, (size,))
    if np.any(value <= 0):
        raise ValueError("must be positive")
    return value


def _chol(raw, dim: int) -> np.ndarray:
    chol = numbers(raw, (dim, dim))
    # An empty factor is refused too, so every model has dim >= 1.
    if not dim or np.any(np.diag(chol) <= 0) or np.any(np.triu(chol, 1) != 0):
        raise ValueError("is not lower triangular with a positive diagonal")
    return chol


def _grid(raw, size: int | None, cdf: bool = False) -> np.ndarray:
    grid = numbers(raw, (size,))
    if grid.shape[0] < 2 or np.any(np.diff(grid) <= 0) or cdf and (grid[0], grid[-1]) != (0.0, 1.0):
        raise ValueError("is not a strictly increasing grid of at least 2 knots" + (" from 0 to 1" if cdf else ""))
    return grid


def _marginals(raw) -> tuple:
    return tuple(map(exactly(Marginal), exactly(tuple)(raw)))


@dataclass(frozen=True)
class FitInfo:
    """Descriptor of the holdout sample a model was fitted on."""

    n_rows: int
    data_hash: str

    def __post_init__(self) -> None:
        check_field(self, "n_rows", integer)
        check_field(self, "data_hash", exactly(str))


def _require_finite(fit: str, **fitted: np.ndarray) -> None:
    """Raise ``NumericError`` for a fitted parameter that overflowed float64.

    Finite data can still overflow a fit (squares of entries near 1e155 and
    beyond, spans near 1e308); a model written with such a parameter could
    not be loaded.
    """
    for name, value in fitted.items():
        if not np.isfinite(value).all():
            raise NumericError(f"{fit} is not finite: its {name} overflows float64")


def _normal_scores(u: np.ndarray) -> np.ndarray:
    """The normal quantiles of CDF values ``u``, clipped to ``[_EPS, 1 - _EPS]`` first."""
    from scipy.special import ndtri

    return ndtri(np.clip(u, _EPS, 1.0 - _EPS))


def _schur_conditional(cov: np.ndarray, mean0, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Means and sd of coordinate 0 of a Gaussian given the others, at each row of ``rhs``.

    ``cov`` is the joint covariance, ``mean0`` the unconditional mean of
    coordinate 0 and ``rhs`` the ``(points, dim - 1)`` centered values of the
    other coordinates. The covariance is factored once for all points.
    """
    from scipy.linalg import cho_factor, cho_solve

    s_yx = cov[0, 1:]
    try:
        factor = cho_factor(cov[1:, 1:], lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericError("conditioning covariance is not positive definite") from exc
    weights = cho_solve(factor, s_yx)
    # One dot product per point: a block matrix-vector product rounds some
    # points differently from the single-point product.
    cond_mean = mean0 + np.array([weights @ row for row in rhs])
    cond_var = float(cov[0, 0] - weights @ s_yx)
    if cond_var < -1e-10:
        raise NumericError(f"conditional variance {cond_var} is negative")
    return cond_mean, math.sqrt(max(cond_var, 0.0))


@dataclass(frozen=True)
class GaussianTransport:
    """Affine transport between a standard normal latent and fitted Gaussian."""

    mean: np.ndarray
    chol: np.ndarray
    fit_info: FitInfo

    kind = "gaussian"

    def __post_init__(self) -> None:
        check_field(self, "mean", numbers, shape=(None,))
        check_field(self, "chol", _chol, dim=self.dim)
        check_field(self, "fit_info", exactly(FitInfo))

    @property
    def dim(self) -> int:
        return int(self.mean.shape[0])

    @property
    def cov(self) -> np.ndarray:
        return self.chol @ self.chol.T

    def forward(self, latent: np.ndarray) -> np.ndarray:
        latent = as_matrix(latent, "latent", self.dim, stack=True)
        # Broadcast over rows, the mean would go in as n loops of dim values a
        # sample; as one row of n * dim values it is one loop, with the same sums.
        n = latent.shape[-2]
        flat = (latent @ self.chol.T).reshape(latent.shape[:-2] + (n * self.dim,))
        flat += np.tile(self.mean, n)
        return flat.reshape(latent.shape)

    def inverse(self, data: np.ndarray) -> np.ndarray:
        from scipy.linalg import solve_triangular

        data = as_matrix(data, "data", self.dim)
        return solve_triangular(self.chol, (data - self.mean).T, lower=True).T

    def conditional_response(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Map standard-normal draws ``Z[i]`` to responses given features ``X[i]``."""
        cond_mean, cond_sd = _schur_conditional(self.cov, self.mean[0], X - self.mean[1:])
        return cond_mean[:, None] + cond_sd * Z


@dataclass(frozen=True)
class Marginal:
    """Piecewise-linear empirical CDF with Winsorized linear tails.

    ``xs`` and ``ps`` are strictly increasing grids with ``ps[0] = 0`` and
    ``ps[-1] = 1``; the end knots sit one interquartile range beyond the
    observed extremes, so the quantile function maps [0, 1] onto a bounded
    interval.

    ``quantile`` is ``np.interp(p, ps, xs)``, bit for bit. A sample without
    ties has the plotting-position grid ``ps = 0, (k - 0.5) / n for
    k = 1..n, 1`` (Hazen, type 5), and on that grid the segment of each
    ``p`` in [0, 1] is ``floor(p * n + 0.5)``, off by at most one and
    corrected by one comparison each way, in place of ``np.interp``'s binary
    search per value. The value is then numpy's own formula
    ``slope[j] * (p - ps[j]) + xs[j]`` with numpy's slopes
    ``diff(xs) / diff(ps)``; at a knot it is ``xs[j]``, as ``np.interp``
    returns there, and the slope appended for ``p = 1`` is 0. The grid is
    recognized at construction, so fitted and loaded marginals both use it;
    a tied grid, non-finite slopes, a ``-0.0`` knot (where ``0 + xs[j]``
    would lose the sign) and any ``p`` outside [0, 1] or NaN take
    ``np.interp``. ``cdf`` always does: its knots ``xs`` are not uniform.
    """

    xs: np.ndarray
    ps: np.ndarray

    def __post_init__(self) -> None:
        check_field(self, "xs", _grid, size=None)
        check_field(self, "ps", _grid, size=len(self.xs), cdf=True)
        # Not a dataclass field: equality, repr and the model file see only xs and ps.
        object.__setattr__(self, "_slopes", _plotting_slopes(self.xs, self.ps))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.xs, self.ps)

    def quantile(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        slopes, ps, xs = self._slopes, self.ps, self.xs
        if slopes is None or p.size == 0 or not (0.0 <= p.min() and p.max() <= 1.0):
            return np.interp(p, ps, xs)
        # In place: one float and one index array of p's size, plus one gather at a time.
        out = np.multiply(p, ps.shape[0] - 2, out=np.empty_like(p))
        out += 0.5
        j = out.astype(np.intp)
        j -= ps[j] > p
        j += ps[1:][j] <= p
        np.subtract(p, ps[j], out=out)
        out *= slopes[j]
        out += xs[j]
        return out


def _plotting_slopes(xs: np.ndarray, ps: np.ndarray) -> np.ndarray | None:
    """``np.interp``'s segment slopes plus a 0 for ``p = 1``, on a plotting-position grid.

    ``None`` unless ``ps`` is exactly ``0, (k - 0.5) / n for k = 1..n, 1``
    (the expression :func:`_fit_marginal` uses, which a JSON round trip
    keeps), every slope is finite and no knot of ``xs`` is ``-0.0``.
    """
    n = ps.shape[0] - 2
    if (
        n < 1
        or ps[0] != 0.0
        or ps[-1] != 1.0
        or not np.array_equal(ps[1:-1], (np.arange(1, n + 1) - 0.5) / n)
        or np.signbit(xs[xs == 0.0]).any()
    ):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = np.diff(xs) / np.diff(ps)
    if not np.isfinite(slopes).all():
        return None
    return np.append(slopes, 0.0)


def _fit_marginal(column: np.ndarray, col_index: int) -> Marginal:
    n = column.shape[0]
    order = np.sort(column)
    if order[0] == order[-1]:
        raise InputError(f"column {col_index} is constant; cannot fit a marginal CDF")
    ps = (np.arange(1, n + 1) - 0.5) / n
    unique_x = np.unique(order)
    # For tied values keep the largest plotting position (right-continuous CDF).
    last_idx = np.searchsorted(order, unique_x, side="right") - 1
    unique_p = ps[last_idx]
    q25, q75 = np.percentile(order, [25.0, 75.0])
    span = q75 - q25
    if span <= 0:
        span = float(order[-1] - order[0])
    xs = np.concatenate(([unique_x[0] - span], unique_x, [unique_x[-1] + span]))
    _require_finite(f"marginal of column {col_index}", grid=xs)
    p_full = np.concatenate(([0.0], unique_p, [1.0]))
    xs.setflags(write=False)
    p_full.setflags(write=False)
    return Marginal(xs=xs, ps=p_full)


@dataclass(frozen=True)
class CopulaTransport:
    """Gaussian copula with smoothed empirical marginals."""

    marginals: tuple[Marginal, ...]
    latent_chol: np.ndarray
    fit_info: FitInfo

    kind = "copula"

    def __post_init__(self) -> None:
        check_field(self, "marginals", _marginals)
        check_field(self, "latent_chol", _chol, dim=self.dim)
        check_field(self, "fit_info", exactly(FitInfo))

    @property
    def dim(self) -> int:
        return len(self.marginals)

    def forward(self, latent: np.ndarray) -> np.ndarray:
        return self._map(as_matrix(latent, "latent", self.dim, stack=True))

    def _map(self, latent: np.ndarray) -> np.ndarray:
        """``forward`` on a latent that is already checked."""
        from scipy.special import ndtr

        scores = latent @ self.latent_chol.T
        u = ndtr(scores)
        out = np.empty_like(u)
        for j, marginal in enumerate(self.marginals):
            out[..., j] = marginal.quantile(u[..., j])
        return out

    def inverse(self, data: np.ndarray) -> np.ndarray:
        from scipy.linalg import solve_triangular

        data = as_matrix(data, "data", self.dim)
        scores = _normal_scores(np.column_stack([m.cdf(column) for m, column in zip(self.marginals, data.T)]))
        return solve_triangular(self.latent_chol, scores.T, lower=True).T

    def conditional_response(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Map standard-normal draws ``Z[i]`` to responses given features ``X[i]``.

        The conditioning is on the response's latent score; the conditional
        scores go back through the normal CDF and the response's quantile.
        """
        from scipy.special import ndtr

        rhs = _normal_scores(np.column_stack([m.cdf(column) for m, column in zip(self.marginals[1:], X.T)]))
        cond_mean, cond_sd = _schur_conditional(self.latent_chol @ self.latent_chol.T, 0.0, rhs)
        return self.marginals[0].quantile(ndtr(cond_mean[:, None] + cond_sd * Z))


def _quadratic_design(u: np.ndarray) -> np.ndarray:
    """Columns ``1, u_j, u_j * u_k (j <= k)``: the full second-order polynomial."""
    j, k = np.triu_indices(u.shape[-1])
    return np.concatenate((np.ones(u.shape[:-1] + (1,)), u, u[..., j] * u[..., k]), axis=-1)


def _linear_design(u: np.ndarray) -> np.ndarray:
    return np.concatenate((np.ones(u.shape[:-1] + (1,)), u), axis=-1)


def _quadratic_terms(p: int) -> int:
    return 1 + p + p * (p + 1) // 2


@dataclass(frozen=True)
class LocationScaleTransport:
    """Triangular transport: copula features, location-scale response.

    Latent column 0 drives the response and columns 1.. drive the features,
    which ``features``, the Gaussian copula of ``marginals`` and
    ``latent_chol`` over the feature columns, maps to data space. Given
    features ``x`` with standardized form ``u = (x - x_mean) / x_sd``, the
    response is
    ``m(x) + s(x) * residual.quantile(Phi(z_0))`` where ``m(x)`` is
    ``mean_coef`` applied to the second-order polynomial of ``u`` and
    ``s(x) = exp(scale_coef . (1, u))``. Since ``s > 0`` the response map is
    increasing in ``z_0``, so ``inverse`` undoes ``forward`` wherever the
    residual marginal is.
    """

    marginals: tuple[Marginal, ...]
    latent_chol: np.ndarray
    x_mean: np.ndarray
    x_sd: np.ndarray
    mean_coef: np.ndarray
    scale_coef: np.ndarray
    residual: Marginal
    fit_info: FitInfo

    kind = "location-scale"

    def __post_init__(self) -> None:
        # Not a dataclass field: equality, repr and the model file see only the copula's two fields,
        # which the copula checks as it is built.
        features = CopulaTransport(self.marginals, self.latent_chol, self.fit_info)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "latent_chol", features.latent_chol)
        p = len(self.marginals)
        check_field(self, "x_mean", numbers, shape=(p,))
        check_field(self, "x_sd", _positive, size=p)
        check_field(self, "mean_coef", numbers, shape=(_quadratic_terms(p),))
        check_field(self, "scale_coef", numbers, shape=(p + 1,))
        check_field(self, "residual", exactly(Marginal))

    @property
    def dim(self) -> int:
        return len(self.marginals) + 1

    def location_scale(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Location ``m(x)`` and scale ``s(x)`` of the response at each feature row."""
        u = (features - self.x_mean) / self.x_sd
        location = _quadratic_design(u) @ self.mean_coef
        scale = np.exp(_linear_design(u) @ self.scale_coef)
        return location, scale

    def forward(self, latent: np.ndarray) -> np.ndarray:
        from scipy.special import ndtr

        latent = as_matrix(latent, "latent", self.dim, stack=True)
        features = self.features._map(latent[..., 1:])
        location, scale = self.location_scale(features)
        response = location + scale * self.residual.quantile(ndtr(latent[..., 0]))
        return np.concatenate((response[..., None], features), axis=-1)

    def inverse(self, data: np.ndarray) -> np.ndarray:
        data = as_matrix(data, "data", self.dim)
        location, scale = self.location_scale(data[:, 1:])
        score = _normal_scores(self.residual.cdf((data[:, 0] - location) / scale))
        return np.column_stack((score, self.features.inverse(data[:, 1:])))

    def conditional_response(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Map standard-normal draws ``Z[i]`` to responses given features ``X[i]``.

        The map is triangular, so this is the response map at each point.
        """
        from scipy.special import ndtr

        # One point per location_scale call: on a block, its matrix-vector
        # products round some points differently from the single-point call.
        pairs = np.reshape([np.concatenate(self.location_scale(x[None, :])) for x in X], (-1, 2))
        bad = np.flatnonzero(~np.isfinite(pairs).all(axis=1))
        if bad.size:
            raise NumericError(f"location-scale model is not finite at {X[bad[0]].tolist()}")
        location, scale = pairs.T
        return location[:, None] + scale[:, None] * self.residual.quantile(ndtr(Z))


GeneratorModel = GaussianTransport | CopulaTransport | LocationScaleTransport

_MODEL_CLASSES = {cls.kind: cls for cls in (GaussianTransport, CopulaTransport, LocationScaleTransport)}

KINDS = tuple(_MODEL_CLASSES)

# The parser of a model argument: an instance of one of the three transport classes.
generator_model = exactly(*_MODEL_CLASSES.values())


def fit_gaussian(holdout: np.ndarray) -> GaussianTransport:
    """Fit mean and ridge-regularized covariance; return the affine transport.

    The ridge is relative, ``_RIDGE * tr(S)/d * I``; for an exactly degenerate
    sample (zero trace) the absolute fallback ``_RIDGE * I`` keeps the factor
    positive definite.
    """
    holdout = as_matrix(holdout, "holdout")
    n, d = holdout.shape
    if n < d + 2:
        raise InputError(f"need at least d + 2 = {d + 2} holdout rows, got {n}")
    mean = holdout.mean(axis=0)
    centered = holdout - mean
    cov = centered.T @ centered / (n - 1)
    _require_finite("gaussian fit", covariance=cov)
    trace = float(np.trace(cov))
    bump = _RIDGE * (trace / d) if trace > 0 else _RIDGE
    cov = cov + bump * np.eye(d)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"covariance is not positive definite even after ridge {_RIDGE}") from exc
    return GaussianTransport(
        mean=mean, chol=chol, fit_info=FitInfo(n_rows=n, data_hash=_data_hash(holdout))
    )


def gaussian_from_params(
    mean: np.ndarray, cov: np.ndarray | None = None, chol: np.ndarray | None = None
) -> GaussianTransport:
    """Build a Gaussian transport from known parameters (no fitting).

    Useful when the data-generating law is known exactly, e.g. in calibration
    experiments where estimation error must be ruled out. ``mean`` is one
    column, and ``chol`` the lower-triangular Cholesky factor of ``cov``.
    """
    mean = as_matrix(mean, "mean", 1)[:, 0]
    d = mean.shape[0]
    if (cov is None) == (chol is None):
        raise InputError("provide exactly one of cov or chol")
    if chol is None:
        cov = argument(as_matrix(cov, "cov"), "cov", numbers, shape=(d, d))
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise NumericError("cov is not positive definite") from exc
    return GaussianTransport(mean=mean, chol=as_matrix(chol, "chol"), fit_info=FitInfo(n_rows=0, data_hash="injected"))


def _average_ranks(column: np.ndarray) -> np.ndarray:
    """1-based ranks of ``column``, tied values sharing the mean of their ranks.

    A tie block fills sorted places ``left .. right - 1``, so its mean rank
    ``(left + right + 1) / 2`` is an integer or a half, exact in float64.
    """
    order = np.sort(column)
    return (np.searchsorted(order, column, "left") + np.searchsorted(order, column, "right") + 1) / 2.0


def fit_copula(holdout: np.ndarray) -> CopulaTransport:
    """Fit empirical marginals and a normal-scores latent correlation."""
    from scipy.special import ndtri

    holdout = as_matrix(holdout, "holdout")
    n, d = holdout.shape
    if n < 20:
        raise InputError(f"copula fit needs at least 20 holdout rows, got {n}")
    marginals = tuple(_fit_marginal(holdout[:, j], j) for j in range(d))
    scores = np.empty_like(holdout)
    for j in range(d):
        u = (_average_ranks(holdout[:, j]) - 0.5) / n
        scores[:, j] = ndtri(u)
    if d == 1:
        corr = np.eye(1)
    else:
        corr = np.corrcoef(scores, rowvar=False)
        # Clamp tiny negative eigenvalues and restore unit diagonal so the
        # Cholesky factorization cannot fail on near-degenerate scores.
        eigvals, eigvecs = np.linalg.eigh(corr)
        eigvals = np.maximum(eigvals, 1e-10)
        corr = (eigvecs * eigvals) @ eigvecs.T
        scale = np.sqrt(np.diag(corr))
        corr = corr / np.outer(scale, scale)
    chol = np.linalg.cholesky(corr)
    return CopulaTransport(
        marginals=marginals,
        latent_chol=chol,
        fit_info=FitInfo(n_rows=n, data_hash=_data_hash(holdout)),
    )


def fit_location_scale(holdout: np.ndarray) -> LocationScaleTransport:
    """Fit the triangular location-scale transport; column 0 is the response.

    The features get a Gaussian copula (:func:`fit_copula`). The location is
    the least-squares fit of the response on the second-order polynomial of
    the standardized features. The scale ``exp(linear)`` is the
    least-squares fit of ``log(|residual| + c)`` on the standardized
    features (Harvey 1976), with ``c`` a small fraction of the mean absolute
    residual so that near-zero residuals cannot dominate the fit. The
    residual marginal is the smoothed empirical CDF of the residuals divided
    by the fitted scale, which absorbs both the log bias of the scale fit and
    any non-Gaussian noise shape.
    """
    holdout = as_matrix(holdout, "holdout")
    n, d = holdout.shape
    if d < 2:
        raise InputError("location-scale fit needs a response column and at least one feature")
    n_terms = _quadratic_terms(d - 1)
    if n <= n_terms:
        raise InputError(
            f"location-scale fit needs more holdout rows than its {n_terms} polynomial terms, got {n}"
        )
    y, X = holdout[:, 0], holdout[:, 1:]
    x_mean = X.mean(axis=0)
    x_sd = X.std(axis=0)
    _require_finite("location-scale fit", x_mean=x_mean, x_sd=x_sd)
    constant = np.flatnonzero(np.concatenate(([np.ptp(y)], x_sd)) == 0)
    if constant.size:
        raise InputError(f"column {int(constant[0])} is constant; cannot fit a location-scale model")
    u = (X - x_mean) / x_sd
    quadratic, linear = _quadratic_design(u), _linear_design(u)
    mean_coef = np.linalg.lstsq(quadratic, y, rcond=None)[0]
    resid = y - quadratic @ mean_coef
    mean_abs = float(np.abs(resid).mean())
    spread = float(np.abs(y - y.mean()).mean())
    _require_finite("location-scale fit", mean_abs_residual=mean_abs, response_spread=spread)
    # Residuals below this share of the response's own spread are rounding noise.
    if not mean_abs > 1e-9 * spread:
        raise InputError("response is an exact quadratic of the features; no residual spread to fit")
    log_abs = np.log(np.abs(resid) + _SCALE_OFFSET * mean_abs)
    scale_coef = np.linalg.lstsq(linear, log_abs, rcond=None)[0]
    features = fit_copula(X)
    return LocationScaleTransport(
        marginals=features.marginals,
        latent_chol=features.latent_chol,
        x_mean=x_mean,
        x_sd=x_sd,
        mean_coef=mean_coef,
        scale_coef=scale_coef,
        residual=_fit_marginal(resid / np.exp(linear @ scale_coef), 0),
        fit_info=FitInfo(n_rows=n, data_hash=_data_hash(holdout)),
    )


def fit_model(kind: str, holdout: np.ndarray) -> GeneratorModel:
    """Fit the transport family named ``kind``, one of :data:`KINDS`."""
    if kind not in KINDS:
        raise InputError(f"unknown generator kind {kind!r}")
    fitters = {"gaussian": fit_gaussian, "copula": fit_copula, "location-scale": fit_location_scale}
    return fitters[kind](holdout)


@dataclass(frozen=True)
class PassConfig:
    """Synthesis configuration shared by all replicates of one experiment."""

    perturbation: PerturbationSpec = PerturbationSpec(tau=0.0)
    rank_match: bool = False
    mc_seed: int = 0

    def __post_init__(self) -> None:
        check_field(self, "perturbation", exactly(PerturbationSpec))
        check_field(self, "rank_match", exactly(bool))
        check_field(self, "mc_seed", integer)


def allocate(shape: tuple[int, ...]) -> np.ndarray:
    """``np.empty(shape)`` of float64, with every impossible size a ``MemoryError``.

    numpy raises ``ValueError`` for a shape whose byte count no signed 64-bit
    integer holds; such a request fails here as the ``MemoryError`` of any
    other allocation that cannot succeed, before anything is drawn.
    """
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"cannot allocate {' x '.join(map(str, shape))} float64 values")
    return np.empty(shape)


def _draw_replicate(rng: np.random.Generator, out: np.ndarray) -> None:
    rng.standard_normal(out=out)


def latent_block(
    cfg: PassConfig, tag: int, first: int, count: int, n_rows: int, dim: int, align=None
) -> np.ndarray:
    """The ``(count, n_rows, dim)`` perturbed latents of streams ``first .. first + count - 1``.

    This is the one stream layout. Sample ``i`` fills its ``(k, n_rows, dim)``
    block of standard normals from stream ``(cfg.mc_seed, tag, first + i)``
    in one :func:`_draw_replicate` call: the base first, then the
    perturbation noise when ``tau > 0`` (``k`` is 2, else 1). The streams come
    from one :func:`~pai.streams.derive_rng_block` pass, the room for the
    draws is allocated before the first draw, and the whole block is perturbed
    in one :func:`perturb` call. ``align``, allowed only when ``count`` is 1,
    maps the sample's base to the row permutation applied before the noise.
    """
    if align is not None and count != 1:
        raise InputError(f"rank alignment applies to one sample, got {count}")
    tau = cfg.perturbation.tau
    draws = allocate((count, 2 if tau > 0 else 1, n_rows, dim))
    for out, rng in zip(draws, derive_rng_block(cfg.mc_seed, tag, first, count)):
        _draw_replicate(rng, out)
    base = draws[:, 0]
    if align is not None:
        base = base[:, align(base[0])]
    return perturb(base, cfg.perturbation, draws[:, 1] if tau > 0 else None)


def pass_synthesize(
    model: GeneratorModel,
    inference: np.ndarray | None,
    cfg: PassConfig,
    replicate: int,
    n: int | None = None,
) -> np.ndarray:
    """Generate one synthetic sample from the fitted transport.

    Draws a base sample ``U`` from the stream addressed by
    ``(cfg.mc_seed, PATH_PASS, replicate)``; with ``cfg.rank_match`` it is permuted so
    its multivariate ranks align with those of ``model.inverse(inference)``;
    the perturbation is applied; the transport maps the result to data space.
    Output rows are an independent sample from the model's law, and the same
    ``(mc_seed, replicate)`` pair always reproduces the same sample bit for
    bit. ``replicate`` must lie below ``2**64``. ``n`` is the sample size;
    with an inference sample it may be left out, and when given it must be
    the sample's row count.
    """
    model = argument(model, "model", generator_model)
    cfg = argument(cfg, "cfg", exactly(PassConfig))
    replicate = argument(replicate, "replicate index", integer)
    if cfg.rank_match and inference is None:
        raise InputError("rank matching requires an inference sample")
    if inference is not None:
        inference = as_matrix(inference, "inference", model.dim)
        if n is not None and argument(n, "sample size n", integer) != inference.shape[0]:
            raise InputError(f"sample size n: {n} is not the {inference.shape[0]} rows of the inference sample")
        n = inference.shape[0]
    elif n is None:
        raise InputError("provide an inference sample or an explicit n")
    n_rows = argument(n, "sample size n", integer, least=1)
    if cfg.rank_match:
        # the rank targets' shape is known before anything is drawn
        _check_shape(n_rows, model.dim)
    align = (lambda base: match_ranks(model.inverse(inference), base)) if cfg.rank_match else None
    return model.forward(latent_block(cfg, PATH_PASS, replicate, 1, n_rows, model.dim, align)[0])


def sample_statistic_null(
    model: GeneratorModel,
    n: int,
    D: int,
    statistic,
    cfg: PassConfig,
    first_replicate: int = 0,
) -> EmpiricalDistribution:
    """Empirical null distribution of ``statistic`` over ``D`` PASS samples.

    Replicate ``k`` is the sample of synthesis stream ``first_replicate + k``,
    bit for bit what :func:`pass_synthesize` returns for that replicate; rank
    matching is always disabled here (the identity permutation is a valid
    choice and needs no inference sample). The samples come in stacked chunks
    of shape ``(B, n, model.dim)``, ``B`` the step of
    :func:`~pai.dataio.chunk_starts` for ``n * model.dim`` values a replicate
    (the last chunk holds the rest), each one :func:`latent_block` and one
    ``model.forward`` call, so memory stays bounded whatever ``D`` is.
    ``statistic`` is batched: it maps a chunk to ``B`` finite values, one per
    replicate. The arguments are checked and the ``D`` values allocated before
    the first replicate is drawn.
    """
    model = argument(model, "model", generator_model)
    cfg = argument(cfg, "cfg", exactly(PassConfig))
    D = argument(D, "Monte Carlo size D", integer, least=2)
    n = argument(n, "sample size n", integer, least=1)
    first_replicate = argument(first_replicate, "first replicate index", integer)
    dim = model.dim
    values = allocate((D,))
    starts = chunk_starts(D, n * dim)
    for start in starts:
        size = min(starts.step, D - start)
        chunk = model.forward(latent_block(cfg, PATH_PASS, first_replicate + start, size, n, dim))
        chunk_values = np.asarray(statistic(chunk), dtype=np.float64)
        if chunk_values.shape != (size,):
            raise InputError(
                f"statistic must map a chunk of shape {chunk.shape} to shape ({size},), "
                f"got shape {chunk_values.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(chunk_values))
        if bad.size:
            raise InputError(
                f"statistic returned a non-finite value on replicate {first_replicate + start + int(bad[0])}"
            )
        values[start : start + size] = chunk_values
    return EmpiricalDistribution(values=values)


# A model's fit_info is stored as fitted_on; every other field under its name.
_KEYS = {"fit_info": "fitted_on"}

# The fields that hold records: name -> (record class, whether a tuple of them).
_RECORDS = {"fit_info": (FitInfo, False), "residual": (Marginal, False), "marginals": (Marginal, True)}


def _stored(value):
    """A field's value as the model file stores it: a record as an object of its fields."""
    if dataclasses.is_dataclass(value):
        return {_KEYS.get(f.name, f.name): _stored(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_stored(item) for item in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def save_model(model: GeneratorModel, path: str | os.PathLike) -> None:
    """Serialize a model to a self-describing JSON document: the envelope and the model's fields."""
    model = argument(model, "model", generator_model)
    write_json(path, {"schema": MODEL_SCHEMA, "kind": model.kind, "dim": model.dim, **_stored(model)})


def _kind(raw) -> type:
    if raw not in KINDS:  # tested before the lookup: a list or dict kind cannot be a dict key
        raise ValueError(f"unrecognized model kind {raw!r}")
    return _MODEL_CLASSES[raw]


def _read(cls, doc: dict, *path):
    """The ``cls`` at ``path`` of a model document, built (so checked) from its fields read by name.

    A field that holds records is read as those records in turn, and the
    refusal of a record inside the model names its path.
    """
    fields = {}
    for field in dataclasses.fields(cls):
        at = (*path, _KEYS.get(field.name, field.name))
        record, many = _RECORDS.get(field.name, (None, False))
        if many:
            count = len(read_field(doc, "model", exactly(list), *at))
            fields[field.name] = tuple(_read(record, doc, *at, j) for j in range(count))
        else:
            fields[field.name] = _read(record, doc, *at) if record else read_field(doc, "model", lambda raw: raw, *at)
    return argument(fields, f"model field {field_name(path)!r}" if path else "model", lambda fields: cls(**fields))


def load_model(path: str | os.PathLike) -> GeneratorModel:
    """Load a model saved by :func:`save_model`.

    The class the envelope's ``kind`` names is built from the file's fields,
    each read by :func:`pai.dataio.read_field`, and checks them as it is
    built; a ``dim`` other than the built model's is refused too. So a
    malformed document raises :class:`InputError` rather than loading.
    """
    payload = read_json_object(path, "model")
    if payload.get("schema") != MODEL_SCHEMA:
        raise InputError(f"unrecognized model schema: {payload.get('schema')!r}")
    model_class = read_field(payload, "model", _kind, "kind")
    dim = read_field(payload, "model", integer, "dim")
    model = _read(model_class, payload)
    if model.dim != dim:
        raise InputError(f"model field 'dim': {dim} does not match the {model.dim} dimensions of its fields")
    return model
