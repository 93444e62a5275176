"""Prediction intervals: conditional Monte Carlo versus split conformal.

The Monte Carlo route samples the conditional law of the response given the
features directly from a fitted joint transport and reads off empirical
quantiles. Each transport class in :mod:`pai.generators` maps
standard-normal draws to its own conditional law (``conditional_response``:
Schur-complement conditioning in the Gaussian latent space for the Gaussian
and copula kinds, the response map at the given features for the triangular
location-scale kind); this module checks the point and draws and perturbs
the standard-normal stream. The baseline is split conformal prediction
around a k-NN point predictor with a k-NN spread estimate, whose normalized
deviations on a calibration split give the distribution-free half-width
multiplier.

The benchmark regression law is fully specified, so per-point coverage can
be estimated by re-drawing the true response at each test point.

Joint data layout everywhere: column 0 is the response, columns 1.. are the
features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .generators import GeneratorModel, PassConfig, fit_model, latent_draws, perturbed_latent
from .perturb import PerturbationSpec
from .streams import PATH_CONDITIONAL, PATH_SIMULATE, PATH_SPLIT, PATH_TRUTH, derive_rng

N_FEATURES = 7

_SIGMA_FLOOR = 1e-6

# Conformal baseline of the prediction study: k-NN size and calibration share.
_STUDY_K_NEIGHBORS = 25
_STUDY_CALIBRATION_FRACTION = 0.2


def regression_mean(X: np.ndarray) -> np.ndarray:
    """Noise-free response surface of the benchmark regression law."""
    X = np.asarray(X, dtype=np.float64)
    return (
        8.0
        + X[..., 0] ** 2
        + X[..., 1] * X[..., 2]
        + np.cos(X[..., 3])
        + np.exp(X[..., 4] * X[..., 5])
        + 0.1 * X[..., 6]
    )


def regression_noise_sd(X: np.ndarray) -> np.ndarray:
    """Heteroscedastic noise scale ``0.4 * X_1``."""
    X = np.asarray(X, dtype=np.float64)
    return 0.4 * X[..., 0]


def simulate_regression_data(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` rows from the benchmark law; returns ``(X, y)``."""
    if n < 1:
        raise InputError("n must be >= 1")
    rng = derive_rng(seed, PATH_SIMULATE)
    X = rng.random((n, N_FEATURES))
    y = regression_mean(X) + regression_noise_sd(X) * rng.standard_normal(n)
    return X, y


def conditional_sample(
    model: GeneratorModel,
    x: np.ndarray,
    m: int,
    cfg: PassConfig,
    stream_index: int = 0,
) -> np.ndarray:
    """Draw ``m`` responses from the model's conditional law at ``x``.

    The standardized conditional draws pass through the same
    distribution-preserving :func:`~pai.perturb.perturb` as unconditional
    synthesis, so the perturbation size never changes the sampled law.
    """
    if m < 1:
        raise InputError("draw count m must be >= 1")
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != model.dim - 1:
        raise InputError(
            f"conditioning point has {x.shape[0]} coordinates, expected {model.dim - 1}"
        )
    if not np.all(np.isfinite(x)):
        raise InputError(f"conditioning point is not finite: {x.tolist()}")
    draws = latent_draws(1, m, 1, cfg.perturbation)[0]
    derive_rng(cfg.mc_seed, PATH_CONDITIONAL, stream_index).standard_normal(out=draws)
    z = perturbed_latent(draws, cfg.perturbation)[:, 0]
    return model.conditional_response(x, z)


@dataclass(frozen=True)
class PredictionInterval:
    """A two-sided prediction interval at coverage ``level``."""

    lower: float
    upper: float
    level: float
    center_estimate: float
    mc_draws_used: int

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise InputError(f"interval bounds out of order: [{self.lower}, {self.upper}]")
        if not 0.0 < self.level < 1.0:
            raise InputError("level must be in (0, 1)")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        return (values >= self.lower) & (values <= self.upper)


def pai_interval(
    model: GeneratorModel,
    x: np.ndarray,
    alpha: float,
    m: int,
    cfg: PassConfig,
    stream_index: int = 0,
) -> PredictionInterval:
    """Monte Carlo prediction interval from conditional synthesis at ``x``."""
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must be in (0, 1)")
    if m < math.ceil(4.0 / alpha):
        raise InputError(f"need at least ceil(4/alpha) = {math.ceil(4.0 / alpha)} draws, got {m}")
    draws = conditional_sample(model, x, m, cfg, stream_index)
    lower, center, upper = np.quantile(draws, [alpha / 2.0, 0.5, 1.0 - alpha / 2.0])
    return PredictionInterval(
        lower=float(lower),
        upper=float(upper),
        level=1.0 - alpha,
        center_estimate=float(center),
        mc_draws_used=m,
    )


@dataclass(frozen=True)
class ConformalModel:
    """Split-conformal wrapper around k-NN location and spread estimates."""

    x_mean: np.ndarray
    x_sd: np.ndarray
    table_X: np.ndarray       # standardized modeling-split features
    table_y: np.ndarray
    table_abs_resid: np.ndarray
    k: int
    alpha: float
    qhat: float


def _knn_indices(queries: np.ndarray, table: np.ndarray, k: int) -> np.ndarray:
    """Row ``i`` holds the table indices of the ``k`` nearest rows to ``queries[i]``."""
    from scipy.spatial.distance import cdist

    return np.argpartition(cdist(queries, table), kth=k - 1, axis=1)[:, :k]


def _conformal_predict(model: ConformalModel, X: np.ndarray):
    idx = _knn_indices((X - model.x_mean) / model.x_sd, model.table_X, model.k)
    point = model.table_y[idx].mean(axis=1)
    spread = model.table_abs_resid[idx].mean(axis=1)
    return point, np.maximum(spread, _SIGMA_FLOOR)


def conformal_fit(
    train: tuple[np.ndarray, np.ndarray],
    calibration_fraction: float,
    alpha: float,
    k: int = 25,
    seed: int = 0,
) -> ConformalModel:
    """Fit the point/spread models and calibrate the conformal quantile.

    The training data is split at random into a modeling part (k-NN tables,
    in-sample absolute errors) and a calibration part whose normalized
    deviations ``|y - point| / max(spread, floor)`` supply the
    ``ceil((n_cal + 1)(1 - alpha))``-th order statistic as the half-width
    multiplier.
    """
    X, y = (np.asarray(a, dtype=np.float64) for a in train)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise InputError("train must be (X, y) with one label per row")
    if not 0.0 < calibration_fraction < 1.0:
        raise InputError("calibration_fraction must be in (0, 1)")
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must be in (0, 1)")
    if k < 1:
        raise InputError("k must be >= 1")
    n = X.shape[0]
    n_cal = int(round(n * calibration_fraction))
    if n_cal < 20:
        raise InputError(f"calibration split has {n_cal} rows; need at least 20")
    if n - n_cal < k:
        raise InputError("modeling split smaller than k")
    perm = derive_rng(seed, PATH_SPLIT).permutation(n)
    cal_idx, model_idx = perm[:n_cal], perm[n_cal:]
    X_model, y_model = X[model_idx], y[model_idx]
    X_cal, y_cal = X[cal_idx], y[cal_idx]
    x_mean = X_model.mean(axis=0)
    x_sd = X_model.std(axis=0)
    x_sd = np.where(x_sd == 0, 1.0, x_sd)
    table_X = (X_model - x_mean) / x_sd
    point_in_sample = y_model[_knn_indices(table_X, table_X, k)].mean(axis=1)
    abs_resid = np.abs(y_model - point_in_sample)
    uncalibrated = ConformalModel(
        x_mean=x_mean,
        x_sd=x_sd,
        table_X=table_X,
        table_y=y_model,
        table_abs_resid=abs_resid,
        k=k,
        alpha=alpha,
        qhat=0.0,
    )
    point_cal, spread_cal = _conformal_predict(uncalibrated, X_cal)
    scores = np.sort(np.abs(y_cal - point_cal) / spread_cal)
    rank = min(int(math.ceil((n_cal + 1) * (1.0 - alpha))), n_cal)
    return replace(uncalibrated, qhat=float(scores[rank - 1]))


def conformal_interval(model: ConformalModel, x: np.ndarray) -> PredictionInterval:
    """Interval ``point(x) +- qhat * spread(x)`` at the calibrated level."""
    x = np.asarray(x, dtype=np.float64).ravel()
    point, spread = _conformal_predict(model, x[None, :])
    half = model.qhat * float(spread[0])
    center = float(point[0])
    return PredictionInterval(
        lower=center - half,
        upper=center + half,
        level=1.0 - model.alpha,
        center_estimate=center,
        mc_draws_used=0,
    )


@dataclass(frozen=True)
class CoverageReport:
    """Per-point coverage of one interval method, optionally versus a baseline."""

    per_point: np.ndarray
    summary: dict
    baseline_per_point: np.ndarray | None = None


def _coverage_summary(intervals: list[PredictionInterval], truths, prefix: str):
    """Per-point coverage, lengths, and their ``prefix``-keyed mean/median summary."""
    per_point = np.array(
        [iv.contains(np.asarray(draws, dtype=np.float64)).mean() for iv, (_, draws) in zip(intervals, truths)]
    )
    lengths = np.array([iv.length for iv in intervals])
    summary = {
        f"{prefix}mean_coverage": float(per_point.mean()),
        f"{prefix}median_coverage": float(np.median(per_point)),
        f"{prefix}mean_length": float(lengths.mean()),
        f"{prefix}median_length": float(np.median(lengths)),
    }
    return per_point, lengths, summary


def coverage_report(
    intervals: list[PredictionInterval],
    truths: list[tuple[np.ndarray, np.ndarray]],
    baseline_intervals: list[PredictionInterval] | None = None,
) -> CoverageReport:
    """Estimate per-point coverage against repeated true-response draws.

    ``truths`` pairs each test point with fresh draws of its true response;
    coverage at a point is the fraction of those draws inside the interval.
    With a baseline, the summary also reports the fraction of points where
    the primary interval is strictly shorter.
    """
    if len(intervals) != len(truths):
        raise InputError("one truth entry per interval is required")
    if baseline_intervals is not None and len(baseline_intervals) != len(intervals):
        raise InputError("baseline interval count must match")
    per_point, lengths, summary = _coverage_summary(intervals, truths, "")
    summary = {"points": len(intervals), **summary}
    baseline_cov = None
    if baseline_intervals is not None:
        baseline_cov, base_lengths, base_summary = _coverage_summary(baseline_intervals, truths, "baseline_")
        summary.update(base_summary)
        summary["shorter_fraction"] = float((lengths < base_lengths).mean())
    return CoverageReport(per_point=per_point, summary=summary, baseline_per_point=baseline_cov)


def run_prediction_study(
    seed: int,
    n_total: int = 3200,
    n_train: int = 3000,
    alpha: float = 0.05,
    kind: str = "copula",
    tau: float = 0.0,
    pai_draws: int = 4000,
    truth_draws: int = 2000,
) -> dict:
    """End-to-end benchmark: simulate, fit both methods, report coverage.

    Simulates ``n_total`` rows from the benchmark law, holds out everything
    after the first ``n_train`` rows as test points, builds Monte Carlo and
    conformal intervals for each test point, and evaluates per-point coverage
    from fresh truth draws. ``kind`` names the generator family fitted to the
    joint (response, features) sample, one of
    :data:`~pai.generators.KINDS`. Returns a JSON-ready dictionary.
    """
    if n_train >= n_total:
        raise InputError("n_total must exceed n_train")
    X, y = simulate_regression_data(n_total, seed)
    X_train, y_train = X[:n_train], y[:n_train]
    X_test = X[n_train:]
    model = fit_model(kind, np.column_stack((y_train, X_train)))
    cfg = PassConfig(perturbation=PerturbationSpec(tau=tau), rank_match=False, mc_seed=seed)
    pai_intervals = [
        pai_interval(model, x, alpha, pai_draws, cfg, stream_index=i)
        for i, x in enumerate(X_test)
    ]
    conf_model = conformal_fit(
        (X_train, y_train), _STUDY_CALIBRATION_FRACTION, alpha, _STUDY_K_NEIGHBORS, seed
    )
    conf_intervals = [conformal_interval(conf_model, x) for x in X_test]
    truths = []
    for i, x in enumerate(X_test):
        rng = derive_rng(seed, PATH_TRUTH, i)
        draws = regression_mean(x) + regression_noise_sd(x) * rng.standard_normal(truth_draws)
        truths.append((x, draws))
    report = coverage_report(pai_intervals, truths, conf_intervals)
    records = [
        {
            "x": x.tolist(),
            "alpha": alpha,
            "pai_lower": pai_iv.lower,
            "pai_upper": pai_iv.upper,
            "pai_center": pai_iv.center_estimate,
            "conformal_lower": conf_iv.lower,
            "conformal_upper": conf_iv.upper,
            "conformal_center": conf_iv.center_estimate,
            "pai_coverage": float(cov),
            "conformal_coverage": float(bcov),
        }
        for x, pai_iv, conf_iv, cov, bcov in zip(
            X_test, pai_intervals, conf_intervals, report.per_point, report.baseline_per_point
        )
    ]
    return {
        "schema": "pai-coverage/1",
        "config": {
            "seed": seed,
            "n_total": n_total,
            "n_train": n_train,
            "n_test": int(n_total - n_train),
            "alpha": alpha,
            "kind": kind,
            "tau": tau,
            "pai_draws": pai_draws,
            "k_neighbors": _STUDY_K_NEIGHBORS,
            "calibration_fraction": _STUDY_CALIBRATION_FRACTION,
            "truth_draws": truth_draws,
        },
        "summary": report.summary,
        "points": records,
    }
