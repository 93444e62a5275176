"""Prediction intervals: conditional Monte Carlo versus split conformal.

The Monte Carlo route samples the conditional law of the response given the
features directly from a fitted joint transport and reads off empirical
quantiles. Each transport class in :mod:`pai.generators` maps
standard-normal draws to its own conditional law (``conditional_response``:
Schur-complement conditioning in the Gaussian latent space for the Gaussian
and copula kinds, the response map at the given features for the triangular
location-scale kind); this module checks the points and takes the perturbed
standard-normal draws from :func:`pai.generators.latent_block`, the path
every indexed draw of the package goes through. The baseline is split
conformal prediction around a k-NN point predictor with a k-NN spread
estimate, whose normalized deviations on a calibration split give the
distribution-free half-width multiplier.

Every prediction function takes a ``(points, dim - 1)`` block of feature points
(a 1-D point is one row) and holds at most the package's one chunk budget,
``pai.dataio._CHUNK_VALUES``, of draws or distances per chunk. The k-NN
search of the baseline runs two chunks of distances at once, one on the
:func:`~pai.dataio.two_threads` worker.

The benchmark regression law is fully specified, so per-point coverage can
be estimated by re-drawing the true response at each test point.

``pai predict`` writes an :class:`IntervalsDocument` (``pai-intervals/1``)
and the coverage study returns a :class:`CoverageDocument`
(``pai-coverage/1``). Each declares every field once, with its parser
(:func:`~pai.dataio.entry`), as the test reports do, and checks what its
results imply with the rule that built them.

Joint data layout everywhere: column 0 is the response, columns 1.. are the
features, in :func:`conformal_fit`'s training matrix as in a transport's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataio import Document, argument, as_matrix, check_field, chunk_starts, entry, exactly, integer, level, number
from .dataio import joint, numbers, record, records, scalar, two_threads
from .errors import InputError
from .generators import GeneratorModel, PassConfig, _kind, allocate, fit_model, generator_model, latent_block
from .perturb import PerturbationSpec
from .streams import PATH_CONDITIONAL, PATH_SIMULATE, PATH_SPLIT, PATH_TRUTH, derive_rng

N_FEATURES = 7

_SIGMA_FLOOR = 1e-6

# Conformal baseline of the prediction study: k-NN size and calibration share.
_STUDY_K_NEIGHBORS = 25
_STUDY_CALIBRATION_FRACTION = 0.2
# Fresh draws of the true response at each test point of the study.
_STUDY_TRUTH_DRAWS = 2000


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
    n = argument(n, "n", integer, least=1)
    seed = argument(seed, "seed", integer)
    X = allocate((n, N_FEATURES))
    rng = derive_rng(seed, PATH_SIMULATE)
    rng.random(out=X)
    y = regression_mean(X) + regression_noise_sd(X) * rng.standard_normal(n)
    return X, y


def _point_block(model: GeneratorModel, X) -> np.ndarray:
    """``X`` as a checked ``(points, dim - 1)`` block; a 1-D point is one row."""
    return as_matrix(np.atleast_2d(X), "points", model.dim - 1)


def conditional_sample(
    model: GeneratorModel,
    X: np.ndarray,
    m: int,
    cfg: PassConfig,
    stream_index: int = 0,
) -> np.ndarray:
    """Draw ``m`` responses from the model's conditional law at each point of ``X``.

    Returns a ``(points, m)`` array whose row ``i`` comes from stream
    ``(cfg.mc_seed, PATH_CONDITIONAL, stream_index + i)`` through the same
    :func:`~pai.generators.latent_block` and distribution-preserving
    perturbation as unconditional synthesis, so the perturbation size never
    changes the sampled law. Stream indices must lie below ``2**64``.
    """
    model = argument(model, "model", generator_model)
    cfg = argument(cfg, "cfg", exactly(PassConfig))
    m = argument(m, "draw count m", integer, least=1)
    stream_index = argument(stream_index, "stream index", integer)
    X = _point_block(model, X)
    Z = latent_block(cfg, PATH_CONDITIONAL, stream_index, X.shape[0], m, 1)[..., 0]
    return model.conditional_response(X, Z)


@dataclass(frozen=True)
class PredictionInterval:
    """Two-sided prediction intervals; the arrays hold one entry per point."""

    lower: np.ndarray
    upper: np.ndarray
    center_estimate: np.ndarray

    def __post_init__(self) -> None:
        for name in ("lower", "upper", "center_estimate"):
            check_field(self, name, np.asarray, dtype=np.float64)
        shapes = [self.lower.shape, self.upper.shape, self.center_estimate.shape]
        if len(shapes[0]) != 1 or shapes.count(shapes[0]) != 3:
            raise InputError(f"lower, upper and center_estimate must be arrays of one length, got shapes {shapes}")
        if not np.all(self.lower <= self.upper):
            raise InputError(f"interval {np.argmin(self.lower <= self.upper)} has its bounds out of order")

    @property
    def length(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, values: np.ndarray) -> np.ndarray:
        """Whether each entry of row ``i`` of ``values`` lies in interval ``i``."""
        values = np.asarray(values, dtype=np.float64)
        return (values >= self.lower[:, None]) & (values <= self.upper[:, None])


def _least_draws(alpha: float) -> int:
    """The fewest draws a Monte Carlo interval at level ``alpha`` takes, ``ceil(4 / alpha)``.

    The one rule of :func:`pai_interval` and of an intervals document's check.
    """
    if not math.isfinite(4.0 / alpha):
        raise InputError(f"alpha {alpha} is too small: 4/alpha draws overflows")
    return math.ceil(4.0 / alpha)


def pai_interval(
    model: GeneratorModel,
    X: np.ndarray,
    alpha: float,
    m: int,
    cfg: PassConfig,
) -> PredictionInterval:
    """Monte Carlo prediction intervals from conditional synthesis at each point of ``X``.

    Point ``i`` takes its ``m`` draws from :func:`conditional_sample` stream
    ``i``, in the :func:`~pai.dataio.chunk_starts` chunks of points of ``m``
    values each.
    """
    model = argument(model, "model", generator_model)
    cfg = argument(cfg, "cfg", exactly(PassConfig))
    alpha = argument(alpha, "alpha", level)
    m = argument(m, "draw count m", integer)
    if m < _least_draws(alpha):
        raise InputError(f"need at least ceil(4/alpha) = {_least_draws(alpha)} draws, got {m}")
    X = _point_block(model, X)
    bounds = allocate((3, X.shape[0]))
    starts = chunk_starts(X.shape[0], m)
    for start in starts:
        draws = conditional_sample(model, X[start : start + starts.step], m, cfg, start)
        bounds[:, start : start + starts.step] = np.quantile(draws, [alpha / 2.0, 0.5, 1.0 - alpha / 2.0], axis=1)
    return PredictionInterval(lower=bounds[0], upper=bounds[2], center_estimate=bounds[1])


@dataclass(frozen=True)
class ConformalModel:
    """Split-conformal wrapper around k-NN location and spread estimates."""

    x_mean: np.ndarray
    x_sd: np.ndarray
    table_X: np.ndarray       # standardized modeling-split features
    table_y: np.ndarray
    table_abs_resid: np.ndarray
    k: int
    qhat: float

    def __post_init__(self) -> None:
        shape = np.shape(self.table_X)
        if len(shape) != 2:
            raise InputError(f"table_X has shape {shape}, expected a matrix")
        n, p = shape
        for name, want in (("x_mean", (p,)), ("x_sd", (p,)), ("table_y", (n,)), ("table_abs_resid", (n,))):
            if np.shape(getattr(self, name)) != want:
                raise InputError(f"{name} has shape {np.shape(getattr(self, name))}, expected {want}")
        check_field(self, "k", integer, least=1)
        if self.k > n:
            raise InputError(f"k: {self.k} exceeds the {n} rows of the table")
        check_field(self, "qhat", scalar, least=0.0)


def _knn_chunks(queries: np.ndarray, table: np.ndarray, k: int, idx: np.ndarray, chunks: list[slice]) -> None:
    """Fill ``idx[chunk]`` with the ``k`` nearest table rows to ``queries[chunk]``, chunk by chunk."""
    from scipy.spatial.distance import cdist

    for chunk in chunks:
        # Bound to a name, the previous chunk's distances live until the next
        # ones exist, so the allocator reuses their pages instead of returning
        # them to the system and faulting them back in.
        distances = cdist(queries[chunk], table)
        idx[chunk] = np.argpartition(distances, kth=k - 1, axis=1)[:, :k]


def _knn_indices(queries: np.ndarray, table: np.ndarray, k: int) -> np.ndarray:
    """Row ``i`` holds the table indices of the ``k`` nearest rows to ``queries[i]``.

    Queries go in the :func:`~pai.dataio.chunk_starts` chunks of
    ``len(table)`` distances each; each chunk's ``k``
    columns are copied out, as a slice would keep its whole ``argpartition``.
    The odd chunks run on the :func:`~pai.dataio.two_threads` worker while
    this thread runs the even ones, so two chunks of distances are in flight
    at once; ``cdist`` and ``argpartition`` release the GIL. A row's indices
    do not depend on the chunk that holds it, so the result is that of the
    chunks in a row.
    """
    idx = np.empty((queries.shape[0], k), dtype=np.intp)
    starts = chunk_starts(queries.shape[0], table.shape[0])
    chunks = [slice(start, start + starts.step) for start in starts]
    two_threads(_knn_chunks, (queries, table, k, idx, chunks[1::2]), (queries, table, k, idx, chunks[::2]))
    return idx


def _conformal_predict(model: ConformalModel, X: np.ndarray):
    idx = _knn_indices((X - model.x_mean) / model.x_sd, model.table_X, model.k)
    point = model.table_y[idx].mean(axis=1)
    spread = model.table_abs_resid[idx].mean(axis=1)
    return point, np.maximum(spread, _SIGMA_FLOOR)


def conformal_fit(
    train: np.ndarray,
    calibration_fraction: float,
    alpha: float,
    k: int,
    seed: int,
) -> ConformalModel:
    """Fit the point/spread models and calibrate the conformal quantile.

    ``train`` is an ``(n, 1 + p)`` matrix in the joint layout: the response
    in column 0, the ``p >= 1`` features after it. It is split at random
    into a modeling part (k-NN tables, in-sample absolute errors) and a
    calibration part whose normalized deviations
    ``|y - point| / max(spread, floor)`` supply the
    ``ceil((n_cal + 1)(1 - alpha))``-th order statistic as the half-width
    multiplier.
    """
    calibration_fraction = argument(calibration_fraction, "calibration_fraction", level)
    alpha = argument(alpha, "alpha", level)
    k = argument(k, "k", integer, least=1)
    seed = argument(seed, "seed", integer)
    train = as_matrix(argument(train, "train", joint), "train")
    if train.shape[1] < 2:
        raise InputError(f"train has {train.shape[1]} columns, expected a response and at least one feature")
    y, X = train[:, 0], train[:, 1:]
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
        qhat=0.0,
    )
    point_cal, spread_cal = _conformal_predict(uncalibrated, X_cal)
    scores = np.sort(np.abs(y_cal - point_cal) / spread_cal)
    rank = min(int(math.ceil((n_cal + 1) * (1.0 - alpha))), n_cal)
    return replace(uncalibrated, qhat=float(scores[rank - 1]))


def conformal_interval(model: ConformalModel, X: np.ndarray) -> PredictionInterval:
    """Intervals ``point(x) +- qhat * spread(x)`` at the calibrated level at each row of ``X``."""
    model = argument(model, "model", exactly(ConformalModel))
    X = as_matrix(np.atleast_2d(X), "points", model.x_mean.shape[0])
    point, spread = _conformal_predict(model, X)
    half = model.qhat * spread
    return PredictionInterval(lower=point - half, upper=point + half, center_estimate=point)


def _coverage_summary(
    coverage: np.ndarray, lengths: np.ndarray, baseline_coverage: np.ndarray, baseline_lengths: np.ndarray
) -> dict:
    """The ten summary values of per-point coverage and interval lengths of a method and its baseline.

    The one summary rule: :meth:`CoverageDocument.build` applies it when a
    study is scored, and :meth:`CoverageDocument.is_consistent` when a study
    file is checked.
    """
    summary = {"points": len(coverage)}
    for prefix, per_point, length in (("", coverage, lengths), ("baseline_", baseline_coverage, baseline_lengths)):
        summary[f"{prefix}mean_coverage"] = float(per_point.mean())
        summary[f"{prefix}median_coverage"] = float(np.median(per_point))
        summary[f"{prefix}mean_length"] = float(length.mean())
        summary[f"{prefix}median_length"] = float(np.median(length))
    summary["shorter_fraction"] = float((lengths < baseline_lengths).mean())
    return summary


def _point(raw) -> list:
    """A record's ``x`` under the number rule."""
    return numbers(raw, (None,)).tolist()


def _records(X: np.ndarray, columns: dict, **constants) -> list[dict]:
    """One record per row of ``X``: the row as ``x``, the constants, and its entry of each column."""
    rows = zip(X.tolist(), *(column.tolist() for column in columns.values()))
    return [{"x": x, **constants, **dict(zip(columns, values))} for x, *values in rows]


# The fields of one interval of an intervals file.
_INTERVAL_FIELDS = {
    "x": _point, **dict.fromkeys(("lower", "upper", "center", "alpha"), number), "mc_draws_used": integer,
}


@dataclass(frozen=True, kw_only=True)
class IntervalsDocument(Document):
    """Monte Carlo prediction intervals at a block of points (``pai predict``).

    ``config`` holds the draw count ``mc`` and ``tau``, and the file also
    records each interval's level and draw count.
    """

    schema = "pai-intervals/1"

    alpha: float = entry(level)
    intervals: list = entry(records(_INTERVAL_FIELDS, "interval"))
    config: dict = entry(record({"mc": integer}, "config"))

    @classmethod
    def build(cls, X: np.ndarray, interval: PredictionInterval, alpha: float, m: int, tau: float):
        """The document of :func:`pai_interval`'s intervals at the points ``X`` from ``m`` draws each."""
        columns = {"lower": interval.lower, "upper": interval.upper, "center": interval.center_estimate}
        intervals = _records(X, columns, alpha=alpha, mc_draws_used=m)
        return cls(alpha=alpha, intervals=intervals, config={"mc": m, "tau": tau})

    def is_consistent(self) -> bool:
        """Whether every interval holds its center and the document's level, from enough draws."""
        mc = self.config["mc"]
        return mc >= _least_draws(self.alpha) and all(
            iv["lower"] <= iv["center"] <= iv["upper"] and iv["alpha"] == self.alpha and iv["mc_draws_used"] == mc
            for iv in self.intervals
        )


# A coverage study file's per-point columns, and the fields of its summary and of one point.
_STUDY_COLUMNS = (
    "pai_lower", "pai_upper", "pai_center", "conformal_lower", "conformal_upper", "conformal_center",
    "pai_coverage", "conformal_coverage",
)
_SUMMARY_FIELDS = {
    "points": integer,
    **dict.fromkeys((
        "mean_coverage", "median_coverage", "mean_length", "median_length", "baseline_mean_coverage",
        "baseline_median_coverage", "baseline_mean_length", "baseline_median_length", "shorter_fraction",
    ), number),
}
_POINT_FIELDS = {"x": _point, "alpha": number, **dict.fromkeys(_STUDY_COLUMNS, number)}


@dataclass(frozen=True, kw_only=True)
class CoverageDocument(Document):
    """The prediction study's summary, per-point records and configuration (``pai coverage``)."""

    schema = "pai-coverage/1"

    config: dict = entry(record({"alpha": level}, "config"))
    summary: dict = entry(record(_SUMMARY_FIELDS, "summary"))
    points: list = entry(records(_POINT_FIELDS, "point"))

    @classmethod
    def build(cls, X: np.ndarray, interval: PredictionInterval, baseline: PredictionInterval,
              truths: np.ndarray, **config):
        """The study document of both methods' intervals at the test points ``X``, scored against ``truths``.

        Row ``i`` of the ``(points, draws)`` array ``truths`` holds fresh draws
        of the true response at point ``i``; coverage at a point is the
        fraction of those draws inside its interval, for the primary and the
        baseline intervals alike; the summary also reports the fraction of
        points where the primary interval is strictly shorter. ``config``
        holds the study's level ``alpha``.
        """
        points = interval.lower.shape[0]
        if np.ndim(truths) != 2 or len(truths) != points:
            raise InputError(f"truths must hold one row of draws per interval ({points})")
        if baseline.lower.shape[0] != points:
            raise InputError("baseline interval count must match")
        coverage = interval.contains(truths).mean(axis=1)
        baseline_coverage = baseline.contains(truths).mean(axis=1)
        columns = (
            interval.lower, interval.upper, interval.center_estimate, baseline.lower, baseline.upper,
            baseline.center_estimate, coverage, baseline_coverage,
        )
        return cls(
            config=config,
            summary=_coverage_summary(coverage, interval.length, baseline_coverage, baseline.length),
            points=_records(X, dict(zip(_STUDY_COLUMNS, columns)), alpha=config["alpha"]),
        )

    def is_consistent(self) -> bool:
        """Whether the summary re-derives and each point's two intervals hold their centers at the study's level."""
        column = {key: np.array([point[key] for point in self.points]) for key in _STUDY_COLUMNS}
        derived = _coverage_summary(
            column["pai_coverage"], column["pai_upper"] - column["pai_lower"],
            column["conformal_coverage"], column["conformal_upper"] - column["conformal_lower"],
        )
        return derived == self.summary and all(
            point[f"{method}_lower"] <= point[f"{method}_center"] <= point[f"{method}_upper"]
            and point["alpha"] == self.config["alpha"]
            for point in self.points for method in ("pai", "conformal")
        )


def run_prediction_study(
    seed: int,
    *,
    n_total: int,
    n_train: int,
    alpha: float,
    kind: str,
    tau: float = 0.0,
    pai_draws: int,
) -> CoverageDocument:
    """End-to-end benchmark: simulate, fit both methods, report coverage.

    Simulates ``n_total`` rows from the benchmark law, holds out everything
    after the first ``n_train`` rows as test points, builds Monte Carlo and
    conformal intervals for each test point, and evaluates per-point coverage
    from fresh truth draws. ``kind`` names the generator family fitted to the
    joint (response, features) sample, one of
    :data:`~pai.generators.KINDS`. The truth draws of test point ``i`` are
    the 2000 tau-0 :func:`~pai.generators.latent_block` draws of stream
    ``(seed, PATH_TRUTH, i)``. Returns the study's :class:`CoverageDocument`.
    """
    seed = argument(seed, "seed", integer)
    n_total = argument(n_total, "n_total", integer)
    n_train = argument(n_train, "n_train", integer, least=1)
    alpha = argument(alpha, "alpha", level)
    kind = argument(kind, "kind", _kind).kind
    pai_draws = argument(pai_draws, "pai_draws", integer)
    cfg = PassConfig(perturbation=PerturbationSpec(tau=tau), rank_match=False, mc_seed=seed)
    if n_train >= n_total:
        raise InputError(f"need n_train < n_total, got n_train={n_train}, n_total={n_total}")
    X, y = simulate_regression_data(n_total, seed)
    train = np.column_stack((y[:n_train], X[:n_train]))
    X_test = X[n_train:]
    model = fit_model(kind, train)
    pai_iv = pai_interval(model, X_test, alpha, pai_draws, cfg)
    conf_model = conformal_fit(train, _STUDY_CALIBRATION_FRACTION, alpha, _STUDY_K_NEIGHBORS, seed)
    conf_iv = conformal_interval(conf_model, X_test)
    truths = latent_block(PassConfig(mc_seed=seed), PATH_TRUTH, 0, X_test.shape[0], _STUDY_TRUTH_DRAWS, 1)[..., 0]
    truths *= regression_noise_sd(X_test)[:, None]
    truths += regression_mean(X_test)[:, None]
    return CoverageDocument.build(
        X_test, pai_iv, conf_iv, truths,
        seed=seed, n_total=n_total, n_train=n_train, n_test=n_total - n_train, alpha=alpha, kind=kind,
        tau=cfg.perturbation.tau, pai_draws=pai_draws, k_neighbors=_STUDY_K_NEIGHBORS,
        calibration_fraction=_STUDY_CALIBRATION_FRACTION, truth_draws=_STUDY_TRUTH_DRAWS,
    )
