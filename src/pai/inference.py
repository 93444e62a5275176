"""Monte Carlo hypothesis tests and pivotal inference.

Each procedure computes its statistic on real data, recomputes it on ``D``
synthetic replicates through :func:`~pai.generators.sample_statistic_null`
to form the empirical null distribution, and reports a Monte Carlo p-value.
The replicates come in stacked chunks of bounded size, and every statistic
is computed on a whole chunk at once (the stacked
:func:`~pai.metrics.gaussian_summary` and :func:`~pai.metrics.fid`, and the
feature test's learner, which runs over leading batch axes), with the same
bits as one replicate at a time:

* :func:`test_two_sample_fid` - is a candidate sample distributionally
  indistinguishable from a reference sample? (two-sided by default, since a
  candidate generator may be better or worse than the baseline);
* :func:`test_feature_significance` - does masking a feature subset degrade
  a classifier's risk on an independent inference split? (lower tail);
* :func:`test_conditional_coherence` - do two groups share one conditional
  law? Null draws from both groups' models are mixed (upper tail);
* :func:`pivotal_inference` - exact tests and confidence intervals for
  pivotal statistics of the Gaussian mean, where the synthetic null is valid
  even when fitted on the inference sample itself.

Every result is a :class:`TestReport`; pivotal inference returns the
subclass :class:`PivotalReport`, which adds the inverted confidence
interval. A report keeps its null draws, so ``is_consistent`` re-derives the
stored p-value and interval exactly. ``save`` writes a versioned JSON
document (``pai-report/1`` or ``pai-pivotal/1``) and ``TestReport.load``
reads either, turning any malformed document into :class:`InputError`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .dataio import read_json_object, write_json
from .empirical import Correction, EmpiricalDistribution, Sidedness, p_value
from .errors import InputError
from .generators import GeneratorModel, PassConfig, gaussian_from_params, sample_statistic_null
from .metrics import fid, gaussian_summary

REPORT_SCHEMA = "pai-report/1"
PIVOTAL_SCHEMA = "pai-pivotal/1"

# Fixed learner for the feature-significance statistic: full-batch gradient
# descent logistic regression. The exact learner is incidental; it only has
# to be applied identically to real and synthetic data.
_LOGISTIC_ITERATIONS = 500
_LOGISTIC_STEP = 0.1
# Synthesized label columns are continuous; they are binarized here.
_LABEL_THRESHOLD = 0.5


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _optional_number(value) -> float | None:
    return None if value is None else _number(value)


def _level(value) -> float:
    if not 0.0 < _number(value) < 1.0:
        raise ValueError(f"expected a level in (0, 1), got {value!r}")
    return float(value)


def _draws(value) -> EmpiricalDistribution:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of numbers, got {type(value).__name__}")
    return EmpiricalDistribution(np.array([_number(v) for v in value], dtype=np.float64))


def _exactly(kind: type):
    def parse(value):
        if type(value) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
        return value

    return parse


def _report_field(payload: dict, key: str, parse):
    """``parse(payload[key])``; a missing key or a value it rejects is an InputError."""
    if key not in payload:
        raise InputError(f"report document lacks field {key!r}")
    try:
        return parse(payload[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"report field {key!r}: {exc}") from None


def _common_fields(payload: dict, scalar) -> dict:
    """Fields every report document has; ``scalar`` parses statistic and p-value."""
    return {
        "statistic": _report_field(payload, "statistic", scalar),
        "p_value": _report_field(payload, "p_value", scalar),
        "sidedness": _report_field(payload, "sidedness", Sidedness),
        "correction": _report_field(payload, "correction", Correction),
        "null_draws": _report_field(payload, "null_draws", _draws),
        "seed": _report_field(payload, "seed", _exactly(int)),
        "config": _report_field(payload, "config", _exactly(dict)),
    }


@dataclass(frozen=True, kw_only=True)
class TestReport:
    """Self-contained result of one Monte Carlo test."""

    schema = REPORT_SCHEMA

    test_name: str
    statistic: float
    p_value: float
    sidedness: Sidedness
    correction: Correction
    null_draws: EmpiricalDistribution
    seed: int
    config: dict

    def is_consistent(self) -> bool:
        """Whether the stored p-value re-derives from the stored draws."""
        recomputed = p_value(self.null_draws, self.statistic, self.sidedness, self.correction)
        return recomputed == self.p_value

    def summary(self) -> str:
        """One line stating the result."""
        return (
            f"statistic={self.statistic:.6g} p={self.p_value:.6g} "
            f"({self.sidedness.value}, {self.correction.value})"
        )

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "test": self.test_name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "sidedness": self.sidedness.value,
            "correction": self.correction.value,
            "null_draws": self.null_draws.values.tolist(),
            "seed": self.seed,
            "config": self.config,
        }

    def save(self, path: str | os.PathLike) -> None:
        write_json(path, self.to_dict())

    @staticmethod
    def _parse_fields(payload: dict) -> dict:
        fields = _common_fields(payload, _number)
        return {"test_name": _report_field(payload, "test", _exactly(str)), **fields}

    @staticmethod
    def from_dict(payload: dict) -> "TestReport":
        """Parse a document of either report schema."""
        schema = payload.get("schema") if isinstance(payload, dict) else None
        for report_type in (TestReport, PivotalReport):
            if schema == report_type.schema:
                return report_type(**report_type._parse_fields(payload))
        raise InputError(f"unrecognized report schema: {schema!r}")

    @staticmethod
    def load(path: str | os.PathLike) -> "TestReport":
        """Read a report file of either schema."""
        return TestReport.from_dict(read_json_object(path, "report"))


def _build_report(
    test_name: str,
    statistic: float,
    draws: EmpiricalDistribution,
    sidedness: Sidedness,
    correction: Correction,
    cfg: PassConfig,
    config: dict,
    p_override: float | None = None,
) -> TestReport:
    p = p_value(draws, statistic, sidedness, correction) if p_override is None else p_override
    return TestReport(
        test_name=test_name,
        statistic=float(statistic),
        p_value=float(p),
        sidedness=sidedness,
        correction=correction,
        null_draws=draws,
        seed=cfg.mc_seed,
        config=config,
    )


def test_two_sample_fid(
    reference: np.ndarray,
    candidate: np.ndarray,
    model: GeneratorModel,
    D: int,
    cfg: PassConfig,
    sidedness: Sidedness = Sidedness.TWO_SIDED,
    correction: Correction = Correction.PLUS_ONE,
) -> TestReport:
    """Frechet-distance test of a candidate sample against a reference.

    The null draws replace the candidate with PASS samples of the same size
    from ``model``, which is expected to be fitted on data independent of the
    reference (caller's contract; the model's fit descriptor is echoed into
    the report so the provenance is auditable).
    """
    reference = np.asarray(reference, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if reference.ndim != 2 or candidate.ndim != 2:
        raise InputError("reference and candidate must be 2-D matrices")
    if reference.shape[1] != candidate.shape[1]:
        raise InputError("reference and candidate must share their dimension")
    d = reference.shape[1]
    if min(reference.shape[0], candidate.shape[0]) < d + 2:
        raise InputError(f"need at least d + 2 = {d + 2} rows per sample")
    if d != model.dim:
        raise InputError(f"model dim {model.dim} != data dim {d}")
    ref_summary = gaussian_summary(reference)
    statistic = fid(ref_summary, gaussian_summary(candidate))
    n_draw = candidate.shape[0]
    draws = sample_statistic_null(
        model, n_draw, D, lambda chunk: fid(ref_summary, gaussian_summary(chunk)), cfg
    )
    config = {
        "test": "fid",
        "n_reference": int(reference.shape[0]),
        "n_candidate": int(n_draw),
        "dim": d,
        "D": D,
        "tau": cfg.perturbation.tau,
        "model_kind": model.kind,
        "model_fitted_on": model.fit_info.data_hash,
    }
    return _build_report("fid", statistic, draws, sidedness, correction, cfg, config)


def _standardize(train_X: np.ndarray):
    mu = train_X.mean(axis=-2, keepdims=True)
    sd = train_X.std(axis=-2, keepdims=True)
    sd = np.where(sd == 0, 1.0, sd)
    return mu, sd


def _with_intercept(X: np.ndarray) -> np.ndarray:
    ones = np.ones(X.shape[:-1] + (1,))
    return np.concatenate((X, ones), axis=-1)


def _fit_logistic(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full-batch gradient-descent logistic fit; broadcasts over leading axes."""
    from scipy.special import expit

    n = X.shape[-2]
    w = np.zeros(X.shape[:-2] + (X.shape[-1],))
    for _ in range(_LOGISTIC_ITERATIONS):
        z = np.einsum("...np,...p->...n", X, w)
        grad = np.einsum("...np,...n->...p", X, expit(z) - y) / n
        w = w - _LOGISTIC_STEP * grad
    return w


def _log_loss(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    z = np.einsum("...np,...p->...n", X, w)
    return np.logaddexp(0.0, z) - y * z


def _risk_difference_statistic(
    train_X: np.ndarray,
    train_y: np.ndarray,
    inf_X: np.ndarray,
    inf_y: np.ndarray,
    mask: np.ndarray,
):
    """Studentized risk difference between full and masked classifiers.

    Returns ``(T, degenerate)`` where ``degenerate`` flags identically-zero
    paired loss differences (then ``T = 0`` by convention). Broadcasts over
    leading batch axes.
    """
    mu, sd = _standardize(train_X)
    Xt = (train_X - mu) / sd
    Xi = (inf_X - mu) / sd
    Xt_masked = Xt.copy()
    Xt_masked[..., mask] = 0.0
    Xi_masked = Xi.copy()
    Xi_masked[..., mask] = 0.0
    w_full = _fit_logistic(_with_intercept(Xt), train_y)
    w_masked = _fit_logistic(_with_intercept(Xt_masked), train_y)
    loss_full = _log_loss(_with_intercept(Xi), inf_y, w_full)
    loss_masked = _log_loss(_with_intercept(Xi_masked), inf_y, w_masked)
    diffs = loss_full - loss_masked
    n = diffs.shape[-1]
    mean = diffs.mean(axis=-1)
    scatter = diffs.std(axis=-1, ddof=1)
    degenerate = np.all(diffs == 0.0, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        T = np.where(scatter > 0, math.sqrt(n) * mean / np.where(scatter > 0, scatter, 1.0), 0.0)
    return T, degenerate


def test_feature_significance(
    train: tuple[np.ndarray, np.ndarray],
    inference: tuple[np.ndarray, np.ndarray],
    masked_features,
    model: GeneratorModel,
    D: int,
    cfg: PassConfig,
    correction: Correction = Correction.PLUS_ONE,
) -> TestReport:
    """Significance test for a feature subset in binary classification.

    The statistic is the paired-studentized difference between the inference
    risks of a classifier trained on all features and one trained with the
    masked columns zeroed (after standardization); informative features make
    the difference negative, so the p-value is lower-tailed. Null replicates
    are drawn from ``model``, a transport over the joint ``(label,
    features)`` layout with the label in column 0; synthesized label columns
    are binarized at 0.5. Each replicate is split into train and inference
    parts with the same sizes as the real data.

    ``model`` must embody the null hypothesis: fit it on data where the
    masked features carry no signal, e.g. on a holdout sample with the
    masked columns zeroed (ridge regularization then synthesizes them as
    independent noise). A model fitted on raw signal-bearing data would
    reproduce the alternative in the null draws and destroy power.
    """
    train_X, train_y = (np.asarray(a, dtype=np.float64) for a in train)
    inf_X, inf_y = (np.asarray(a, dtype=np.float64) for a in inference)
    if train_X.ndim != 2 or inf_X.ndim != 2 or train_X.shape[1] != inf_X.shape[1]:
        raise InputError("train and inference features must be 2-D with equal dimension")
    p = train_X.shape[1]
    for name, y, X in (("train", train_y, train_X), ("inference", inf_y, inf_X)):
        if y.shape != (X.shape[0],):
            raise InputError(f"{name} labels must be one per row")
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise InputError(f"{name} labels must be binary 0/1")
    if np.unique(train_y).shape[0] < 2:
        raise InputError("train labels contain a single class")
    mask = np.asarray(sorted(set(int(i) for i in masked_features)), dtype=np.intp)
    if mask.shape[0] == 0:
        raise InputError("masked feature set is empty")
    if mask.min() < 0 or mask.max() >= p:
        raise InputError(f"masked feature indices must lie in 0..{p - 1}")
    if model.dim != p + 1:
        raise InputError(
            f"model dim {model.dim} != 1 + feature dim {p} (label column 0 plus features)"
        )
    n_train, n_inf = train_X.shape[0], inf_X.shape[0]

    def replicate_statistic(chunk: np.ndarray) -> np.ndarray:
        labels = (chunk[..., 0] >= _LABEL_THRESHOLD).astype(np.float64)
        features = chunk[..., 1:]
        values, _ = _risk_difference_statistic(
            features[:, :n_train], labels[:, :n_train], features[:, n_train:], labels[:, n_train:], mask
        )
        return values

    draws = sample_statistic_null(model, n_train + n_inf, D, replicate_statistic, cfg)
    statistic, degenerate = _risk_difference_statistic(train_X, train_y, inf_X, inf_y, mask)
    statistic = float(statistic)
    config = {
        "test": "feature",
        "n_train": n_train,
        "n_inference": n_inf,
        "dim": p,
        "masked_features": mask.tolist(),
        "D": D,
        "tau": cfg.perturbation.tau,
        "label_threshold": _LABEL_THRESHOLD,
        "model_kind": model.kind,
        "model_fitted_on": model.fit_info.data_hash,
    }
    p_override = 1.0 if bool(degenerate) else None
    return _build_report(
        "feature", statistic, draws, Sidedness.LOWER_TAIL, correction, cfg, config, p_override
    )


def test_conditional_coherence(
    group1: np.ndarray,
    group2: np.ndarray,
    cond_model1: GeneratorModel,
    cond_model2: GeneratorModel,
    D: int,
    cfg: PassConfig,
    correction: Correction = Correction.PLUS_ONE,
) -> TestReport:
    """Coherence test between two conditions via their generators.

    Under the null the two conditions share one law, so a synthetic draw
    from either model, split into group-sized pieces, gives a valid null
    replicate of the between-group Frechet distance; using both models and
    mixing the two sets of draws keeps the null symmetric in the conditions.
    Groups may have different sizes; every null split mirrors them.
    """
    group1 = np.asarray(group1, dtype=np.float64)
    group2 = np.asarray(group2, dtype=np.float64)
    if group1.ndim != 2 or group2.ndim != 2 or group1.shape[1] != group2.shape[1]:
        raise InputError("groups must be 2-D matrices with equal dimension")
    d = group1.shape[1]
    n1, n2 = group1.shape[0], group2.shape[0]
    if min(n1, n2) < d + 2:
        raise InputError(f"need at least d + 2 = {d + 2} rows per group")
    for label, model in (("cond_model1", cond_model1), ("cond_model2", cond_model2)):
        if model.dim != d:
            raise InputError(f"{label} dim {model.dim} != data dim {d}")
    statistic = fid(gaussian_summary(group1), gaussian_summary(group2))

    def split_fid(pooled: np.ndarray) -> np.ndarray:
        return fid(gaussian_summary(pooled[:, :n1]), gaussian_summary(pooled[:, n1:]))

    # Model 1 uses streams 0..D-1 and model 2 streams D..2D-1.
    halves = [
        sample_statistic_null(model, n1 + n2, D, split_fid, cfg, first_replicate=which * D)
        for which, model in enumerate((cond_model1, cond_model2))
    ]
    draws = EmpiricalDistribution(np.concatenate([half.values for half in halves]))
    config = {
        "test": "coherence",
        "n_group1": n1,
        "n_group2": n2,
        "dim": d,
        "D": D,
        "null_draws_total": 2 * D,
        "tau": cfg.perturbation.tau,
        "model_kinds": [cond_model1.kind, cond_model2.kind],
    }
    return _build_report(
        "coherence", statistic, draws, Sidedness.UPPER_TAIL, correction, cfg, config
    )


PIVOT_STUDENTIZED_MEAN = "studentized_mean"
PIVOT_MEAN_KNOWN_SCALE = "mean_known_scale"


def _pivot_interval(
    draws: EmpiricalDistribution, estimate: float, scale: float, alpha: float
) -> tuple[float, float]:
    """The ``1 - alpha`` interval for the mean, inverted from the pivot's draws."""
    q_lo, q_hi = draws.quantile([alpha / 2.0, 1.0 - alpha / 2.0])
    return estimate - float(q_hi) * scale, estimate - float(q_lo) * scale


@dataclass(frozen=True, kw_only=True)
class PivotalReport(TestReport):
    """Confidence interval (and optional test) from pivotal Monte Carlo.

    ``statistic`` and ``p_value`` are ``None`` when no null value was tested.
    """

    schema = PIVOTAL_SCHEMA

    test_name: str = "pivotal"
    estimate: float
    scale: float
    alpha: float
    lower: float
    upper: float
    pivot: str

    def is_consistent(self) -> bool:
        """Whether the stored interval and p-value re-derive from the stored draws."""
        interval = _pivot_interval(self.null_draws, self.estimate, self.scale, self.alpha)
        if interval != (self.lower, self.upper):
            return False
        if self.statistic is None:
            return self.p_value is None
        return super().is_consistent()

    def summary(self) -> str:
        p_text = "n/a" if self.p_value is None else f"{self.p_value:.6g}"
        return (
            f"estimate={self.estimate:.6g} interval=[{self.lower:.6g}, {self.upper:.6g}] "
            f"p={p_text}"
        )

    def to_dict(self) -> dict:
        doc = super().to_dict()
        del doc["test"]
        doc.update(
            pivot=self.pivot,
            estimate=self.estimate,
            scale=self.scale,
            alpha=self.alpha,
            lower=self.lower,
            upper=self.upper,
        )
        return doc

    @staticmethod
    def _parse_fields(payload: dict) -> dict:
        return {
            "pivot": _report_field(payload, "pivot", _exactly(str)),
            "estimate": _report_field(payload, "estimate", _number),
            "scale": _report_field(payload, "scale", _number),
            "alpha": _report_field(payload, "alpha", _level),
            "lower": _report_field(payload, "lower", _number),
            "upper": _report_field(payload, "upper", _number),
            **_common_fields(payload, _optional_number),
        }


def pivotal_inference(
    inference: np.ndarray,
    D: int,
    cfg: PassConfig,
    alpha: float = 0.05,
    pivot: str = PIVOT_STUDENTIZED_MEAN,
    theta0: float | None = None,
    sigma: float | None = None,
    center: float | None = None,
    sidedness: Sidedness = Sidedness.TWO_SIDED,
    correction: Correction = Correction.PLUS_ONE,
) -> PivotalReport:
    """Monte Carlo inference for a pivotal statistic of the Gaussian mean.

    Because the pivot's law does not depend on the parameters, the generator
    may be fitted on the inference sample itself: replicate ``k`` refits the
    estimates on a synthetic sample and the pivot values are exact draws from
    the pivot's distribution. ``center`` optionally replaces the fitted mean
    used for generation - the pivot cancels it, which is the point.

    Pivots: ``studentized_mean`` uses ``sqrt(n) (mean - theta) / sd``;
    ``mean_known_scale`` uses a caller-supplied ``sigma`` in place of the
    sample standard deviation (and generates with that known scale).
    Returns the inverted ``1 - alpha`` confidence interval, plus a p-value
    for ``H0: theta = theta0`` when ``theta0`` is given.
    """
    data = np.asarray(inference, dtype=np.float64).ravel()
    n = data.shape[0]
    if n < 3:
        raise InputError(f"pivotal inference needs n >= 3, got {n}")
    if not np.all(np.isfinite(data)):
        raise InputError("inference sample contains non-finite entries")
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must be in (0, 1)")
    theta_hat = float(data.mean())
    sd_hat = float(data.std(ddof=1))
    theta_tilde = theta_hat if center is None else float(center)
    if pivot == PIVOT_STUDENTIZED_MEAN:
        if sd_hat <= 0:
            raise InputError("studentized pivot needs a non-degenerate sample")
        gen_scale = sd_hat
        obs_scale = sd_hat / math.sqrt(n)
    elif pivot == PIVOT_MEAN_KNOWN_SCALE:
        if sigma is None or not math.isfinite(sigma) or sigma <= 0:
            raise InputError("mean_known_scale pivot needs sigma > 0")
        gen_scale = float(sigma)
        obs_scale = gen_scale / math.sqrt(n)
    else:
        raise InputError(f"unknown pivot {pivot!r}")
    model = gaussian_from_params([theta_tilde], chol=[[gen_scale]])

    def pivot_values(chunk: np.ndarray) -> np.ndarray:
        synthetic = chunk[..., 0]
        spread = synthetic.std(axis=-1, ddof=1) if pivot == PIVOT_STUDENTIZED_MEAN else gen_scale
        return math.sqrt(n) * (synthetic.mean(axis=-1) - theta_tilde) / spread

    draws = sample_statistic_null(model, n, D, pivot_values, cfg)
    lower, upper = _pivot_interval(draws, theta_hat, obs_scale, alpha)
    statistic = None
    p = None
    if theta0 is not None:
        statistic = (theta_hat - float(theta0)) / obs_scale
        p = p_value(draws, statistic, sidedness, correction)
    config = {
        "test": "pivotal",
        "pivot": pivot,
        "n": n,
        "D": D,
        "alpha": alpha,
        "theta0": theta0,
        "sigma": sigma,
        "center": center,
        "tau": cfg.perturbation.tau,
    }
    return PivotalReport(
        estimate=theta_hat,
        scale=obs_scale,
        alpha=alpha,
        lower=lower,
        upper=upper,
        pivot=pivot,
        statistic=statistic,
        p_value=p,
        sidedness=sidedness,
        correction=correction,
        null_draws=draws,
        seed=cfg.mc_seed,
        config=config,
    )
