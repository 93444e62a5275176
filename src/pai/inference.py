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
interval. All four procedures build it through one constructor, whose
p-value comes from one rule: none without a statistic (an untested
interval), 1 when the config records ``"degenerate": true`` (the feature
test's convention when masking changes no inference loss, so T = 0), else
the Monte Carlo :func:`~pai.empirical.p_value` among the null draws. A report
keeps its draws, and ``is_consistent`` (so ``pai verify-report``) applies
the same rule, so no report is built that its own check rejects. A report
is a :class:`~pai.dataio.Document` that declares each field once, with its
parser (:func:`~pai.dataio.entry`): ``save`` writes a versioned JSON
document (``pai-report/1`` or ``pai-pivotal/1``), and ``TestReport.load``
finds a file's kind in the one schema table, which also holds the interval
and coverage kinds of :mod:`pai.predict`. It takes either report schema and
turns any malformed document into :class:`InputError`.

The feature statistic fits two classifiers per chunk, one on all features and
one with the masked features zeroed. They do not depend on each other, so the
masked fit runs on the :func:`~pai.dataio.two_threads` worker while the
calling thread runs the full fit; numpy's ``einsum`` and scipy's ``expit``
release the GIL, so on two cores the fits overlap. Each fit runs the same
numpy calls on the same read-only arrays whichever thread runs it, so weights
and statistics have the same bits as two fits in a row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import Document, argument, as_matrix, entry, exactly, integer, joint, level, number, numbers, scalar
from .dataio import two_threads
from .empirical import Correction, EmpiricalDistribution, Sidedness, p_value
from .errors import InputError, NumericError
from .generators import GeneratorModel, PassConfig, gaussian_from_params, generator_model, sample_statistic_null
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


def _optional_number(value) -> float | None:
    return None if value is None else number(value)


def _draws(value) -> EmpiricalDistribution:
    return EmpiricalDistribution(numbers(value, (None,)))


def _derived_p_value(
    draws: EmpiricalDistribution, statistic: float | None, sidedness: Sidedness, correction: Correction, config: dict
) -> float | None:
    """The one p-value rule of a report, applied when it is built and when it is checked."""
    if statistic is None:
        return None
    if config.get("degenerate") is True:
        return 1.0
    return p_value(draws, statistic, sidedness, correction)


@dataclass(frozen=True, kw_only=True)
class TestReport(Document):
    """Self-contained result of one Monte Carlo test."""

    schema = REPORT_SCHEMA

    test_name: str = entry(exactly(str), key="test")
    statistic: float = entry(number)
    p_value: float = entry(number)
    sidedness: Sidedness = entry(Sidedness, lambda sidedness: sidedness.value)
    correction: Correction = entry(Correction, lambda correction: correction.value)
    null_draws: EmpiricalDistribution = entry(_draws, lambda draws: draws.values.tolist())
    seed: int = entry(integer)
    config: dict = entry(exactly(dict))

    def is_consistent(self) -> bool:
        """Whether the stored p-value re-derives from the stored draws."""
        derived = _derived_p_value(self.null_draws, self.statistic, self.sidedness, self.correction, self.config)
        return derived == self.p_value

    def summary(self) -> str:
        """One line stating the result."""
        return (
            f"statistic={self.statistic:.6g} p={self.p_value:.6g} "
            f"({self.sidedness.value}, {self.correction.value})"
        )


def _build_report(
    report_type: type[TestReport], test_name: str, statistic: float | None, draws: EmpiricalDistribution,
    sidedness: Sidedness, correction: Correction, cfg: PassConfig, D: int, config: dict, **fields,
) -> TestReport:
    """The one report constructor; ``config`` gains ``test``, ``D`` and ``tau`` here.

    ``statistic`` is ``None`` for an untested pivotal interval, and
    ``fields`` are the extra :class:`PivotalReport` fields.
    """
    config = {"test": test_name, "D": D, "tau": cfg.perturbation.tau, **config}
    statistic = None if statistic is None else float(statistic)
    p = _derived_p_value(draws, statistic, sidedness, correction, config)
    return report_type(
        test_name=test_name, statistic=statistic, p_value=p, sidedness=sidedness, correction=correction,
        null_draws=draws, seed=cfg.mc_seed, config=config, **fields,
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
    model = argument(model, "model", generator_model)
    cfg = argument(cfg, "cfg", exactly(PassConfig))
    D = argument(D, "Monte Carlo size D", integer, least=2)
    sidedness = argument(sidedness, "sidedness", Sidedness)
    correction = argument(correction, "correction", Correction)
    d = model.dim
    reference = as_matrix(reference, "reference", d)
    candidate = as_matrix(candidate, "candidate", d)
    if min(reference.shape[0], candidate.shape[0]) < d + 2:
        raise InputError(f"need at least d + 2 = {d + 2} rows per sample")
    ref_summary = gaussian_summary(reference)
    statistic = fid(ref_summary, gaussian_summary(candidate))
    n_draw = candidate.shape[0]
    draws = sample_statistic_null(
        model, n_draw, D, lambda chunk: fid(ref_summary, gaussian_summary(chunk)), cfg
    )
    config = {
        "n_reference": int(reference.shape[0]), "n_candidate": int(n_draw), "dim": d,
        "model_kind": model.kind, "model_fitted_on": model.fit_info.data_hash,
    }
    return _build_report(TestReport, "fid", statistic, draws, sidedness, correction, cfg, D, config)


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

    The masked fit runs on the :func:`~pai.dataio.two_threads` worker while
    this thread runs the full fit; the result has the same bits as two fits
    in a row (see the module docstring).
    """
    mu, sd = _standardize(train_X)
    Xt = (train_X - mu) / sd
    Xi = (inf_X - mu) / sd
    Xt_masked = Xt.copy()
    Xt_masked[..., mask] = 0.0
    Xi_masked = Xi.copy()
    Xi_masked[..., mask] = 0.0
    masked_args, full_args = (_with_intercept(Xt_masked), train_y), (_with_intercept(Xt), train_y)
    w_masked, w_full = two_threads(_fit_logistic, masked_args, full_args)
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
    train: np.ndarray,
    inference: np.ndarray,
    masked_features,
    model: GeneratorModel,
    D: int,
    cfg: PassConfig,
    correction: Correction = Correction.PLUS_ONE,
) -> TestReport:
    """Significance test for a feature subset in binary classification.

    ``train`` and ``inference`` are ``(n, model.dim)`` matrices in the joint
    ``(label, features)`` layout of ``model``, its CSV files and its
    replicates: the binary 0/1 label in column 0, the features after it.
    The statistic is the paired-studentized difference between the inference
    risks of a classifier trained on all features and one trained with the
    masked columns zeroed (after standardization); informative features make
    the difference negative, so the p-value is lower-tailed. Null replicates
    are drawn from ``model``; synthesized label columns are binarized at 0.5.
    Each replicate is split into train and inference parts with the same
    sizes as the real data, by the one split that also scores the real pair.

    ``model`` must embody the null hypothesis: fit it on data where the
    masked features carry no signal, e.g. on a holdout sample with the
    masked columns zeroed (ridge regularization then synthesizes them as
    independent noise). A model fitted on raw signal-bearing data would
    reproduce the alternative in the null draws and destroy power.
    """
    model = argument(model, "model", generator_model)
    cfg = argument(cfg, "cfg", exactly(PassConfig))
    D = argument(D, "Monte Carlo size D", integer, least=2)
    correction = argument(correction, "correction", Correction)
    masked_features = argument(masked_features, "masked features", list)
    mask = sorted({argument(i, "masked feature index", integer) for i in masked_features})
    train = as_matrix(argument(train, "train", joint), "train", model.dim)
    inference = as_matrix(argument(inference, "inference", joint), "inference", model.dim)
    for name, labels in (("train", train[:, 0]), ("inference", inference[:, 0])):
        if not np.all(np.isin(labels, (0.0, 1.0))):
            raise InputError(f"{name} labels must be binary 0/1")
    if np.unique(train[:, 0]).shape[0] < 2:
        raise InputError("train labels contain a single class")
    if not mask:
        raise InputError("masked feature set is empty")
    p = model.dim - 1  # the label is column 0 of the model's layout
    # Compared as Python ints, so an index beyond int64 is refused like any other.
    if mask[-1] >= p:
        raise InputError(f"masked feature indices must lie in 0..{p - 1}")
    mask = np.asarray(mask, dtype=np.intp)
    n_train, n_inf = train.shape[0], inference.shape[0]

    def split_statistic(joint: np.ndarray):
        """The statistic of the first ``n_train`` rows against the rest, over leading batch axes."""
        labels = (joint[..., 0] >= _LABEL_THRESHOLD).astype(np.float64)
        features = joint[..., 1:]
        return _risk_difference_statistic(
            features[..., :n_train, :], labels[..., :n_train], features[..., n_train:, :], labels[..., n_train:], mask
        )

    draws = sample_statistic_null(model, n_train + n_inf, D, lambda chunk: split_statistic(chunk)[0], cfg)
    statistic, degenerate = split_statistic(np.concatenate((train, inference)))
    config = {
        "n_train": n_train,
        "n_inference": n_inf,
        "dim": p,
        "masked_features": mask.tolist(),
        "label_threshold": _LABEL_THRESHOLD,
        "model_kind": model.kind,
        "model_fitted_on": model.fit_info.data_hash,
    }
    if degenerate:
        # Masking changes no inference loss: T = 0 and, by the report rule, p = 1.
        config["degenerate"] = True
    return _build_report(TestReport, "feature", statistic, draws, Sidedness.LOWER_TAIL, correction, cfg, D, config)


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
    cfg = argument(cfg, "cfg", exactly(PassConfig))
    D = argument(D, "Monte Carlo size D", integer, least=2)
    correction = argument(correction, "correction", Correction)
    d = argument(cond_model1, "cond_model1", generator_model).dim
    if argument(cond_model2, "cond_model2", generator_model).dim != d:
        raise InputError(f"cond_model2 dim {cond_model2.dim} != cond_model1 dim {d}")
    group1 = as_matrix(group1, "group1", d)
    group2 = as_matrix(group2, "group2", d)
    n1, n2 = group1.shape[0], group2.shape[0]
    if min(n1, n2) < d + 2:
        raise InputError(f"need at least d + 2 = {d + 2} rows per group")
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
        "n_group1": n1, "n_group2": n2, "dim": d,
        "null_draws_total": 2 * D, "model_kinds": [cond_model1.kind, cond_model2.kind],
    }
    return _build_report(TestReport, "coherence", statistic, draws, Sidedness.UPPER_TAIL, correction, cfg, D, config)


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

    test_name: str = "pivotal"  # not in the file, which has no "test" key
    statistic: float | None = entry(_optional_number)
    p_value: float | None = entry(_optional_number)
    estimate: float = entry(number)
    scale: float = entry(number)
    alpha: float = entry(level)
    lower: float = entry(number)
    upper: float = entry(number)
    pivot: str = entry(exactly(str))

    def is_consistent(self) -> bool:
        """Whether the stored interval and p-value re-derive from the stored draws."""
        interval = _pivot_interval(self.null_draws, self.estimate, self.scale, self.alpha)
        return interval == (self.lower, self.upper) and super().is_consistent()

    def summary(self) -> str:
        p_text = "n/a" if self.p_value is None else f"{self.p_value:.6g}"
        return (
            f"estimate={self.estimate:.6g} interval=[{self.lower:.6g}, {self.upper:.6g}] "
            f"p={p_text}"
        )


def pivotal_inference(
    inference: np.ndarray,
    D: int,
    cfg: PassConfig,
    alpha: float = 0.05,
    theta0: float | None = None,
    sigma: float | None = None,
    center: float | None = None,
    sidedness: Sidedness = Sidedness.TWO_SIDED,
    correction: Correction = Correction.PLUS_ONE,
) -> PivotalReport:
    """Monte Carlo inference for a pivotal statistic of the Gaussian mean.

    ``inference`` is one column: a 1-D sample or an ``(n, 1)`` matrix.
    Because the pivot's law does not depend on the parameters, the generator
    may be fitted on the inference sample itself: replicate ``k`` refits the
    estimates on a synthetic sample and the pivot values are exact draws from
    the pivot's distribution. ``center`` optionally replaces the fitted mean
    used for generation - the pivot cancels it, which is the point.

    The pivot follows ``sigma``: without it, ``studentized_mean`` uses
    ``sqrt(n) (mean - theta) / sd``; with it, ``mean_known_scale`` uses the
    known ``sigma`` in place of the sample standard deviation (and generates
    with that known scale).
    Returns the inverted ``1 - alpha`` confidence interval, plus a p-value
    for ``H0: theta = theta0`` when ``theta0`` is given.
    """
    cfg = argument(cfg, "cfg", exactly(PassConfig))
    D = argument(D, "Monte Carlo size D", integer, least=2)
    alpha = argument(alpha, "alpha", level)
    theta0 = None if theta0 is None else argument(theta0, "theta0", scalar)
    sigma = None if sigma is None else argument(sigma, "sigma", scalar)
    center = None if center is None else argument(center, "center", scalar)
    sidedness = argument(sidedness, "sidedness", Sidedness)
    correction = argument(correction, "correction", Correction)
    data = as_matrix(inference, "inference", 1)[:, 0]
    n = data.shape[0]
    if n < 3:
        raise InputError(f"pivotal inference needs n >= 3, got {n}")
    theta_hat = float(data.mean())
    sd_hat = float(data.std(ddof=1))
    theta_tilde = theta_hat if center is None else float(center)
    if not math.isfinite(theta_hat) or (sigma is None and not math.isfinite(sd_hat)):
        raise NumericError(f"the sample mean or sd overflows float64 (mean {theta_hat}, sd {sd_hat})")
    if sigma is None:
        if sd_hat <= 0:
            raise InputError("studentized pivot needs a non-degenerate sample")
        pivot, gen_scale = "studentized_mean", sd_hat
    else:
        if sigma <= 0:
            raise InputError("mean_known_scale pivot needs sigma > 0")
        pivot, gen_scale = "mean_known_scale", float(sigma)
    obs_scale = gen_scale / math.sqrt(n)
    if obs_scale == 0.0:
        raise InputError(f"the pivot's scale / sqrt(n) underflows to 0 (scale {gen_scale})")
    statistic = None
    if theta0 is not None:
        statistic = (theta_hat - float(theta0)) / obs_scale
        if not math.isfinite(statistic):
            raise NumericError(f"the test statistic overflows float64 at theta0 = {theta0:.6g}")
    model = gaussian_from_params([theta_tilde], chol=[[gen_scale]])

    def pivot_values(chunk: np.ndarray) -> np.ndarray:
        synthetic = chunk[..., 0]
        spread = synthetic.std(axis=-1, ddof=1) if sigma is None else gen_scale
        values = math.sqrt(n) * (synthetic.mean(axis=-1) - theta_tilde) / spread
        if not (np.isfinite(values).all() and np.isfinite(spread).all()):
            name = "the sample sd" if sigma is None else "sigma"
            raise NumericError(f"the pivot's draws overflow float64 at {name} = {gen_scale:.6g}")
        return values

    draws = sample_statistic_null(model, n, D, pivot_values, cfg)
    lower, upper = _pivot_interval(draws, theta_hat, obs_scale, alpha)
    config = {"pivot": pivot, "n": n, "alpha": alpha, "theta0": theta0, "sigma": sigma, "center": center}
    return _build_report(
        PivotalReport, "pivotal", statistic, draws, sidedness, correction, cfg, D, config,
        estimate=theta_hat, scale=obs_scale, alpha=alpha, lower=lower, upper=upper, pivot=pivot,
    )
