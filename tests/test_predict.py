import math

import numpy as np
import pytest
from scipy import stats

from pai import (
    InputError,
    NumericError,
    PassConfig,
    PerturbationSpec,
    conditional_sample,
    conformal_fit,
    conformal_interval,
    coverage_report,
    fit_copula,
    fit_location_scale,
    gaussian_from_params,
    pai_interval,
    regression_mean,
    regression_noise_sd,
    simulate_regression_data,
)
from pai.generators import fit_model
from pai.predict import PredictionInterval

# 1e7-draw oracle mean of the benchmark response (analytic series check:
# 8 + 1/3 + 1/4 + sin(1) + sum_k 1/((k+1)^2 k!) + 0.05 = 10.79271)
ORACLE_MEAN_Y = 10.79282
ORACLE_SD_Y = 0.5621


def test_regression_surface_hand_values():
    assert regression_mean(np.zeros(7)) == pytest.approx(10.0)
    x = np.zeros(7)
    x[0] = 1.0
    assert regression_mean(x) == pytest.approx(11.0)
    assert regression_noise_sd(x) == pytest.approx(0.4)
    assert regression_noise_sd(np.zeros(7)) == 0.0


def test_simulated_mean_matches_oracle():
    n = 100_000
    X, y = simulate_regression_data(n, seed=4242)
    se = ORACLE_SD_Y / math.sqrt(n)
    assert abs(y.mean() - ORACLE_MEAN_Y) < 3 * se
    # light oracle re-check so the frozen constant cannot drift unnoticed
    rng = np.random.default_rng(20240607)
    Xo = rng.random((1_000_000, 7))
    yo = regression_mean(Xo) + regression_noise_sd(Xo) * rng.standard_normal(1_000_000)
    assert abs(yo.mean() - ORACLE_MEAN_Y) < 4 * ORACLE_SD_Y / 1000.0
    assert X.shape == (n, 7)
    assert X.min() >= 0.0 and X.max() <= 1.0


def _bivariate_model(rho):
    cov = np.array([[1.0, rho], [rho, 1.0]])
    return gaussian_from_params(np.zeros(2), cov=cov)


def test_conditional_sample_matches_gaussian_oracle():
    rho = 0.8
    model = _bivariate_model(rho)
    m = 100_000
    for xv in (-1.0, 0.0, 1.5):
        draws = conditional_sample(model, [xv], m, PassConfig(mc_seed=31), stream_index=0)
        mean_oracle = rho * xv
        sd_oracle = math.sqrt(1 - rho**2)
        assert draws.mean() == pytest.approx(mean_oracle, abs=4 * sd_oracle / math.sqrt(m))
        assert draws.std() == pytest.approx(sd_oracle, abs=0.01)


def test_conditional_sample_independent_case():
    model = gaussian_from_params(np.zeros(2), cov=np.eye(2))
    draws = conditional_sample(model, [3.0], 10_000, PassConfig(mc_seed=32))
    # response independent of the feature: conditional equals the marginal
    grid = np.sort(draws)
    n = grid.shape[0]
    i = np.arange(1, n + 1)
    d = max((i / n - stats.norm.cdf(grid)).max(), (stats.norm.cdf(grid) - (i - 1) / n).max())
    assert d < 0.02


def test_conditional_sample_single_draw_and_perturbation_invariance():
    model = _bivariate_model(0.5)
    assert conditional_sample(model, [0.3], 1, PassConfig(mc_seed=33)).shape == (1,)
    plain = conditional_sample(model, [0.3], 50_000, PassConfig(mc_seed=34))
    noisy = conditional_sample(
        model, [0.3], 50_000, PassConfig(perturbation=PerturbationSpec(tau=0.8), mc_seed=35)
    )
    assert plain.mean() == pytest.approx(noisy.mean(), abs=0.02)
    assert plain.std() == pytest.approx(noisy.std(), abs=0.02)


def test_pai_interval_matches_analytic_quantiles():
    rho = 0.7
    model = _bivariate_model(rho)
    x = 0.9
    m = 40_000
    interval = pai_interval(model, [x], 0.05, m, PassConfig(mc_seed=36))
    sd_c = math.sqrt(1 - rho**2)
    lo_oracle = rho * x + stats.norm.ppf(0.025) * sd_c
    hi_oracle = rho * x + stats.norm.ppf(0.975) * sd_c
    # 3 MC standard errors of an empirical 97.5% quantile from m draws
    se_q = math.sqrt(0.975 * 0.025 / m) / stats.norm.pdf(stats.norm.ppf(0.975)) * sd_c
    assert interval.lower == pytest.approx(lo_oracle, abs=3 * se_q)
    assert interval.upper == pytest.approx(hi_oracle, abs=3 * se_q)


def test_pai_interval_degenerate_conditional():
    model = gaussian_from_params(np.zeros(2), chol=np.array([[1.0, 0.0], [1.0, 1e-9]]))
    interval = pai_interval(model, [2.0], 0.05, 500, PassConfig(mc_seed=37))
    assert interval.upper - interval.lower < 1e-6
    assert interval.center_estimate == pytest.approx(2.0, abs=1e-6)


def test_conditional_sample_singular_conditioning_covariance():
    # the feature's variance underflows to 0 in chol @ chol.T, so the Schur
    # complement has nothing to condition on
    model = gaussian_from_params(np.zeros(2), chol=np.array([[1.0, 0.0], [0.0, 1e-200]]))
    with pytest.raises(NumericError, match="conditioning covariance is not positive definite"):
        conditional_sample(model, [0.5], 10, PassConfig(mc_seed=1))


def test_pai_interval_quantile_nesting():
    model = _bivariate_model(0.6)
    widths = []
    for alpha in (0.05, 0.2, 0.5):
        iv = pai_interval(model, [0.0], alpha, 5000, PassConfig(mc_seed=38))
        widths.append(iv.length)
    assert widths[0] > widths[1] > widths[2]


def test_pai_interval_validation():
    model = _bivariate_model(0.6)
    with pytest.raises(InputError):
        pai_interval(model, [0.0], 0.05, 10, PassConfig(mc_seed=1))  # m below ceil(4/alpha)
    with pytest.raises(InputError):
        pai_interval(model, [0.0], 1.2, 100, PassConfig(mc_seed=1))
    with pytest.raises(InputError):
        pai_interval(model, [0.0, 0.0], 0.05, 100, PassConfig(mc_seed=1))


@pytest.mark.parametrize("kind", ["gaussian", "copula", "location-scale"])
def test_conditional_sample_rejects_a_non_finite_point(kind):
    model = fit_model(kind, np.random.default_rng(48).random((200, 3)))
    for x in ([np.nan, 0.5], [0.5, np.inf], [-np.inf, 0.5]):
        with pytest.raises(InputError, match="not finite"):
            conditional_sample(model, x, 10, PassConfig(mc_seed=1))


def test_conformal_collapses_on_noiseless_gridded_data():
    # duplicated grid points make 1-NN residuals exactly zero
    rng = np.random.default_rng(40)
    x_grid = np.repeat(np.linspace(0.0, 0.9, 10), 30)
    X = np.column_stack((x_grid, np.zeros_like(x_grid)))
    y = 2.0 * x_grid
    model = conformal_fit((X, y), calibration_fraction=0.2, alpha=0.1, k=1, seed=41)
    assert model.qhat == 0.0
    interval = conformal_interval(model, X[0])
    assert interval.length == 0.0
    assert interval.lower == interval.upper == interval.center_estimate


def test_conformal_halfwidth_scales_with_spread():
    rng = np.random.default_rng(42)
    X = rng.random((400, 2))
    y = X[:, 0] + 0.3 * rng.standard_normal(400)
    model = conformal_fit((X, y), 0.25, 0.1, k=10, seed=43)
    import dataclasses

    doubled = dataclasses.replace(model, table_abs_resid=2.0 * model.table_abs_resid)
    x = np.array([0.5, 0.5])
    base = conformal_interval(model, x)
    double = conformal_interval(doubled, x)
    assert double.length == pytest.approx(2.0 * base.length, rel=1e-9)
    assert base.lower <= base.center_estimate <= base.upper


def test_conformal_marginal_validity_over_seeds():
    # distribution-free guarantee: average coverage over 20 seeded splits
    # stays within 0.03 of the nominal level
    alpha = 0.1
    coverages = []
    for seed in range(20):
        X, y = simulate_regression_data(800, seed=6000 + seed)
        model = conformal_fit((X[:600], y[:600]), 0.25, alpha, k=25, seed=seed)
        covered = 0
        for i in range(600, 800):
            iv = conformal_interval(model, X[i])
            covered += iv.lower <= y[i] <= iv.upper
        coverages.append(covered / 200)
    assert np.mean(coverages) >= 1 - alpha - 0.03


def test_conformal_fit_validation(rng):
    X = rng.random((100, 2))
    y = rng.random(100)
    with pytest.raises(InputError):
        conformal_fit((X, y), 0.05, 0.1, k=5, seed=1)  # calibration split below 20 rows
    with pytest.raises(InputError):
        conformal_fit((X, y), 0.9, 0.1, k=50, seed=1)  # modeling split smaller than k
    with pytest.raises(InputError):
        conformal_fit((X, y[:50]), 0.3, 0.1, k=5, seed=1)


def test_coverage_report_hand_cases(rng):
    draws = 1.5 + 0.5 * rng.standard_normal(10_000)
    huge = PredictionInterval(lower=-100.0, upper=100.0, level=0.95, center_estimate=0.0, mc_draws_used=0)
    point = PredictionInterval(lower=9.0, upper=9.0, level=0.95, center_estimate=9.0, mc_draws_used=0)
    analytic = PredictionInterval(
        lower=1.5 - 1.96 * 0.5, upper=1.5 + 1.96 * 0.5, level=0.95, center_estimate=1.5, mc_draws_used=0
    )
    report = coverage_report(
        [huge, point, analytic],
        [(np.zeros(7), draws), (np.zeros(7), draws), (np.zeros(7), draws)],
    )
    assert report.per_point[0] == 1.0
    assert report.per_point[1] == 0.0
    assert report.per_point[2] == pytest.approx(0.95, abs=0.02)


def test_coverage_report_shorter_fraction():
    short = PredictionInterval(lower=0.0, upper=1.0, level=0.9, center_estimate=0.5, mc_draws_used=0)
    long = PredictionInterval(lower=0.0, upper=2.0, level=0.9, center_estimate=1.0, mc_draws_used=0)
    truths = [(np.zeros(7), np.array([0.5])), (np.zeros(7), np.array([0.5]))]
    report = coverage_report([short, short], truths, [long, long])
    assert report.summary["shorter_fraction"] == 1.0
    assert report.baseline_per_point is not None


def test_copula_conditional_close_to_gaussian_oracle():
    # copula fitted on truly bivariate-normal data reproduces its conditionals
    rho = 0.8
    rng = np.random.default_rng(44)
    z = rng.standard_normal((20_000, 2))
    y = z[:, 0]
    x = rho * z[:, 0] + math.sqrt(1 - rho**2) * z[:, 1]
    model = fit_copula(np.column_stack((y, x)))
    draws = conditional_sample(model, [1.0], 50_000, PassConfig(mc_seed=45))
    assert draws.mean() == pytest.approx(rho * 1.0, abs=0.03)
    assert draws.std() == pytest.approx(math.sqrt(1 - rho**2), abs=0.03)


def test_location_scale_conditional_quantiles_match_oracle():
    # correctly specified heteroscedastic law, unlike the benchmark's:
    # y = 1 + x1 - x2 + exp(-1 + x1) * eps, so quantiles are known exactly
    rng = np.random.default_rng(46)
    n = 20_000
    X = rng.random((n, 2))
    y = 1.0 + X[:, 0] - X[:, 1] + np.exp(-1.0 + X[:, 0]) * rng.standard_normal(n)
    model = fit_location_scale(np.column_stack((y, X)))
    for i, x in enumerate([(0.1, 0.9), (0.5, 0.5), (0.9, 0.2)]):
        draws = conditional_sample(model, x, 100_000, PassConfig(mc_seed=47), stream_index=i)
        scale = math.exp(-1.0 + x[0])
        for p in (0.025, 0.5, 0.975):
            oracle = 1.0 + x[0] - x[1] + scale * stats.norm.ppf(p)
            # fit and Monte Carlo error together, in units of the true scale
            assert np.quantile(draws, p) == pytest.approx(oracle, abs=0.15 * scale)
    # far outside the data the fitted log-linear scale overflows
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        conditional_sample(model, (1e6, 0.0), 10, PassConfig(mc_seed=47))
