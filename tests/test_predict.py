import json
import math
import threading
import tracemalloc

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
    fit_copula,
    fit_location_scale,
    gaussian_from_params,
    pai_interval,
    run_prediction_study,
    simulate_regression_data,
)
from pai import TestReport as Report
from pai import dataio, predict
from pai.dataio import Document
from pai.generators import KINDS, fit_model
from pai.predict import CoverageDocument, IntervalsDocument, PredictionInterval, _knn_indices, regression_mean
from pai.predict import regression_noise_sd
from pai.streams import PATH_CONDITIONAL, derive_rng

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
    data = simulate_regression_data(n, seed=4242)
    y, X = data[:, 0], data[:, 1:]
    se = ORACLE_SD_Y / math.sqrt(n)
    assert abs(y.mean() - ORACLE_MEAN_Y) < 3 * se
    # light oracle re-check so the frozen constant cannot drift unnoticed
    rng = np.random.default_rng(20240607)
    Xo = rng.random((1_000_000, 7))
    yo = regression_mean(Xo) + regression_noise_sd(Xo) * rng.standard_normal(1_000_000)
    assert abs(yo.mean() - ORACLE_MEAN_Y) < 4 * ORACLE_SD_Y / 1000.0
    assert data.shape == (n, 1 + 7)
    assert X.min() >= 0.0 and X.max() <= 1.0


def _bivariate_model(rho):
    cov = np.array([[1.0, rho], [rho, 1.0]])
    return gaussian_from_params(np.zeros(2), cov=cov)


def test_conditional_sample_matches_gaussian_oracle():
    rho = 0.8
    model = _bivariate_model(rho)
    m = 100_000
    for xv in (-1.0, 0.0, 1.5):
        (draws,) = conditional_sample(model, [xv], m, PassConfig(mc_seed=31), stream_index=0)
        mean_oracle = rho * xv
        sd_oracle = math.sqrt(1 - rho**2)
        assert draws.mean() == pytest.approx(mean_oracle, abs=4 * sd_oracle / math.sqrt(m))
        assert draws.std() == pytest.approx(sd_oracle, abs=0.01)


def test_conditional_sample_independent_case():
    model = gaussian_from_params(np.zeros(2), cov=np.eye(2))
    (draws,) = conditional_sample(model, [3.0], 10_000, PassConfig(mc_seed=32))
    # response independent of the feature: conditional equals the marginal
    grid = np.sort(draws)
    n = grid.shape[0]
    i = np.arange(1, n + 1)
    d = max((i / n - stats.norm.cdf(grid)).max(), (stats.norm.cdf(grid) - (i - 1) / n).max())
    assert d < 0.02


def test_conditional_sample_single_draw_and_perturbation_invariance():
    model = _bivariate_model(0.5)
    assert conditional_sample(model, [0.3], 1, PassConfig(mc_seed=33)).shape == (1, 1)
    assert conditional_sample(model, [[0.3], [0.1]], 1, PassConfig(mc_seed=33)).shape == (2, 1)
    (plain,) = conditional_sample(model, [0.3], 50_000, PassConfig(mc_seed=34))
    (noisy,) = conditional_sample(
        model, [0.3], 50_000, PassConfig(perturbation=PerturbationSpec(tau=0.8), mc_seed=35)
    )
    assert plain.mean() == pytest.approx(noisy.mean(), abs=0.02)
    assert plain.std() == pytest.approx(noisy.std(), abs=0.02)


@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_conditional_stream_layout_is_base_then_noise(tau):
    # independent response: the conditional law is N(0, 1) and row i of a
    # block is the perturbed stream stream_index + i itself, base first and
    # noise second
    model = gaussian_from_params(np.zeros(2), cov=np.eye(2))
    cfg = PassConfig(perturbation=PerturbationSpec(tau=tau), mc_seed=36)
    m = 9

    def expected(index):
        rng = derive_rng(36, PATH_CONDITIONAL, index)
        base = rng.standard_normal(m)
        return (base + tau * rng.standard_normal(m)) / math.sqrt(1 + tau**2) if tau > 0 else base

    for index, points in ((0, 3), (7, 2), (2**64 - 1, 1)):
        draws = conditional_sample(model, [[0.4]] * points, m, cfg, stream_index=index)
        assert draws.shape == (points, m)
        assert draws.tobytes() == np.concatenate([expected(index + i) for i in range(points)]).tobytes()
    with pytest.raises(InputError, match=r"below 2\*\*64"):
        conditional_sample(model, [0.4], m, cfg, stream_index=2**64)
    with pytest.raises(InputError, match=r"below 2\*\*64"):
        conditional_sample(model, [[0.4], [0.4]], m, cfg, stream_index=2**64 - 1)


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
    assert interval.lower.shape == interval.upper.shape == (1,)
    assert interval.lower[0] == pytest.approx(lo_oracle, abs=3 * se_q)
    assert interval.upper[0] == pytest.approx(hi_oracle, abs=3 * se_q)


def test_pai_interval_degenerate_conditional():
    model = gaussian_from_params(np.zeros(2), chol=np.array([[1.0, 0.0], [1.0, 1e-9]]))
    interval = pai_interval(model, [2.0], 0.05, 500, PassConfig(mc_seed=37))
    assert interval.upper[0] - interval.lower[0] < 1e-6
    assert interval.center_estimate[0] == pytest.approx(2.0, abs=1e-6)


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
        widths.append(iv.length[0])
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
    model = conformal_fit(np.column_stack((y, X)), calibration_fraction=0.2, alpha=0.1, k=1, seed=41)
    assert model.qhat == 0.0
    interval = conformal_interval(model, X[0])
    assert interval.length.tolist() == [0.0]
    assert interval.lower[0] == interval.upper[0] == interval.center_estimate[0]


def test_conformal_halfwidth_scales_with_spread():
    rng = np.random.default_rng(42)
    X = rng.random((400, 2))
    y = X[:, 0] + 0.3 * rng.standard_normal(400)
    model = conformal_fit(np.column_stack((y, X)), 0.25, 0.1, k=10, seed=43)
    import dataclasses

    doubled = dataclasses.replace(model, table_abs_resid=2.0 * model.table_abs_resid)
    x = np.array([0.5, 0.5])
    base = conformal_interval(model, x)
    double = conformal_interval(doubled, x)
    assert double.length[0] == pytest.approx(2.0 * base.length[0], rel=1e-9)
    assert base.lower[0] <= base.center_estimate[0] <= base.upper[0]


def test_hand_built_conformal_models_and_intervals_are_checked_when_built(rng):
    import dataclasses

    X = rng.random((100, 2))
    model = conformal_fit(np.column_stack((X.sum(axis=1), X)), 0.25, 0.1, k=5, seed=1)
    # a bare ValueError from argpartition before the model checked its k
    with pytest.raises(InputError, match=r"^k: 100 exceeds the 75 rows of the table$"):
        conformal_interval(dataclasses.replace(model, k=100), X[:3])
    with pytest.raises(InputError, match=r"^table_y: has shape \(74,\), expected \(75,\)$"):
        dataclasses.replace(model, table_y=model.table_y[1:])
    # a NaN x_mean gave wrong intervals silently, a zero x_sd divided by zero
    # and an infinite table_y gave [inf, inf] intervals
    for name, bad in (("x_mean", np.nan), ("x_sd", 0.0), ("table_y", np.inf), ("table_abs_resid", -np.inf),
                      ("table_X", np.nan)):
        value = getattr(model, name).copy()
        value.flat[0] = bad
        with pytest.raises(InputError, match=f"^{name}: "):
            dataclasses.replace(model, **{name: value})
    with pytest.raises(InputError, match="^lower, upper and center_estimate must be arrays of one length"):
        PredictionInterval(lower=np.zeros(2), upper=np.ones(1), center_estimate=np.zeros(2))


def test_conformal_marginal_validity_over_seeds():
    # distribution-free guarantee: average coverage over 20 seeded splits
    # stays within 0.03 of the nominal level
    alpha = 0.1
    coverages = []
    for seed in range(20):
        data = simulate_regression_data(800, seed=6000 + seed)
        model = conformal_fit(data[:600], 0.25, alpha, k=25, seed=seed)
        iv = conformal_interval(model, data[600:, 1:])
        coverages.append(iv.contains(data[600:, :1]).mean())
    assert np.mean(coverages) >= 1 - alpha - 0.03


def test_conformal_fit_validation(rng):
    train = rng.random((100, 3))
    with pytest.raises(InputError, match="^calibration split has 5 rows; need at least 20$"):
        conformal_fit(train, 0.05, 0.1, k=5, seed=1)
    with pytest.raises(InputError, match="^modeling split smaller than k$"):
        conformal_fit(train, 0.9, 0.1, k=50, seed=1)
    # a response with no feature column
    with pytest.raises(InputError, match="^train has 1 columns, expected a response and at least one feature$"):
        conformal_fit(train[:, :1], 0.3, 0.1, k=5, seed=1)
    # the old (features, responses) pair is not a matrix
    with pytest.raises(InputError, match="^train: "):
        conformal_fit((train[:, 1:], train[:, 0]), 0.3, 0.1, k=5, seed=1)


def test_conformal_rejects_non_finite_and_misshapen_features(rng):
    X = rng.random((200, 7))
    y = X.sum(axis=1) + rng.standard_normal(200)
    bad_X, bad_y = X.copy(), y.copy()
    bad_X[3, 1], bad_y[5] = np.nan, np.inf
    with pytest.raises(InputError, match=r"train entry \(3, 2\) is not finite"):
        conformal_fit(np.column_stack((y, bad_X)), 0.25, 0.1, k=5, seed=1)
    with pytest.raises(InputError, match=r"train entry \(5, 0\) is not finite"):
        conformal_fit(np.column_stack((bad_y, X)), 0.25, 0.1, k=5, seed=1)
    model = conformal_fit(np.column_stack((y, X)), 0.25, 0.1, k=5, seed=1)
    with pytest.raises(InputError, match=r"points entry \(0, 1\) is not finite"):
        conformal_interval(model, bad_X[3])
    with pytest.raises(InputError, match="points has 3 columns, expected 7"):
        conformal_interval(model, np.zeros(3))


def test_coverage_report_hand_cases(rng):
    draws = 1.5 + 0.5 * rng.standard_normal(10_000)
    # a huge interval, a point interval and the analytic 95% interval
    intervals = PredictionInterval(
        lower=np.array([-100.0, 9.0, 1.5 - 1.96 * 0.5]),
        upper=np.array([100.0, 9.0, 1.5 + 1.96 * 0.5]),
        center_estimate=np.array([0.0, 9.0, 1.5]),
    )
    truths = np.stack([draws, draws, draws])
    report = CoverageDocument.build(np.zeros((3, 1)), intervals, intervals, truths, alpha=0.05)
    per_point = np.array([point["pai_coverage"] for point in report.points])
    baseline_per_point = np.array([point["conformal_coverage"] for point in report.points])
    assert baseline_per_point.tobytes() == per_point.tobytes()
    assert report.summary["shorter_fraction"] == 0.0
    assert per_point[0] == 1.0
    assert per_point[1] == 0.0
    assert per_point[2] == pytest.approx(0.95, abs=0.02)


def test_coverage_report_shorter_fraction():
    short = PredictionInterval(lower=np.zeros(2), upper=np.ones(2), center_estimate=np.full(2, 0.5))
    long = PredictionInterval(lower=np.zeros(2), upper=np.full(2, 2.0), center_estimate=np.ones(2))
    truths = np.array([[0.5], [0.5]])
    report = CoverageDocument.build(np.zeros((2, 1)), short, long, truths, alpha=0.1)
    assert report.summary["shorter_fraction"] == 1.0
    assert [point["conformal_coverage"] for point in report.points] == [1.0, 1.0]
    with pytest.raises(InputError, match="one row of draws per interval"):
        CoverageDocument.build(np.zeros((2, 1)), short, long, np.array([0.5, 0.5]), alpha=0.1)
    with pytest.raises(InputError, match="out of order"):
        PredictionInterval(lower=np.ones(2), upper=np.zeros(2), center_estimate=np.ones(2))


def test_prediction_documents_round_trip_through_json(tmp_path):
    study = run_prediction_study(seed=4, n_total=230, n_train=200, alpha=0.1, kind="gaussian", pai_draws=50)
    model = fit_model("gaussian", simulate_regression_data(60, 2))
    X = np.random.default_rng(5).random((3, 7))
    intervals = IntervalsDocument.build(X, pai_interval(model, X, 0.1, 40, PassConfig()), 0.1, 40, 0.0)
    for document in (study, intervals):
        assert document.is_consistent()
        document.save(tmp_path / "doc.json")
        loaded = Document.load(tmp_path / "doc.json")
        assert type(loaded) is type(document) and loaded == document
        assert json.loads((tmp_path / "doc.json").read_text()) == loaded.to_dict()
    # the study's summary is the one the coverage rule gives its per-point columns
    assert study.summary["points"] == len(study.points) == 30
    with pytest.raises(InputError, match=r"unrecognized report schema 'pai-coverage/1'"):
        Report.from_dict(study.to_dict())
    with pytest.raises(InputError, match=r"expected one of \['pai-intervals/1'\]"):
        IntervalsDocument.from_dict(study.to_dict())


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(intervals=[]), "expected at least one record"),
        (lambda doc: doc["intervals"][1].pop("center"), r"interval 1 document lacks field 'center'"),
        (lambda doc: doc["intervals"][0].update(x=[0.5, True]), r"interval 0 field 'x': expected numbers"),
        (lambda doc: doc["config"].pop("mc"), r"config document lacks field 'mc'"),
        (lambda doc: doc["config"].update(mc=40.0), r"config field 'mc': expected an integer"),
        (lambda doc: doc.update(alpha=1.0), r"'alpha': expected a level in \(0, 1\)"),
    ],
)
def test_intervals_document_refuses_malformed_fields(edit, message):
    model = fit_model("gaussian", simulate_regression_data(60, 2))
    X = np.random.default_rng(5).random((3, 7))
    doc = IntervalsDocument.build(X, pai_interval(model, X, 0.1, 40, PassConfig()), 0.1, 40, 0.0).to_dict()
    edit(doc)
    with pytest.raises(InputError, match=message):
        Document.from_dict(json.loads(json.dumps(doc)))


def test_copula_conditional_close_to_gaussian_oracle():
    # copula fitted on truly bivariate-normal data reproduces its conditionals
    rho = 0.8
    rng = np.random.default_rng(44)
    z = rng.standard_normal((20_000, 2))
    y = z[:, 0]
    x = rho * z[:, 0] + math.sqrt(1 - rho**2) * z[:, 1]
    model = fit_copula(np.column_stack((y, x)))
    (draws,) = conditional_sample(model, [1.0], 50_000, PassConfig(mc_seed=45))
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
    points = [(0.1, 0.9), (0.5, 0.5), (0.9, 0.2)]
    # one block: row i draws from stream i
    block = conditional_sample(model, points, 100_000, PassConfig(mc_seed=47))
    for x, draws in zip(points, block):
        scale = math.exp(-1.0 + x[0])
        for p in (0.025, 0.5, 0.975):
            oracle = 1.0 + x[0] - x[1] + scale * stats.norm.ppf(p)
            # fit and Monte Carlo error together, in units of the true scale
            assert np.quantile(draws, p) == pytest.approx(oracle, abs=0.15 * scale)
    # far outside the data the fitted log-linear scale overflows
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        conditional_sample(model, (1e6, 0.0), 10, PassConfig(mc_seed=47))


def _interval_array(interval):
    return np.stack((interval.lower, interval.upper, interval.center_estimate))


@pytest.mark.parametrize("tau", [0.0, 0.3])
@pytest.mark.parametrize("kind", KINDS)
def test_pai_interval_does_not_depend_on_the_block(monkeypatch, kind, tau):
    # point i of a block has the quantiles of its own conditional draws at
    # stream_index = i, whether the draws come in one chunk or split 3-3-1
    model = fit_model(kind, simulate_regression_data(400, seed=49))
    cfg = PassConfig(perturbation=PerturbationSpec(tau=tau), mc_seed=50)
    points, m = simulate_regression_data(7, seed=51)[:, 1:], 100
    rows = [conditional_sample(model, x, m, cfg, stream_index=i)[0] for i, x in enumerate(points)]
    expected = np.quantile(np.stack(rows), [0.05 / 2, 0.5, 1 - 0.05 / 2], axis=1)[[0, 2, 1]].tobytes()
    sample = predict.conditional_sample
    for budget, sizes in ((dataio._CHUNK_VALUES, [7]), (3 * m, [3, 3, 1])):
        monkeypatch.setattr(dataio, "_CHUNK_VALUES", budget)
        chunks = []

        def recording_sample(model, X, *args):
            chunks.append(len(X))
            return sample(model, X, *args)

        monkeypatch.setattr(predict, "conditional_sample", recording_sample)
        block = pai_interval(model, points, 0.05, m, cfg)
        assert chunks == sizes
        assert block.lower.shape == (7,)
        assert _interval_array(block).tobytes() == expected


@pytest.mark.parametrize("kind", ["gaussian", "copula"])
def test_conditional_sample_factors_the_covariance_once(monkeypatch, kind):
    import scipy.linalg

    model = fit_model(kind, np.random.default_rng(52).random((200, 4)))
    calls = []
    cho_factor = scipy.linalg.cho_factor

    def counting_cho_factor(*args, **kwargs):
        calls.append(1)
        return cho_factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counting_cho_factor)
    draws = conditional_sample(model, np.random.default_rng(53).random((25, 3)), 10, PassConfig(mc_seed=1))
    assert draws.shape == (25, 10)
    assert len(calls) == 1


def test_knn_indices_do_not_depend_on_the_chunk_budget(monkeypatch):
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(54)
    queries, table, k = rng.random((23, 3)), rng.random((50, 3)), 5
    expected = np.argpartition(cdist(queries, table), kth=k - 1, axis=1)[:, :k]
    for budget in (1, 3 * 50, dataio._CHUNK_VALUES):
        monkeypatch.setattr(dataio, "_CHUNK_VALUES", budget)
        idx = _knn_indices(queries, table, k)
        assert idx.dtype == np.intp and idx.flags.owndata
        assert np.array_equal(idx, expected)


@pytest.mark.parametrize("n_queries", [0, 1, 3, 9, 12])  # none, one, one chunk, 3 and 4 chunks
def test_threaded_knn_indices_equal_the_serial_chunk_loop(monkeypatch, n_queries):
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(57)
    queries, table, k = rng.random((n_queries, 3)), rng.random((50, 3)), 4
    monkeypatch.setattr(dataio, "_CHUNK_VALUES", 3 * 50)
    expected = np.empty((n_queries, k), dtype=np.intp)
    for start in range(0, n_queries, 3):
        chunk = cdist(queries[start : start + 3], table)
        expected[start : start + 3] = np.argpartition(chunk, kth=k - 1, axis=1)[:, :k]
    assert np.array_equal(_knn_indices(queries, table, k), expected)


def test_an_error_in_the_knn_worker_propagates_and_the_worker_ends(monkeypatch):
    import scipy.spatial.distance

    cdist = scipy.spatial.distance.cdist

    def failing_cdist(a, b):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("worker cdist failed")
        return cdist(a, b)

    monkeypatch.setattr(scipy.spatial.distance, "cdist", failing_cdist)
    monkeypatch.setattr(dataio, "_CHUNK_VALUES", 3 * 50)
    rng = np.random.default_rng(58)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="worker cdist failed"):
        _knn_indices(rng.random((9, 3)), rng.random((50, 3)), 4)
    assert threading.active_count() == before


def test_only_the_knn_chunk_helper_leaves_the_calling_thread():
    # The benchmark tracer keeps one span stack for the whole process, so a
    # traced pai function entered on a worker thread would interleave with
    # the caller's spans. Only the untraced chunk helper may run off it.
    train = simulate_regression_data(600, seed=59)
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("pai"):
            entered.add(frame.f_code.co_name)

    threading.setprofile(profile)
    try:
        conformal_fit(train, 0.2, 0.05, k=25, seed=60)
    finally:
        threading.setprofile(None)
    assert entered == {"_knn_chunks"}


def test_conformal_fit_memory_is_bounded():
    # chunked k-NN distances, never an n x n distance or argpartition array
    import scipy.spatial.distance  # noqa: F401  (its import is not the fit's memory)

    train = simulate_regression_data(3000, seed=55)
    tracemalloc.start()
    try:
        conformal_fit(train, 0.2, 0.05, k=25, seed=56)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
