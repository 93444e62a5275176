import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from pai import (
    Correction,
    EmpiricalDistribution,
    InputError,
    PassConfig,
    PerturbationSpec,
    PivotalReport,
    Sidedness,
    fit_gaussian,
    gaussian_from_params,
    p_value,
    pass_synthesize,
    pivotal_inference,
)
from pai import TestReport as Report
from pai import generators, inference
from pai import test_conditional_coherence as coherence_test
from pai import test_feature_significance as feature_test
from pai import test_two_sample_fid as fid_test

MODEL_2D = gaussian_from_params(np.zeros(2), cov=np.eye(2))


@pytest.mark.parametrize("D", [200, 2000])
def test_fid_null_memory_does_not_grow_with_D(D):
    # the engine holds one chunk of at most 2**17 values (1 MiB) at a time
    rng = np.random.default_rng(5)
    reference, candidate = rng.standard_normal((1000, 8)), rng.standard_normal((1000, 8))
    model = gaussian_from_params(np.zeros(8), cov=np.eye(8))
    tracemalloc.start()
    try:
        fid_test(reference, candidate, model, D=D, cfg=PassConfig(mc_seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_fid_report_and_extreme_rejection(rng):
    ref = rng.standard_normal((100, 2))
    cand = rng.standard_normal((100, 2))
    report = fid_test(ref, cand + 25.0, MODEL_2D, D=50, cfg=PassConfig(mc_seed=1))
    # two-sided plus-one at the extreme: both of 2*min puts p at 2/(D+1)
    assert report.p_value == pytest.approx(2 / 51)
    upper = fid_test(
        ref, cand + 25.0, MODEL_2D, D=50, cfg=PassConfig(mc_seed=1), sidedness=Sidedness.UPPER_TAIL
    )
    assert upper.p_value == pytest.approx(1 / 51)
    assert report.is_consistent()
    assert report.null_draws.size == 50


def test_fid_minimal_mc():
    rng = np.random.default_rng(2)
    ref = rng.standard_normal((30, 2))
    cand = rng.standard_normal((30, 2))
    report = fid_test(
        ref, cand, MODEL_2D, D=2, cfg=PassConfig(mc_seed=3), sidedness=Sidedness.UPPER_TAIL
    )
    assert report.p_value in (1 / 3, 2 / 3, 1.0)


def test_fid_errors(rng):
    with pytest.raises(InputError):
        fid_test(rng.standard_normal((3, 2)), rng.standard_normal((30, 2)), MODEL_2D, 10, PassConfig())
    with pytest.raises(InputError):
        fid_test(rng.standard_normal((30, 3)), rng.standard_normal((30, 3)), MODEL_2D, 10, PassConfig())


def _logistic_data(rng, n, coef=1.5, d=3):
    X = rng.standard_normal((n, d))
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-coef * X[:, 0]))).astype(float)
    return X, y


def test_feature_masking_informative_column(rng):
    X, y = _logistic_data(rng, 1200)
    holdX, holdy = _logistic_data(rng, 1200)
    masked_holdout = np.column_stack((holdy, holdX))
    masked_holdout[:, 1] = 0.0  # null generator: masked feature carries no signal
    model = fit_gaussian(masked_holdout)
    report = feature_test(
        (X[:600], y[:600]), (X[600:], y[600:]), [0], model, D=99, cfg=PassConfig(mc_seed=5)
    )
    assert report.statistic < -3.0
    assert report.p_value <= 0.05
    assert report.sidedness is Sidedness.LOWER_TAIL
    assert report.is_consistent()


def test_feature_degenerate_mask_gives_p_one(rng):
    X, y = _logistic_data(rng, 400)
    X[:, 2] = 0.0  # all-zero column: masked and unmasked classifiers coincide
    model = fit_gaussian(np.column_stack((y, X)))
    report = feature_test(
        (X[:200], y[:200]), (X[200:], y[200:]), [2], model, D=20, cfg=PassConfig(mc_seed=6)
    )
    assert report.statistic == 0.0
    assert report.p_value == 1.0


def test_feature_null_does_not_depend_on_the_chunk_budget(monkeypatch, rng):
    # the null, fed chunk by chunk, has the bytes of the learner run once over
    # the stack of all D pass_synthesize samples
    X, y = _logistic_data(rng, 80, d=2)
    model = fit_gaussian(np.column_stack((y, X)))
    cfg = PassConfig(perturbation=PerturbationSpec(tau=0.3), mc_seed=12)
    n_train, n, D = 30, 80, 7
    joints = np.stack([pass_synthesize(model, None, cfg, replicate=k, n=n) for k in range(D)])
    labels = (joints[..., 0] >= 0.5).astype(np.float64)
    features = joints[..., 1:]
    expected, _ = inference._risk_difference_statistic(
        features[:, :n_train], labels[:, :n_train], features[:, n_train:], labels[:, n_train:], np.array([1])
    )
    learner = inference._risk_difference_statistic
    for replicates, sizes in ((1, [1] * D), (3, [3, 3, 1]), (D, [D])):
        monkeypatch.setattr(generators, "_CHUNK_VALUES", replicates * n * model.dim)
        batches = []

        def recording_learner(train_X, *args):
            batches.append(train_X.shape[:-2])
            return learner(train_X, *args)

        monkeypatch.setattr(inference, "_risk_difference_statistic", recording_learner)
        report = feature_test((X[:n_train], y[:n_train]), (X[n_train:], y[n_train:]), [1], model, D=D, cfg=cfg)
        assert batches == [(size,) for size in sizes] + [()]
        assert report.null_draws.values.tobytes() == np.sort(expected).tobytes()


def test_feature_null_memory_does_not_grow_with_D(rng):
    # one chunk of replicates and the learner's temporaries over it, never a D x n stack
    X, y = _logistic_data(rng, 300)
    model = gaussian_from_params(np.array([0.5, 0.0, 0.0, 0.0]), cov=np.eye(4))
    tracemalloc.start()
    try:
        feature_test((X[:150], y[:150]), (X[150:], y[150:]), [2], model, D=2000, cfg=PassConfig(mc_seed=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20


def test_feature_errors(rng):
    X, y = _logistic_data(rng, 100)
    model = fit_gaussian(np.column_stack((y, X)))
    with pytest.raises(InputError):
        feature_test((X, np.zeros(100)), (X, y), [0], model, 10, PassConfig())
    with pytest.raises(InputError):
        feature_test((X, y), (X, y), [], model, 10, PassConfig())
    with pytest.raises(InputError):
        feature_test((X, y), (X, y), [7], model, 10, PassConfig())
    with pytest.raises(InputError):
        feature_test((X, y + 1.0), (X, y), [0], model, 10, PassConfig())


def test_coherence_unequal_groups(rng):
    g1 = rng.standard_normal((40, 2))
    g2 = rng.standard_normal((25, 2))
    report = coherence_test(g1, g2, MODEL_2D, MODEL_2D, D=30, cfg=PassConfig(mc_seed=7))
    assert report.null_draws.size == 60
    assert report.sidedness is Sidedness.UPPER_TAIL
    assert report.is_consistent()


def test_coherence_extreme_rejection(rng):
    g1 = rng.standard_normal((60, 2))
    g2 = rng.standard_normal((60, 2)) + 5.0
    report = coherence_test(g1, g2, MODEL_2D, MODEL_2D, D=40, cfg=PassConfig(mc_seed=8))
    assert report.p_value == pytest.approx(1 / 81)


def test_report_round_trip_and_verification(tmp_path, rng):
    ref = rng.standard_normal((50, 2))
    cand = rng.standard_normal((50, 2))
    a = fid_test(ref, cand, MODEL_2D, D=25, cfg=PassConfig(mc_seed=9))
    b = fid_test(ref, cand, MODEL_2D, D=25, cfg=PassConfig(mc_seed=9))
    assert a.to_dict() == b.to_dict()  # bit-identical reports

    path = tmp_path / "report.json"
    a.save(path)
    loaded = Report.load(path)
    assert loaded.to_dict() == a.to_dict()
    assert loaded.is_consistent()


def test_pivotal_matches_student_t_interval():
    data = 5.0 + np.random.default_rng(10).standard_normal(20)
    result = pivotal_inference(data, D=5000, cfg=PassConfig(mc_seed=11), alpha=0.05)
    t_quantile = stats.t.ppf(0.975, df=19)
    lo = result.estimate - t_quantile * result.scale
    hi = result.estimate + t_quantile * result.scale
    assert result.lower == pytest.approx(lo, rel=0.05)
    assert result.upper == pytest.approx(hi, rel=0.05)


def test_pivotal_known_scale_matches_z_interval():
    data = 1.0 + 2.0 * np.random.default_rng(12).standard_normal(40)
    result = pivotal_inference(
        data, D=20_000, cfg=PassConfig(mc_seed=13), alpha=0.05, pivot="mean_known_scale", sigma=2.0
    )
    z = stats.norm.ppf(0.975)
    assert result.lower == pytest.approx(result.estimate - z * result.scale, abs=4 * result.scale * 0.02)
    assert result.upper == pytest.approx(result.estimate + z * result.scale, abs=4 * result.scale * 0.02)
    # the pivot draws themselves are standard normal
    assert abs(result.null_draws.values.mean()) < 0.03
    assert abs(result.null_draws.values.std() - 1.0) < 0.03


def test_pivotal_center_override_is_cancelled():
    # a deliberately biased generation center must not move the pivot's law
    data = np.random.default_rng(14).standard_normal(25)
    unbiased = pivotal_inference(data, D=4000, cfg=PassConfig(mc_seed=15), alpha=0.1)
    biased = pivotal_inference(data, D=4000, cfg=PassConfig(mc_seed=15), alpha=0.1, center=42.0)
    assert biased.lower == pytest.approx(unbiased.lower, abs=0.05 * result_scale(unbiased))
    assert biased.upper == pytest.approx(unbiased.upper, abs=0.05 * result_scale(unbiased))


def result_scale(result):
    return result.scale * math.sqrt(result.config["n"])


def test_pivotal_p_value_and_errors():
    data = 3.0 + np.random.default_rng(16).standard_normal(30)
    result = pivotal_inference(data, D=999, cfg=PassConfig(mc_seed=17), alpha=0.05, theta0=3.0)
    assert 0.0 < result.p_value <= 1.0
    assert result.statistic is not None
    with pytest.raises(InputError):
        pivotal_inference(np.array([1.0, 2.0]), D=10, cfg=PassConfig(mc_seed=1))
    with pytest.raises(InputError):
        pivotal_inference(data, D=10, cfg=PassConfig(mc_seed=1), alpha=1.5)
    with pytest.raises(InputError):
        pivotal_inference(data, D=10, cfg=PassConfig(mc_seed=1), pivot="mean_known_scale")
    with pytest.raises(InputError):
        pivotal_inference(data, D=10, cfg=PassConfig(mc_seed=1), pivot="nope")


def test_null_draws_do_not_reuse_candidate_stream(rng):
    # the candidate synthesized under a different seed must stay independent
    # of the report's internal replicates: smoke-check via distinct values
    cand = pass_synthesize(MODEL_2D, None, PassConfig(mc_seed=100), replicate=0, n=60)
    report = fid_test(rng.standard_normal((60, 2)), cand, MODEL_2D, D=10, cfg=PassConfig(mc_seed=101))
    assert np.unique(report.null_draws.values).size == 10


def _through_json(report):
    return json.loads(json.dumps(report.to_dict()))


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30),
    st.floats(-1e6, 1e6),
    st.sampled_from(list(Sidedness)),
    st.sampled_from(list(Correction)),
)
def test_report_dict_round_trip_stays_consistent(draws, statistic, sidedness, correction):
    dist = EmpiricalDistribution(np.array(draws))
    report = Report(
        test_name="fid",
        statistic=statistic,
        p_value=p_value(dist, statistic, sidedness, correction),
        sidedness=sidedness,
        correction=correction,
        null_draws=dist,
        seed=3,
        config={"D": dist.size},
    )
    loaded = Report.from_dict(_through_json(report))
    assert loaded.to_dict() == report.to_dict()
    assert loaded.is_consistent()


@given(
    st.lists(st.integers(-400, 400), min_size=3, max_size=12).filter(lambda xs: len(set(xs)) > 1),
    st.integers(2, 30),
    st.floats(0.01, 0.99),
    st.one_of(st.none(), st.floats(-50.0, 50.0)),
    st.sampled_from(list(Sidedness)),
    st.sampled_from(list(Correction)),
)
def test_pivotal_dict_round_trip_stays_consistent(data, D, alpha, theta0, sidedness, correction):
    report = pivotal_inference(
        np.array(data) / 8.0, D=D, cfg=PassConfig(mc_seed=D), alpha=alpha, theta0=theta0,
        sidedness=sidedness, correction=correction,
    )
    assert report.is_consistent()
    loaded = PivotalReport.from_dict(_through_json(report))
    assert loaded.to_dict() == report.to_dict()
    assert loaded.is_consistent()


def test_pivotal_report_detects_tampering():
    data = np.random.default_rng(18).standard_normal(15)
    report = pivotal_inference(data, D=99, cfg=PassConfig(mc_seed=19), theta0=0.0)
    doc = report.to_dict()
    for key, value in (("upper", report.upper + 1e-9), ("p_value", 0.5), ("statistic", None)):
        tampered = PivotalReport.from_dict({**doc, key: value})
        assert not tampered.is_consistent(), key
    untested = pivotal_inference(data, D=99, cfg=PassConfig(mc_seed=19))
    assert untested.statistic is None and untested.p_value is None
    assert untested.is_consistent()
    assert not PivotalReport.from_dict({**untested.to_dict(), "p_value": 0.5}).is_consistent()
