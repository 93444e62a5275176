import concurrent.futures
import json
import math
import threading
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
from pai import dataio, generators, inference
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
    """A joint ``(label, features)`` sample of ``n`` rows, the label in column 0."""
    X = rng.standard_normal((n, d))
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-coef * X[:, 0]))).astype(float)
    return np.column_stack((y, X))


def test_feature_masking_informative_column(rng):
    data = _logistic_data(rng, 1200)
    masked_holdout = _logistic_data(rng, 1200)
    masked_holdout[:, 1] = 0.0  # null generator: masked feature carries no signal
    model = fit_gaussian(masked_holdout)
    report = feature_test(data[:600], data[600:], [0], model, D=99, cfg=PassConfig(mc_seed=5))
    assert report.statistic < -3.0
    assert report.p_value <= 0.05
    assert report.sidedness is Sidedness.LOWER_TAIL
    assert report.is_consistent()
    assert "degenerate" not in report.config


def test_feature_degenerate_mask_gives_p_one(rng):
    data = _logistic_data(rng, 400)
    data[:, 3] = 0.0  # all-zero feature 2: masked and unmasked classifiers coincide
    model = fit_gaussian(data)
    report = feature_test(data[:200], data[200:], [2], model, D=20, cfg=PassConfig(mc_seed=6))
    assert report.statistic == 0.0
    assert report.p_value == 1.0
    # p = 1 is the report rule for a config that records the convention, so it verifies
    assert report.config["degenerate"] is True
    assert report.is_consistent()
    assert Report.from_dict(report.to_dict()).is_consistent()


def test_feature_null_does_not_depend_on_the_chunk_budget(monkeypatch, rng):
    # the null, fed chunk by chunk, has the bytes of the learner run once over
    # the stack of all D pass_synthesize samples
    data = _logistic_data(rng, 80, d=2)
    model = fit_gaussian(data)
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
        monkeypatch.setattr(dataio, "_CHUNK_VALUES", replicates * n * model.dim)
        batches = []

        def recording_learner(train_X, *args):
            batches.append(train_X.shape[:-2])
            return learner(train_X, *args)

        monkeypatch.setattr(inference, "_risk_difference_statistic", recording_learner)
        report = feature_test(data[:n_train], data[n_train:], [1], model, D=D, cfg=cfg)
        assert batches == [(size,) for size in sizes] + [()]
        assert report.null_draws.values.tobytes() == np.sort(expected).tobytes()


def test_feature_null_memory_does_not_grow_with_D(rng):
    # one chunk of replicates and the learner's temporaries over it, never a D x n stack
    data = _logistic_data(rng, 300)
    model = gaussian_from_params(np.array([0.5, 0.0, 0.0, 0.0]), cov=np.eye(4))
    tracemalloc.start()
    try:
        feature_test(data[:150], data[150:], [2], model, D=2000, cfg=PassConfig(mc_seed=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20


def _statistic_inputs(rng, batch):
    train_X, inf_X = rng.standard_normal((2,) + batch + (40, 3))
    train_y = (rng.random(batch + (40,)) < 1.0 / (1.0 + np.exp(-train_X[..., 0]))).astype(float)
    inf_y = (rng.random(batch + (40,)) < 1.0 / (1.0 + np.exp(-inf_X[..., 0]))).astype(float)
    return train_X, train_y, inf_X, inf_y


def _record_fit_threads(monkeypatch):
    """Patch the learner to record ``(X, y, w, on the main thread)`` per fit."""
    fits = []
    fit = inference._fit_logistic

    def recording_fit(X, y):
        w = fit(X, y)
        fits.append((X, y, w, threading.current_thread() is threading.main_thread()))
        return w

    monkeypatch.setattr(inference, "_fit_logistic", recording_fit)
    return fits


class _SerialExecutor:
    """Stand-in for ``ThreadPoolExecutor`` that runs each task at submission."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("batch", [(), (1,), (5,)])
@pytest.mark.parametrize("mask", [[1], [0, 2]])
@pytest.mark.parametrize("degenerate", [False, True])
def test_threaded_fits_match_serial_fits(monkeypatch, rng, batch, mask, degenerate):
    mask = np.array(mask)
    train_X, train_y, inf_X, inf_y = _statistic_inputs(rng, batch)
    if degenerate:  # all-zero masked columns: both fits coincide, every loss difference is 0
        train_X[..., mask] = 0.0
        inf_X[..., mask] = 0.0
    fit = inference._fit_logistic
    fits = _record_fit_threads(monkeypatch)
    T, flags = inference._risk_difference_statistic(train_X, train_y, inf_X, inf_y, mask)
    assert sorted(on_main for *_, on_main in fits) == [False, True]
    for X, y, w, _ in fits:
        assert w.shape == batch + (X.shape[-1],)
        assert np.array_equal(fit(X, y), w)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _SerialExecutor)
    T_serial, flags_serial = inference._risk_difference_statistic(train_X, train_y, inf_X, inf_y, mask)
    assert [on_main for *_, on_main in fits[2:]] == [True, True]
    assert T.shape == batch
    assert np.all(T == T_serial)
    assert np.array_equal(flags, flags_serial)
    assert np.all(flags) == degenerate
    if degenerate:
        assert np.all(T == 0.0)


def test_masked_fit_failure_propagates_and_leaves_no_thread(monkeypatch, rng):
    data = _logistic_data(rng, 120)
    model = fit_gaussian(data)
    fit = inference._fit_logistic

    def failing_fit(X, y):
        if np.all(X[..., 1] == 0.0):  # the masked fit: feature 1 zeroed
            raise FloatingPointError("masked fit failed")
        return fit(X, y)

    monkeypatch.setattr(inference, "_fit_logistic", failing_fit)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="masked fit failed"):
        feature_test(data[:60], data[60:], [1], model, D=5, cfg=PassConfig(mc_seed=3))
    assert threading.active_count() == before


def test_only_the_logistic_fit_leaves_the_calling_thread(monkeypatch, rng):
    # The benchmark tracer keeps one span stack for the whole process, so its
    # spans must nest on one thread: a traced pai function entered on a worker
    # thread would interleave with the caller's spans. Only the untraced
    # learner may run off the calling thread.
    data = _logistic_data(rng, 120)
    model = fit_gaussian(data)
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("pai"):
            entered.add(frame.f_code.co_name)

    threading.setprofile(profile)
    try:
        feature_test(data[:60], data[60:], [1], model, D=5, cfg=PassConfig(mc_seed=3))
    finally:
        threading.setprofile(None)
    assert entered == {"_fit_logistic"}


def test_feature_errors(rng):
    data = _logistic_data(rng, 100)
    model = fit_gaussian(data)
    one_class, shifted = data.copy(), data.copy()
    one_class[:, 0] = 0.0
    shifted[:, 0] += 1.0
    with pytest.raises(InputError, match="^train labels contain a single class$"):
        feature_test(one_class, data, [0], model, 10, PassConfig())
    with pytest.raises(InputError, match="^masked feature set is empty$"):
        feature_test(data, data, [], model, 10, PassConfig())
    with pytest.raises(InputError, match=r"^masked feature indices must lie in 0\.\.2$"):
        feature_test(data, data, [7], model, 10, PassConfig())
    with pytest.raises(InputError, match="^train labels must be binary 0/1$"):
        feature_test(shifted, data, [0], model, 10, PassConfig())
    with pytest.raises(InputError, match="^inference labels must be binary 0/1$"):
        feature_test(data, shifted, [0], model, 10, PassConfig())
    with pytest.raises(InputError, match="^inference has 3 columns, expected 4$"):
        feature_test(data, data[:, :3], [0], model, 10, PassConfig())
    # indices beyond int64 are range errors, not overflows of the index array
    for index in (2**63, -(2**63) - 1, 2**64):
        refusal = "index: expected an integer >= 0" if index < 0 else r"indices must lie in 0\.\.2"
        with pytest.raises(InputError, match=f"^masked feature {refusal}"):
            feature_test(data, data, [0, index], model, 10, PassConfig())


@pytest.mark.parametrize("index", [0.5, True, np.True_, 1.0, "1"], ids=["half", "true", "np-true", "float", "string"])
def test_feature_test_refuses_an_index_that_is_not_an_integer(rng, monkeypatch, index):
    data = _logistic_data(rng, 100)
    model = fit_gaussian(data)
    monkeypatch.setattr(generators, "latent_block", _must_not_draw)
    with pytest.raises(InputError, match="^masked feature index: "):
        feature_test(data, data, [index], model, 10, PassConfig())


def test_feature_test_takes_numpy_integer_indices(rng):
    data = _logistic_data(rng, 100)
    model = fit_gaussian(data)
    reports = [feature_test(data, data, mask, model, 5, PassConfig()) for mask in ([1], [np.int64(1)])]
    assert reports[0].to_dict() == reports[1].to_dict()
    assert reports[1].config["masked_features"] == [1]


@pytest.mark.parametrize(
    "theta0",
    [10**400, -(10**400), 2**1024, float("inf"), float("nan")],
    ids=["1e400", "-1e400", "2**1024", "inf", "nan"],
)
def test_pivotal_refuses_a_theta0_beyond_float64(theta0):
    with pytest.raises(InputError, match="^theta0: "):
        pivotal_inference(np.arange(5.0), D=9, cfg=PassConfig(), theta0=theta0)


def _must_not_draw(*args):
    raise AssertionError("a replicate was drawn")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("split", ["train", "inference"])
def test_feature_test_rejects_non_finite_features_before_drawing(rng, monkeypatch, split, bad):
    data = _logistic_data(rng, 120)
    model = fit_gaussian(data)
    parts = {"train": data[:60].copy(), "inference": data[60:].copy()}
    parts[split][7, 3] = bad
    monkeypatch.setattr(generators, "_draw_replicate", _must_not_draw)
    with pytest.raises(InputError, match=rf"{split} entry \(7, 3\) is not finite"):
        feature_test(parts["train"], parts["inference"], [1], model, D=50, cfg=PassConfig(mc_seed=3))


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
    result = pivotal_inference(data, D=20_000, cfg=PassConfig(mc_seed=13), alpha=0.05, sigma=2.0)
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
    with pytest.raises(InputError, match="needs sigma > 0"):
        pivotal_inference(data, D=10, cfg=PassConfig(mc_seed=1), sigma=0.0)


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
