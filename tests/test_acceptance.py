"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` and in
failure output) before asserting, so a full run doubles as the acceptance
report. Tolerances and Monte Carlo sizes are fixed here, not tuned at run
time; oracle values come from independent computations (enumeration, direct
simulation, scipy distributions).
"""

import math

import numpy as np
import pytest
from oracles import assignment_cost, brute_force_lsap_cost, rank_discrepancy, wasserstein_exact
from scipy import stats

import pai
from pai import (
    PassConfig,
    PerturbationSpec,
    fit_copula,
    fit_gaussian,
    gaussian_from_params,
    pass_synthesize,
    pivotal_inference,
    run_prediction_study,
    sample_statistic_null,
    simulate_regression_data,
)
from pai import test_conditional_coherence as coherence_test
from pai import test_feature_significance as feature_test
from pai import test_two_sample_fid as fid_test
from pai.assignment import solve_lsap
from pai.cli import main as cli_main
from pai import dataio


def report(num, name, ok, details):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {details}")
    return ok


def test_criterion_1_pivotal_exactness():
    # Uniform p-values under H0 across R repetitions, and the inverted
    # interval agrees with the Student-t oracle.
    R, D, n, mu0 = 1000, 999, 20, 2.0
    pvals = np.empty(R)
    for r in range(R):
        data = mu0 + np.random.default_rng(100_000 + r).standard_normal(n)
        res = pivotal_inference(data, D=D, cfg=PassConfig(mc_seed=110_000 + r), alpha=0.05, theta0=mu0)
        pvals[r] = res.p_value
    ks_stat, ks_p = stats.kstest(pvals, "uniform", method="asymp")
    uniform_ok = ks_p > 0.01

    data = mu0 + np.random.default_rng(123456).standard_normal(n)
    res = pivotal_inference(data, D=D, cfg=PassConfig(mc_seed=424242), alpha=0.05)
    t_quantile = stats.t.ppf(0.975, df=n - 1)
    lo_oracle = res.estimate - t_quantile * res.scale
    hi_oracle = res.estimate + t_quantile * res.scale
    rel_lo = abs(res.lower - lo_oracle) / abs(lo_oracle)
    rel_hi = abs(res.upper - hi_oracle) / abs(hi_oracle)
    interval_ok = rel_lo < 0.05 and rel_hi < 0.05

    ok = uniform_ok and interval_ok
    report(
        1,
        "pivotal exactness",
        ok,
        f"uniformity KS={ks_stat:.4f} p={ks_p:.4f} (need > 0.01); "
        f"interval rel err=({rel_lo:.4f}, {rel_hi:.4f}) (need < 0.05)",
    )
    assert ok


def test_criterion_2_ks_error_bound():
    # With an exact generator the null-CDF estimate stays within the
    # sqrt(log(4/delta)/(2D)) band, up to the stated slack.
    n, D, delta, R = 100, 500, 0.1, 200
    model = gaussian_from_params(np.zeros(1), cov=np.eye(1))
    oracle = np.sort(np.random.default_rng(123).standard_normal((50_000, n)).mean(axis=1))
    bound = math.sqrt(math.log(4.0 / delta) / (2.0 * D))
    violations = 0
    for r in range(R):
        dist = sample_statistic_null(
            model, n=n, D=D, statistic=lambda z: z.mean(axis=(1, 2)), cfg=PassConfig(mc_seed=90_000 + r)
        )
        violations += stats.ks_2samp(dist.values, oracle, method="asymp").statistic > bound
    rate = violations / R
    ok = rate <= delta + 0.05
    report(2, "KS error bound", ok, f"violation rate {rate:.3f} vs bound {bound:.4f} (need <= 0.15)")
    assert ok


def test_criterion_3_null_calibration_all_tests():
    # Type-I error at alpha=0.05 within [0.02, 0.09] for each procedure,
    # with real data drawn from the same exact generator as the null draws.
    R, D, alpha = 200, 200, 0.05
    model2 = gaussian_from_params(np.zeros(2), cov=np.eye(2))

    rej_fid = 0
    for r in range(R):
        rng = np.random.default_rng(10_000 + r)
        ref = rng.standard_normal((200, 2))
        cand = pass_synthesize(model2, None, PassConfig(mc_seed=20_000 + r), replicate=0, n=200)
        rep = fid_test(ref, cand, model2, D=D, cfg=PassConfig(mc_seed=30_000 + r))
        rej_fid += rep.p_value <= alpha
    rate_fid = rej_fid / R

    cov = np.array(
        [
            [1.0, 0.6, 0.4, 0.0],
            [0.6, 1.0, 0.0, 0.0],
            [0.4, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    joint_model = gaussian_from_params(np.zeros(4), cov=cov)
    rej_feat = 0
    valid = 0
    for r in range(R):
        real = pass_synthesize(joint_model, None, PassConfig(mc_seed=40_000 + r), replicate=0, n=300)
        real[:, 0] = real[:, 0] >= 0.5
        if np.unique(real[:150, 0]).shape[0] < 2:
            continue
        valid += 1
        rep = feature_test(real[:150], real[150:], [2], joint_model, D=D, cfg=PassConfig(mc_seed=50_000 + r))
        rej_feat += rep.p_value <= alpha
    rate_feat = rej_feat / valid

    rej_coh = 0
    for r in range(R):
        rng = np.random.default_rng(60_000 + r)
        g1 = rng.standard_normal((150, 2))
        g2 = rng.standard_normal((100, 2))
        rep = coherence_test(g1, g2, model2, model2, D=D, cfg=PassConfig(mc_seed=70_000 + r))
        rej_coh += rep.p_value <= alpha
    rate_coh = rej_coh / R

    ok = all(0.02 <= rate <= 0.09 for rate in (rate_fid, rate_feat, rate_coh)) and valid >= 195
    report(
        3,
        "null calibration",
        ok,
        f"Type-I at alpha=0.05: fid={rate_fid:.3f} feature={rate_feat:.3f} "
        f"coherence={rate_coh:.3f} (need within [0.02, 0.09])",
    )
    assert ok


def test_criterion_4_power():
    # FID test: mean shift of 0.5 sigma at n=1000, d=4.
    model4 = gaussian_from_params(np.zeros(4), cov=np.eye(4))
    shift = np.array([0.5, 0.0, 0.0, 0.0])
    rej_fid = 0
    R_fid = 100
    for r in range(R_fid):
        rng = np.random.default_rng(150_000 + r)
        ref = rng.standard_normal((1000, 4))
        cand = rng.standard_normal((1000, 4)) + shift
        rep = fid_test(ref, cand, model4, D=200, cfg=PassConfig(mc_seed=160_000 + r))
        rej_fid += rep.p_value <= 0.05
    power_fid = rej_fid / R_fid

    # Feature test: logistic model with coefficient 1.5 on column 0 at
    # n=2000 (1000 train / 1000 inference); the null generator is fitted on
    # an independent holdout with the masked column zeroed.
    rej_feat = 0
    R_feat = 30
    for r in range(R_feat):
        rng = np.random.default_rng(170_000 + r)
        X = rng.standard_normal((2000, 3))
        y = (rng.random(2000) < 1.0 / (1.0 + np.exp(-1.5 * X[:, 0]))).astype(float)
        hold_X = rng.standard_normal((2000, 3))
        hold_y = (rng.random(2000) < 1.0 / (1.0 + np.exp(-1.5 * hold_X[:, 0]))).astype(float)
        masked_holdout = np.column_stack((hold_y, hold_X))
        masked_holdout[:, 1] = 0.0
        null_model = fit_gaussian(masked_holdout)
        data = np.column_stack((y, X))
        rep = feature_test(data[:1000], data[1000:], [0], null_model, D=99, cfg=PassConfig(mc_seed=180_000 + r))
        rej_feat += rep.p_value <= 0.05
    power_feat = rej_feat / R_feat

    ok = power_fid >= 0.8 and power_feat >= 0.8
    report(
        4,
        "power",
        ok,
        f"fid power={power_fid:.2f} ({rej_fid}/{R_fid}), "
        f"feature power={power_feat:.2f} ({rej_feat}/{R_feat}) (need >= 0.80)",
    )
    assert ok


def test_criterion_5_rank_preservation():
    model2 = gaussian_from_params(np.zeros(2), cov=np.eye(2))

    # Exact preservation at tau = 0 with matched ranks.
    rng = np.random.default_rng(555)
    Z = rng.standard_normal((128, 2))
    cfg0 = PassConfig(perturbation=PerturbationSpec(tau=0.0), rank_match=True, mc_seed=556)
    sample = pass_synthesize(model2, Z, cfg0, replicate=0)
    exact_zero = rank_discrepancy(model2.inverse(sample), model2.inverse(Z))

    # Median squared discrepancy non-increasing in n at tau = 0.2, d = 2.
    medians = {}
    for n in (64, 256, 1024):
        values = []
        for s in range(20):
            Z = np.random.default_rng(80_000 + s).standard_normal((n, 2))
            cfg = PassConfig(
                perturbation=PerturbationSpec(tau=0.2), rank_match=True, mc_seed=81_000 + s
            )
            sample = pass_synthesize(model2, Z, cfg, replicate=0)
            values.append(rank_discrepancy(model2.inverse(sample), model2.inverse(Z)) ** 2)
        medians[n] = float(np.median(values))
    decay_ok = medians[64] >= medians[256] >= medians[1024]

    ok = exact_zero == 0.0 and decay_ok
    report(
        5,
        "rank preservation",
        ok,
        f"tau=0 discrepancy={exact_zero} (need exactly 0); medians "
        f"n=64: {medians[64]:.4f} >= n=256: {medians[256]:.4f} >= n=1024: {medians[1024]:.4f}",
    )
    assert ok


def test_criterion_6_perturbation_size_invariance():
    # Distances between synthetic and evaluation samples agree across tau
    # within 3 repeat standard errors (10 seeds, n = 1024).
    model = fit_copula(simulate_regression_data(2000, 201))
    taus = (0.0, 0.2, 0.5, 1.0)
    n = 1024
    values = {m: np.zeros((len(taus), 10)) for m in ("fid", "w1", "w2")}
    for s in range(10):
        evaluation = simulate_regression_data(n, 300 + s)
        eval_summary = pai.gaussian_summary(evaluation)
        for ti, tau in enumerate(taus):
            cfg = PassConfig(perturbation=PerturbationSpec(tau=tau), mc_seed=400 + s)
            synth = pass_synthesize(model, None, cfg, replicate=ti, n=n)
            values["fid"][ti, s] = pai.fid(pai.gaussian_summary(synth), eval_summary)
            values["w1"][ti, s] = wasserstein_exact(synth, evaluation, 1)
            values["w2"][ti, s] = wasserstein_exact(synth, evaluation, 2)
    details = []
    ok = True
    for metric, table in values.items():
        means = table.mean(axis=1)
        ses = table.std(axis=1, ddof=1) / math.sqrt(table.shape[1])
        for i in range(len(taus)):
            for j in range(i + 1, len(taus)):
                if abs(means[i] - means[j]) > 3.0 * math.hypot(ses[i], ses[j]):
                    ok = False
        details.append(f"{metric}: means={np.round(means, 4).tolist()}")
    report(6, "perturbation-size invariance", ok, "; ".join(details))
    assert ok


def test_criterion_7_prediction_interval_study():
    study = run_prediction_study(
        seed=1, n_total=3200, n_train=3000, alpha=0.05, kind="location-scale",
        pai_draws=4000,
    )
    s = study.summary
    median_ok = 0.90 <= s["median_coverage"] <= 0.98
    conformal_ok = s["baseline_mean_coverage"] >= 0.92
    shorter_ok = s["shorter_fraction"] >= 0.5
    ok = median_ok and conformal_ok and shorter_ok
    report(
        7,
        "prediction intervals",
        ok,
        f"PAI median coverage={s['median_coverage']:.3f} (need in [0.90, 0.98]: "
        f"{'ok' if median_ok else 'FAIL'}); conformal marginal="
        f"{s['baseline_mean_coverage']:.3f} (need >= 0.92: {'ok' if conformal_ok else 'FAIL'}); "
        f"shorter fraction={s['shorter_fraction']:.3f} (need >= 0.5: {'ok' if shorter_ok else 'FAIL'})",
    )
    assert ok


def test_criterion_8_lsap_oracle():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 8))
        costs = rng.random((n, n)) * 10.0
        got = assignment_cost(costs, solve_lsap(costs))
        oracle = brute_force_lsap_cost(costs)
        worst = max(worst, abs(got - oracle))
    ok = worst <= 1e-9
    report(8, "LSAP oracle", ok, f"max |solver - enumeration| = {worst:.2e} over 500 trials, n <= 7")
    assert ok


def test_criterion_9_statistic_independence():
    # With rank matching on, a permutation-invariant statistic of the
    # synthetic sample stays uncorrelated with the inference sample.
    model2 = gaussian_from_params(np.zeros(2), cov=np.eye(2))
    R, n = 500, 64
    h_real = np.empty(R)
    h_synth = np.empty(R)
    for r in range(R):
        Z = np.random.default_rng(130_000 + r).standard_normal((n, 2))
        cfg = PassConfig(perturbation=PerturbationSpec(tau=0.2), rank_match=True, mc_seed=140_000 + r)
        sample = pass_synthesize(model2, Z, cfg, replicate=0)
        h_real[r] = Z[:, 0].mean()
        h_synth[r] = sample[:, 0].mean()
    corr = float(np.corrcoef(h_real, h_synth)[0, 1])
    bound = 4.0 / math.sqrt(R)
    ok = abs(corr) < bound
    report(9, "statistic independence", ok, f"|corr|={abs(corr):.4f} (need < {bound:.4f})")
    assert ok


def _cli(*argv):
    return cli_main([str(a) for a in argv])


def test_criterion_10_cli_determinism(tmp_path):
    rng = np.random.default_rng(888)
    hold2d = tmp_path / "hold2d.csv"
    g1 = tmp_path / "g1.csv"
    g2 = tmp_path / "g2.csv"
    labeled_train = tmp_path / "train_lab.csv"
    labeled_inf = tmp_path / "inf_lab.csv"
    labeled_hold = tmp_path / "hold_lab.csv"
    onecol = tmp_path / "x1.csv"
    points = tmp_path / "pts.csv"

    dataio.write_matrix(hold2d, rng.standard_normal((80, 2)))
    dataio.write_matrix(g1, rng.standard_normal((40, 2)))
    dataio.write_matrix(g2, rng.standard_normal((30, 2)))
    X = rng.standard_normal((120, 3))
    yb = (rng.random(120) < 0.5).astype(float)
    dataio.write_matrix(labeled_train, np.column_stack((yb[:60], X[:60])))
    dataio.write_matrix(labeled_inf, np.column_stack((yb[60:], X[60:])))
    hold = np.column_stack((yb, X))
    hold[:, 2] = 0.0
    dataio.write_matrix(labeled_hold, hold)
    dataio.write_matrix(onecol, 2.0 + rng.standard_normal((40, 1)))
    dataio.write_matrix(points, rng.random((4, 7)))

    def run_pair(name, build):
        out_a = tmp_path / f"{name}_a.out"
        out_b = tmp_path / f"{name}_b.out"
        assert _cli(*build(out_a)) == 0, name
        assert _cli(*build(out_b)) == 0, name
        identical = out_a.read_bytes() == out_b.read_bytes()
        return identical, out_a

    results = {}
    results["simulate"], sim = run_pair("simulate", lambda out: ("simulate", "--n", 150, "--seed", 7, "--out", out))
    results["fit-gaussian"], model_g = run_pair(
        "fitg", lambda out: ("fit", "--input", sim, "--kind", "gaussian", "--seed", 1, "--out", out)
    )
    results["fit-copula"], model_c = run_pair(
        "fitc", lambda out: ("fit", "--input", sim, "--kind", "copula", "--seed", 1, "--out", out)
    )
    results["synthesize"], _ = run_pair(
        "syn", lambda out: ("synthesize", "--model", model_g, "--n", 50, "--tau", 0.4, "--seed", 3, "--out", out)
    )
    results["synthesize-rank-match"], _ = run_pair(
        "synrm",
        lambda out: (
            "synthesize", "--model", model_g, "--rank-match", "--input", sim, "--seed", 4, "--out", out
        ),
    )
    results["fit-2d"], model_2d = run_pair(
        "fit2d", lambda out: ("fit", "--input", hold2d, "--seed", 2, "--out", out)
    )
    results["test-fid"], fid_report = run_pair(
        "tfid",
        lambda out: (
            "test-fid", "--input", g1, "--candidate", g2, "--model", model_2d,
            "--mc", 40, "--seed", 9, "--out", out,
        ),
    )
    results["fit-joint"], model_joint = run_pair(
        "fitj", lambda out: ("fit", "--input", labeled_hold, "--seed", 5, "--out", out)
    )
    results["test-feature"], _ = run_pair(
        "tfeat",
        lambda out: (
            "test-feature", "--input", labeled_train, "--inference", labeled_inf,
            "--model", model_joint, "--mask", "1", "--mc", 20, "--seed", 11, "--out", out,
        ),
    )
    results["test-coherence"], _ = run_pair(
        "tcoh",
        lambda out: (
            "test-coherence", "--input", g1, "--input2", g2, "--model", model_2d,
            "--mc", 20, "--seed", 12, "--out", out,
        ),
    )
    results["test-pivotal"], pivotal_report = run_pair(
        "tpiv",
        lambda out: (
            "test-pivotal", "--input", onecol, "--mc", 99, "--alpha", 0.1,
            "--theta0", 2.0, "--seed", 13, "--out", out,
        ),
    )
    results["predict"], intervals = run_pair(
        "pred",
        lambda out: (
            "predict", "--model", model_c, "--input", points, "--mc", 200,
            "--alpha", 0.05, "--seed", 14, "--out", out,
        ),
    )
    results["coverage"], coverage = run_pair(
        "cov",
        lambda out: (
            "coverage", "--n", 260, "--train", 200, "--mc", 200, "--seed", 6, "--out", out
        ),
    )
    results["verify-report"] = all(
        _cli("verify-report", "--input", document) == 0
        for document in (fid_report, pivotal_report, intervals, coverage)
    )

    failed = sorted(name for name, ok in results.items() if not ok)
    ok = not failed
    report(
        10,
        "CLI determinism",
        ok,
        f"{len(results)} subcommands byte-identical on double run" if ok else f"failed: {failed}",
    )
    assert ok
