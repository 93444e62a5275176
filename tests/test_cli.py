import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pai
from pai import PassConfig, cli, dataio, gaussian_from_params, generators, pivotal_inference, save_model
from pai import test_two_sample_fid as fid_test
from pai.cli import build_parser, main


def run(*argv):
    return main([str(a) for a in argv])


def read(path):
    return path.read_bytes()


@pytest.fixture
def sim_csv(tmp_path):
    path = tmp_path / "sim.csv"
    assert run("simulate", "--n", 200, "--seed", 7, "--out", path) == 0
    return path


def test_simulate_shape_and_determinism(tmp_path, sim_csv):
    data = dataio.read_matrix(sim_csv)
    assert data.shape == (200, 8)
    again = tmp_path / "sim2.csv"
    assert run("simulate", "--n", 200, "--seed", 7, "--out", again) == 0
    assert read(sim_csv) == read(again)


def test_fit_and_synthesize_round_trip(tmp_path, sim_csv):
    model = tmp_path / "model.json"
    assert run("fit", "--input", sim_csv, "--kind", "gaussian", "--seed", 1, "--out", model) == 0
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run("synthesize", "--model", model, "--n", 50, "--tau", 0.3, "--seed", 3, "--out", out1) == 0
    assert run("synthesize", "--model", model, "--n", 50, "--tau", 0.3, "--seed", 3, "--out", out2) == 0
    assert read(out1) == read(out2)
    assert dataio.read_matrix(out1).shape == (50, 8)


def test_synthesize_rank_match_requires_input(tmp_path, sim_csv):
    model = tmp_path / "model.json"
    run("fit", "--input", sim_csv, "--seed", 1, "--out", model)
    code = run("synthesize", "--model", model, "--rank-match", "--seed", 3, "--out", tmp_path / "x.csv")
    assert code == 2
    ok = run(
        "synthesize", "--model", model, "--rank-match", "--input", sim_csv,
        "--seed", 3, "--out", tmp_path / "rm.csv",
    )
    assert ok == 0
    assert dataio.read_matrix(tmp_path / "rm.csv").shape == (200, 8)


@pytest.mark.parametrize("n", [7, -3])
def test_rank_match_with_an_n_other_than_the_sample_rows_is_a_data_error(tmp_path, capsys, sim_csv, n):
    # the size of a rank-matched sample is the inference sample's row count
    model, out = tmp_path / "model.json", tmp_path / "rm.csv"
    run("fit", "--input", sim_csv, "--seed", 1, "--out", model)
    capsys.readouterr()
    argv = ("synthesize", "--model", model, "--rank-match", "--input", sim_csv, f"--n={n}", "--seed", 3)
    assert run(*argv, "--out", out) == 3
    assert capsys.readouterr().err.startswith("data error: sample size n: ")
    assert not out.exists()
    assert run(*argv[:-2], "--n", 200, "--seed", 3, "--out", out) == 0
    assert dataio.read_matrix(out).shape == (200, 8)


def test_fit_copula_constant_column_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    data = np.random.default_rng(1).random((60, 3))
    data[:, 2] = 5.0
    dataio.write_matrix(bad, data)
    assert run("fit", "--input", bad, "--kind", "copula", "--seed", 1, "--out", tmp_path / "m.json") == 3


def test_missing_file_exit_code(tmp_path):
    assert run("fit", "--input", tmp_path / "nope.csv", "--seed", 1, "--out", tmp_path / "m.json") == 3


def test_bad_csv_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n1.0,zzz\n")
    assert run("fit", "--input", bad, "--seed", 1, "--out", tmp_path / "m.json") == 3
    err = capsys.readouterr().err
    assert "line 2" in err and "column 2" in err


def test_fid_test_and_verify(tmp_path):
    rng = np.random.default_rng(5)
    ref = tmp_path / "ref.csv"
    cand = tmp_path / "cand.csv"
    hold = tmp_path / "hold.csv"
    dataio.write_matrix(ref, rng.standard_normal((80, 2)))
    dataio.write_matrix(cand, rng.standard_normal((80, 2)))
    dataio.write_matrix(hold, rng.standard_normal((120, 2)))
    model = tmp_path / "model.json"
    assert run("fit", "--input", hold, "--seed", 1, "--out", model) == 0
    report = tmp_path / "report.json"
    args = (
        "test-fid", "--input", ref, "--candidate", cand, "--model", model,
        "--mc", 60, "--seed", 9, "--out", report,
    )
    assert run(*args) == 0
    payload = json.loads(report.read_text())
    assert payload["p_value"] > 0.0  # plus-one correction cannot return 0
    assert payload["config"]["seed"] == 9
    assert run("verify-report", "--input", report) == 0

    # tampering with the stored p-value must fail verification
    payload["p_value"] = 0.5 * payload["p_value"] + 0.001
    report.write_text(json.dumps(payload))
    assert run("verify-report", "--input", report) == 3


def test_mc_flag_validation(tmp_path, sim_csv):
    model = tmp_path / "model.json"
    run("fit", "--input", sim_csv, "--seed", 1, "--out", model)
    code = run(
        "test-fid", "--input", sim_csv, "--candidate", sim_csv, "--model", model,
        "--mc", 0, "--seed", 1, "--out", tmp_path / "r.json",
    )
    assert code == 2
    # coverage reads --mc with the same check as every other command
    assert run("coverage", "--mc", 1, "--seed", 1, "--out", tmp_path / "c.json") == 2


# Sizes whose arrays exceed any 47-bit address space, so no allocation
# succeeds even where the kernel overcommits memory; the second one's byte
# count does not even fit a signed 64-bit integer.
IMPOSSIBLE_SIZES = (10**15, 10**30)


def _no_replicate_may_be_drawn(*args):
    raise AssertionError("a replicate was drawn before the outputs were allocated")


def _labeled_inputs(tmp_path):
    rng = np.random.default_rng(4)
    sample, labeled, column = tmp_path / "x.csv", tmp_path / "labeled.csv", tmp_path / "col.csv"
    dataio.write_matrix(sample, rng.standard_normal((30, 2)))
    dataio.write_matrix(labeled, np.column_stack((np.arange(30) % 2, rng.standard_normal(30))))
    dataio.write_matrix(column, 1.0 + rng.standard_normal((30, 1)))
    model = tmp_path / "model.json"
    save_model(gaussian_from_params(np.zeros(2), cov=np.eye(2)), model)
    return sample, labeled, column, model


@pytest.mark.parametrize(
    "command",
    ["simulate", "synthesize", "test-fid", "test-feature", "test-coherence", "test-pivotal", "predict", "coverage"],
)
def test_impossible_size_is_a_data_error(tmp_path, capsys, monkeypatch, command):
    # Simulation, synthesis, conditional draws and every engine consumer
    # allocate their outputs before the first draw; a draw would mean an
    # impossible size runs until memory is gone.
    monkeypatch.setattr(generators, "_draw_replicate", _no_replicate_may_be_drawn)
    sample, labeled, column, model = _labeled_inputs(tmp_path)
    out = tmp_path / "out"
    common = ["--seed", 1, "--out", out]
    for size in IMPOSSIBLE_SIZES:
        argv = {
            "simulate": ["--n", size],
            "synthesize": ["--model", model, "--n", size],
            "test-fid": ["--input", sample, "--candidate", sample, "--model", model, "--mc", size],
            "test-feature": [
                "--input", labeled, "--inference", labeled, "--model", model, "--mask", "0", "--mc", size,
            ],
            "test-coherence": ["--input", sample, "--input2", sample, "--model", model, "--mc", size],
            "test-pivotal": ["--input", column, "--mc", size],
            "predict": ["--model", model, "--input", column, "--mc", size],
            "coverage": ["--n", size],
        }[command]
        capsys.readouterr()
        assert run(command, *argv, *common) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: out of memory:") and "Traceback" not in err, (size, err)
        assert not out.exists()


@pytest.mark.parametrize(
    "command", ["synthesize", "test-fid", "test-feature", "test-coherence", "test-pivotal", "predict", "coverage"]
)
def test_a_tau_whose_square_overflows_is_a_data_error_before_drawing(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(generators, "_draw_replicate", _no_replicate_may_be_drawn)
    sample, labeled, column, model = _labeled_inputs(tmp_path)
    out = tmp_path / "out"
    argv = {
        "synthesize": ["--model", model, "--n", 5],
        "test-fid": ["--input", sample, "--candidate", sample, "--model", model, "--mc", 5],
        "test-feature": ["--input", labeled, "--inference", labeled, "--model", model, "--mask", "0", "--mc", 5],
        "test-coherence": ["--input", sample, "--input2", sample, "--model", model, "--mc", 5],
        "test-pivotal": ["--input", column, "--mc", 19],
        "predict": ["--model", model, "--input", column, "--mc", 100],
        "coverage": ["--n", 260, "--train", 200, "--mc", 100],
    }[command]
    capsys.readouterr()
    assert run(command, *argv, "--tau", "1e200", "--seed", 1, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: perturbation size tau is too large") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "coverage"])
def test_an_alpha_whose_draw_count_overflows_is_a_data_error(tmp_path, capsys, command):
    _, _, column, model = _labeled_inputs(tmp_path)
    out = tmp_path / "out.json"
    argv = {
        "predict": ["--model", model, "--input", column, "--mc", 100],
        "coverage": ["--n", 260, "--train", 200, "--mc", 100],
    }[command]
    capsys.readouterr()
    assert run(command, *argv, "--alpha", "5e-324", "--seed", 1, "--out", out) == 3
    assert capsys.readouterr().err.startswith("data error: alpha 5e-324 is too small")
    assert not out.exists()


def test_a_sigma_whose_standard_error_underflows_is_a_data_error(tmp_path, capsys):
    _, _, column, _ = _labeled_inputs(tmp_path)
    out = tmp_path / "out.json"
    capsys.readouterr()
    argv = ["--input", column, "--theta0", 1, "--sigma", "5e-324", "--mc", 19, "--seed", 1, "--out", out]
    assert run("test-pivotal", *argv) == 3
    assert capsys.readouterr().err.startswith("data error: the pivot's scale / sqrt(n) underflows to 0")
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, scale, message",
    [
        ("gaussian", 1e200, "gaussian fit is not finite: its covariance overflows"),
        ("location-scale", 1e200, "location-scale fit is not finite: its x_sd overflows"),
        ("copula", 1.5e308, "marginal of column 0 is not finite: its grid overflows"),
        # finite residuals whose mean absolute value overflows
        ("location-scale", [1.5e308, 1.0, 1.0], "location-scale fit is not finite: its mean_abs_residual overflows"),
    ],
)
def test_fit_writes_no_model_whose_parameters_overflow(tmp_path, capsys, kind, scale, message):
    data = tmp_path / "huge.csv"
    dataio.write_matrix(data, np.multiply(scale, np.tanh(np.random.default_rng(5).standard_normal((40, 3)))))
    out = tmp_path / "model.json"
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("fit", "--input", data, "--kind", kind, "--seed", 1, "--out", out) == 4
    assert capsys.readouterr().err.startswith(f"numeric error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "test-pivotal"])
def test_an_overflow_prints_one_stderr_line(tmp_path, command):
    # numpy's floating-point warnings would print before the error line.
    data, out = tmp_path / "x.csv", tmp_path / "out.json"
    rng = np.random.default_rng(5)
    if command == "fit":
        dataio.write_matrix(data, 1e200 * rng.standard_normal((40, 3)))
        argv, code = ["--kind", "gaussian"], 4
    else:
        dataio.write_matrix(data, rng.standard_normal((40, 1)))
        argv, code = ["--sigma", "1e308", "--mc", "19"], 4
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pai.__file__))}
    done = subprocess.run(
        [sys.executable, "-m", "pai.cli", command, "--input", str(data), *argv, "--seed", "1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == code
    assert len(done.stderr.splitlines()) == 1, done.stderr


@pytest.mark.parametrize(
    "column, argv, message",
    [
        # mean + sigma * z overflows float64 for |z| > 1.8
        (lambda z: z, ["--sigma=1e308"], "the pivot's draws overflow float64 at sigma = 1e+308"),
        # the sample's squares overflow, so its sd is inf
        (lambda z: 1e307 * z, [], "the sample mean or sd overflows float64 (mean "),
        # the sample's sum overflows, so its mean is inf, whatever sigma is
        (lambda z: 1.7e308 - 1e307 * np.abs(z), ["--sigma=1"], "the sample mean or sd overflows float64 (mean inf, "),
        # the sd is finite, but a synthetic sample's sd overflows
        (lambda z: 3e153 * z, [], "the pivot's draws overflow float64 at the sample sd = "),
        # (mean - theta0) / (sd / sqrt(n)) overflows, though theta0 is finite
        (lambda z: z, ["--theta0=1e308"], "the test statistic overflows float64 at theta0 = 1e+308"),
    ],
    ids=["sigma", "sample-sd", "sample-mean", "synthetic-sd", "theta0"],
)
def test_a_pivot_that_overflows_is_a_numeric_error(tmp_path, capsys, column, argv, message):
    data, out = tmp_path / "x.csv", tmp_path / "out.json"
    dataio.write_matrix(data, column(np.random.default_rng(5).standard_normal((12, 1))))
    capsys.readouterr()
    assert run("test-pivotal", "--input", data, *argv, "--mc", 199, "--seed", 1, "--out", out) == 4
    assert capsys.readouterr().err.startswith(f"numeric error: {message}")
    assert not out.exists()


def test_degenerate_feature_report_verifies(tmp_path):
    # the masked column is constant, so masking changes no loss: T = 0 and p = 1
    rng = np.random.default_rng(8)
    labeled, model, out = tmp_path / "labeled.csv", tmp_path / "model.json", tmp_path / "report.json"
    dataio.write_matrix(labeled, np.column_stack((np.arange(40) % 2, rng.standard_normal(40), np.zeros(40))))
    assert run("fit", "--input", labeled, "--seed", 1, "--out", model) == 0
    argv = ["--input", labeled, "--inference", labeled, "--model", model, "--mask", 1, "--mc", 9]
    assert run("test-feature", *argv, "--seed", 2, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert (payload["statistic"], payload["p_value"], payload["config"]["degenerate"]) == (0.0, 1.0, True)
    assert run("verify-report", "--input", out) == 0


@pytest.mark.parametrize("index", [str(2**63), str(-(2**63) - 1), str(2**64)])
def test_a_mask_index_beyond_int64_is_a_data_error(tmp_path, capsys, index):
    _, labeled, _, model = _labeled_inputs(tmp_path)
    out = tmp_path / "out.json"
    argv = ["--input", labeled, "--inference", labeled, "--model", model, f"--mask={index}", "--mc", 5]
    capsys.readouterr()
    assert run("test-feature", *argv, "--seed", 1, "--out", out) == 3
    err = capsys.readouterr().err
    refusal = "index: expected an integer >= 0" if index.startswith("-") else "indices must lie in 0..0"
    assert err.startswith(f"data error: masked feature {refusal}") and "Traceback" not in err
    assert not out.exists()


def test_copula_fits_data_whose_squares_overflow(tmp_path):
    data, out = tmp_path / "huge.csv", tmp_path / "model.json"
    dataio.write_matrix(data, 1e200 * np.random.default_rng(5).standard_normal((40, 3)))
    assert run("fit", "--input", data, "--kind", "copula", "--seed", 1, "--out", out) == 0
    assert generators.load_model(out).kind == "copula"


def test_replicate_index_must_lie_below_2_to_the_64(tmp_path, capsys):
    model = tmp_path / "model.json"
    save_model(gaussian_from_params(np.zeros(2), cov=np.eye(2)), model)
    out = tmp_path / "x.csv"
    assert run("synthesize", "--model", model, "--n", 5, "--replicate", 2**64 - 1, "--seed", 1, "--out", out) == 0
    out.unlink()
    capsys.readouterr()
    assert run("synthesize", "--model", model, "--n", 5, "--replicate", 2**64, "--seed", 1, "--out", out) == 3
    assert capsys.readouterr().err.startswith("data error: block stream indices must lie below 2**64")
    assert not out.exists()


def test_rank_match_beyond_the_halton_dimensions_exits_3_before_drawing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(generators, "_draw_replicate", _no_replicate_may_be_drawn)
    dim = 21
    model, sample, out = tmp_path / "model.json", tmp_path / "x.csv", tmp_path / "s.csv"
    save_model(gaussian_from_params(np.zeros(dim), cov=np.eye(dim)), model)
    dataio.write_matrix(sample, np.random.default_rng(4).standard_normal((8, dim)))
    capsys.readouterr()
    argv = ("synthesize", "--model", model, "--rank-match", "--input", sample, "--seed", 1, "--out", out)
    assert run(*argv) == 3
    assert capsys.readouterr().err.startswith(f"data error: unsupported dimension {dim}")
    assert not out.exists()


def test_pivotal_cli(tmp_path):
    data = tmp_path / "x.csv"
    dataio.write_matrix(data, 3.0 + np.random.default_rng(2).standard_normal((40, 1)))
    out = tmp_path / "pivotal.json"
    assert run(
        "test-pivotal", "--input", data, "--mc", 199, "--alpha", 0.1,
        "--theta0", 3.0, "--seed", 21, "--out", out,
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["lower"] < 3.0 < payload["upper"]
    assert run("verify-report", "--input", out) == 0

    # a stored interval that no longer reproduces must fail verification
    payload["upper"] += 1e-9
    out.write_text(json.dumps(payload))
    assert run("verify-report", "--input", out) == 3


def test_predict_cli(tmp_path, sim_csv):
    model = tmp_path / "model.json"
    assert run("fit", "--input", sim_csv, "--kind", "copula", "--seed", 1, "--out", model) == 0
    points = tmp_path / "pts.csv"
    dataio.write_matrix(points, np.random.default_rng(3).random((5, 7)))
    out = tmp_path / "intervals.json"
    assert run(
        "predict", "--model", model, "--input", points, "--mc", 400,
        "--alpha", 0.05, "--seed", 2, "--out", out,
    ) == 0
    payload = json.loads(out.read_text())
    assert len(payload["intervals"]) == 5
    for record in payload["intervals"]:
        assert record["lower"] <= record["center"] <= record["upper"]
        assert record["alpha"] == 0.05
    narrow, rejected = tmp_path / "narrow.csv", tmp_path / "rejected.json"
    dataio.write_matrix(narrow, np.random.default_rng(3).random((5, 6)))
    assert run("predict", "--model", model, "--input", narrow, "--mc", 400, "--seed", 2, "--out", rejected) == 3
    assert not rejected.exists()


@pytest.mark.parametrize("kind", ["gaussian", "copula", "location-scale"])
@pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
def test_predict_non_finite_point_exit_code(tmp_path, capsys, sim_csv, kind, field):
    model = tmp_path / "model.json"
    assert run("fit", "--input", sim_csv, "--kind", kind, "--seed", 1, "--out", model) == 0
    points = tmp_path / "pts.csv"
    rows = np.random.default_rng(5).random((2, 7)).astype(str)
    rows[1, 2] = field
    points.write_text("".join(",".join(row) + "\n" for row in rows))
    capsys.readouterr()
    out = tmp_path / "intervals.json"
    assert run("predict", "--model", model, "--input", points, "--mc", 100, "--seed", 2, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "line 2, column 3" in err and "non-finite" in err
    assert not out.exists()


def test_predict_singular_conditioning_covariance_exit_code(tmp_path, capsys):
    model = tmp_path / "model.json"
    save_model(gaussian_from_params(np.zeros(2), chol=np.array([[1.0, 0.0], [0.0, 1e-200]])), model)
    points = tmp_path / "pts.csv"
    dataio.write_matrix(points, np.array([[0.5]]))
    capsys.readouterr()
    out = tmp_path / "intervals.json"
    assert run("predict", "--model", model, "--input", points, "--mc", 100, "--seed", 2, "--out", out) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and "conditioning covariance is not positive definite" in err
    assert not out.exists()


def test_location_scale_fit_predict_is_byte_deterministic(tmp_path, sim_csv):
    points = tmp_path / "pts.csv"
    dataio.write_matrix(points, np.random.default_rng(4).random((5, 7)))
    model = tmp_path / "model.json"
    intervals = tmp_path / "intervals.json"
    outputs = []
    for _ in range(2):
        assert run("fit", "--input", sim_csv, "--kind", "location-scale", "--seed", 1, "--out", model) == 0
        assert run(
            "predict", "--model", model, "--input", points, "--mc", 400,
            "--alpha", 0.1, "--tau", 0.2, "--seed", 2, "--out", intervals,
        ) == 0
        outputs.append((read(model), read(intervals)))
        model.unlink()
        intervals.unlink()
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][0])["kind"] == "location-scale"
    records = json.loads(outputs[0][1])["intervals"]
    assert len(records) == 5
    for record in records:
        assert record["lower"] <= record["center"] <= record["upper"]


def test_coverage_accepts_location_scale(tmp_path):
    out = tmp_path / "study.json"
    assert run(
        "coverage", "--n", 400, "--train", 300, "--kind", "location-scale", "--mc", 200,
        "--seed", 3, "--out", out,
    ) == 0
    assert json.loads(out.read_text())["config"]["kind"] == "location-scale"


@pytest.mark.parametrize("tau", [0, 0.3])
@pytest.mark.parametrize("kind", ["gaussian", "copula", "location-scale"])
def test_fresh_interval_and_coverage_files_verify(tmp_path, capsys, sim_csv, kind, tau):
    model, points = tmp_path / "model.json", tmp_path / "pts.csv"
    intervals, study = tmp_path / "intervals.json", tmp_path / "study.json"
    assert run("fit", "--input", sim_csv, "--kind", kind, "--seed", 1, "--out", model) == 0
    dataio.write_matrix(points, np.random.default_rng(6).random((5, 7)))
    assert run(
        "predict", "--model", model, "--input", points, "--mc", 100, "--tau", tau, "--seed", 2, "--out", intervals
    ) == 0
    assert run(
        "coverage", "--n", 260, "--train", 200, "--kind", kind, "--mc", 100, "--tau", tau, "--seed", 3, "--out", study
    ) == 0
    capsys.readouterr()
    assert run("verify-report", "--input", intervals) == 0
    assert run("verify-report", "--input", study) == 0
    assert capsys.readouterr().out.splitlines() == [
        "verify: ok (pai-intervals/1 results re-derive)",
        "verify: ok (pai-coverage/1 results re-derive)",
    ]


@pytest.fixture(scope="module")
def prediction_documents(tmp_path_factory):
    """A fresh intervals file (alpha 0.05, mc 100) and coverage file, as parsed JSON."""
    root = tmp_path_factory.mktemp("prediction")
    assert run("simulate", "--n", 200, "--seed", 7, "--out", root / "sim.csv") == 0
    assert run("fit", "--input", root / "sim.csv", "--kind", "copula", "--seed", 1, "--out", root / "m.json") == 0
    dataio.write_matrix(root / "pts.csv", np.random.default_rng(6).random((5, 7)))
    assert run(
        "predict", "--model", root / "m.json", "--input", root / "pts.csv", "--mc", 100, "--seed", 2,
        "--out", root / "intervals.json",
    ) == 0
    assert run("coverage", "--n", 260, "--train", 200, "--mc", 100, "--seed", 3, "--out", root / "study.json") == 0
    return {name: json.loads((root / f"{name}.json").read_text()) for name in ("intervals", "study")}


def _set_draws(doc, mc):
    doc["config"]["mc"] = mc
    for record in doc["intervals"]:
        record["mc_draws_used"] = mc


# Edits that keep every field well-formed but break what the file's results imply.
INCONSISTENT_PREDICTION_FILES = {
    "study-median-coverage": ("study", lambda doc: doc["summary"].update(median_coverage=0.5)),
    "study-point-count": ("study", lambda doc: doc["summary"].update(points=doc["summary"]["points"] + 1)),
    "study-point-bound": ("study", lambda doc: doc["points"][0].update(pai_upper=doc["points"][0]["pai_upper"] + 1)),
    "study-point-coverage": ("study", lambda doc: doc["points"][1].update(conformal_coverage=0.0)),
    # Edits that leave every summary value as it was.
    "study-center-above-upper": (
        "study", lambda doc: doc["points"][2].update(pai_center=doc["points"][2]["pai_upper"] + 1.0)
    ),
    "study-conformal-center-below-lower": (
        "study", lambda doc: doc["points"][0].update(conformal_center=doc["points"][0]["conformal_lower"] - 1.0)
    ),
    "study-record-alpha": ("study", lambda doc: doc["points"][3].update(alpha=0.1)),
    "intervals-lower-above-upper": (
        "intervals", lambda doc: doc["intervals"][1].update(lower=doc["intervals"][1]["upper"] + 1.0)
    ),
    "intervals-center-above-upper": (
        "intervals", lambda doc: doc["intervals"][0].update(center=doc["intervals"][0]["upper"] + 1.0)
    ),
    # ceil(4 / 0.05) = 80 draws at the least
    "intervals-too-few-draws": ("intervals", lambda doc: _set_draws(doc, 79)),
    "intervals-record-alpha": ("intervals", lambda doc: doc["intervals"][2].update(alpha=0.1)),
    "intervals-record-draws": ("intervals", lambda doc: doc["intervals"][2].update(mc_draws_used=101)),
    "intervals-alpha-overflows-draws": ("intervals", lambda doc: doc.update(alpha=5e-324)),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT_PREDICTION_FILES))
def test_inconsistent_prediction_file_exit_code(tmp_path, capsys, prediction_documents, case):
    name, edit = INCONSISTENT_PREDICTION_FILES[case]
    doc = copy.deepcopy(prediction_documents[name])
    assert edit(doc) is None
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify-report", "--input", path) == 3
    assert capsys.readouterr().err.startswith("data error:")


def test_least_draws_is_the_rule_of_both_interval_and_file(tmp_path, prediction_documents):
    doc = copy.deepcopy(prediction_documents["intervals"])
    _set_draws(doc, 80)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run("verify-report", "--input", path) == 0


@pytest.mark.parametrize("train", [-5, 0])
def test_coverage_rejects_a_train_size_below_one(tmp_path, capsys, train):
    out = tmp_path / "study.json"
    assert run("coverage", "--n", 400, "--train", train, "--mc", 200, "--seed", 1, "--out", out) == 3
    assert capsys.readouterr().err.startswith("data error: n_train: expected an integer >= 1")
    assert not out.exists()


def test_malformed_model_exit_code(tmp_path, sim_csv):
    model = tmp_path / "model.json"
    assert run("fit", "--input", sim_csv, "--kind", "gaussian", "--seed", 1, "--out", model) == 0
    doc = json.loads(model.read_text())
    doc["chol"] = [[1.0, 0.0]]
    model.write_text(json.dumps(doc))
    out = tmp_path / "s.csv"
    assert run("synthesize", "--model", model, "--n", 5, "--seed", 1, "--out", out) == 3
    del doc["chol"]
    model.write_text(json.dumps(doc))
    assert run("synthesize", "--model", model, "--n", 5, "--seed", 1, "--out", out) == 3
    assert not out.exists()


def test_usage_errors_exit_2():
    assert run("synthesize") == 2  # missing required flags
    assert run("unknown-command") == 2
    assert run() == 2


def test_the_parser_is_built_once_per_process(tmp_path):
    build_parser.cache_clear()
    assert run("simulate", "--n", 5, "--seed", 1, "--out", tmp_path / "a.csv") == 0
    assert run("simulate", "--n", 5, "--seed", 2, "--out", tmp_path / "b.csv") == 0
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_a_handler_replaced_after_the_first_call_is_the_one_that_runs(tmp_path, monkeypatch):
    assert run("simulate", "--n", 5, "--seed", 1, "--out", tmp_path / "a.csv") == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: seen.append(args.n) or 0)
    assert run("simulate", "--n", 6, "--seed", 1, "--out", tmp_path / "b.csv") == 0
    assert seen == [6] and not (tmp_path / "b.csv").exists()


def test_a_usage_error_leaves_the_shared_parser_usable(tmp_path):
    assert run("simulate", "--seed", 1, "--out", tmp_path / "a.csv") == 2  # --n missing
    assert run("simulate", "--n", 5, "--seed", 1, "--out", tmp_path / "a.csv") == 0
    assert dataio.read_matrix(tmp_path / "a.csv").shape == (5, 8)


def _report_documents():
    rng = np.random.default_rng(8)
    model = gaussian_from_params(np.zeros(2), cov=np.eye(2))
    fid = fid_test(rng.standard_normal((20, 2)), rng.standard_normal((20, 2)), model, 5, PassConfig())
    pivotal = pivotal_inference(rng.standard_normal(10), D=9, cfg=PassConfig(), theta0=0.0)
    return {"pai-report/1": fid.to_dict(), "pai-pivotal/1": pivotal.to_dict()}


REPORT_DOCUMENTS = _report_documents()

MALFORMED_REPORTS = {
    "report-schema-only": ("pai-report/1", lambda doc: {"schema": "pai-report/1"}),
    "report-no-draws": ("pai-report/1", lambda doc: {k: v for k, v in doc.items() if k != "null_draws"}),
    "report-test-not-string": ("pai-report/1", lambda doc: {**doc, "test": 3}),
    "report-statistic-string": ("pai-report/1", lambda doc: {**doc, "statistic": "x"}),
    "report-p-bool": ("pai-report/1", lambda doc: {**doc, "p_value": True}),
    "report-sideways": ("pai-report/1", lambda doc: {**doc, "sidedness": "sideways"}),
    "report-correction": ("pai-report/1", lambda doc: {**doc, "correction": "none"}),
    "report-draws-string": ("pai-report/1", lambda doc: {**doc, "null_draws": "abc"}),
    "report-draws-nan": ("pai-report/1", lambda doc: {**doc, "null_draws": [1.0, float("nan")]}),
    "report-draws-nested": ("pai-report/1", lambda doc: {**doc, "null_draws": [[1.0], [2.0]]}),
    "report-one-draw": ("pai-report/1", lambda doc: {**doc, "null_draws": [1.0]}),
    "report-seed-float": ("pai-report/1", lambda doc: {**doc, "seed": 1.5}),
    "report-config-list": ("pai-report/1", lambda doc: {**doc, "config": []}),
    "pivotal-schema-only": ("pai-pivotal/1", lambda doc: {"schema": "pai-pivotal/1"}),
    "pivotal-alpha-string": ("pai-pivotal/1", lambda doc: {**doc, "alpha": "x"}),
    "pivotal-alpha-one": ("pai-pivotal/1", lambda doc: {**doc, "alpha": 1.0}),
    "pivotal-alpha-zero": ("pai-pivotal/1", lambda doc: {**doc, "alpha": 0}),
    "pivotal-draws-string": ("pai-pivotal/1", lambda doc: {**doc, "null_draws": "abc"}),
    "pivotal-draws-inf": ("pai-pivotal/1", lambda doc: {**doc, "null_draws": [1.0, float("inf")]}),
    "pivotal-sideways": ("pai-pivotal/1", lambda doc: {**doc, "sidedness": "sideways"}),
    "pivotal-lower-null": ("pai-pivotal/1", lambda doc: {**doc, "lower": None}),
    "pivotal-estimate-huge": ("pai-pivotal/1", lambda doc: {**doc, "estimate": 10**400}),
    "pivotal-statistic-list": ("pai-pivotal/1", lambda doc: {**doc, "statistic": [1.0]}),
    "unknown-schema": ("pai-report/1", lambda doc: {**doc, "schema": "pai-report/0"}),
    "unhashable-schema": ("pai-report/1", lambda doc: {**doc, "schema": ["pai-report/1"]}),
    # JSON booleans are not numbers, as in model files
    "report-statistic-bool": ("pai-report/1", lambda doc: {**doc, "statistic": True}),
    "report-draws-bool": ("pai-report/1", lambda doc: {**doc, "null_draws": [*doc["null_draws"][:-1], True]}),
    "report-seed-bool": ("pai-report/1", lambda doc: {**doc, "seed": True}),
    "report-seed-huge": ("pai-report/1", lambda doc: {**doc, "seed": 10**400}),
    "pivotal-estimate-bool": ("pai-pivotal/1", lambda doc: {**doc, "estimate": True}),
    "pivotal-lower-bool": ("pai-pivotal/1", lambda doc: {**doc, "lower": False}),
    "pivotal-draws-bool": ("pai-pivotal/1", lambda doc: {**doc, "null_draws": [False, *doc["null_draws"][1:]]}),
}


@pytest.mark.parametrize("schema", sorted(REPORT_DOCUMENTS))
def test_valid_report_documents_verify(tmp_path, schema):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(REPORT_DOCUMENTS[schema]))
    assert run("verify-report", "--input", path) == 0


@pytest.mark.parametrize(
    "schema, edit, expected",
    [
        # upper tail, plus-one: p = (1 + #{draws >= 3.5}) / (4 + 1) = 0.4;
        # sqrt(0.4 * 0.6 / 4) = 0.244949, sqrt(log(2 / 0.05) / 8) = 0.679051
        (
            "pai-report/1",
            {"null_draws": [1.0, 2.0, 3.0, 4.0], "statistic": 3.5, "sidedness": "upper", "p_value": 0.4},
            "precision: Monte Carlo SE of p = 0.244949, "
            "DKW half-width of the null CDF = 0.679051 (delta = 0.05, D = 4)",
        ),
        # stored p = 0.4 from D = 9 draws: sqrt(0.4 * 0.6 / 9) = 0.163299,
        # sqrt(log(2 / 0.05) / 18) = 0.452701
        (
            "pai-pivotal/1",
            {},
            "precision: Monte Carlo SE of p = 0.163299, "
            "DKW half-width of the null CDF = 0.452701 (delta = 0.05, D = 9)",
        ),
        # an interval with no tested null value has no p-value
        (
            "pai-pivotal/1",
            {"statistic": None, "p_value": None},
            "precision: Monte Carlo SE of p = n/a, "
            "DKW half-width of the null CDF = 0.452701 (delta = 0.05, D = 9)",
        ),
    ],
)
def test_verify_report_prints_precision(tmp_path, capsys, schema, edit, expected):
    doc = {**REPORT_DOCUMENTS[schema], **edit}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert run("verify-report", "--input", path) == 0
    assert capsys.readouterr().out.splitlines()[-1] == expected


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_malformed_report_exit_code(tmp_path, capsys, case):
    schema, mutate = MALFORMED_REPORTS[case]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(mutate(REPORT_DOCUMENTS[schema])))
    assert run("verify-report", "--input", path) == 3
    assert capsys.readouterr().err.startswith("data error:")


@pytest.mark.parametrize("text", ["{not json", "", "[1, 2]", '"report"', "{}"])
def test_report_file_that_is_not_a_json_object_exit_code(tmp_path, capsys, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert run("verify-report", "--input", path) == 3
    assert capsys.readouterr().err.startswith("data error:")


BAD_PATHS = {
    "fit-input-dir": ("fit", "--input", "{dir}", "--seed", 1, "--out", "{dir}/m.json"),
    "fit-input-latin1": ("fit", "--input", "{latin1}", "--seed", 1, "--out", "{dir}/m.json"),
    "synthesize-model-dir": ("synthesize", "--model", "{dir}", "--n", 5, "--seed", 1, "--out", "{dir}/s.csv"),
    "synthesize-model-latin1": ("synthesize", "--model", "{latin1}", "--n", 5, "--seed", 1, "--out", "{dir}/s.csv"),
    "verify-input-dir": ("verify-report", "--input", "{dir}"),
    "verify-input-missing": ("verify-report", "--input", "{dir}/absent.json"),
    "verify-input-latin1": ("verify-report", "--input", "{latin1}"),
    "simulate-out-no-dir": ("simulate", "--n", 5, "--seed", 1, "--out", "{dir}/nodir/x.csv"),
    "simulate-out-dir": ("simulate", "--n", 5, "--seed", 1, "--out", "{dir}"),
    "fit-out-no-dir": ("fit", "--input", "{csv}", "--seed", 1, "--out", "{dir}/nodir/m.json"),
    "pivotal-out-no-dir": (
        "test-pivotal", "--input", "{onecol}", "--mc", 9, "--seed", 1, "--out", "{dir}/nodir/p.json",
    ),
    "predict-out-no-dir": (
        "predict", "--model", "{model}", "--input", "{points}", "--mc", 100, "--seed", 1,
        "--out", "{dir}/nodir/i.json",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_PATHS))
def test_unreadable_input_or_unwritable_output_exit_code(tmp_path, capsys, sim_csv, case):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("1.0,2.0\n\xe9,3.0\n".encode("latin-1"))
    onecol = tmp_path / "onecol.csv"
    dataio.write_matrix(onecol, np.random.default_rng(1).standard_normal((10, 1)))
    points = tmp_path / "points.csv"
    dataio.write_matrix(points, np.random.default_rng(2).random((3, 7)))
    model = tmp_path / "model.json"
    assert run("fit", "--input", sim_csv, "--kind", "copula", "--seed", 1, "--out", model) == 0
    capsys.readouterr()
    names = {"dir": tmp_path, "latin1": latin1, "csv": sim_csv, "onecol": onecol, "points": points, "model": model}
    argv = [str(a).format(**names) for a in BAD_PATHS[case]]
    assert run(*argv) == 3
    assert capsys.readouterr().err.startswith("data error:")
