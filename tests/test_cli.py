import json

import numpy as np
import pytest

from pai import PassConfig, dataio, gaussian_from_params, generators, pivotal_inference, save_model
from pai import test_two_sample_fid as fid_test
from pai.cli import main


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


# Sizes whose arrays exceed any 47-bit address space, so no allocation
# succeeds even where the kernel overcommits memory; the second one's byte
# count does not even fit a signed 64-bit integer.
IMPOSSIBLE_SIZES = (10**15, 10**30)


def _no_replicate_may_be_drawn(*args):
    raise AssertionError("a replicate was drawn before the outputs were allocated")


@pytest.mark.parametrize(
    "command",
    ["simulate", "synthesize", "test-fid", "test-feature", "test-coherence", "test-pivotal", "predict", "coverage"],
)
def test_impossible_size_is_a_data_error(tmp_path, capsys, monkeypatch, command):
    # Simulation, synthesis, conditional draws and every engine consumer
    # allocate their outputs before the first draw; a draw would mean an
    # impossible size runs until memory is gone.
    monkeypatch.setattr(generators, "_draw_replicate", _no_replicate_may_be_drawn)
    rng = np.random.default_rng(4)
    sample, labeled, column = tmp_path / "x.csv", tmp_path / "labeled.csv", tmp_path / "col.csv"
    dataio.write_matrix(sample, rng.standard_normal((30, 2)))
    dataio.write_matrix(labeled, np.column_stack((np.arange(30) % 2, rng.standard_normal(30))))
    dataio.write_matrix(column, rng.standard_normal((30, 1)))
    model = tmp_path / "model.json"
    save_model(gaussian_from_params(np.zeros(2), cov=np.eye(2)), model)
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
}


@pytest.mark.parametrize("schema", sorted(REPORT_DOCUMENTS))
def test_valid_report_documents_verify(tmp_path, schema):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(REPORT_DOCUMENTS[schema]))
    assert run("verify-report", "--input", path) == 0


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
