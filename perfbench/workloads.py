"""The benchmark's three workloads.

Each workload is a closed loop: one caller, one process, and the next op
starts only after the previous one returns. A workload object is built at
set-up from the workload seed; ``prepare(i)`` makes op ``i``'s inputs (not
timed), ``run`` performs the op (timed) and ``check`` returns the op's output
fingerprint plus a list of failed invariants (not timed). Op ``i``'s inputs
depend only on ``(seed, i)``, so an op's fingerprint does not depend on how
many ops ran before it, on timing, or on tracing.

Why each workload exists, and which layer metrics should move which
end-to-end metric on it, is recorded in ``expectations.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

# Calls go through module attributes (``pai.pass_synthesize``, ``cli.main``), never
# through names imported into this module, so the tracer's patches see them.
import pai
from pai import PassConfig, PerturbationSpec, Sidedness, TestReport, cli


def _digest(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(str(part.shape).encode())
            digest.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()[:32]


def _op_rng(seed: int, workload_id: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload_id, index])


def _mc_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _check_plus_one(problems: list, label: str, p: float, draws: int) -> None:
    if not (1.0 / (draws + 1) <= p <= 1.0):
        problems.append(f"{label}: plus-one p-value {p!r} outside [1/{draws + 1}, 1]")


def _equicorrelated(d: int, rho: float) -> np.ndarray:
    return (1.0 - rho) * np.eye(d) + rho * np.ones((d, d))


class McNull:
    """One op is one null battery on fresh data (acceptance criteria 1 and 3 sizes)."""

    name = "mc_null"
    workload_id = 1
    cycle_ops = 1

    def __init__(self, seed: int, n_fid=200, n_groups=(150, 100), n_pivotal=20, D=200, D_pivotal=999):
        self.seed = seed
        self.n_fid = n_fid
        self.n_groups = n_groups
        self.n_pivotal = n_pivotal
        self.D = D
        self.D_pivotal = D_pivotal
        self.model = pai.gaussian_from_params(np.zeros(2), cov=np.eye(2))

    def prepare(self, index: int):
        rng = _op_rng(self.seed, self.workload_id, index)
        return {
            "reference": rng.standard_normal((self.n_fid, 2)),
            "candidate": rng.standard_normal((self.n_fid, 2)),
            "group1": rng.standard_normal((self.n_groups[0], 2)),
            "group2": rng.standard_normal((self.n_groups[1], 2)),
            "pivotal": 2.0 + rng.standard_normal(self.n_pivotal),
            "seeds": [_mc_seed(rng) for _ in range(3)],
        }

    def run(self, inputs):
        s_fid, s_coherence, s_pivotal = inputs["seeds"]
        fid_report = pai.test_two_sample_fid(
            inputs["reference"], inputs["candidate"], self.model, D=self.D, cfg=PassConfig(mc_seed=s_fid)
        )
        coherence_report = pai.test_conditional_coherence(
            inputs["group1"], inputs["group2"], self.model, self.model, D=self.D,
            cfg=PassConfig(mc_seed=s_coherence),
        )
        pivotal = pai.pivotal_inference(
            inputs["pivotal"], D=self.D_pivotal, cfg=PassConfig(mc_seed=s_pivotal), theta0=2.0
        )
        return fid_report, coherence_report, pivotal

    def check(self, output):
        fid_report, coherence_report, pivotal = output
        problems = []
        for label, report, draws in (
            ("fid", fid_report, self.D),
            ("coherence", coherence_report, 2 * self.D),
        ):
            if report.null_draws.size != draws:
                problems.append(f"{label}: {report.null_draws.size} null draws, expected {draws}")
            _check_plus_one(problems, label, report.p_value, draws)
            if not report.is_consistent():
                problems.append(f"{label}: report is not consistent")
        if pivotal.null_draws.size != self.D_pivotal:
            problems.append(f"pivotal: {pivotal.null_draws.size} null draws, expected {self.D_pivotal}")
        _check_plus_one(problems, "pivotal", pivotal.p_value, self.D_pivotal)
        if pivotal.p_value != pai.p_value(pivotal.null_draws, pivotal.statistic, Sidedness.TWO_SIDED):
            problems.append("pivotal: p-value does not reproduce from its null draws")
        if not pivotal.lower < pivotal.upper:
            problems.append(f"pivotal: empty interval [{pivotal.lower}, {pivotal.upper}]")
        fingerprint = {
            "fid": _digest(fid_report.null_draws.values, fid_report.statistic, fid_report.p_value),
            "coherence": _digest(
                coherence_report.null_draws.values, coherence_report.statistic, coherence_report.p_value
            ),
            "pivotal": _digest(pivotal.null_draws.values, pivotal.p_value, pivotal.lower, pivotal.upper),
        }
        return fingerprint, problems

    def close(self) -> None:
        pass


class RankSynth:
    """One op is one rank-matched synthesis replicate against an inference sample.

    Inference samples cycle through the shapes below; each sample gets
    ``REPLICATES`` consecutive ops, so one in four LSAP solves repeats a
    latent rank map already solved for that sample.
    """

    name = "rank_synth"
    workload_id = 2
    REPLICATES = 2
    TAU = 0.2

    def __init__(self, seed: int, shapes=((1024, 1), (1024, 2), (2000, 8))):
        self.seed = seed
        self.shapes = shapes
        self.cycle_ops = len(shapes) * self.REPLICATES
        self.models = {
            d: pai.gaussian_from_params(np.zeros(d), cov=_equicorrelated(d, 0.3)) for _, d in shapes
        }
        self._sample = (None, None)

    def _inference_sample(self, sample_index: int):
        if self._sample[0] != sample_index:
            n, d = self.shapes[sample_index % len(self.shapes)]
            rng = _op_rng(self.seed, self.workload_id, sample_index)
            data = rng.standard_normal((n, d)) @ self.models[d].chol.T
            self._sample = (sample_index, (data, _mc_seed(rng)))
        return self._sample[1]

    def prepare(self, index: int):
        sample_index, replicate = divmod(index, self.REPLICATES)
        data, mc_seed = self._inference_sample(sample_index)
        cfg = PassConfig(perturbation=PerturbationSpec(tau=self.TAU), rank_match=True, mc_seed=mc_seed)
        return self.models[data.shape[1]], data, cfg, replicate

    def run(self, inputs):
        model, data, cfg, replicate = inputs
        return data.shape, pai.pass_synthesize(model, data, cfg, replicate=replicate)

    def check(self, output):
        shape, sample = output
        problems = []
        if sample.shape != shape:
            problems.append(f"sample shape {sample.shape} != inference shape {shape}")
        elif not np.all(np.isfinite(sample)):
            problems.append("sample has non-finite entries")
        return {"sample": _digest(sample)}, problems

    def close(self) -> None:
        pass


def _write_csv(path: str, matrix: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(matrix), delimiter=",", fmt="%.17g")


def _csv_shape(path: str):
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    return (len(lines), len(lines[0].split(",")) if lines else 0)


class CliWorkflow:
    """One op is one pass of the file pipeline through in-process ``pai.cli.main``.

    The harness writes the CSV inputs into a work directory and runs every
    step there with relative paths, so report files (which echo their input
    paths) have the same bytes wherever the checkout lives.
    """

    name = "cli_workflow"
    workload_id = 3
    cycle_ops = 1

    REPORTS = ("fid.json", "feature.json", "coherence.json", "pivotal.json")
    OUTPUTS = (
        "sim.csv", "copula.json", "gaussian.json", "feature_model.json", "synth.csv", "matched.csv",
        *REPORTS, "predict.json", "coverage.json",
    )

    def __init__(self, seed: int, workdir: str, n_sim=3200, n_synth=1000, n_fresh=300, n_feature=150,
                 n_groups=(150, 100), n_pivotal=20, n_points=50, mc=200, mc_pivotal=999, mc_predict=4000,
                 coverage_args=()):
        self.seed = seed
        self.workdir = workdir
        self.n_sim = n_sim
        self.n_synth = n_synth
        self.n_fresh = n_fresh
        self.n_feature = n_feature
        self.n_groups = n_groups
        self.n_pivotal = n_pivotal
        self.n_points = n_points
        self.mc = mc
        self.mc_pivotal = mc_pivotal
        self.mc_predict = mc_predict
        self.coverage_args = tuple(coverage_args)
        os.makedirs(workdir, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self, index: int):
        rng = _op_rng(self.seed, self.workload_id, index)
        dim = 1 + 7  # response plus the simulated regression features
        _write_csv(self._path("fresh.csv"), rng.standard_normal((self.n_fresh, dim)))
        features = rng.standard_normal((2 * self.n_feature, 3))
        labels = (features[:, 0] + 0.5 * features[:, 1] + rng.standard_normal(2 * self.n_feature) > 0)
        labeled = np.column_stack((labels.astype(float), features))
        _write_csv(self._path("train.csv"), labeled[: self.n_feature])
        _write_csv(self._path("inference.csv"), labeled[self.n_feature:])
        holdout = labeled.copy()
        holdout[:, 3] = 0.0  # the null model: masked feature 2 carries no signal
        _write_csv(self._path("feature_holdout.csv"), holdout)
        _write_csv(self._path("group1.csv"), rng.standard_normal((self.n_groups[0], dim)))
        _write_csv(self._path("group2.csv"), rng.standard_normal((self.n_groups[1], dim)))
        _write_csv(self._path("pivotal.csv"), 2.0 + rng.standard_normal((self.n_pivotal, 1)))
        _write_csv(self._path("points.csv"), rng.random((self.n_points, 7)))
        seed = str(_mc_seed(rng))
        mc = str(self.mc)
        return [
            ["simulate", "--n", str(self.n_sim), "--seed", seed, "--out", "sim.csv"],
            ["fit", "--input", "sim.csv", "--kind", "copula", "--seed", seed, "--out", "copula.json"],
            ["fit", "--input", "sim.csv", "--kind", "gaussian", "--seed", seed, "--out", "gaussian.json"],
            ["fit", "--input", "feature_holdout.csv", "--kind", "gaussian", "--seed", seed,
             "--out", "feature_model.json"],
            ["synthesize", "--model", "copula.json", "--n", str(self.n_synth), "--tau", "0.2",
             "--seed", seed, "--out", "synth.csv"],
            ["synthesize", "--model", "gaussian.json", "--rank-match", "--input", "fresh.csv",
             "--tau", "0.2", "--seed", seed, "--out", "matched.csv"],
            ["test-fid", "--input", "sim.csv", "--candidate", "synth.csv", "--model", "gaussian.json",
             "--mc", mc, "--seed", seed, "--out", "fid.json"],
            ["test-feature", "--input", "train.csv", "--inference", "inference.csv",
             "--model", "feature_model.json", "--mask", "2", "--mc", mc, "--seed", seed,
             "--out", "feature.json"],
            ["test-coherence", "--input", "group1.csv", "--input2", "group2.csv", "--model", "gaussian.json",
             "--mc", mc, "--seed", seed, "--out", "coherence.json"],
            ["test-pivotal", "--input", "pivotal.csv", "--theta0", "2.0", "--mc", str(self.mc_pivotal),
             "--seed", seed, "--out", "pivotal.json"],
            ["predict", "--model", "copula.json", "--input", "points.csv", "--mc", str(self.mc_predict),
             "--seed", seed, "--out", "predict.json"],
            ["coverage", *self.coverage_args, "--seed", seed, "--out", "coverage.json"],
            *(["verify-report", "--input", report] for report in self.REPORTS),
        ]

    def run(self, steps):
        cwd = os.getcwd()
        stdout, stderr = io.StringIO(), io.StringIO()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                for argv in steps:
                    code = cli.main(argv)
                    if code != 0:
                        return argv[0], code, stderr.getvalue().strip()
        finally:
            os.chdir(cwd)
        return None

    def check(self, output):
        if output is not None:
            step, code, message = output
            return {}, [f"step {step} exited {code}: {message}"]
        problems = []
        expected_shapes = {
            "sim.csv": (self.n_sim, 8),
            "synth.csv": (self.n_synth, 8),
            "matched.csv": (self.n_fresh, 8),
        }
        for name, shape in expected_shapes.items():
            if _csv_shape(self._path(name)) != shape:
                problems.append(f"{name}: shape {_csv_shape(self._path(name))} != {shape}")
        for name in self.REPORTS[:3]:
            report = TestReport.load(self._path(name))
            _check_plus_one(problems, name, report.p_value, report.null_draws.size)
            if not report.is_consistent():
                problems.append(f"{name}: report is not consistent")
        with open(self._path("pivotal.json"), encoding="utf-8") as handle:
            pivotal = json.load(handle)
        _check_plus_one(problems, "pivotal.json", pivotal["p_value"], self.mc_pivotal)
        with open(self._path("predict.json"), encoding="utf-8") as handle:
            intervals = json.load(handle)["intervals"]
        if len(intervals) != self.n_points or not all(iv["lower"] < iv["upper"] for iv in intervals):
            problems.append(f"predict.json: expected {self.n_points} non-empty intervals")
        with open(self._path("coverage.json"), encoding="utf-8") as handle:
            coverage = json.load(handle)
        if len(coverage["points"]) != coverage["config"]["n_test"] or not math.isfinite(
            coverage["summary"]["median_coverage"]
        ):
            problems.append("coverage.json: point count or summary is wrong")
        fingerprint = {}
        for name in self.OUTPUTS:
            with open(self._path(name), "rb") as handle:
                fingerprint[name] = hashlib.sha256(handle.read()).hexdigest()[:32]
        return fingerprint, problems

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (McNull, RankSynth, CliWorkflow)}
