"""One argument rule: every scalar argument of the public API is read by ``pai.dataio``.

A deterministic sweep puts each of ``VALUES`` (booleans, a non-integral float,
a string, an integer beyond float64, nan, the infinities, -0.0 and numpy
scalars) on every scalar argument of every public procedure. Each call
returns or raises ``InputError``, ``NumericError`` or ``MemoryError``; a bare
``TypeError`` or ``OverflowError`` never escapes. A numpy scalar gives what
the Python number it equals gives, down to the bytes a document saves. Every
valid value of the table is small, and no swept value is a size near the one
size budget of ``pai.dataio.check_size``, so no call really allocates much.

A second sweep puts each of ``CHOICE_VALUES`` on every ``Sidedness`` and
``Correction`` argument: a string the enum takes gives the result of its
enum member, down to the bytes a report saves, and any other value is an
``InputError`` naming the argument, raised before a replicate is drawn.

A third sweep puts each of ``OBJECT_VALUES`` (``None``, a string, a float,
a matrix, and an object of another public type) on every object argument:
a model, a config, a null distribution, a perturbation spec, a summary, a
conformal model or a flag. Each is an ``InputError`` naming the argument,
raised before a replicate is drawn. The same sweep puts ``None``, a string,
an object of another public type and an old-style ``(features, labels)``
pair on every labeled sample, a joint matrix with its label or response in
column 0: each is an ``InputError`` naming the argument, so a pair never
gives a result.

A guard test reads the signatures of the public functions and dataclasses,
and of the module functions swept beside them, so a new ``int``, ``float``,
``Sidedness``, ``Correction``, ``bool`` or public-class parameter
fails it until it has a row here.
"""

import dataclasses
import inspect
import json
import math
import os

import numpy as np
import pytest

import pai
from pai import Correction, InputError, NumericError, PassConfig, PerturbationSpec, Sidedness, generators, halton
from pai import streams
from pai.dataio import Document
from pai.predict import ConformalModel

HUGE = 10**400
VALUES = (True, np.True_, 2.5, "1", HUGE, math.nan, math.inf, -math.inf, -0.0, np.int64(3), np.float64(0.5))

_rng = np.random.default_rng(23)
MODEL = pai.gaussian_from_params(np.zeros(2), cov=[[1.0, 0.5], [0.5, 1.0]])
SAMPLE = _rng.standard_normal((8, 2))
LABELED = np.column_stack((np.tile([0.0, 1.0], 8), _rng.standard_normal((16, 2))))
PIVOTAL = 1.0 + _rng.standard_normal(6)
CONFORMAL = pai.conformal_fit(_rng.random((50, 3)), 0.5, 0.3, 3, 4)


def _mean(chunk):
    return chunk.mean(axis=(1, 2))


def _feature_test(masked_features, **arguments):
    """The feature test with one masked index, so the sweep reaches it as a scalar."""
    return pai.test_feature_significance(masked_features=[masked_features], **arguments)


# Each swept name: what to call, and small valid keyword arguments.
CALLS = {
    "derive_rng": (lambda master_seed, path: streams.derive_rng(master_seed, path), dict(master_seed=3, path=2)),
    "halton_block": (halton.halton_block, dict(n=4, d=2)),
    "PerturbationSpec": (PerturbationSpec, dict(tau=0.3)),
    "PassConfig": (PassConfig, dict(mc_seed=3)),
    # given an inference sample, so the sweep reaches n where a sample sets the size
    "pass_synthesize": (pai.pass_synthesize, dict(model=MODEL, inference=SAMPLE, cfg=PassConfig(), replicate=2, n=8)),
    "sample_statistic_null": (
        pai.sample_statistic_null, dict(model=MODEL, n=4, D=3, statistic=_mean, cfg=PassConfig(), first_replicate=2)
    ),
    "test_two_sample_fid": (
        pai.test_two_sample_fid, dict(reference=SAMPLE, candidate=SAMPLE, model=MODEL, D=3, cfg=PassConfig())
    ),
    "test_feature_significance": (_feature_test, dict(
        train=LABELED, inference=LABELED, masked_features=1, model=pai.gaussian_from_params(np.zeros(3), np.eye(3)),
        D=3, cfg=PassConfig(),
    )),
    "test_conditional_coherence": (pai.test_conditional_coherence, dict(
        group1=SAMPLE, group2=SAMPLE, cond_model1=MODEL, cond_model2=MODEL, D=3, cfg=PassConfig(),
    )),
    "pivotal_inference": (pai.pivotal_inference, dict(
        inference=PIVOTAL, D=3, cfg=PassConfig(), alpha=0.3, theta0=1, sigma=1.5, center=0.5,
    )),
    "conditional_sample": (pai.conditional_sample, dict(model=MODEL, X=[[0.3]], m=3, cfg=PassConfig(), stream_index=2)),
    "pai_interval": (pai.pai_interval, dict(model=MODEL, X=[[0.3]], alpha=0.5, m=10, cfg=PassConfig())),
    "conformal_fit": (pai.conformal_fit, dict(
        train=_rng.random((50, 3)), calibration_fraction=0.5, alpha=0.3, k=3, seed=4,
    )),
    "simulate_regression_data": (pai.simulate_regression_data, dict(n=5, seed=3)),
    "run_prediction_study": (pai.run_prediction_study, dict(
        seed=3, n_total=102, n_train=100, alpha=0.5, kind="gaussian", tau=0.3, pai_draws=8,
    )),
    "p_value": (pai.p_value, dict(dist=pai.EmpiricalDistribution(np.linspace(0.0, 1.0, 5)), statistic=0.5)),
    "perturb": (pai.perturb, dict(base_rows=np.ones((2, 2)), spec=PerturbationSpec(tau=0.3), noise=np.ones((2, 2)))),
    "fid": (pai.fid, dict(a=pai.gaussian_summary(SAMPLE), b=pai.gaussian_summary(SAMPLE))),
    "conformal_interval": (pai.conformal_interval, dict(model=CONFORMAL, X=[[0.3, 0.4]])),
    "save_model": (pai.save_model, dict(model=MODEL, path=os.devnull)),
}

# (public name, parameter) -> the valid values whose numpy forms must give the
# same result: each number of CALLS, and an int beside each float that takes
# one. None marks a field of a record the package returns, filled from
# arguments it has already read.
SWEEP = {
    **{
        (name, parameter): (value,)
        for name, (_, arguments) in CALLS.items()
        for parameter, value in arguments.items()
        if type(value) in (int, float)
    },
    ("PerturbationSpec", "tau"): (0, 0.3),
    ("pivotal_inference", "theta0"): (1, 0.5),
    ("pivotal_inference", "sigma"): (2, 1.5),
    ("pivotal_inference", "center"): (1, 0.5),
    ("p_value", "statistic"): (1, 0.5),
    **dict.fromkeys([
        *((report, field) for report in ("TestReport", "PivotalReport") for field in ("statistic", "p_value", "seed")),
        *(("PivotalReport", field) for field in ("estimate", "scale", "alpha", "lower", "upper")),
    ]),
}
SWEPT = sorted(key for key, valid in SWEEP.items() if valid is not None)


def _call(name, parameter, value):
    call, arguments = CALLS[name]
    return call(**{**arguments, parameter: value})


def _outcome(result, path):
    """What a call returned, in terms that tell an int from a float and a numpy scalar from a Python one."""
    if isinstance(result, Document):
        result.save(path)
        return repr(result.to_dict()), path.read_bytes()
    if isinstance(result, np.random.Generator):
        return result.standard_normal(3).tobytes()
    if isinstance(result, np.ndarray):
        return result.shape, result.tobytes()
    if isinstance(result, tuple):
        return tuple(_outcome(item, path) for item in result)
    if dataclasses.is_dataclass(result):
        fields = dataclasses.fields(result)
        return type(result).__name__, tuple(_outcome(getattr(result, field.name), path) for field in fields)
    return repr(result)


@pytest.mark.parametrize("name,parameter", SWEPT, ids=[f"{name}.{parameter}" for name, parameter in SWEPT])
def test_every_scalar_argument_takes_every_sweep_value(tmp_path, name, parameter):
    for value in VALUES:
        try:
            _call(name, parameter, value)
        except (InputError, NumericError, MemoryError):
            pass
    for value in SWEEP[name, parameter]:
        as_numpy = np.int64(value) if isinstance(value, int) else np.float64(value)
        expected = _outcome(_call(name, parameter, value), tmp_path / "python.json")
        assert _outcome(_call(name, parameter, as_numpy), tmp_path / "numpy.json") == expected, as_numpy


# Values that were taken silently, or raised a bare TypeError or
# OverflowError, before the one argument rule: (name, parameter, value, the
# label that starts the error).
ONCE_TAKEN = (
    ("derive_rng", "master_seed", 0.5, "master seed"),
    ("derive_rng", "master_seed", True, "master seed"),
    ("simulate_regression_data", "seed", 0.5, "seed"),
    ("simulate_regression_data", "seed", True, "seed"),
    ("conformal_fit", "seed", 0.5, "seed"),
    ("conformal_fit", "seed", True, "seed"),
    ("halton_block", "n", 2.5, "Halton block size n"),
    ("PerturbationSpec", "tau", True, "perturbation size tau"),
    ("pivotal_inference", "sigma", True, "sigma"),
    ("pai_interval", "m", 100.7, "draw count m"),
    ("pai_interval", "alpha", "0.05", "alpha"),
    ("conditional_sample", "m", 5.5, "draw count m"),
    ("conformal_fit", "k", 2.5, "k"),
    ("conformal_fit", "calibration_fraction", "x", "calibration_fraction"),
    ("simulate_regression_data", "n", 2.5, "n"),
    ("run_prediction_study", "n_total", 100.5, "n_total"),
    ("run_prediction_study", "kind", "bogus", "kind"),
    ("pass_synthesize", "n", "abc", "sample size n"),
    ("pass_synthesize", "n", 2.5, "sample size n"),
    ("pass_synthesize", "n", -3, "sample size n"),
    ("pass_synthesize", "n", 7, "sample size n"),
    ("pivotal_inference", "sigma", "1", "sigma"),
    ("pivotal_inference", "center", HUGE, "center"),
    ("PerturbationSpec", "tau", HUGE, "perturbation size tau"),
)


@pytest.mark.parametrize(
    "name,parameter,value,label", ONCE_TAKEN,
    ids=[f"{name}.{parameter}={'10**400' if value is HUGE else repr(value)}" for name, parameter, value, _ in ONCE_TAKEN],
)
def test_a_refused_value_is_an_input_error_naming_the_argument(name, parameter, value, label):
    with pytest.raises(InputError, match=f"^{label}: "):
        _call(name, parameter, value)


def test_reports_built_from_numpy_scalars_save_the_bytes_of_python_numbers(tmp_path):
    for path, (D, seed, theta0) in (
        (tmp_path / "python.json", (19, 3, 0)), (tmp_path / "numpy.json", (np.int64(19), np.int64(3), np.int64(0))),
    ):
        pai.pivotal_inference(PIVOTAL, D=D, cfg=PassConfig(mc_seed=seed), theta0=theta0).save(path)
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()
    # an int theta0 is echoed as the int the caller passed
    assert type(json.loads((tmp_path / "python.json").read_text())["config"]["theta0"]) is int


def _annotated(obj, kinds):
    """The parameters of ``obj`` whose annotation is one of ``kinds``."""
    def annotation(parameter):
        kind = parameter.annotation
        return kind if isinstance(kind, str) else inspect.formatannotation(kind)

    return [p.name for p in inspect.signature(obj).parameters.values() if annotation(p) in kinds]


# Functions outside ``pai.__all__`` whose scalar arguments the sweep still
# reads through their modules, so the guard holds them to a row too.
SWEPT_MODULE_FUNCTIONS = (streams.derive_rng, halton.halton_block)


def _public_parameters(kinds):
    return {
        (obj.__name__, parameter)
        for obj in (*(getattr(pai, name) for name in pai.__all__), *SWEPT_MODULE_FUNCTIONS)
        if inspect.isfunction(obj) or dataclasses.is_dataclass(obj)
        for parameter in _annotated(obj, kinds)
    }


def test_the_argument_sweep_covers_every_scalar_parameter():
    found = _public_parameters({"int", "float", "int | None", "float | None"})
    assert found <= set(SWEEP), f"no sweep row for {sorted(found - set(SWEEP))}"
    # the one row no annotation asks for: the feature test's masked indices
    assert set(SWEEP) - found == {("test_feature_significance", "masked_features")}
    found = _public_parameters({"Sidedness", "Correction"})
    assert found == set(CHOICE_SWEEP), f"choice rows differ from {sorted(found)}"
    found = _public_parameters(OBJECT_KINDS)
    assert found == set(OBJECT_SWEEP) - LABELED_SAMPLES, f"object rows differ from {sorted(found)}"
    assert all(parameter in inspect.signature(getattr(pai, name)).parameters for name, parameter in LABELED_SAMPLES)


CHOICE_VALUES = ("upper", "bogus", True, None, ["two"])
# (public name, parameter) -> its enum, or None for a field of a record the
# package returns, filled from an argument it has already read.
CHOICE_SWEEP = {
    **{(name, "sidedness"): Sidedness for name in ("p_value", "test_two_sample_fid", "pivotal_inference")},
    **{
        (name, "correction"): Correction
        for name in ("p_value", "test_two_sample_fid", "test_feature_significance", "test_conditional_coherence",
                     "pivotal_inference")
    },
    **dict.fromkeys(
        (report, field) for report in ("TestReport", "PivotalReport") for field in ("sidedness", "correction")
    ),
}
CHOICE_SWEPT = sorted(key for key, kind in CHOICE_SWEEP.items() if kind is not None)


def _must_not_draw(*args):
    raise AssertionError("a replicate was drawn before the arguments were read")


@pytest.mark.parametrize(
    "name,parameter", CHOICE_SWEPT, ids=[f"{name}.{parameter}" for name, parameter in CHOICE_SWEPT]
)
def test_every_choice_argument_takes_its_strings_and_refuses_the_rest(tmp_path, monkeypatch, name, parameter):
    kind = CHOICE_SWEEP[name, parameter]
    for value in (*CHOICE_VALUES, *(member.value for member in kind)):
        try:
            member = kind(value)
        except ValueError:
            with monkeypatch.context() as patch:
                patch.setattr(generators, "_draw_replicate", _must_not_draw)
                with pytest.raises(InputError, match=f"^{parameter}: "):
                    _call(name, parameter, value)
            continue
        expected = _outcome(_call(name, parameter, member), tmp_path / "enum.json")
        assert _outcome(_call(name, parameter, value), tmp_path / "string.json") == expected, value


@pytest.mark.parametrize("name", ["test_two_sample_fid", "pivotal_inference"])
def test_an_upper_tail_string_gives_the_upper_tail_p_value(tmp_path, name):
    report = _call(name, "sidedness", "upper")
    assert report.sidedness is Sidedness.UPPER_TAIL
    upper = pai.p_value(report.null_draws, report.statistic, Sidedness.UPPER_TAIL)
    assert report.p_value == upper != pai.p_value(report.null_draws, report.statistic)
    report.save(tmp_path / "report.json")
    assert json.loads((tmp_path / "report.json").read_text())["sidedness"] == "upper"


# Inputs that ran silently or raised a bare ValueError or TypeError before
# every collection and matrix argument was read by a rule: the call, and
# the text that starts the error.
REFUSED_INPUTS = {
    "pivotal-two-column-sample": (
        lambda: pai.pivotal_inference(np.ones((6, 2)), D=3, cfg=PassConfig()), "inference has 2 columns, expected 1"
    ),
    "matrix-of-strings": (lambda: pai.fit_gaussian([["a", "b"], ["c", "d"]]), "holdout: "),
    "ragged-matrix": (lambda: pai.fit_gaussian([[1.0, 2.0], [3.0]]), "holdout: "),
    "dict-matrix": (lambda: pai.fit_gaussian({"a": 1.0}), "holdout: "),
    "two-column-draws": (lambda: pai.EmpiricalDistribution(np.ones((3, 2))), "draws has 2 columns, expected 1"),
    **{
        f"masked-features-{value}": (
            lambda value=value: pai.test_feature_significance(
                **{**CALLS["test_feature_significance"][1], "masked_features": value}
            ),
            "masked features: ",
        )
        for value in (3, None)
    },
    # a bare ValueError, taken silently (the 2x2 mean) or an error without the
    # argument's label, before the feature labels and the Gaussian parameters
    # were read by the matrix rule and the number rule
    "feature-string-labels": (
        lambda: _call("test_feature_significance", "train", np.column_stack((["a"] * 16, LABELED[:, 1:]))),
        "train: ",
    ),
    # two rows of one feature: numpy reads the old pair of 1-D arrays as a 2 x 2 matrix
    "feature-two-row-pair": (
        lambda: pai.test_feature_significance(
            ([0.0, 1.0], [1.0, 0.0]), np.array([[0.0, 0.5], [1.0, 1.5]]), [0],
            pai.gaussian_from_params(np.zeros(2), np.eye(2)), 3, PassConfig(),
        ),
        "train: expected one joint matrix",
    ),
    "conformal-one-column-train": (
        lambda: _call("conformal_fit", "train", LABELED[:, :1]),
        "train has 1 columns, expected a response and at least one feature",
    ),
    "gaussian-2x2-mean": (
        lambda: pai.gaussian_from_params(np.zeros((2, 2)), np.eye(4)), "mean has 2 columns, expected 1"
    ),
    "gaussian-wrong-shape-cov": (lambda: pai.gaussian_from_params(np.zeros(2), cov=np.ones((3, 2))), "cov: "),
}


@pytest.mark.parametrize("case", sorted(REFUSED_INPUTS))
def test_a_refused_collection_or_matrix_is_an_input_error_naming_it(case):
    call, start = REFUSED_INPUTS[case]
    with pytest.raises(InputError, match=f"^{start}"):
        call()


# The annotations of an object argument: a public class (the choices have
# their own sweep), a record a public procedure takes back (a summary, a
# conformal model), the union of the transport classes or a flag.
OBJECT_KINDS = {
    *(name for name in pai.__all__ if inspect.isclass(getattr(pai, name))),
    "GaussianSummary", "ConformalModel", "GeneratorModel", "bool",
} - {"Sidedness", "Correction"}
OBJECT_VALUES = (None, "m", 0.5, np.ones((2, 2)))
# The labeled samples: joint matrices, label or response in column 0.
LABELED_SAMPLES = {("test_feature_significance", "train"), ("test_feature_significance", "inference"),
                   ("conformal_fit", "train")}
# (public name, parameter) -> the label that starts its error, or None for a
# field of a record the package returns (a report's draws), filled from what
# it has already read.
OBJECT_SWEEP = {
    **{
        (name, parameter): parameter
        for name, (_, arguments) in CALLS.items()
        for parameter, value in arguments.items()
        if isinstance(value, (pai.GaussianTransport, PassConfig, ConformalModel))
    },
    **{key: key[1] for key in LABELED_SAMPLES},
    ("PassConfig", "perturbation"): "perturbation",
    ("PassConfig", "rank_match"): "rank_match",
    ("p_value", "dist"): "dist",
    ("perturb", "spec"): "spec",
    ("fid", "a"): "summary a",
    ("fid", "b"): "summary b",
    **dict.fromkeys((report, "null_draws") for report in ("TestReport", "PivotalReport")),
}
OBJECT_SWEPT = sorted(key for key, label in OBJECT_SWEEP.items() if label is not None)


@pytest.mark.parametrize(
    "name,parameter", OBJECT_SWEPT, ids=[f"{name}.{parameter}" for name, parameter in OBJECT_SWEPT]
)
def test_every_object_argument_refuses_other_objects_before_a_draw(monkeypatch, name, parameter):
    monkeypatch.setattr(generators, "_draw_replicate", _must_not_draw)
    valid = CALLS[name][1].get(parameter)
    # an object of another public type: a model where a config is due, a config elsewhere
    other = MODEL if isinstance(valid, PassConfig) else PassConfig()
    values, start = OBJECT_VALUES, f"{OBJECT_SWEEP[name, parameter]}: "
    if (name, parameter) in LABELED_SAMPLES:
        # what numpy cannot read as a matrix, and the old (features, labels) pair of its columns
        values, start = (None, "m", (valid[:, 1:], valid[:, 0])), f"{parameter}( must be a 2-D matrix|: )"
    for value in (*values, other):
        with pytest.raises(InputError, match=f"^{start}"):
            _call(name, parameter, value)


@pytest.mark.parametrize("params", [
    dict(chol=[[1.0, 0.0], [5.0, 1.0]]), dict(cov=[[2.0, 0.5], [0.5, 1.0]]),
    dict(chol=[[1.0, 5.0], [0.0, 1.0]]), dict(chol=[[-1.0, 0.0], [0.0, 1.0]]),
], ids=["lower-chol", "cov", "upper-chol", "negative-diagonal"])
def test_a_gaussian_model_built_from_parameters_saves_and_loads(tmp_path, params):
    try:
        model = pai.gaussian_from_params([0.5, -1.0], **params)
    except InputError as exc:
        assert str(exc).startswith("chol: is not lower triangular")
        return
    pai.save_model(model, tmp_path / "model.json")
    loaded = pai.load_model(tmp_path / "model.json")
    assert (loaded.mean.tobytes(), loaded.chol.tobytes()) == (model.mean.tobytes(), model.chol.tobytes())
    data = np.array([[0.3, -0.2]])
    np.testing.assert_allclose(model.inverse(model.forward(data)), data)
