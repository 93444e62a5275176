"""Hypothesis fuzzing of the CLI.

Whatever the argument vector and whatever the contents of the files it
names, ``pai`` exits with 0, 2, 3 or 4 and never with a traceback. Each
example runs in a fresh copy of a small work directory, so outputs written
by one example (an ``--out`` may name an input) never feed the next. A
deterministic sweep puts each edge value of float64 on every float flag,
which random edits rarely do, and another puts -1, 0, the integers just
past int64 and one beyond float64 on every integer flag; a report written by
either sweep must pass ``verify-report``. A third puts a boolean, a string,
null and an integer beyond float64 on the first number of every numeric
field of every model document and of each of the four report kinds (test,
pivotal, intervals, coverage), and each must be refused.
"""

import argparse
import contextlib
import copy
import functools
import io
import json
import operator
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pai import InputError, dataio, load_model
from pai import TestReport as Report
from pai.cli import _mc_count, build_parser, main
from pai.predict import CoverageDocument, IntervalsDocument

EXIT_CODES = {0, 2, 3, 4}

# One valid, cheap argument vector per subcommand; fuzzed vectors are edits of these.
VALID_ARGV = {
    "fit": ["fit", "--input", "data.csv", "--kind", "copula", "--seed", "1", "--out", "o.json"],
    "synthesize": ["synthesize", "--model", "gaussian.json", "--rank-match", "--input", "data.csv",
                   "--tau", "0.1", "--seed", "1", "--out", "o.csv"],
    "test-fid": ["test-fid", "--input", "data.csv", "--candidate", "data.csv", "--model",
                 "gaussian.json", "--mc", "3", "--seed", "1", "--out", "o.json"],
    "test-feature": ["test-feature", "--input", "labeled.csv", "--inference", "labeled.csv",
                     "--model", "gaussian.json", "--mask", "1", "--mc", "3", "--seed", "1",
                     "--out", "o.json"],
    "test-coherence": ["test-coherence", "--input", "data.csv", "--input2", "data.csv", "--model",
                       "gaussian.json", "--mc", "3", "--seed", "1", "--out", "o.json"],
    "test-pivotal": ["test-pivotal", "--input", "onecol.csv", "--theta0", "1", "--mc", "19",
                     "--seed", "1", "--out", "o.json"],
    "simulate": ["simulate", "--n", "5", "--seed", "1", "--out", "o.csv"],
    "predict": ["predict", "--model", "copula.json", "--input", "points.csv", "--mc", "100",
                "--seed", "1", "--out", "o.json"],
    "coverage": ["coverage", "--n", "260", "--train", "200", "--mc", "100", "--seed", "1",
                 "--out", "o.json"],
    "verify-report": ["verify-report", "--input", "pivotal.json"],
}
FLAGS = (
    "--input", "--input2", "--candidate", "--inference", "--model", "--model2", "--out",
    "--kind", "--n", "--train", "--seed", "--mc", "--tau", "--alpha", "--mask", "--theta0",
    "--sigma", "--replicate", "--rank-match", "--header", "--correction", "--sided",
)
FILES = (
    "data.csv", "labeled.csv", "onecol.csv", "points.csv", "gaussian.json", "copula.json",
    "location-scale.json", "report.json", "pivotal.json", "intervals.json", "coverage.json", "absent.csv",
    "out.csv", ".", "huge.csv",
)
# Sizes stay small so every example is cheap, whichever flag a value lands on.
VALUES = (
    "0", "1", "2", "3", "5", "19", "40", "-1", "0.1", "0.5", "1.5", "-0.3", "nan", "inf",
    "1e400", "1e200", "-1e200", "5e-324", "", "x", "0,1", "1,9", "gaussian", "copula", "location-scale",
    "raw", "plus-one",
    "upper", "two",
)


def run_in(directory, argv, stderr=None):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(None), contextlib.redirect_stderr(stderr):
            return main(list(argv))
    finally:
        os.chdir(previous)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A work directory holding one valid file of every kind the CLI reads."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(11)
    dataio.write_matrix(root / "data.csv", rng.standard_normal((30, 3)))
    labeled = np.column_stack((rng.integers(0, 2, 40), rng.standard_normal((40, 2))))
    dataio.write_matrix(root / "labeled.csv", labeled)
    dataio.write_matrix(root / "onecol.csv", 1.0 + rng.standard_normal((12, 1)))
    dataio.write_matrix(root / "points.csv", rng.random((2, 2)))
    # Finite, but its squares overflow float64.
    dataio.write_matrix(root / "huge.csv", 1e200 * rng.standard_normal((30, 3)))
    for kind in ("gaussian", "copula", "location-scale"):
        assert run_in(root, ["fit", "--input", "data.csv", "--kind", kind, "--seed", "1",
                             "--out", f"{kind}.json"]) == 0
    assert run_in(root, ["test-fid", "--input", "data.csv", "--candidate", "data.csv",
                         "--model", "gaussian.json", "--mc", "5", "--seed", "2",
                         "--out", "report.json"]) == 0
    assert run_in(root, ["test-pivotal", "--input", "onecol.csv", "--mc", "19", "--seed", "3",
                         "--out", "pivotal.json"]) == 0
    assert run_in(root, ["predict", "--model", "copula.json", "--input", "points.csv", "--mc", "100",
                         "--seed", "4", "--out", "intervals.json"]) == 0
    assert run_in(root, ["coverage", "--n", "110", "--train", "100", "--mc", "100", "--seed", "5",
                         "--out", "coverage.json"]) == 0
    return root


@pytest.fixture(scope="module")
def workdir(pristine, tmp_path_factory):
    """Hands out fresh copies of the pristine directory, one per example."""
    base = tmp_path_factory.mktemp("examples")
    count = iter(range(10**9))

    def fresh():
        directory = base / str(next(count))
        shutil.copytree(pristine, directory)
        return directory

    return fresh


value = st.one_of(st.sampled_from(FILES), st.sampled_from(VALUES))
edit = st.tuples(
    st.sampled_from(["replace", "delete", "insert"]), st.integers(0, 20), st.sampled_from(FLAGS), value,
)


@st.composite
def fuzzed_argv(draw):
    """A valid argument vector after a few edits.

    An edit replaces the value of a flag, deletes a token, or inserts a flag
    with a value, so many vectors still parse and reach the command.
    """
    argv = list(VALID_ARGV[draw(st.sampled_from(sorted(VALID_ARGV)))])
    for action, index, flag, replacement in draw(st.lists(edit, max_size=3)):
        index = 1 + index % len(argv)
        if action == "insert":
            argv[index:index] = [flag, replacement]
        elif index < len(argv) and action == "delete":
            del argv[index]
        elif index < len(argv) and not argv[index].startswith("--"):
            argv[index] = replacement
    return argv


def test_every_valid_argument_vector_succeeds(workdir):
    for argv in VALID_ARGV.values():
        assert run_in(workdir(), argv) == 0, argv


@settings(max_examples=300)
@given(argv=fuzzed_argv())
def test_arbitrary_arguments_exit_with_a_documented_code(workdir, argv):
    assert run_in(workdir(), argv) in EXIT_CODES


# The ends of float64 and its special values, each put on every float flag of
# every subcommand that takes one, as ``--flag=value`` so that a leading
# minus sign is not read as a flag.
EDGE_FLOATS = ("1e308", "-1e308", "5e-324", "-5e-324", "-0.0", "nan", "inf", "-inf")


def _typed_flags(*types):
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (command, action.option_strings[0])
        for command, sub in commands.choices.items()
        for action in sub._actions
        if action.type in types
    ]


FLOAT_FLAGS = _typed_flags(float)


# The commands whose output is a report document that ``verify-report`` reads.
REPORTING = ("test-fid", "test-feature", "test-coherence", "test-pivotal", "predict", "coverage")


def _run_edge(workdir, command, flag, value):
    """Run a valid vector of ``command`` with ``flag`` set to ``value`` instead.

    A report written by a run that exits 0 must pass ``verify-report``: no
    command writes a document that the reader refuses.
    """
    argv = list(VALID_ARGV[command])
    if flag in argv:
        del argv[argv.index(flag) : argv.index(flag) + 2]
    argv.append(f"{flag}={value}")
    stderr = io.StringIO()
    directory = workdir()
    code = run_in(directory, argv, stderr)
    assert code in EXIT_CODES
    assert "Traceback" not in stderr.getvalue()
    if code == 0 and command in REPORTING:
        assert run_in(directory, ["verify-report", "--input", "o.json"], stderr) == 0, stderr.getvalue()


def test_the_sweep_finds_every_float_flag():
    assert {flag for _, flag in FLOAT_FLAGS} == {"--tau", "--alpha", "--theta0", "--sigma"}
    assert {("coverage", "--tau"), ("coverage", "--alpha")} <= set(FLOAT_FLAGS)


@pytest.mark.parametrize("value", EDGE_FLOATS)
@pytest.mark.parametrize("command,flag", FLOAT_FLAGS, ids=[f"{c}{f}" for c, f in FLOAT_FLAGS])
def test_every_float_flag_takes_every_edge_value(workdir, command, flag, value):
    _run_edge(workdir, command, flag, value)


# -1, 0, the integers just past each end of int64, 2**64 and an integer
# beyond float64, each put on every integer flag and on ``--mask`` (a list of
# feature indices). Sizes between 2**31 and 2**62 are left out: some pass the
# allocation guard and really allocate.
EDGE_INTS = ("-1", "0", str(2**63), str(2**64), str(-(2**63) - 1), str(10**400))
INT_FLAGS = _typed_flags(int, _mc_count) + [("test-feature", "--mask")]


def test_the_sweep_finds_every_integer_flag():
    assert {flag for _, flag in INT_FLAGS} == {"--seed", "--n", "--replicate", "--mc", "--train", "--mask"}
    assert {("coverage", "--mc"), ("coverage", "--train"), ("synthesize", "--replicate")} <= set(INT_FLAGS)


@pytest.mark.parametrize("value", EDGE_INTS, ids=[value if len(value) < 40 else "10**400" for value in EDGE_INTS])
@pytest.mark.parametrize("command,flag", INT_FLAGS, ids=[f"{c}{f}" for c, f in INT_FLAGS])
def test_every_integer_flag_takes_every_edge_value(workdir, command, flag, value):
    _run_edge(workdir, command, flag, value)


csv_field = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10).map(str),
    st.sampled_from(["", " ", "nan", "-inf", "1e400", "1e-400", "x", "0x10", "1_0", "١", "\"1\""]),
)
csv_text = st.lists(
    st.lists(csv_field, min_size=1, max_size=4).map(",".join), max_size=12,
).flatmap(lambda rows: st.sampled_from(["\n", "\r\n"]).map(lambda end: end.join(rows)))

json_value = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-10**20, 10**20) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated_document(draw, pristine_json):
    """A valid model or report document with one field replaced or removed.

    The field is a top-level key or, after up to four steps down into
    objects and lists, a nested one: a chol row or entry, a marginal's
    knot, one null draw.
    """
    name = draw(st.sampled_from(sorted(pristine_json)))
    doc = copy.deepcopy(pristine_json[name])
    parent, key = doc, draw(st.sampled_from(sorted(doc)))
    for _ in range(draw(st.integers(0, 4))):
        child = parent[key]
        if not isinstance(child, (dict, list)) or not child:
            break
        parent = child
        key = draw(st.sampled_from(sorted(child) if isinstance(child, dict) else range(len(child))))
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(json_value)
    return json.dumps(doc)


# (argv, which file the fuzzed text replaces)
FILE_COMMANDS = (
    (["fit", "--input", "fuzz", "--kind", "gaussian", "--seed", "1", "--out", "m.json"], "csv"),
    (["fit", "--input", "fuzz", "--kind", "copula", "--seed", "1", "--out", "m.json"], "csv"),
    (["fit", "--input", "fuzz", "--kind", "location-scale", "--seed", "1", "--out", "m.json"], "csv"),
    (["synthesize", "--model", "gaussian.json", "--rank-match", "--input", "fuzz", "--seed", "1",
      "--out", "s.csv"], "csv"),
    (["test-fid", "--input", "fuzz", "--candidate", "data.csv", "--model", "gaussian.json",
      "--mc", "3", "--seed", "1", "--out", "r.json"], "csv"),
    (["test-pivotal", "--input", "fuzz", "--mc", "19", "--seed", "1", "--out", "p.json"], "csv"),
    (["predict", "--model", "copula.json", "--input", "fuzz", "--mc", "100", "--seed", "1",
      "--out", "i.json"], "csv"),
    (["synthesize", "--model", "fuzz", "--n", "3", "--seed", "1", "--out", "s.csv"], "json"),
    (["predict", "--model", "fuzz", "--input", "points.csv", "--mc", "100", "--seed", "1",
      "--out", "i.json"], "json"),
    (["verify-report", "--input", "fuzz"], "json"),
)


@settings(max_examples=200)
@given(data=st.data())
def test_arbitrary_file_contents_exit_with_a_documented_code(workdir, pristine, data):
    argv, kind = data.draw(st.sampled_from(FILE_COMMANDS))
    if kind == "csv":
        text = data.draw(csv_text | st.text(max_size=40))
    else:
        documents = {
            name: json.loads((pristine / name).read_text())
            for name in (
                "gaussian.json", "copula.json", "location-scale.json", "report.json", "pivotal.json",
                "intervals.json", "coverage.json",
            )
        }
        text = data.draw(mutated_document(documents) | json_value.map(json.dumps) | st.text(max_size=40))
    directory = workdir()
    (directory / "fuzz").write_text(text, encoding="utf-8")
    assert run_in(directory, argv) in EXIT_CODES


# Each document the CLI reads, with its loader and a command that reads it ("doc" names the file).
SYNTHESIZE = ["synthesize", "--model", "doc", "--n", "3", "--seed", "1", "--out", "s.csv"]
DOCUMENT_READERS = {
    **{f"{kind}.json": (load_model, SYNTHESIZE) for kind in ("gaussian", "copula", "location-scale")},
    **{name: (Report.load, ["verify-report", "--input", "doc"]) for name in ("report.json", "pivotal.json")},
    "intervals.json": (IntervalsDocument.load, ["verify-report", "--input", "doc"]),
    "coverage.json": (CoverageDocument.load, ["verify-report", "--input", "doc"]),
}
# Not numbers under the document rule: a boolean, a string, null, and an
# integer beyond float64.
NOT_NUMBERS = (True, "1", None, 10**400)


def _first_numeric_leaves(value, path=()):
    """The path to the first number of every numeric field of ``value``, outside ``config``.

    A field is an object's value; each object inside a list (a marginal) is
    searched for fields of its own.
    """
    if isinstance(value, dict):
        for key in sorted(value):
            if key != "config":
                yield from _first_numeric_leaves(value[key], (*path, key))
    elif isinstance(value, list) and value:
        items = enumerate(value) if isinstance(value[0], dict) else [(0, value[0])]
        for index, item in items:
            yield from _first_numeric_leaves(item, (*path, index))
    elif type(value) in (int, float):
        yield path


def test_the_leaf_sweep_reaches_nested_fields(pristine):
    leaves = set(_first_numeric_leaves(json.loads((pristine / "copula.json").read_text())))
    marginals = {("marginals", j, grid, 0) for j in range(3) for grid in ("ps", "xs")}
    assert leaves == {("dim",), ("fitted_on", "n_rows"), ("latent_chol", 0, 0), *marginals}


def test_the_leaf_sweep_reaches_every_record_of_a_coverage_file(pristine):
    leaves = set(_first_numeric_leaves(json.loads((pristine / "coverage.json").read_text())))
    # ten summary values, and ten numeric fields in each of the ten point records
    assert ("summary", "median_coverage") in leaves and ("points", 9, "x", 0) in leaves
    assert len(leaves) == 10 + 10 * 10


@pytest.mark.parametrize("replacement", NOT_NUMBERS, ids=["true", "string", "null", "huge-int"])
@pytest.mark.parametrize("name", sorted(DOCUMENT_READERS))
def test_every_numeric_field_refuses_what_is_not_a_number(tmp_path, pristine, name, replacement):
    read, argv = DOCUMENT_READERS[name]
    pristine_doc = json.loads((pristine / name).read_text())
    leaves = list(_first_numeric_leaves(pristine_doc))
    assert len(leaves) >= 4
    for path in leaves:
        doc = copy.deepcopy(pristine_doc)
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        parent[path[-1]] = replacement
        (tmp_path / "doc").write_text(json.dumps(doc))
        with pytest.raises(InputError):
            read(tmp_path / "doc")
        assert run_in(tmp_path, argv) == 3, path
