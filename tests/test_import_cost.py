"""Start-up cost: ``import pai`` loads numpy and no scipy module.

Each scipy subpackage is imported inside the functions that call it, so a
process pays for it only when it first needs it. Each check runs in a fresh
interpreter, because this test process has long since imported scipy.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pai
from pai import dataio
from pai.cli import main

SUBPACKAGES = ("scipy.linalg", "scipy.optimize", "scipy.spatial", "scipy.special", "scipy.stats")

# Runs ``pai`` with the given arguments, then prints its exit code and the
# scipy modules the process loaded.
PROBE = """
import json, sys
from pai.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def _python(args, cwd=None):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pai.__file__))}
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_pai_loads_no_scipy_module():
    modules = _python(
        ["-c", "import json, sys, pai, pai.cli; print(json.dumps(sorted(sys.modules)))"]
    )
    assert "numpy" in modules
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    dataio.write_matrix(root / "onecol.csv", 1.0 + np.random.default_rng(5).standard_normal((12, 1)))
    # An interval file and a coverage file, written in this process, which has loaded scipy already.
    dataio.write_matrix(root / "sim.csv", np.random.default_rng(6).standard_normal((60, 3)))
    dataio.write_matrix(root / "pts.csv", np.random.default_rng(7).random((3, 2)))
    for argv in (
        ["fit", "--input", "sim.csv", "--seed", "1", "--out", "sim.json"],
        ["predict", "--model", "sim.json", "--input", "pts.csv", "--mc", "100", "--seed", "1", "--out", "iv.json"],
        ["coverage", "--n", "110", "--train", "100", "--mc", "100", "--seed", "1", "--out", "cov.json"],
    ):
        assert main([str(root / arg) if arg.endswith((".csv", ".json")) else arg for arg in argv]) == 0
    return root


# In order: later commands read the files earlier ones write.
COMMANDS = [
    (("simulate", "--n", "60", "--seed", "1", "--out", "data.csv"), set()),
    (("fit", "--input", "data.csv", "--kind", "gaussian", "--seed", "1", "--out", "g.json"), set()),
    (("synthesize", "--model", "g.json", "--n", "20", "--tau", "0.2", "--seed", "1", "--out", "s.csv"), set()),
    (
        ("synthesize", "--model", "g.json", "--rank-match", "--input", "data.csv", "--tau", "0.2", "--seed", "1",
         "--out", "m.csv"),
        {"scipy.linalg", "scipy.optimize", "scipy.spatial", "scipy.special"},
    ),
    (
        ("test-fid", "--input", "data.csv", "--candidate", "s.csv", "--model", "g.json", "--mc", "9",
         "--seed", "1", "--out", "fid.json"),
        set(),
    ),
    (("test-pivotal", "--input", "onecol.csv", "--mc", "19", "--seed", "1", "--out", "piv.json"), set()),
    (("verify-report", "--input", "fid.json"), set()),
    (("verify-report", "--input", "piv.json"), set()),
    (("verify-report", "--input", "iv.json"), set()),
    (("verify-report", "--input", "cov.json"), set()),
    (("fit", "--input", "data.csv", "--kind", "copula", "--seed", "1", "--out", "c.json"), {"scipy.special"}),
]


def test_each_command_loads_only_the_scipy_it_calls(workdir):
    for argv, expected in COMMANDS:
        code, modules = _python(["-c", PROBE, *argv], cwd=workdir)
        assert code == 0, argv
        assert {name for name in SUBPACKAGES if name in modules} == expected, argv
