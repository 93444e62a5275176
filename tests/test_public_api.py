"""The public surface: ``pai.__all__``, the README's list, and what the package reads.

A name in ``pai.__all__`` that no module under ``src/pai`` reads is API that
only its own unit test uses; measuring instruments of that kind belong in
``tests/oracles.py``. The README's "Public API" section lists exactly
``pai.__all__``, ``pai`` binds no other public name but its submodules, and
every ``pai.<name>`` the benchmark reads is one of the two.
"""

import ast
import re
import types
from pathlib import Path

import pai

PACKAGE_DIR = Path(pai.__file__).parent
REPO_DIR = Path(__file__).resolve().parents[1]


def _names_read_by_the_package() -> set[str]:
    names = set()
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_exported_name_is_read_inside_the_package():
    unused = sorted(set(pai.__all__) - _names_read_by_the_package())
    assert unused == []


def test_the_readme_lists_exactly_the_public_names():
    """Each bare name in backticks in the README's "Public API" section, once."""
    readme = (REPO_DIR / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    assert sorted(re.findall(r"`([A-Za-z_]\w*)`", section)) == sorted(pai.__all__)


def test_pai_binds_no_public_name_outside_all():
    bound = {
        name for name, value in vars(pai).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(pai.__all__)


def _names_the_benchmark_reads_from_pai() -> set[str]:
    """Each ``pai.<name>`` and ``from pai import <name>`` of the benchmark's source, read by AST."""
    names = set()
    for path in (REPO_DIR / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "pai":
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "pai":
                names.update(alias.name for alias in node.names)
    return {name for name in names if not name.startswith("__")}


def test_every_name_the_benchmark_reads_from_pai_is_public_or_a_submodule():
    submodules = {path.stem for path in PACKAGE_DIR.glob("*.py")} - {"__init__"}
    assert _names_the_benchmark_reads_from_pai() - set(pai.__all__) - submodules == set()
