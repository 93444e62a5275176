"""Every public name is used by the package itself.

A name in ``pai.__all__`` that no module under ``src/pai`` reads is API that
only its own unit test uses; measuring instruments of that kind belong in
``tests/oracles.py``.
"""

import ast
from pathlib import Path

import pai

PACKAGE_DIR = Path(pai.__file__).parent


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
