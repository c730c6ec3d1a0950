"""No module of the package imports a name it never uses.

No linter ships with the package's test dependencies, so this walks each
module's syntax tree with the standard library's ast. `__init__.py` is
skipped, since its imports are the public re-exports, and so are
`__future__` imports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "glse"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    """Names that source imports, at any depth, and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def test_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nimport os.path\n"
              "from .errors import DomainError\n"
              "def f():\n    from scipy.special import ndtr\n"
              "    return math.pi, os.path.sep\n")
    assert _unused_imports(source) == ["DomainError", "ndtr", "np"]
