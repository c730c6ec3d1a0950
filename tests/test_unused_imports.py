"""No module of the package imports a name it never uses, and no module
defines a private module-level name that nothing in the package reads.

No linter ships with the package's test dependencies, so this walks each
module's syntax tree with the standard library's ast. `__init__.py` is
skipped by the import check, since its imports are the public
re-exports, and so are `__future__` imports. A private name is one with a
single leading underscore, defined at module level by def, class or
assignment; a read is a load of the bare name or an attribute of that
name in any module of the package, so a helper that only tests read
counts as unread.
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


def _module_names(tree):
    """Names that the top level of a module binds by def, class or =."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def _unread_private_names(sources):
    """"module:name" for each private module-level name of sources (a
    mapping of module name to source) that no source reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in _module_names(tree)
                  if name.startswith("_") and not name.startswith("__")
                  and name not in read)


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


def test_package_reads_every_private_module_name():
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_private_names(sources) == []


def test_check_finds_an_unread_private_name():
    sources = {
        "a": ("_TOL = 1e-9\n_A, (_B, c) = 1, (2, 3)\n_LIMIT: int = 4\n"
              "def _helper():\n    return _TOL\n"
              "def _unread():\n    pass\n"
              "class _Unread:\n    pass\n"
              "def __getattr__(name):\n    return name\n"
              "def public():\n    return _helper()\n"),
        "b": "from . import a\n\ndef f():\n    return a._A + _LIMIT\n",
    }
    assert _unread_private_names(sources) == ["a:_B", "a:_Unread",
                                              "a:_unread"]
