"""Every name a module of the package imports is used in that module."""

import ast
import pathlib

import pytest

import drinheights

PACKAGE = pathlib.Path(drinheights.__file__).parent
# these modules import names in order to re-export them
REEXPORTS = {"__init__.py", "_polycore.py"}


def unused_imports(source):
    """(line, name) of each name bound by an import and never read."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_are_found():
    source = ("import math\nimport os.path\nfrom a import b, c as d\n"
              "from e import f\nos.sep\nd()\n\ndef g():\n    import h\n")
    assert unused_imports(source) == [(1, "math"), (3, "b"), (4, "f"),
                                      (9, "h")]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name not in REEXPORTS))
def test_no_unused_imports(path):
    assert unused_imports((PACKAGE / path).read_text()) == []
