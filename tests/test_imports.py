"""Code hygiene of the package: every imported name and private function is used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "divstat"


def _unused_imports(source):
    """Names `source` imports at any level and never reads, in import order.

    A name listed in the module's __all__ counts as read.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_import_is_found():
    src = "import os\nimport a.b\nfrom m import (x, y as z)\n__all__ = ['x']\nprint(z)\n"
    assert _unused_imports(src) == ["os", "a"]
    assert _unused_imports("import a.b\na.b.c()\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == [], path.name


def _unreferenced_private_functions(sources):
    """Private functions and methods of `sources` that no source reads.

    sources maps a module name to its text.  A def whose name starts with
    one underscore (not a dunder) is referenced where the name appears as
    a name or an attribute anywhere in any of the sources; its own def
    does not count.  Returns "module.name" strings, sorted.
    """
    defined, used = set(), set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.add((module, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def test_unreferenced_private_function_is_found():
    sources = {"a": "def _kept():\n    pass\n\ndef _orphan():\n    _kept()\n",
               "b": "class C:\n    def _m(self):\n        pass\n\n    def __len__(self):\n"
                    "        return 0\n\nimport a\na._orphan\n"}
    assert _unreferenced_private_functions(sources) == ["b._m"]


def test_every_private_function_is_referenced():
    # the generic step is the tests' reference for the emitted one
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert _unreferenced_private_functions(sources) == ["geodesic._dopri5"]
