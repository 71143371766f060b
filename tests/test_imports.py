"""Import hygiene of the package: every imported name is used."""

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
