"""Source hygiene: every package module references each name it imports."""

import ast
from pathlib import Path

import pytest

import innerclt

PACKAGE = Path(innerclt.__file__).resolve().parent
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the imports of source that no expression references."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detector_flags_only_unreferenced_names():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from a import b as c, d\nc(sys.argv)\n")
    assert unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_referenced(path):
    assert unused_imports(path.read_text()) == []
