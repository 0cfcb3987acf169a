"""Source hygiene: every package and test module references each name it
imports, each public name a package module defines has a caller, and each
field of a package dataclass is read somewhere."""

import ast
import re
from pathlib import Path

import pytest

import innerclt

PACKAGE = Path(innerclt.__file__).resolve().parent
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCH = sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
# public names that stay with no caller, each for a stated reason
UNCALLED_ALLOWED = {
    # the chain-rule reference that tests/test_clark.py checks Clark weights against
    "iterate_derivative_on_circle",
}


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


def uncalled_names(sources: dict, texts=()) -> list:
    """Top-level public functions and classes of sources that nothing calls.

    sources maps a module name to its source.  A name counts as called when a
    Name or Attribute node outside its own definition, in any of the sources,
    reads it, or when it appears as a word in one of texts.
    """
    defined, referenced = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined.append((module, own))
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != own:
                    referenced.add(name)
    words = set(re.findall(r"\w+", "\n".join(texts)))
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in referenced | words)


def test_uncalled_detector():
    sources = {
        "a": "def used():\n    return helper()\n\ndef helper():\n    pass\n\n"
             "def recursive(n):\n    return recursive(n - 1)\n\ndef _private():\n    pass\n",
        "b": "import a\n\nclass Result:\n    pass\n\ndef lonely() -> Result:\n"
             "    return a.used()\n\ndef benched():\n    pass\n",
    }
    assert uncalled_names(sources, ["from b import benched"]) == [
        "a.recursive", "b.lonely"]


def test_every_public_name_has_a_caller():
    sources = {p.stem: p.read_text() for p in MODULES}
    texts = [p.read_text() for p in BENCH]
    uncalled = [n for n in uncalled_names(sources, texts)
                if n.split(".")[1] not in UNCALLED_ALLOWED]
    assert uncalled == []


def unread_fields(sources: dict, readers=()) -> list:
    """Annotated fields of the dataclasses in sources that no attribute read names.

    sources maps a module name to its source.  A field counts as read when an
    Attribute node that loads it appears in sources or in readers.
    """
    fields, read = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields += [(f"{module}.{node.name}", s.target.id) for s in node.body
                           if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    for source in [*sources.values(), *readers]:
        read.update(n.attr for n in ast.walk(ast.parse(source))
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    return sorted(f"{owner}.{name}" for owner, name in fields if name not in read)


def test_unread_field_detector():
    sources = {
        "a": "from dataclasses import dataclass\n\n@dataclass(frozen=True)\n"
             "class Report:\n    value: float\n    unread: int\n    tested: str\n"
             "    def show(self):\n        return self.value\n\n"
             "@dataclass\nclass Written:\n    x: int\n\n"
             "def fill(w: Written):\n    w.x = 1\n\n"
             "class Plain:\n    y: int\n",
    }
    assert unread_fields(sources, ["def test(r):\n    assert r.tested\n"]) == [
        "a.Report.unread", "a.Written.x"]


def test_every_dataclass_field_is_read():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unread_fields(sources, [p.read_text() for p in BENCH + TESTS]) == []


def test_detector_flags_only_unreferenced_names():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from a import b as c, d\nc(sys.argv)\n")
    assert unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_import_is_referenced(path):
    assert unused_imports(path.read_text()) == []
