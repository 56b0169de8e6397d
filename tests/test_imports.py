"""Every module-level import in the package, the tests and the scripts is
read somewhere in its module: a name imported and never used is a
leftover of a deleted caller."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for tree in ("src", "tests", "scripts") for path in (ROOT / tree).rglob("*.py"))


def unused_imports(source):
    """The names bound by `source`'s module-level imports that no
    expression in it reads."""
    module = ast.parse(source)
    bound = {}
    for node in module.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, os.path as osp\nfrom a import b as c, d\nd()\n"
    assert unused_imports(source) == [(2, "os"), (2, "osp"), (3, "c")]
    assert unused_imports("import numpy.linalg\nnumpy.linalg.norm\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], path
