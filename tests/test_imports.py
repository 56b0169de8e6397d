"""Every module-level import in the package, the tests and the scripts is
read somewhere in its module: a name imported and never used is a
leftover of a deleted caller. The file formats sit below the scoring
layer."""

import ast
import os
import subprocess
import sys
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


def test_storage_does_not_import_the_scoring_layer():
    script = "import sys, titan.storage; print('titan.evaluation' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stdout + proc.stderr
