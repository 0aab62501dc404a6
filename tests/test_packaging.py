"""The package declares every third-party module it imports."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parent.parent


def _imported_packages(path: Path) -> set[str]:
    """The top-level package of every absolute import in a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower() for dep in project["dependencies"]}
    imported = set().union(*map(_imported_packages, (ROOT / "src" / "spanrel").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"spanrel"}
    assert "numpy" in third_party  # the walk finds imports at all
    assert third_party <= declared, sorted(third_party - declared)
