"""The package declares every third-party module it imports, and every
public name it lists exists."""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

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
    """The run-time dependencies are exactly what the package imports: an
    undeclared import fails here, and so does a stale declaration."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower() for dep in project["dependencies"]}
    imported = set().union(*map(_imported_packages, (ROOT / "src" / "spanrel").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"spanrel"}
    assert "numpy" in third_party  # the walk finds imports at all
    assert third_party <= declared, sorted(third_party - declared)
    assert declared <= third_party, sorted(declared - third_party)


def test_public_name_lists_resolve():
    """Each module's hand-kept __all__ names only attributes that exist, each
    once, so a stale entry fails here and not at a user's star import."""
    stems = sorted(p.stem for p in (ROOT / "src" / "spanrel").glob("*.py"))
    modules = [importlib.import_module(f"spanrel.{s}" if s != "__init__" else "spanrel") for s in stems]
    listed = [m for m in modules if hasattr(m, "__all__")]
    assert "spanrel" in {m.__name__ for m in listed}
    for module in listed:
        names = module.__all__
        assert len(names) == len(set(names)), f"{module.__name__}: duplicate names"
        exec(f"from {module.__name__} import *", {})  # AttributeError on a stale name


ENVIRONMENT_READS = {"os.environ", "os.environb", "os.getenv", "os.getenvb"}


def _environment_reads(path: Path) -> list[int]:
    """Lines of a module that name os.environ or os.getenv, as an attribute
    or in a from-import."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = {f"{node.value.id}.{node.attr}"}
        elif isinstance(node, ast.ImportFrom):
            names = {f"{node.module}.{alias.name}" for alias in node.names}
        else:
            continue
        if names & ENVIRONMENT_READS:
            lines.append(node.lineno)
    return lines


def test_no_module_reads_the_environment():
    """A run is configured by its arguments alone: no module of the package
    reads the process environment."""
    found = {
        path.name: lines
        for path in sorted((ROOT / "src" / "spanrel").glob("*.py"))
        if (lines := _environment_reads(path))
    }
    assert found == {}


COLLECTOR_SETTERS = {"gc.disable", "gc.enable", "gc.freeze", "gc.set_threshold"}


def _collector_settings(path: Path) -> list[tuple[str, int]]:
    """(owner, line) of each place a module names gc.disable, gc.enable,
    gc.freeze or gc.set_threshold, as an attribute or in a from-import; the
    owner is the module's top-level function or class around it."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {f"{node.value.id}.{node.attr}"}
            elif isinstance(node, ast.ImportFrom):
                names = {f"{node.module}.{alias.name}" for alias in node.names}
            else:
                continue
            if names & COLLECTOR_SETTERS:
                found.append((f"{path.stem}.{owner}", node.lineno))
    return found


def test_only_the_collector_pause_sets_the_collectors_state():
    """formats._collector_paused is the one owner of the cyclic collector's
    state, so every pause restores what the caller had."""
    found = [hit for path in sorted((ROOT / "src" / "spanrel").glob("*.py"))
             for hit in _collector_settings(path)]
    owners = {owner for owner, _ in found}
    assert owners == {"formats._collector_paused"}, found
