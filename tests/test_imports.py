"""Every module of the package uses every name it imports, and the library proper calls
neither the Gauss-Legendre rules nor `specfun.laguerre`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lgradial"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _names(path):
    """Every name a module reads, imports or takes as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names})


@pytest.mark.parametrize("name, users", [("make_rule", set()), ("laguerre", set())],
                         ids=["make_rule", "laguerre"])
def test_specfun_names_kept_for_tests_and_the_benchmark(name, users):
    # make_rule and laguerre stay in specfun while the benchmark calls them; the library
    # itself takes its log-variable derivatives spectrally and every Laguerre value, the
    # exact wave's complex-argument rows included, from lgmode's one recurrence
    found = {p.name for p in SRC.glob("*.py") if p.name != "specfun.py" and name in _names(p)}
    assert found <= users
