"""The package's import layering, read from its source with ``ast``.

Scenario parsing sits below the checks: ``scenario.py`` builds laws, states
and parameters and knows nothing of certificates or claims.  No module
hides an import cycle behind ``typing.TYPE_CHECKING``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chemostat_cep"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, by their names in the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "chemostat_cep":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("chemostat_cep.")
            )
    return found


def test_scenario_imports_only_the_model_layers():
    assert _package_imports(_tree(PACKAGE / "scenario.py")) <= {"dynamics", "errors", "growth"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_type_checking_import(path):
    tree = _tree(path)
    names = [node.id for node in ast.walk(tree) if isinstance(node, ast.Name)]
    names += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    names += [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "TYPE_CHECKING" not in names
