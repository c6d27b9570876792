import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_names(path):
    """The top-level module names a source file imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_runtime_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    # each dependency's distribution name, which is its import name here
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    imported = set().union(
        *(imported_top_level_names(p) for p in (ROOT / "src" / "polyrabi").glob("*.py"))
    )
    third_party = imported - set(sys.stdlib_module_names) - {"polyrabi"}
    assert "numpy" in third_party  # the parse sees the package's imports
    assert sorted(third_party - declared) == []
