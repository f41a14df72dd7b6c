"""Every imported name in the package and its tests is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list:
    """Names bound by import statements in a module and never referenced."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def scanned_files(root: Path):
    """Package modules (not ``__init__.py``, whose imports are re-exports), tests and demos."""
    package = sorted((root / "src" / "latticebae").glob("*.py"))
    return ([p for p in package if p.name != "__init__.py"]
            + sorted((root / "tests").glob("*.py")) + sorted((root / "demos").glob("*.py")))


def test_no_unused_imports():
    found = {}
    for path in scanned_files(ROOT):
        names = unused_imports(path)
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\n"
        "from typing import Callable, Optional\n\n"
        "def f(g: Callable):\n    return os.path.join(g(), '')\n"
    )
    assert unused_imports(module) == ["Optional (line 4)", "system (line 3)"]
