"""Every imported name in the package and its tests is used, and the
library itself never imports matplotlib."""

import ast
import os
import subprocess
import sys
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


def test_a_solve_never_imports_matplotlib():
    # The watcher also sees guarded import attempts where matplotlib is
    # not installed.
    script = (
        "import sys\n"
        "attempts = []\n"
        "class Watch:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'matplotlib':\n"
        "            attempts.append(name)\n"
        "sys.meta_path.insert(0, Watch())\n"
        "from latticebae import ExperimentConfig, solve_problem\n"
        "solve_problem(ExperimentConfig(geometry='ellipse', aspect=2.0, bc='dirichlet',\n"
        "                               formulation='single-direct', n=32))\n"
        "assert not attempts and 'matplotlib' not in sys.modules, attempts\n"
    )
    pythonpath = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
