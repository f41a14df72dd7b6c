"""Every imported name in the package and its tests is used, every
top-level function and class of the package is referenced, no package
module reads another's underscore names, every name the benchmark's
tracer wraps resolves, and the library itself never imports
matplotlib."""

import ast
import importlib
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


def unreferenced_definitions(root: Path) -> list:
    """Top-level functions and classes of the package modules that no
    statement reads, outside the statement defining them, in the package
    (``__init__.py``'s re-exports aside), its tests, demos or ``perfbench``.
    A read is the name itself, or an attribute access by that name."""
    files = scanned_files(root) + sorted((root / "perfbench").glob("*.py"))
    readers = {}  # name -> {(file, index of the top-level statement reading it)}
    definitions = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for index, stmt in enumerate(tree.body):
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name:
                    readers.setdefault(name, set()).add((path, index))
            if (path.parent.name == "latticebae"
                    and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))):
                definitions.append((path, index, stmt.name))
    return sorted(f"{path.relative_to(root)}: {name}" for path, index, name in definitions
                  if not readers.get(name, set()) - {(path, index)})


def test_every_definition_is_referenced():
    assert unreferenced_definitions(ROOT) == []


def test_scan_flags_an_unreferenced_definition(tmp_path):
    for folder in ("src/latticebae", "tests", "demos", "perfbench"):
        (tmp_path / folder).mkdir(parents=True)
    (tmp_path / "src" / "latticebae" / "module.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "class Orphan:\n    pass\n"
    )
    (tmp_path / "src" / "latticebae" / "__init__.py").write_text("from .module import Orphan\n")
    assert unreferenced_definitions(tmp_path) == [
        "src/latticebae/module.py: Orphan", "src/latticebae/module.py: recursive",
    ]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(root: Path) -> list:
    """Underscore names of one package module that another reads, as
    ``from .x import _y`` or as the attribute ``x._y`` of a module that
    ``from . import x`` bound; dunder names aside.  Each read is listed
    once per reading module."""
    found = set()
    for path in sorted((root / "src" / "latticebae").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # bound name -> package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "latticebae"):
                for alias in node.names:
                    if node.module in (None, "latticebae"):
                        modules[alias.asname or alias.name] = alias.name
                    elif _private(alias.name):
                        found.add(f"{path.name}: {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and _private(node.attr)
                    and isinstance(node.value, ast.Name) and node.value.id in modules):
                found.add(f"{path.name}: {modules[node.value.id]}.{node.attr}")
    return sorted(found)


def test_no_module_reads_another_modules_private_name():
    assert private_reads(ROOT) == []


def test_scan_flags_a_private_name_read(tmp_path):
    package = tmp_path / "src" / "latticebae"
    package.mkdir(parents=True)
    (package / "module.py").write_text(
        "from __future__ import annotations\n"
        "from . import other as alias\n"
        "from .other import _hidden, public\n\n"
        "def f(self):\n"
        "    return alias._secret, alias._secret, alias.public, alias.__name__\n\n"
        "def g(self):\n    return self._own, public\n"
    )
    assert private_reads(tmp_path) == ["module.py: other._hidden", "module.py: other._secret"]


#: Spans of ``perfbench/tracing.py`` wrapped at names that the package no
#: longer has (ROADMAP item 13).
ABSENT_SPANS = {"potentials.assemble_layer_matrix", "potentials.evaluate_potential",
                "lgf.lgf_grid"}


def test_every_traced_name_resolves():
    # WRAPPED is read from the source, so the benchmark is not imported.
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    wrapped = next(ast.literal_eval(stmt.value) for stmt in tree.body
                   if isinstance(stmt, ast.Assign)
                   and [target.id for target in stmt.targets] == ["WRAPPED"])
    absent = {span for module, attr, span in wrapped
              if not hasattr(importlib.import_module(module), attr)}
    assert len(wrapped) > len(ABSENT_SPANS)
    assert absent <= ABSENT_SPANS


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
