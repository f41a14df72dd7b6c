"""Tests for the repository's tools."""

import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name: str):
    """A script under ``tools/``, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The code lines are numbered on the right, 12 of them: lines 9 to 11
# are the string assigned to ``text``, where a comment cannot go.
SYNTHETIC = '''\
"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line counted               1


# A comment line.
class Thing:  #                                                      2
    """Class docstring."""

    def method(self):  #                                             3
        """Method docstring,

        with a blank line inside."""
        # A comment line inside a function.
        return os.path.join(  #                                      4
            "a",  #                                                  5
            "b",  #                                                  6
        )  #                                                         7


def function():  #                                                   8
    """Function docstring."""
    text = """A multi-line string
that is not a docstring
is code on every line."""
    return text  #                                                  12
'''


def test_code_lines_counts_a_synthetic_module_exactly(tmp_path):
    code_lines = load_tool("code_lines")
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC, encoding="utf-8")
    assert code_lines.code_lines(path) == 12


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    code_lines = load_tool("code_lines")
    (tmp_path / "a.py").write_text(SYNTHETIC, encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nX = 1\n', encoding="utf-8")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "12", "b.py", "1", "total", "13"]


#: A BLAS-free artifact and one whose solve runs through LAPACK.
PARITY_CASES = ("closure/ellipse-a1-robin-64", "cli/solve-cond-single-schur")


def test_parity_manifest_is_reproducible_and_sees_one_ulp(tmp_path, capsys):
    parity = load_tool("parity")
    first = parity.manifest(ROOT, PARITY_CASES)
    assert list(first) == list(PARITY_CASES)
    assert parity.manifest(ROOT, PARITY_CASES) == first
    # The same closure in this process, then with one value one ulp up.
    name = PARITY_CASES[0]
    parts = parity.cases(parity.load(ROOT))[name]()
    assert parity.record(parts) == first[name]
    data = parts["phi_plus.data"].copy()
    data[7] = np.nextafter(data[7], np.inf)
    planted = dict(first, **{name: parity.record({**parts, "phi_plus.data": data})})
    paths = []
    for index, manifest in enumerate((first, first, planted)):
        paths.append(tmp_path / f"{index}.json")
        paths[-1].write_text(json.dumps(manifest))
    assert parity.main(["--compare", str(paths[0]), str(paths[1])]) == 0
    assert capsys.readouterr().out == "0 of 2 artifacts differ\n"
    assert parity.main(["--compare", str(paths[0]), str(paths[2])]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith(f"differs  {name}  ")
    assert lines[1] == "1 of 2 artifacts differ"


def test_parity_compare_names_the_parts_that_moved(tmp_path, capsys):
    parity = load_tool("parity")
    # A record shaped like a ``solve/*`` artifact, then with cond one ulp up.
    values = np.random.default_rng(41).standard_normal(64)
    parts = {"values": values, "cond": np.float64(1234.5), "residual": np.float64(3e-13),
             "max_error": np.float64(2e-5)}
    name = "solve/planted"
    moved = parity.record({**parts, "cond": np.nextafter(parts["cond"], np.inf)})
    manifests = {"a": {name: parity.record(parts)}, "b": {name: moved},
                 # as written before records hashed their parts
                 "c": {name: {key: moved[key] for key in ("sha1", "max_abs")}}}
    paths = {}
    for key, manifest in manifests.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(manifest))
    assert parity.main(["--compare", str(paths["a"]), str(paths["b"])]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith(f"differs  {name}  ") and line.endswith("  in: cond")
    assert parity.main(["--compare", str(paths["a"]), str(paths["c"])]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith(f"differs  {name}  ") and line.endswith(")")
