"""Tests for the repository's tools."""

import importlib.util
from pathlib import Path

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
