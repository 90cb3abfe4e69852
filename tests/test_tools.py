"""``tools/code_lines.py``: the code-line count of the ROADMAP's rule."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""A module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# a comment line
def area(radius):
    """A one-line docstring."""
    total = (math.pi
             * radius ** 2)
    "a bare string expression is code"
    return total


class Shape:
    """A class docstring
    over three
    lines."""

    sides = 0
'''
# code lines: import; def; the two lines of ``total``; the bare string;
# return; class; sides
CODE_LINES = 8


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_a_synthetic_module(tmp_path):
    path = tmp_path / "shapes.py"
    path.write_text(SOURCE)
    assert load_tool().code_lines(path) == CODE_LINES


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "shapes.py").write_text(SOURCE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert [line.split() for line in out] == [
        ["0", "empty.py"], [str(CODE_LINES), "shapes.py"], [str(CODE_LINES), "total"]]
