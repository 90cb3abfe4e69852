"""``tools/code_lines.py``, the code-line count of the ROADMAP's rule, the
comparison step of ``tools/parity.py`` and the modules that
``tools/import_cost.py`` finds loaded."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
TOOL = TOOLS / "code_lines.py"

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


def load_tool(name="code_lines"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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


def parity_results(shift=0.0, steps=7):
    """A hand-made ``collect`` result: two passes, a fit whose estimate
    moves by ``shift`` and takes ``steps`` Newton steps, then two designs
    (the first moved by ``shift``), a witness moved by ``shift`` and its
    bound."""
    fit = {"kind": "fit", "error": None, "label": "ml", "converged": True, "steps": steps,
           "blocks": {0: np.array([[0.25 + shift]]), 2: np.diag([0.5, 0.25 - shift, 0.0])}}
    witness = {"kind": "witness", "error": None, "coefficients": np.array([[1.0, -shift]]),
               "objective": 0.5 + shift}
    return {("recon-n16", 1): [fit, dict(fit, label="ls", steps=3)],
            ("design-pretest-n12", 5): [
                {"kind": "design", "error": None, "total_error": 2.0 * (1.0 + shift)},
                {"kind": "design", "error": None, "total_error": 3.0},
                witness, {"kind": "bound", "error": None}]}


def test_parity_of_identical_results_reads_zero():
    parity = load_tool("parity")
    summary = parity.compare(parity_results(), parity_results())
    assert summary == {"distance": {"recon-n16 ml": 0.0, "recon-n16 ls": 0.0}, "changed": [],
                       "coefficients": 0.0, "objective": 0.0, "total_error": 0.0,
                       "errors": []}
    assert "fits with changed steps or convergence: 0" in parity.report(summary)


def test_parity_reports_each_difference():
    parity = load_tool("parity")
    old, new = parity_results(), parity_results(shift=1e-3, steps=8)
    new["design-pretest-n12", 5][3] = {"kind": "bound", "error": "ValueError: bad"}
    summary = parity.compare(old, new)
    # each fit's blocks move by +1e-3 in sector 0 and -1e-3 in sector 2
    assert summary["distance"] == pytest.approx({"recon-n16 ml": 1e-3, "recon-n16 ls": 1e-3})
    assert summary["changed"] == [(("recon-n16", 1), 0, "ml", (7, True), (8, True))]
    assert [summary[key] for key in ("coefficients", "objective", "total_error")] == (
        pytest.approx([1e-3] * 3))
    assert summary["errors"] == [(("design-pretest-n12", 5), 3)]
    assert len(parity.report(summary)) == 8


def test_import_cost_loads_no_scipy_linalg():
    # time and RSS are noisy, so only the loaded modules are asserted
    tool = TOOLS / "import_cost.py"
    out = subprocess.run([sys.executable, str(tool)], check=True, capture_output=True,
                         text=True).stdout.splitlines()
    assert [line.split()[:2] for line in out[:2]] == [["import", "pitomo"],
                                                      ["import", "pitomo.cli"]]
    assert out[2].startswith("ru_maxrss")
    assert out[3:] == [f"{name:18s} not loaded" for name in load_tool("import_cost").HEAVY]
