"""Training and the CLI read what a verification showed from the
certificate (WorstCaseCert.certified, witness and warning), never by
comparing its value with a number: a value of 0 with a gap left is only
a lower bound, not "no violation".

An ``ast`` scan of every module under ``src/wcopf/train`` and of
``src/wcopf/cli.py``.
"""

import ast
from numbers import Real
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "wcopf"
_MODULES = sorted((_SRC / "train").glob("*.py")) + [_SRC / "cli.py"]


def _is_number(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant) and isinstance(node.value, Real)
            and not isinstance(node.value, bool))


def _value_comparisons(path):
    """Line numbers of every comparison of a .value with a numeric literal."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(isinstance(op, ast.Attribute) and op.attr == "value" for op in operands)
                    and any(_is_number(op) for op in operands)):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", _MODULES, ids=[p.name for p in _MODULES])
def test_no_certificate_value_is_compared_with_a_number(path):
    assert _value_comparisons(path) == []


def test_the_scan_finds_such_a_comparison(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("if cert.value <= 0.0 or x:\n    pass\nok = 0 == -1 < cert.value\n")
    assert _value_comparisons(path) == [1, 3]
