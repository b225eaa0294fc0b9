"""Only the solvers handle a numerical breakdown.

An ``ast`` scan of every module under ``src/wcopf``: an ``except`` clause
that names ``NumericalBreakdown`` may appear only in the simplex, which
retries a started solve from the crash basis, in the bound LPs, which keep
their interval bound, and in the search, which sets the node aside.  Every
caller of solve_worst_case then gets a certificate, never the exception.
"""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
_ALLOWED = {"wcopf/simplex.py", "wcopf/verifier/bounds.py", "wcopf/verifier/milp.py"}


def _names_breakdown(node):
    return any((isinstance(n, ast.Name) and n.id == "NumericalBreakdown")
               or (isinstance(n, ast.Attribute) and n.attr == "NumericalBreakdown")
               for n in ast.walk(node))


def _handling_modules():
    found = set()
    for path in (_SRC / "wcopf").rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(isinstance(node, ast.ExceptHandler) and node.type is not None
               and _names_breakdown(node.type) for node in ast.walk(tree)):
            found.add(path.relative_to(_SRC).as_posix())
    return found


def test_only_the_solvers_catch_numerical_breakdown():
    assert _handling_modules() == _ALLOWED
