"""No module of the package imports a name that it never uses.

An ``ast`` scan of every module under ``src/wcopf`` except the
``__init__`` files, whose imports are the package's exports.  A name a
module binds only so that ``perfbench/tracing.py`` can replace it there
is allowed exactly when ``SITES`` lists that module as a caller of that
name.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"
_MODULES = sorted(p for p in (_SRC / "wcopf").rglob("*.py") if p.name != "__init__.py")


def _traced_bindings():
    """(module, name) of every binding that the tracer replaces."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(caller, attr) for _, _, attr, callers in module.SITES for caller in callers}


_TRACED = _traced_bindings()


def _unused_imports(path):
    """Names that the module at path imports and never loads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("path", _MODULES, ids=[str(p.relative_to(_SRC)) for p in _MODULES])
def test_module_uses_every_name_it_imports(path):
    module = ".".join(path.relative_to(_SRC).with_suffix("").parts)
    unused = {name for name in _unused_imports(path) if (module, name) not in _TRACED}
    assert not unused, f"{module} imports but never uses {sorted(unused)}"
