"""Every name a subpackage exports in __all__ exists on it, so a deletion
that leaves a stale entry behind fails here rather than at a user's
``from wcopf.grid import *``; and every one is used in ``src/`` or
``perfbench/`` outside its definition and the package ``__init__``,
except the few that only tests call, allowed by name."""

import ast
import importlib
from pathlib import Path

import pytest


@pytest.mark.parametrize("name", ["wcopf.grid", "wcopf.mlp", "wcopf.train",
                                  "wcopf.verifier"])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


_ROOT = Path(__file__).resolve().parents[1]
# exported for tests and users, named nowhere in the package or benchmark
_TEST_ONLY = {"wcopf.mlp": {"total_loss"}}


def _names_used():
    """Every name that a module of src/ or perfbench/ other than an
    __init__ reads, reaches as an attribute or spells as a string (as
    perfbench/tracing.py's SITES do); a def, class or assignment only
    binds its name, so it does not count."""
    used = set()
    files = [*(_ROOT / "src").rglob("*.py"), *(_ROOT / "perfbench").rglob("*.py")]
    for path in files:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


_USED = _names_used()


@pytest.mark.parametrize("name", ["wcopf.grid", "wcopf.mlp", "wcopf.train",
                                  "wcopf.verifier"])
def test_every_export_is_used_outside_its_definition(name):
    # an export that only tests call is API nothing calls
    module = importlib.import_module(name)
    unused = set(module.__all__) - _USED
    assert unused == _TEST_ONLY.get(name, set())
