"""The call sites that the benchmark's tracer patches still exist.

``perfbench/tracing.py`` lists in ``SITES`` each traced function's home
module and the modules whose binding of it the tracer replaces.  A
deleted or renamed import there breaks traced runs with an
AttributeError, so every entry is checked here against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


_SITES = _sites()


@pytest.mark.parametrize("name,home,attr,callers", _SITES,
                         ids=[f"{name}:{attr}" for name, _, attr, _ in _SITES])
def test_callers_bind_the_traced_function(name, home, attr, callers):
    home_module = importlib.import_module(home)
    assert hasattr(home_module, attr), f"{home}.{attr} is gone"
    for caller in callers:
        module = importlib.import_module(caller)
        assert getattr(module, attr, None) is getattr(home_module, attr), \
            f"{caller}.{attr} does not bind {home}.{attr}"
