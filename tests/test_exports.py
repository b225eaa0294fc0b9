"""Every name a subpackage exports in __all__ exists on it, so a deletion
that leaves a stale entry behind fails here rather than at a user's
``from wcopf.grid import *``."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["wcopf.grid", "wcopf.mlp", "wcopf.train",
                                  "wcopf.verifier"])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
