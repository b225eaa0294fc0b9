import os
import subprocess
import sys

import numpy as np
import pytest

import wcopf
from wcopf.errors import ShapeMismatch, SingularMatrix
from wcopf.linalg import solve_linear_system


def test_random_5x5_residual():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 5))
    b = rng.normal(size=5)
    x = solve_linear_system(a, b)
    assert np.max(np.abs(a @ x - b)) <= 1e-8 * (1.0 + np.max(np.abs(b)))


def test_identity_returns_rhs():
    b = np.array([3.0, -1.0, 0.5])
    x = solve_linear_system(np.eye(3), b)
    assert np.allclose(x, b, atol=0.0)


def test_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        solve_linear_system(a, np.ones(2))


def test_near_singular_raises():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    with pytest.raises(SingularMatrix):
        solve_linear_system(a, np.ones(2))


def test_matrix_rhs():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 2))
    x = solve_linear_system(a, b)
    assert np.max(np.abs(a @ x - b)) <= 1e-8 * (1.0 + np.max(np.abs(b)))


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        solve_linear_system(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ShapeMismatch):
        solve_linear_system(np.eye(3), np.ones(2))


def test_many_seeds_residual_bound():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n)) + np.eye(n)
        b = rng.normal(size=n)
        try:
            x = solve_linear_system(a, b)
        except SingularMatrix:
            continue
        assert np.max(np.abs(a @ x - b)) <= 1e-8 * (1.0 + np.max(np.abs(b)))


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy costs more to import than the rest of the package; only the
    # PTDF's LU solve needs it, and it imports it when called
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wcopf.__file__)))
    code = ("import sys, wcopf.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
