import json
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


_SRC = os.path.dirname(os.path.dirname(wcopf.__file__))


def _run_python(code, *args):
    """stdout of a fresh interpreter that runs code with the package on
    its path."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_importing_the_cli_leaves_scipy_unloaded():
    # numpy is the one runtime dependency: neither the CLI nor the PTDF's
    # solve loads scipy, which only the tests' HiGHS oracles use
    code = ("import sys, wcopf.cli\n"
            "from wcopf.grid import builtin_grid, compute_ptdf\n"
            "compute_ptdf(builtin_grid('case9'))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_python(code).strip() == "[]"


# a meta-path finder that makes every import of scipy fail, then each
# command of the pipeline on case3 in the directory argv[1]; prints the
# exit codes as a JSON list
_PIPELINE_WITHOUT_SCIPY = """
import json, os, sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is unavailable: {name}")
        return None

sys.meta_path.insert(0, _NoScipy())
from wcopf import cli

path = lambda name: os.path.join(sys.argv[1], name)
commands = [
    ["gen-data", "--grid", "case3", "--n", "60", "--seed", "0", "--out", path("d.csv")],
    ["train", "--dataset", path("d.csv"), "--grid", "case3", "--mode", "wcnn",
     "--arch", "4", "--seed", "0", "--config", path("cfg.json"), "--out", path("m.json")],
    ["verify", "--model", path("m.json"), "--grid", "case3", "--out", path("c.json")],
    ["finetune", "--model", path("m.json"), "--dataset", path("d.csv"), "--grid", "case3",
     "--config", path("ft_cfg.json"), "--out", path("tuned.json")],
    ["report", path("m.report.summary.json"), path("c.json"), "--grid", "case3"],
]
codes = [cli.main(argv) for argv in commands]
assert "scipy" not in sys.modules
print(json.dumps(codes))
"""


def test_pipeline_runs_with_scipy_unavailable(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"epochs": 6, "warmup": 2, "alpha": 3e-3}))
    (tmp_path / "ft_cfg.json").write_text(
        json.dumps({"alpha": 7e-4, "lambda_wc": 1.0, "max_iters": 2}))
    out = _run_python(_PIPELINE_WITHOUT_SCIPY, str(tmp_path))
    assert json.loads(out.splitlines()[-1]) == [0, 0, 0, 0, 0]
