"""Suite-wide set-up that must run before numpy is imported, and shared
fixtures.

numpy's BLAS would otherwise run the simplex's small dense solves on one
thread per core; beside any other busy process that oversubscription
slows some tests by more than 30x.  ``setdefault`` keeps a value the
caller exported.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def cold_cores(monkeypatch):
    """List that grows by the simplex core of each solve that starts from
    the slack basis (simplex._Core.cold): one without a start, or whose
    start's basis matrix is singular, fails the identity test, or needs
    a slack at its infinite bound."""
    from wcopf import simplex

    cores = []
    cold = simplex._Core.cold
    monkeypatch.setattr(simplex._Core, "cold",
                        lambda core, cutoff=None: cores.append(core) or cold(core, cutoff))
    return cores


@pytest.fixture
def refit_cores(monkeypatch):
    """List that grows by the simplex core of each start whose binv was
    refactorized (_Core._refit): one whose rows are not its source's, or
    whose binv drifted.  Such a start may still go to the slack basis."""
    from wcopf import simplex

    cores = []
    refit = simplex._Core._refit

    def recording(core, start):
        taken = refit(core, start)
        if taken:
            cores.append(core)
        return taken

    monkeypatch.setattr(simplex._Core, "_refit", recording)
    return cores


@pytest.fixture
def refactorizations(monkeypatch):
    """List that grows by the simplex core of each exact re-solve of a
    basis (_Core._exact: a dispatch or other LP whose x is read, and
    basis_solutions)."""
    from wcopf import simplex

    cores = []
    exact = simplex._Core._exact
    monkeypatch.setattr(simplex._Core, "_exact",
                        lambda core, x, b: cores.append(core) or exact(core, x, b))
    return cores
