"""Dense linear system solving with an explicit singularity check."""

import warnings

import numpy as np

from .errors import ShapeMismatch, SingularMatrix

SINGULARITY_THRESHOLD = 1e-12


def solve_linear_system(a, b):
    """Solve a x = b by LU factorization with partial pivoting.

    `a` is a square matrix, `b` a vector or matrix of right hand sides.
    Raises SingularMatrix when any pivot of U falls below the
    singularity threshold in magnitude.  scipy is imported here, not at
    module load, so commands that build no PTDF never pay for it.
    """
    import scipy.linalg

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected square matrix, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ShapeMismatch(f"rhs length {b.shape[0]} does not match matrix size {a.shape[0]}")
    if a.shape[0] == 0:
        return b.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < SINGULARITY_THRESHOLD:
        raise SingularMatrix(f"pivot magnitude {pivots.min():.3e} below {SINGULARITY_THRESHOLD:.0e}")
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
