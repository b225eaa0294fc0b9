"""Dense linear system solving with an explicit singularity check."""

import numpy as np

from .errors import ShapeMismatch, SingularMatrix

SINGULARITY_THRESHOLD = 1e-12


def solve_linear_system(a, b):
    """Solve a x = b by LU factorization with partial pivoting.

    `a` is a square matrix, `b` a vector or matrix of right hand sides.
    Raises SingularMatrix when the smallest singular value of `a` is
    below the singularity threshold (or is not a number).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected square matrix, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ShapeMismatch(f"rhs length {b.shape[0]} does not match matrix size {a.shape[0]}")
    if a.shape[0] == 0:
        return b.copy()
    sigma = np.linalg.norm(a, -2)
    if not sigma >= SINGULARITY_THRESHOLD:
        raise SingularMatrix(f"smallest singular value {sigma:.3e} below {SINGULARITY_THRESHOLD:.0e}")
    return np.linalg.solve(a, b)
