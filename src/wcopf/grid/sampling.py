"""Latin hypercube sampling of demand vectors."""

import numpy as np

DATA_BOX = (0.6, 1.0)  # demand range as a fraction of nominal


def sample_demands_lhs(grid, n, seed, box=DATA_BOX):
    """Draw n demand vectors with one sample per stratum per dimension.

    Each load d ranges over [box[0], box[1]) times its nominal value.
    The per-dimension interval is cut into n equal strata; a seeded
    permutation assigns exactly one sample to each stratum.
    """
    if n <= 0:
        raise ValueError("need at least one sample")
    lo, hi = box
    if not (0.0 <= lo < hi):
        raise ValueError(f"invalid sampling box {box}")
    nominal = grid.nominal_demand()
    rng = np.random.default_rng(seed)
    out = np.empty((n, grid.n_load))
    for d in range(grid.n_load):
        strata = rng.permutation(n)
        u = rng.uniform(size=n)
        frac = (strata + u) / n
        out[:, d] = (lo + (hi - lo) * frac) * nominal[d]
    return out
