"""Axis-aligned boxes and interval bound propagation through ReLU layers."""

from dataclasses import dataclass

import numpy as np

from ..errors import BoundsUnavailable, ShapeMismatch


@dataclass(frozen=True)
class Box:
    """Per-dimension interval [lo, hi]; entries may be infinite."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float).reshape(-1))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float).reshape(-1))
        if self.lo.shape != self.hi.shape:
            raise ShapeMismatch("box bounds must have equal shapes")
        if np.any(self.lo > self.hi):
            raise ValueError("box lower bound exceeds upper bound")

    @property
    def dim(self):
        return self.lo.shape[0]

    def midpoint(self):
        return 0.5 * (self.lo + self.hi)

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))


@dataclass
class PreactBounds:
    """Valid preactivation intervals for every hidden neuron."""

    lower: list  # per hidden layer
    upper: list

    def stable_active(self, k):
        return self.lower[k] >= 0.0

    def stable_inactive(self, k):
        return self.upper[k] <= 0.0


def interval_bounds(params, box):
    """Bounds valid over the whole input box.

    Returns (PreactBounds, out_lower, out_upper) where the output
    bounds are per-dimension intervals on the network output.
    """
    if box.dim != params.n_inputs:
        raise ShapeMismatch(f"box dimension {box.dim} does not match inputs {params.n_inputs}")
    lo = box.lo
    hi = box.hi
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise BoundsUnavailable("input box must be bounded")
    lower = []
    upper = []
    for k in range(params.n_hidden_layers):
        w = params.weights[k]
        wp = np.maximum(w, 0.0)
        wn = np.minimum(w, 0.0)
        up = wp @ hi + wn @ lo + params.biases[k]
        dn = wp @ lo + wn @ hi + params.biases[k]
        lower.append(dn)
        upper.append(up)
        lo = np.maximum(dn, 0.0)
        hi = np.maximum(up, 0.0)
    w = params.weights[-1]
    wp = np.maximum(w, 0.0)
    wn = np.minimum(w, 0.0)
    out_up = wp @ hi + wn @ lo + params.biases[-1]
    out_dn = wp @ lo + wn @ hi + params.biases[-1]
    for arr in lower + upper + [out_dn, out_up]:
        if not np.all(np.isfinite(arr)):
            raise BoundsUnavailable("interval propagation produced nonfinite bounds")
    return PreactBounds(lower=lower, upper=upper), out_dn, out_up
