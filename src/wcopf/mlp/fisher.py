"""Empirical diagonal Fisher information for the anchoring penalty."""

import numpy as np

from ..errors import ShapeMismatch
from .network import FlatStack, forward_batch


class FisherDiag(FlatStack):
    """Per-parameter curvature estimates, laid out like MlpParams.vec,
    plus the anchor (an MlpParams snapshot) they refer to."""

    def __init__(self, layer_dims, vec, anchor):
        super().__init__(layer_dims, vec)
        self.anchor = anchor


def fisher_diag(params, x, y) -> FisherDiag:
    """Mean squared per-sample gradient of the squared-error loss.

    The per-sample loss is sum_j (out_j - y_j)^2.  Per-sample weight
    gradients are outer products delta_i (x) z_i, so their elementwise
    squares average to (delta^2)^T @ (z^2) / N without an explicit loop.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    preacts, acts, out = forward_batch(params, x)
    if y.shape != out.shape:
        raise ShapeMismatch(f"target shape {y.shape} does not match output {out.shape}")
    n = x.shape[0]
    layer_inputs = [x] + acts
    delta = 2.0 * (out - y)
    fisher = FisherDiag(params.layer_dims, np.zeros(params.vec.size), params.copy())
    for k in range(params.n_layers - 1, -1, -1):
        fisher.weights[k][:] = (delta ** 2).T @ (layer_inputs[k] ** 2) / n
        fisher.biases[k][:] = np.mean(delta ** 2, axis=0)
        if k > 0:
            delta = (delta @ params.weights[k]) * (preacts[k - 1] > 0.0)
    return fisher
