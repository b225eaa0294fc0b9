"""Training losses and their exact reverse-mode gradients.

Subgradient conventions at kinks: d|r|/dr = 0 at r = 0 and the ReLU
derivative is 0 at a preactivation of exactly 0.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeMismatch
from .network import MlpParams, forward_batch


@dataclass
class Gradients:
    """Parameter-shaped gradient stack (same layout as MlpParams)."""

    weights: list
    biases: list

    @classmethod
    def zeros_like(cls, params):
        return cls(weights=[np.zeros_like(w) for w in params.weights],
                   biases=[np.zeros_like(b) for b in params.biases])

    def scaled(self, factor):
        return Gradients(weights=[factor * w for w in self.weights],
                         biases=[factor * b for b in self.biases])

    def add(self, other, factor=1.0):
        """In-place self += factor * other."""
        for w, ow in zip(self.weights, other.weights):
            w += factor * ow
        for b, ob in zip(self.biases, other.biases):
            b += factor * ob
        return self

    def flat(self):
        return np.concatenate([a.ravel() for a in self.weights + self.biases])


@dataclass
class LossSpec:
    """Nonnegative combination of the supported loss terms."""

    mae_weight: float = 1.0
    gen_weight: float = 0.0
    ewc_weight: float = 0.0
    gen_lo: np.ndarray = None    # per-output lower bounds (scaled units)
    gen_hi: np.ndarray = None
    fisher: object = None        # FisherDiag, required when ewc_weight > 0

    def __post_init__(self):
        if min(self.mae_weight, self.gen_weight, self.ewc_weight) < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.gen_weight > 0 and (self.gen_lo is None or self.gen_hi is None):
            raise ValueError("gen penalty requires generator bounds")
        if self.ewc_weight > 0 and self.fisher is None:
            raise ValueError("ewc term requires a FisherDiag")


def loss_mae(params, x, y):
    """Mean absolute error over all samples and output dimensions."""
    out = forward_batch(params, x)[2]
    _check_targets(out, y)
    return float(np.mean(np.abs(out - y)))


def loss_gen_penalty(params, x, gen_lo, gen_hi):
    """Mean over samples of the summed squared hinge excesses.

    For each sample: sum_j relu(out_j - hi_j)^2 + relu(lo_j - out_j)^2.
    """
    out = forward_batch(params, x)[2]
    over = np.maximum(out - gen_hi, 0.0)
    under = np.maximum(gen_lo - out, 0.0)
    return float(np.mean(np.sum(over ** 2 + under ** 2, axis=1)))


def loss_ewc(params, fisher):
    """sum_i F_i (theta_i - anchor_i)^2 over all parameters."""
    total = 0.0
    anchor = fisher.anchor
    if [w.shape for w in params.weights] != [w.shape for w in anchor.weights]:
        raise ShapeMismatch("fisher anchor does not match parameter shapes")
    for w, wa, f in zip(params.weights, anchor.weights, fisher.weights):
        total += float(np.sum(f * (w - wa) ** 2))
    for b, ba, f in zip(params.biases, anchor.biases, fisher.biases):
        total += float(np.sum(f * (b - ba) ** 2))
    return total


def total_loss(params, x, y, spec: LossSpec):
    val = 0.0
    if spec.mae_weight:
        val += spec.mae_weight * loss_mae(params, x, y)
    if spec.gen_weight:
        val += spec.gen_weight * loss_gen_penalty(params, x, spec.gen_lo, spec.gen_hi)
    if spec.ewc_weight:
        val += spec.ewc_weight * loss_ewc(params, spec.fisher)
    return val


def backprop_from_output_grad(params, x, dloss_dout, preacts=None, acts=None):
    """Reverse pass given dLoss/dOutput for a batch; returns Gradients."""
    x = np.asarray(x, dtype=float)
    if preacts is None or acts is None:
        preacts, acts, _ = forward_batch(params, x)
    grads = Gradients.zeros_like(params)
    layer_inputs = [x] + acts  # input to layer k is layer_inputs[k]
    delta = dloss_dout
    for k in range(params.n_layers - 1, -1, -1):
        grads.weights[k][:] = delta.T @ layer_inputs[k]
        grads.biases[k][:] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ params.weights[k]) * (preacts[k - 1] > 0.0)
    return grads


def gradient(params, x, y, spec: LossSpec) -> Gradients:
    """Exact gradient of the weighted loss combination for one batch."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    preacts, acts, out = forward_batch(params, x)
    _check_targets(out, y)
    n, n_out = out.shape

    dloss_dout = np.zeros_like(out)
    if spec.mae_weight:
        dloss_dout += spec.mae_weight * np.sign(out - y) / (n * n_out)
    if spec.gen_weight:
        over = np.maximum(out - spec.gen_hi, 0.0)
        under = np.maximum(spec.gen_lo - out, 0.0)
        dloss_dout += spec.gen_weight * (2.0 * over - 2.0 * under) / n

    grads = backprop_from_output_grad(params, x, dloss_dout, preacts, acts)

    if spec.ewc_weight:
        fisher = spec.fisher
        anchor = fisher.anchor
        for k in range(params.n_layers):
            grads.weights[k] += spec.ewc_weight * 2.0 * fisher.weights[k] \
                * (params.weights[k] - anchor.weights[k])
            grads.biases[k] += spec.ewc_weight * 2.0 * fisher.biases[k] \
                * (params.biases[k] - anchor.biases[k])
    return grads


def _check_targets(out, y):
    if np.shape(y) != np.shape(out):
        raise ShapeMismatch(f"target shape {np.shape(y)} does not match output {np.shape(out)}")
