"""Training losses and their exact reverse-mode gradients.

Subgradient conventions at kinks: d|r|/dr = 0 at r = 0 and the ReLU
derivative is 0 at a preactivation of exactly 0.  A reverse pass writes
every entry of the per-layer views of one Gradients.vec, laid out like
MlpParams.vec: a fresh one, or a caller's buffer (out) that a training
run reuses for every step.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch
from .network import FlatStack, forward_batch


class Gradients(FlatStack):
    """Parameter-shaped gradient stack in the flat layout of MlpParams."""

    @classmethod
    def zeros_like(cls, params):
        return cls(params.layer_dims, np.zeros(params.vec.size))

    def add(self, other, factor=1.0):
        """In-place self += factor * other."""
        self.vec += factor * other.vec
        return self


@dataclass
class LossSpec:
    """Nonnegative combination of the supported loss terms."""

    mae_weight: float = 1.0
    gen_weight: float = 0.0
    gen_lo: np.ndarray = None    # per-output lower bounds (scaled units)
    gen_hi: np.ndarray = None

    def __post_init__(self):
        if min(self.mae_weight, self.gen_weight) < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.gen_weight > 0 and (self.gen_lo is None or self.gen_hi is None):
            raise ValueError("gen penalty requires generator bounds")


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


def total_loss(params, x, y, spec: LossSpec):
    val = 0.0
    if spec.mae_weight:
        val += spec.mae_weight * loss_mae(params, x, y)
    if spec.gen_weight:
        val += spec.gen_weight * loss_gen_penalty(params, x, spec.gen_lo, spec.gen_hi)
    return val


def backprop_from_output_grad(params, x, dloss_dout, preacts=None, acts=None,
                              out=None):
    """Reverse pass given dLoss/dOutput for a batch; returns Gradients.

    out, a Gradients of params' layout, receives the result when given
    (every entry is overwritten); otherwise a new one does.
    """
    x = np.asarray(x, dtype=float)
    if preacts is None or acts is None:
        preacts, acts, _ = forward_batch(params, x)
    if out is None:
        out = Gradients.zeros_like(params)
    elif out.layer_dims != params.layer_dims:
        raise ShapeMismatch(f"gradient buffer of layout {out.layer_dims} for "
                            f"parameters of layout {params.layer_dims}")
    layer_inputs = [x] + acts  # input to layer k is layer_inputs[k]
    delta = dloss_dout
    for k in range(params.n_layers - 1, -1, -1):
        np.matmul(delta.T, layer_inputs[k], out=out.weights[k])
        np.add.reduce(delta, axis=0, out=out.biases[k])
        if k > 0:
            delta = delta @ params.weights[k]
            delta *= preacts[k - 1] > 0.0
    return out


def gradient(params, x, y, spec: LossSpec, out=None) -> Gradients:
    """Exact gradient of the weighted loss combination for one batch.

    out, a Gradients of params' layout, receives the result when given,
    so a training loop allocates one for the whole run; the result is
    bit for bit the one a fresh Gradients would hold.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    preacts, acts, pred = forward_batch(params, x)
    _check_targets(pred, y)
    n, n_out = pred.shape

    # dLoss/dOutput = 0 + mae term + gen term, each term built in place;
    # the closing += 0.0 turns a -0.0 into the 0.0 that 0 + term gives
    if spec.mae_weight:
        delta = np.subtract(pred, y)
        np.sign(delta, out=delta)
        delta *= spec.mae_weight
        delta /= n * n_out
    else:
        delta = np.zeros_like(pred)
    if spec.gen_weight:
        over = np.subtract(pred, spec.gen_hi)
        np.maximum(over, 0.0, out=over)
        under = np.subtract(spec.gen_lo, pred)
        np.maximum(under, 0.0, out=under)
        over *= 2.0
        under *= 2.0
        over -= under
        over *= spec.gen_weight
        over /= n
        delta += over
    delta += 0.0

    return backprop_from_output_grad(params, x, delta, preacts, acts, out)


def _check_targets(out, y):
    if np.shape(y) != np.shape(out):
        raise ShapeMismatch(f"target shape {np.shape(y)} does not match output {np.shape(out)}")
