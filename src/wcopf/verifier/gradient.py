"""Gradient of the worst-case violation with respect to the weights.

At a maximizer (witness input, activation pattern) the violation is
locally one affine margin of the parameters, so its parameter gradient
is an ordinary backward pass through that margin with the ReLU pattern
held fixed; nothing is differentiated through the inner argmax.  That
pass is the network's own (mlp.losses.backprop_from_output_grad) seeded
at the violated output, and the pattern it holds fixed is the witness's
own, so this module has no loop over the layers.
"""

import numpy as np

from ..mlp.losses import Gradients, backprop_from_output_grad
from .patterns import margin_form


def margin_param_gradient(params, witness, constraint_id, last_layer_only=False):
    """Gradient of one signed bound margin at the input witness.

    With last_layer_only the hidden layers' entries are +0.0.
    """
    g, sign, _ = margin_form(None, constraint_id)
    seed = np.zeros((1, params.n_outputs))
    seed[0, g] = sign
    grads = backprop_from_output_grad(
        params, np.asarray(witness, dtype=float).reshape(1, -1), seed)
    if last_layer_only:
        for hidden in (*grads.weights[:-1], *grads.biases[:-1]):
            hidden[:] = 0.0
    return grads


def worst_case_gradient(params, cert, last_layer_only=False) -> Gradients:
    """Envelope gradient of a certificate's violation value.

    Zero everywhere when the certificate has no witness (value 0: the
    worst case found sits in the clipped flat region).
    """
    if cert.witness is None:
        return Gradients.zeros_like(params)
    return margin_param_gradient(params, cert.witness, cert.constraint_id,
                                 last_layer_only)
