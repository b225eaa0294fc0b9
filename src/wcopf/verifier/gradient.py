"""Gradient of the worst-case violation with respect to the weights.

At a maximizer (witness input, activation pattern) the violation is
locally one affine margin of the parameters, so its parameter gradient
is an ordinary backward pass through that margin with the ReLU pattern
held fixed; nothing is differentiated through the inner argmax.
"""

import numpy as np

from ..mlp.losses import Gradients
from .patterns import margin_form


def margin_param_gradient(params, witness, pattern, constraint_id,
                          last_layer_only=False):
    """Gradient of one signed bound margin at a fixed input and pattern."""
    x = np.asarray(witness, dtype=float)
    acts = [x]
    z = x
    for k in range(params.n_hidden_layers):
        s = params.weights[k] @ z + params.biases[k]
        z = np.where(pattern[k], s, 0.0)
        acts.append(z)

    g, sign, _ = margin_form(None, constraint_id)
    delta = np.zeros(params.n_outputs)
    delta[g] = sign

    # with last_layer_only the hidden layers keep their zeros
    first = params.n_layers - 1 if last_layer_only else 0
    grads = Gradients.zeros_like(params)
    for k in range(params.n_layers - 1, first - 1, -1):
        grads.weights[k][:] = np.outer(delta, acts[k])
        grads.biases[k][:] = delta
        if k > first:
            delta = (params.weights[k].T @ delta) * pattern[k - 1]
    return grads


def worst_case_gradient(params, cert, last_layer_only=False) -> Gradients:
    """Envelope gradient of a certificate's violation value.

    Zero everywhere when the certificate reports no violation (the
    worst case sits in the clipped flat region).
    """
    if cert.value <= 0.0 or cert.witness is None:
        return Gradients.zeros_like(params)
    return margin_param_gradient(params, cert.witness, cert.pattern,
                                 cert.constraint_id, last_layer_only)
