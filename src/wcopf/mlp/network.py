"""Small dense ReLU networks with a linear output layer."""

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch


@dataclass
class MlpParams:
    """Weights and biases; weights[k] has shape (dims[k+1], dims[k])."""

    layer_dims: list
    weights: list
    biases: list

    def __post_init__(self):
        dims = self.layer_dims
        if len(dims) < 2:
            raise ShapeMismatch("need at least input and output dimensions")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ShapeMismatch("parameter count does not match layer_dims")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[k + 1], dims[k]) or b.shape != (dims[k + 1],):
                raise ShapeMismatch(f"layer {k}: bad shapes {w.shape}, {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ShapeMismatch(f"layer {k}: nonfinite parameters")

    @property
    def n_layers(self):
        return len(self.weights)

    @property
    def n_hidden_layers(self):
        return len(self.weights) - 1

    @property
    def hidden_dims(self):
        return self.layer_dims[1:-1]

    @property
    def n_inputs(self):
        return self.layer_dims[0]

    @property
    def n_outputs(self):
        return self.layer_dims[-1]

    def copy(self):
        return MlpParams(layer_dims=list(self.layer_dims),
                         weights=[w.copy() for w in self.weights],
                         biases=[b.copy() for b in self.biases])


@dataclass
class ForwardTrace:
    """Per-layer intermediate values of one forward pass."""

    preactivations: list   # hidden layers, before ReLU
    activations: list      # hidden layers, after ReLU
    pattern: list          # hidden layers, preactivation > 0
    output: np.ndarray


def init_params(layer_dims, seed) -> MlpParams:
    """Glorot-uniform weights, zero biases, seeded."""
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(layer_dims=list(layer_dims), weights=weights, biases=biases)


def forward(params, x) -> ForwardTrace:
    """Evaluate one input vector, recording preactivations and the pattern."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != params.n_inputs:
        raise ShapeMismatch(f"expected {params.n_inputs} inputs, got {x.shape[0]}")
    z = x
    preacts = []
    acts = []
    pattern = []
    for k in range(params.n_hidden_layers):
        s = params.weights[k] @ z + params.biases[k]
        z = np.maximum(s, 0.0)
        preacts.append(s)
        acts.append(z)
        pattern.append(s > 0.0)
    out = params.weights[-1] @ z + params.biases[-1]
    return ForwardTrace(preactivations=preacts, activations=acts,
                        pattern=pattern, output=out)


def forward_batch(params, x):
    """Vectorized forward over rows of x; returns (preacts, acts, outputs)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.n_inputs:
        raise ShapeMismatch(f"expected (N, {params.n_inputs}) inputs, got {x.shape}")
    z = x
    preacts = []
    acts = []
    for k in range(params.n_hidden_layers):
        s = z @ params.weights[k].T + params.biases[k]
        z = np.maximum(s, 0.0)
        preacts.append(s)
        acts.append(z)
    out = z @ params.weights[-1].T + params.biases[-1]
    return preacts, acts, out
