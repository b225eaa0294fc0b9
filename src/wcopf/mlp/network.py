"""Small dense ReLU networks with a linear output layer.

A parameter-shaped stack (parameters, gradients, Fisher diagonals) is one
contiguous float64 vector ``vec``: every weight matrix in layer order,
row-major, then every bias.  ``weights[k]`` and ``biases[k]`` are views
of it, so per-layer code sees layers and Adam sees one vector.

forward_batch is the one loop over the layers that evaluates a net:
forward, for one input vector, is its first row.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch


class FlatStack:
    """layer_dims plus the flat vector and its per-layer views."""

    def __init__(self, layer_dims, vec):
        self.layer_dims = list(layer_dims)
        self.vec = vec
        self.weights = []
        self.biases = []
        at = 0
        for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            self.weights.append(vec[at:at + fan_out * fan_in].reshape(fan_out, fan_in))
            at += fan_out * fan_in
        for fan_out in self.layer_dims[1:]:
            self.biases.append(vec[at:at + fan_out])
            at += fan_out

    def layer_parts(self, first):
        """Two slices of vec: the weights, then the biases, of layers first..last."""
        n_w = sum(w.size for w in self.weights)
        return (slice(sum(w.size for w in self.weights[:first]), n_w),
                slice(n_w + sum(b.size for b in self.biases[:first]), None))


class MlpParams(FlatStack):
    """Network parameters; weights[k] has shape (dims[k+1], dims[k]).  Per-layer
    lists are checked and packed into vec; from_vec wraps a checked vector."""

    def __init__(self, layer_dims, weights, biases):
        dims = layer_dims
        if len(dims) < 2:
            raise ShapeMismatch("need at least input and output dimensions")
        if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
            raise ShapeMismatch("parameter count does not match layer_dims")
        for k, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (dims[k + 1], dims[k]) or b.shape != (dims[k + 1],):
                raise ShapeMismatch(f"layer {k}: bad shapes {w.shape}, {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ShapeMismatch(f"layer {k}: nonfinite parameters")
        super().__init__(dims, np.concatenate([np.ravel(a) for a in (*weights, *biases)],
                                              dtype=float))

    @classmethod
    def from_vec(cls, layer_dims, vec):
        params = cls.__new__(cls)
        FlatStack.__init__(params, layer_dims, vec)
        return params

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
        return MlpParams.from_vec(self.layer_dims, self.vec.copy())


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
    """Evaluate one input vector: row 0 of forward_batch, plus the pattern."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != params.n_inputs:
        raise ShapeMismatch(f"expected {params.n_inputs} inputs, got {x.shape[0]}")
    preacts, acts, out = forward_batch(params, x[None])
    preacts = [s[0] for s in preacts]
    return ForwardTrace(preactivations=preacts, activations=[z[0] for z in acts],
                        pattern=[s > 0.0 for s in preacts], output=out[0])


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
