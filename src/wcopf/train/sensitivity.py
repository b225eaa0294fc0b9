"""Which layers move the worst-case violation the most.

Trains a plain network per seed, differentiates its certified worst
case with respect to every parameter, and averages the absolute
derivatives per layer; values are reported relative to the last layer.
"""

from dataclasses import dataclass

import numpy as np

from ..verifier.gradient import worst_case_gradient
from ..verifier.milp import solve_worst_case
from .config import TrainConfig
from .loops import _boxes_of, train_standard


@dataclass
class SensitivityReport:
    layer_values: list    # per layer, normalized so the last entry is 1.0
    n_seeds: int          # seeds that produced a violation to differentiate
    layer_dims: tuple

    def to_dict(self):
        return {"layer_values": [float(v) for v in self.layer_values],
                "n_seeds": int(self.n_seeds),
                "layer_dims": [int(d) for d in self.layer_dims]}


def _layer_means(grads):
    vals = []
    for w, b in zip(grads.weights, grads.biases):
        pooled = np.concatenate([np.abs(w).ravel(), np.abs(b).ravel()])
        vals.append(float(pooled.mean()))
    return vals


def layer_sensitivity(arch, dataset, gen_bounds, seeds,
                      config: TrainConfig = None, box=None):
    """Mean |d v_g / d theta| per layer, averaged over seeds.

    A seed whose certificate has no witness (v_g 0) has nothing to
    differentiate and is skipped; one with a gap left (the node limit, or
    a node LP that broke down) is differentiated at its incumbent witness.
    When no seed is kept, the error counts the skipped seeds whose gap may
    hide a violation.  Boxes given as None are scaled_boxes(dataset.grid).
    """
    if len(seeds) < 1:
        raise ValueError("at least one seed is required")
    if config is None:
        config = TrainConfig()
    box, gen_bounds = _boxes_of(dataset, box, gen_bounds)

    per_seed = []
    gaps = 0  # skipped seeds whose verification left a gap
    dims = None
    for seed in seeds:
        params, _ = train_standard(dataset, arch, config.replaced(seed=seed))
        dims = tuple(params.layer_dims)
        cert = solve_worst_case(params, box, gen_bounds,
                                node_limit=config.node_limit)
        if cert.witness is None:
            gaps += not cert.certified
            continue
        grads = worst_case_gradient(params, cert, last_layer_only=False)
        per_seed.append(_layer_means(grads))
    if not per_seed:
        reason = ("no seed produced a violating network" if not gaps else
                  f"no verification found a violation, but {gaps} left a gap")
        raise ValueError(f"{reason}; nothing to differentiate")
    mean_vals = np.mean(np.asarray(per_seed, dtype=float), axis=0)
    normalized = mean_vals / mean_vals[-1]
    return SensitivityReport(layer_values=[float(v) for v in normalized],
                             n_seeds=len(per_seed), layer_dims=dims)
