"""Adam (Kingma & Ba, arXiv:1412.6980), elementwise over the flat vectors
MlpParams.vec, Gradients.vec and the two moments, which share one layout."""

from dataclasses import dataclass

import numpy as np

from ..errors import TrainingDiverged
from .network import MlpParams

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray    # first moment, laid out like MlpParams.vec
    v: np.ndarray    # second moment
    step: int = 0


def adam_init(params) -> AdamState:
    return AdamState(m=np.zeros_like(params.vec), v=np.zeros_like(params.vec))


def adam_step(params, grads, state, alpha):
    """One Adam descent step; returns (new_params, new_state), or raises
    TrainingDiverged when a new parameter is nonfinite."""
    t = state.step + 1
    g = grads.vec
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    m = BETA1 * state.m + (1.0 - BETA1) * g
    v = BETA2 * state.v + (1.0 - BETA2) * g * g
    vec = params.vec - alpha * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    if not np.isfinite(vec).all():
        raise TrainingDiverged(f"nonfinite parameters after Adam step {t}")
    return MlpParams.from_vec(params.layer_dims, vec), AdamState(m=m, v=v, step=t)
