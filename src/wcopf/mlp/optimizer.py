"""Adam (Kingma & Ba, arXiv:1412.6980), elementwise over the flat vectors
MlpParams.vec, Gradients.vec and the two moments, which share one layout."""

from dataclasses import dataclass

import numpy as np

from ..errors import TrainingDiverged

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
    """One Adam descent step, in place: updates state.m, state.v and
    params.vec (so every view of it) and returns (params, state).

    Raises TrainingDiverged when a new parameter is nonfinite; params
    and state then hold that step's values.  A caller that needs the
    parameters from before a step keeps params.copy().
    """
    t = state.step + 1
    g = grads.vec
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    m, v, vec = state.m, state.v, params.vec
    m *= BETA1
    m += (1.0 - BETA1) * g
    tmp = (1.0 - BETA2) * g
    tmp *= g
    v *= BETA2
    v += tmp
    step = m / bc1
    step *= alpha
    den = np.divide(v, bc2, out=tmp)
    np.sqrt(den, out=den)
    den += EPS
    step /= den
    vec -= step
    state.step = t
    if not np.isfinite(vec).all():
        raise TrainingDiverged(f"nonfinite parameters after Adam step {t}")
    return params, state
