"""Sequential fine-tuning that drives down the certified worst case.

Starting from trained parameters, each iteration solves the
verification problem, takes the envelope gradient of the violation and
moves the parameters while an anchor term (diagonal Fisher curvature
around the starting point) keeps the fit from drifting.  The anchor
term is handled implicitly: the update minimizes

    ||q - p||^2 / (2 alpha) + lambda_wc g . q + lambda_ewc sum F (q - a)^2

in closed form per coordinate, which stays stable for arbitrarily
large lambda_ewc (the explicit gradient step does not) and reduces to
plain gradient descent at lambda_ewc = 0.
"""

import time

import numpy as np

from ..errors import TrainingDiverged
from ..mlp.fisher import fisher_diag
from ..mlp.losses import loss_mae
from ..mlp.network import MlpParams
from ..verifier.gradient import worst_case_gradient
from ..verifier.milp import solve_worst_case
from .config import TrainConfig
from .loops import (EpochRecord, TrainReport, _boxes_of, _test_mae,
                    final_verification)
from ..mlp.checkpoint import params_checksum

STOP_NO_VIOLATION = "no violation"
STOP_NO_WITNESS = "gap without witness"
STOP_VALIDATION_GUARD = "validation guard"
STOP_MAX_ITERS = "max iterations"


def _anchor_step(params, wc_grads, fisher, config: TrainConfig):
    """Closed-form proximal update; untouched layers are copied."""
    a = config.alpha
    lam_w = config.lambda_wc
    lam_e = config.lambda_ewc
    first = params.n_layers - 1 if config.last_layer_only else 0
    vec = params.vec.copy()
    for part in params.layer_parts(first):
        f = fisher.vec[part]
        vec[part] = ((params.vec[part] - a * lam_w * wc_grads.vec[part]
                      + 2.0 * a * lam_e * f * fisher.anchor.vec[part])
                     / (1.0 + 2.0 * a * lam_e * f))
    if not np.isfinite(vec).all():
        raise TrainingDiverged("nonfinite parameters after a fine-tune step")
    return MlpParams.from_vec(params.layer_dims, vec)


def finetune_sequential(params, dataset, gen_bounds, config: TrainConfig,
                        box=None):
    """Iteratively reduce the certified violation of trained parameters.

    Stops on "no violation" at a certified verification without a
    witness, on "gap without witness" at an uncertified one (the node
    limit, or a node LP that broke down): its v_g 0 is only a lower
    bound, and with no witness there is no gradient to follow.  Also
    stops when validation MAE rises more than early_stop_rel above its
    starting value (that update is discarded), or after max_iters
    updates.  Every record carries its verification's
    WorstCaseCert.warning, and an uncertified verification with a
    witness still moves the parameters along its incumbent gradient; an
    uncertified final certificate sets the report's warning
    (final_verification).
    Records v_g and validation MAE at the top of every iteration.  Each
    iteration's verification starts from the certificate of the one
    before (solve_worst_case's start), whose LP bases serve the moved
    parameters' root and bound LPs.  Boxes given as None are
    scaled_boxes(dataset.grid).
    """
    xs, ys = dataset.scaled("train")
    xv, yv = dataset.scaled("val")
    if xs.shape[0] == 0 or xv.shape[0] == 0:
        raise ValueError("dataset needs nonempty train and val splits")
    box, gen_bounds = _boxes_of(dataset, box, gen_bounds)
    fisher = fisher_diag(params, xs, ys)
    params = params.copy()
    mae_start = loss_mae(params, xv, yv)
    guard = mae_start * (1.0 + config.early_stop_rel)

    records = []
    stopped = STOP_MAX_ITERS
    cert = None  # the last certificate, which starts the next verification
    for it in range(config.max_iters):
        started = time.perf_counter()
        val_mae = loss_mae(params, xv, yv)
        cert = solve_worst_case(params, box, gen_bounds,
                                node_limit=config.node_limit, start=cert)
        records.append(EpochRecord(epoch=it, train_l0=loss_mae(params, xs, ys),
                                   val_mae=val_mae, v_g=cert.value, warning=cert.warning,
                                   wall_time=time.perf_counter() - started))
        if cert.witness is None:
            stopped = STOP_NO_VIOLATION if cert.certified else STOP_NO_WITNESS
            break
        wc_grads = worst_case_gradient(params, cert, config.last_layer_only)
        candidate = _anchor_step(params, wc_grads, fisher, config)
        if loss_mae(candidate, xv, yv) > guard:
            stopped = STOP_VALIDATION_GUARD
            break
        params = candidate

    final = final_verification(params, box, gen_bounds, config.node_limit,
                               dataset.output_scaler)
    report = TrainReport(mode="finetune", records=records,
                         final_train_l0=loss_mae(params, xs, ys),
                         final_val_mae=loss_mae(params, xv, yv),
                         params_sha256=params_checksum(params),
                         layer_dims=tuple(params.layer_dims),
                         config=config.to_dict(), stopped=stopped,
                         final_test_mae=_test_mae(params, dataset), **final)
    return params, report
