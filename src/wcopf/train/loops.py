"""Training loops: plain regression, penalty training, worst-case training.

All three modes share one loop.  The worst-case mode runs the verifier
on the current parameters once per scheduled epoch and adds the
envelope gradient of the certified violation to that epoch's update, so
a run with lambda_wc = 0 (or with nothing to violate) reproduces plain
training bit for bit.
"""

import time
from dataclasses import dataclass

import numpy as np

from ..errors import NumericalBreakdown, TrainingDiverged
from ..mlp.checkpoint import params_checksum
from ..mlp.losses import LossSpec, gradient, loss_mae
from ..mlp.network import init_params
from ..mlp.optimizer import adam_init, adam_step
from ..verifier.bounds import Box
from ..verifier.gradient import worst_case_gradient
from ..verifier.milp import solve_worst_case
from .config import TrainConfig

MODES = ("nn", "gennn", "wcnn")


@dataclass
class EpochRecord:
    epoch: int
    train_l0: float
    val_mae: float
    v_g: float = None          # only on epochs where the verifier ran
    warning: str = None
    wall_time: float = 0.0     # seconds; excluded from determinism checks

    def to_dict(self):
        doc = {"epoch": self.epoch, "train_l0": self.train_l0,
               "val_mae": self.val_mae, "wall_time": self.wall_time}
        if self.v_g is not None:
            doc["v_g"] = self.v_g
        if self.warning is not None:
            doc["warning"] = self.warning
        return doc


@dataclass
class TrainReport:
    mode: str
    records: list
    final_train_l0: float
    final_val_mae: float
    final_v_g: float           # None when the mode never verifies
    params_sha256: str
    layer_dims: tuple
    config: dict
    stopped: str = None        # sequential phase stop reason
    final_test_mae: float = None   # None when the test split is empty
    final_v_g_raw: float = None    # final_v_g in raw output units
    warning: str = None        # why final_v_g is None although verified, or
                               # why it is only a lower bound

    def v_g_epochs(self):
        return [r.epoch for r in self.records if r.v_g is not None]


def unit_box(dim):
    """Scaled input region: the bounds the sampler fills."""
    return Box(np.zeros(dim), np.ones(dim))


def scaled_gen_box(dataset):
    """Generator bounds in the dataset's scaled output units.

    With grid-derived scalers the outputs are fractions of capacity and
    with fitted scalers they are min-max normalized; either way [0, 1]
    is the feasible band the targets live in.
    """
    n = dataset.n_outputs
    return Box(np.zeros(n), np.ones(n))


def raw_violation(cert, output_scaler):
    """Certified violation in raw output units (MW with grid scalers)."""
    if cert.value <= 0.0 or cert.constraint_id is None:
        return 0.0
    g, _ = cert.constraint_id
    return cert.value * float(output_scaler.scale[g])


def final_verification(solve, params, box, gen_bounds, node_limit,
                       output_scaler):
    """(final_v_g, final_v_g_raw, warning) of a run's final certificate.

    solve is the caller's own binding of solve_worst_case, so a patch of
    that module's name (a test's, or perfbench's tracer) sees the call.
    A solver breakdown gives (None, None, warning).  A certificate that
    stopped at the node limit keeps its incumbent value, which is only a
    lower bound on the worst violation, and its warning gives the
    certified upper bound; a certified one has no warning.
    """
    try:
        cert = solve(params, box, gen_bounds, node_limit=node_limit)
    except NumericalBreakdown as exc:
        return None, None, f"final verification failed ({exc})"
    warning = None
    if not cert.certified:
        warning = (f"final verification stopped at the node limit: v_g "
                   f"{cert.value:.6g} is a lower bound; the worst violation "
                   f"is at most bound {cert.bound:.6g}")
    return cert.value, raw_violation(cert, output_scaler), warning


def _test_mae(params, dataset):
    xt, yt = dataset.scaled("test")
    return loss_mae(params, xt, yt) if xt.shape[0] else None


def _epoch_batches(n, batch_size, seed, epoch):
    if batch_size is None or batch_size >= n:
        return [slice(None)]
    order = np.random.default_rng((seed, 2, epoch)).permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def _run_training(dataset, arch, config: TrainConfig, mode,
                  gen_bounds=None, box=None):
    if mode not in MODES:
        raise ValueError(f"unknown training mode {mode!r}")
    xs, ys = dataset.scaled("train")
    xv, yv = dataset.scaled("val")
    if xs.shape[0] == 0 or xv.shape[0] == 0:
        raise ValueError("dataset needs nonempty train and val splits")
    dims = (xs.shape[1], *tuple(int(h) for h in arch), ys.shape[1])

    use_wc = mode == "wcnn" and config.lambda_wc > 0
    if gen_bounds is None and mode in ("gennn", "wcnn"):
        gen_bounds = scaled_gen_box(dataset)
    if box is None and mode == "wcnn":
        box = unit_box(dims[0])
    spec = LossSpec(mae_weight=config.lambda0,
                    gen_weight=config.lambda_g if mode == "gennn" else 0.0,
                    gen_lo=gen_bounds.lo if mode == "gennn" else None,
                    gen_hi=gen_bounds.hi if mode == "gennn" else None)

    params = init_params(dims, config.seed)
    state = adam_init(params)
    records = []

    for epoch in range(config.epochs):
        started = time.perf_counter()
        v_g = None
        warning = None
        wc_grads = None
        if use_wc and epoch >= config.warmup \
                and (epoch - config.warmup) % config.wc_every == 0:
            try:
                cert = solve_worst_case(params, box, gen_bounds,
                                        node_limit=config.node_limit)
            except NumericalBreakdown as exc:
                warning = (f"verifier failed ({exc}); "
                           "no worst-case gradient this epoch")
            else:
                v_g = cert.value
                if not cert.certified:
                    warning = ("verifier stopped at the node limit with gap "
                               f"{cert.gap:.3e}; using the incumbent witness")
                wc_grads = worst_case_gradient(params, cert,
                                               config.last_layer_only)
        for i, idx in enumerate(_epoch_batches(xs.shape[0], config.batch_size,
                                               config.seed, epoch)):
            grads = gradient(params, xs[idx], ys[idx], spec)
            if wc_grads is not None and i == 0:
                grads.add(wc_grads, config.lambda_wc)
            try:
                params, state = adam_step(params, grads, state, config.alpha)
            except TrainingDiverged as exc:
                raise TrainingDiverged(f"{exc} in epoch {epoch}") from None
        train_l0 = loss_mae(params, xs, ys)
        val_mae = loss_mae(params, xv, yv)
        if not np.isfinite(train_l0 + val_mae):
            raise TrainingDiverged(f"nonfinite loss at epoch {epoch}")
        records.append(EpochRecord(epoch=epoch, train_l0=train_l0,
                                   val_mae=val_mae, v_g=v_g, warning=warning,
                                   wall_time=time.perf_counter() - started))

    final_v_g = final_v_g_raw = warning = None
    if mode == "wcnn":
        final_v_g, final_v_g_raw, warning = final_verification(
            solve_worst_case, params, box, gen_bounds, config.node_limit,
            dataset.output_scaler)
    report = TrainReport(mode=mode, records=records,
                         final_train_l0=loss_mae(params, xs, ys),
                         final_val_mae=loss_mae(params, xv, yv),
                         final_v_g=final_v_g,
                         params_sha256=params_checksum(params),
                         layer_dims=dims, config=config.to_dict(),
                         final_test_mae=_test_mae(params, dataset),
                         final_v_g_raw=final_v_g_raw, warning=warning)
    return params, report


def train_standard(dataset, arch, config: TrainConfig):
    """Plain regression on the scaled targets."""
    return _run_training(dataset, arch, config, "nn")


def train_gennn(dataset, arch, config: TrainConfig, gen_bounds=None):
    """Regression plus the squared-hinge generator-bound penalty."""
    return _run_training(dataset, arch, config, "gennn", gen_bounds=gen_bounds)


def train_wcnn(dataset, gen_bounds, arch, config: TrainConfig, box=None):
    """Regression plus the certified worst-case violation term.

    The first `warmup` epochs run the plain loss; afterwards every
    wc_every-th epoch solves the verification problem on the current
    parameters and adds lambda_wc times the envelope gradient to the
    update.  An uncertified solve (node limit) is recorded as a warning
    on that epoch and its incumbent gradient is still used; a solver
    breakdown is recorded as a warning and that epoch runs the plain
    loss.  A breakdown in the final certificate leaves final_v_g None
    and sets the report's warning; so does a final certificate that
    stops at the node limit, whose final_v_g is then a lower bound
    (final_verification).
    """
    return _run_training(dataset, arch, config, "wcnn",
                         gen_bounds=gen_bounds, box=box)
