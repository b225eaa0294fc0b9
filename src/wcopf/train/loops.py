"""Training loops: plain regression, penalty training, worst-case training.

All three modes share one loop.  The worst-case mode runs the verifier
on the current parameters once per scheduled epoch and adds the
envelope gradient of the certified violation to that epoch's update, so
a run with lambda_wc = 0 (or with nothing to violate) reproduces plain
training bit for bit.
"""

import time
from dataclasses import dataclass, fields

import numpy as np

from ..errors import TrainingDiverged
from ..grid.dataset import box_input_scaler, gen_output_scaler
from ..grid.sampling import DATA_BOX
from ..mlp.checkpoint import params_checksum
from ..mlp.losses import Gradients, LossSpec, gradient, loss_mae
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
        """Every field that is not None."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: value for name, value in doc.items() if value is not None}


@dataclass
class TrainReport:
    mode: str
    records: list
    final_train_l0: float
    final_val_mae: float
    params_sha256: str
    layer_dims: tuple
    config: dict
    stopped: str = None        # sequential phase stop reason
    final_test_mae: float = None   # None when the test split is empty
    # the final certificate (final_verification); all None when the mode
    # never verifies
    final_v_g: float = None
    final_v_g_raw: float = None    # final_v_g in raw output units
    final_bound: float = None      # certified upper bound on the violation
    final_status: str = None       # "certified" or "gap_remaining"
    warning: str = None        # why final_v_g is only a lower bound

    def v_g_epochs(self):
        return [r.epoch for r in self.records if r.v_g is not None]


def scaled_boxes(grid, fractions=DATA_BOX):
    """(demand box, generator box): the images of [lo, hi] * nominal for
    fractions (lo, hi) under box_input_scaler(grid) and of [p_min, p_max]
    under gen_output_scaler(grid).  A fixed generator (p_min == p_max) or
    a load of nominal 0 gets scale 1, so its side has width 0."""
    lo, hi = fractions
    nominal = grid.nominal_demand()
    p_min = np.array([g.p_min for g in grid.generators], dtype=float)
    p_max = np.array([g.p_max for g in grid.generators], dtype=float)
    inputs, outputs = box_input_scaler(grid), gen_output_scaler(grid)
    return (Box(inputs.transform(lo * nominal), inputs.transform(hi * nominal)),
            Box(outputs.transform(p_min), outputs.transform(p_max)))


def _boxes_of(dataset, box, gen_bounds):
    """(box, gen_bounds), each one given as None taken from
    scaled_boxes(dataset.grid); ValueError if it is None and there is no grid."""
    if box is not None and gen_bounds is not None:
        return box, gen_bounds
    if dataset.grid is None:
        raise ValueError("a dataset without a grid needs explicit boxes")
    grid_box, grid_gen_box = scaled_boxes(dataset.grid)
    return (grid_box if box is None else box,
            grid_gen_box if gen_bounds is None else gen_bounds)


def scaled_gen_box(dataset):
    """The generator box of scaled_boxes(dataset.grid)."""
    return _boxes_of(dataset, None, None)[1]


def raw_violation(cert, output_scaler):
    """A certificate's value in raw output units (MW with grid scalers)."""
    if cert.constraint_id is None:
        return 0.0
    g, _ = cert.constraint_id
    return cert.value * float(output_scaler.scale[g])


def final_verification(params, box, gen_bounds, node_limit, output_scaler):
    """The TrainReport fields of a run's final certificate: final_v_g,
    final_v_g_raw, final_bound, final_status and warning.

    A certificate with a gap left (final_status "gap_remaining": the
    node limit or a node LP that broke down) keeps its incumbent value,
    which is only a lower bound on the worst violation, and warning is
    its WorstCaseCert.warning (None when certified).  It solves without a start,
    unlike the verifications inside a run: a started solve may end at another of
    the LPs' equal-valued vertices, and the report's certificate must be
    the one `wcopf verify` gives the returned parameters, bit for bit.
    """
    cert = solve_worst_case(params, box, gen_bounds, node_limit=node_limit)
    return {"final_v_g": cert.value, "final_v_g_raw": raw_violation(cert, output_scaler),
            "final_bound": cert.bound, "final_status": cert.status, "warning": cert.warning}


def _test_mae(params, dataset):
    xt, yt = dataset.scaled("test")
    return loss_mae(params, xt, yt) if xt.shape[0] else None


def _epoch_batches(xs, ys, batch_size, seed, epoch):
    """An epoch's minibatches (x, y): the whole split when batch_size is
    None or covers it, else consecutive slices of the rows in a seeded
    order, gathered once for the epoch."""
    n = xs.shape[0]
    if batch_size is None or batch_size >= n:
        yield xs, ys
        return
    order = np.random.default_rng((seed, 2, epoch)).permutation(n)
    xs, ys = xs[order], ys[order]
    for i in range(0, n, batch_size):
        yield xs[i:i + batch_size], ys[i:i + batch_size]


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
    if mode == "wcnn" or (mode == "gennn" and gen_bounds is None):
        box, gen_bounds = _boxes_of(dataset, box, gen_bounds)
    spec = LossSpec(mae_weight=config.lambda0,
                    gen_weight=config.lambda_g if mode == "gennn" else 0.0,
                    gen_lo=gen_bounds.lo if mode == "gennn" else None,
                    gen_hi=gen_bounds.hi if mode == "gennn" else None)

    params = init_params(dims, config.seed)
    state = adam_init(params)
    grads = Gradients.zeros_like(params)  # every step's gradient, overwritten
    records = []
    cert = None  # the last certificate, which starts the next verification

    for epoch in range(config.epochs):
        started = time.perf_counter()
        v_g = None
        warning = None
        wc_grads = None
        if use_wc and epoch >= config.warmup \
                and (epoch - config.warmup) % config.wc_every == 0:
            cert = solve_worst_case(params, box, gen_bounds,
                                    node_limit=config.node_limit, start=cert)
            v_g, warning = cert.value, cert.warning
            wc_grads = worst_case_gradient(params, cert, config.last_layer_only)
        for i, (xb, yb) in enumerate(_epoch_batches(xs, ys, config.batch_size,
                                                    config.seed, epoch)):
            gradient(params, xb, yb, spec, out=grads)
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

    final = {}
    if mode == "wcnn":
        final = final_verification(params, box, gen_bounds, config.node_limit,
                                   dataset.output_scaler)
    report = TrainReport(mode=mode, records=records,
                         final_train_l0=loss_mae(params, xs, ys),
                         final_val_mae=loss_mae(params, xv, yv),
                         params_sha256=params_checksum(params),
                         layer_dims=dims, config=config.to_dict(),
                         final_test_mae=_test_mae(params, dataset), **final)
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
    update.  Each verification starts from the last one's certificate
    (solve_worst_case's start): the net has moved by a few Adam steps
    since, so its root and bound LPs reuse that run's optimal bases.
    An uncertified solve (the node limit, or a node LP that broke down
    and was set aside) records its WorstCaseCert.warning on that epoch,
    and its incumbent gradient is still used; an uncertified final one
    sets the report's (final_verification), whose final_v_g is then a
    lower bound.  Boxes given as None are scaled_boxes(dataset.grid).
    """
    return _run_training(dataset, arch, config, "wcnn",
                         gen_bounds=gen_bounds, box=box)
