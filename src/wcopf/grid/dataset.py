"""Dispatch datasets: generation, CSV round-trip, scaling."""

import csv
import math
from dataclasses import dataclass

import numpy as np

from ..errors import SchemaError, TooManyInfeasible
from ..simplex import LpStatus
from .dcopf import basis_dispatch, dispatch_rows, solve_dcopf
from .ptdf import compute_ptdf
from .sampling import DATA_BOX, sample_demands_lhs

SPLITS = ("train", "val", "test")
SPLIT_FRACTIONS = (0.7, 0.1, 0.2)
RESAMPLE_FACTOR = 10
COVER_BLOCK = 128  # samples a basis covers at once; bounds the stacked arrays


@dataclass(frozen=True)
class Scaler:
    """Per-dimension affine map: scaled = (raw - offset) / scale."""

    offset: np.ndarray
    scale: np.ndarray

    def transform(self, raw):
        return (np.asarray(raw, dtype=float) - self.offset) / self.scale


def _guard_scale(scale):
    scale = np.asarray(scale, dtype=float).copy()
    scale[np.abs(scale) < 1e-12] = 1.0
    return scale


def box_input_scaler(grid):
    """Scaler mapping the demand sampling box DATA_BOX onto the unit hypercube."""
    nominal = grid.nominal_demand()
    lo, hi = DATA_BOX
    return Scaler(offset=lo * nominal, scale=_guard_scale((hi - lo) * nominal))


def gen_output_scaler(grid):
    """Scaler mapping each generator's [p_min, p_max] onto [0, 1]: a scaled
    dispatch is a fraction of the generator's range p_max - p_min above
    p_min (of p_max, where p_min is 0)."""
    p_min = np.array([g.p_min for g in grid.generators], dtype=float)
    p_max = np.array([g.p_max for g in grid.generators], dtype=float)
    return Scaler(offset=p_min, scale=_guard_scale(p_max - p_min))


@dataclass
class Dataset:
    inputs: np.ndarray        # (N, n_load) raw MW
    targets: np.ndarray       # (N, n_gen) raw MW
    split: np.ndarray         # (N,) entries from SPLITS
    input_scaler: Scaler
    output_scaler: Scaler
    grid: object = None       # the GridModel of the scalers; None if hand-built

    @property
    def n_inputs(self):
        return self.inputs.shape[1]

    @property
    def n_outputs(self):
        return self.targets.shape[1]

    def mask(self, split):
        return self.split == split

    def scaled(self, split):
        """(inputs, targets) of one split in scaled units."""
        m = self.mask(split)
        return (self.input_scaler.transform(self.inputs[m]),
                self.output_scaler.transform(self.targets[m]))


def split_sizes(n):
    n_train = int(round(SPLIT_FRACTIONS[0] * n))
    n_val = int(round(SPLIT_FRACTIONS[1] * n))
    n_train = min(n_train, n)
    n_val = min(n_val, n - n_train)
    return n_train, n_val, n - n_train - n_val


def generate_dataset(grid, n, seed) -> Dataset:
    """Sample demands, solve DC-OPF for each, and assemble a labeled dataset.

    Infeasible samples are discarded and replaced with fresh LHS batches
    drawn from follow-up seeds (seed + 1, seed + 2, ...).  Raises
    TooManyInfeasible once 10 n candidate samples have been tried.  Raises
    ValueError for n < 1, and SchemaError for a grid without loads, whose
    samples would have no inputs.

    The dispatch rows are built once, and a pool keeps every optimal
    basis found so far: an optimal basis stays optimal for every demand
    vector it keeps primal feasible.  Each batch is first covered by the
    pool, each sample taking the solution of the first basis in
    discovery order that serves it (basis_dispatch, which solves no LP).
    Only a sample that no basis serves gets a dispatch LP, warm-started
    from the newest basis; an optimal one joins the pool and covers the
    rest of the batch.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if grid.n_load == 0:
        raise SchemaError("grid has no loads; a dataset needs at least one demand input")
    ptdf = compute_ptdf(grid)
    rows = dispatch_rows(grid, ptdf)
    inputs = []
    targets = []
    tried = 0
    attempt = 0
    pool = []
    while len(inputs) < n:
        if tried >= RESAMPLE_FACTOR * n:
            raise TooManyInfeasible(
                f"{tried} samples tried, only {len(inputs)} of {n} feasible")
        batch = sample_demands_lhs(grid, n, seed + attempt, box=DATA_BOX)
        attempt += 1
        p = np.empty((len(batch), grid.n_gen))
        served = np.zeros(len(batch), dtype=bool)
        for basis in pool:
            _cover(rows, basis, batch, p, served, 0)
        for i, demands in enumerate(batch):
            if tried >= RESAMPLE_FACTOR * n:
                break
            tried += 1
            if not served[i]:
                sol = solve_dcopf(grid, ptdf, demands, start=pool[-1] if pool else None,
                                  rows=rows)
                if sol.status != LpStatus.OPTIMAL:
                    continue
                pool.append(sol.basis)
                p[i] = sol.p
                _cover(rows, sol.basis, batch, p, served, i + 1)
            inputs.append(demands)
            targets.append(p[i])
            if len(inputs) == n:
                break
    inputs = np.array(inputs)
    targets = np.array(targets)

    n_train, n_val, n_test = split_sizes(n)
    order = np.random.default_rng((seed, 1)).permutation(n)
    split = np.empty(n, dtype=object)
    split[order[:n_train]] = "train"
    split[order[n_train:n_train + n_val]] = "val"
    split[order[n_train + n_val:]] = "test"

    return Dataset(inputs=inputs, targets=targets, split=split,
                   input_scaler=box_input_scaler(grid),
                   output_scaler=gen_output_scaler(grid), grid=grid)


def _cover(rows, basis, batch, p, served, start):
    """Serve the unserved samples of batch[start:] that basis serves,
    COVER_BLOCK at a time, writing their dispatch into p."""
    todo = start + np.flatnonzero(~served[start:])
    for lo in range(0, len(todo), COVER_BLOCK):
        block = todo[lo:lo + COVER_BLOCK]
        x, ok = basis_dispatch(rows, basis, batch[block])
        p[block[ok]] = x[ok]
        served[block[ok]] = True


def save_dataset(dataset, path):
    """Write the dataset as CSV: d_0.., g_0.., split; floats round-trip exactly."""
    header = ([f"d_{i}" for i in range(dataset.n_inputs)]
              + [f"g_{i}" for i in range(dataset.n_outputs)] + ["split"])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        rows = zip(np.asarray(dataset.inputs, dtype=float).tolist(),
                   np.asarray(dataset.targets, dtype=float).tolist(), dataset.split)
        for d, g, split in rows:
            fh.write(",".join(map(repr, d + g)) + f",{split}\n")


def load_dataset(path, grid) -> Dataset:
    """Read a dataset CSV written by save_dataset for grid.

    The scalers are grid's own, box_input_scaler and gen_output_scaler,
    as generate_dataset gives them, whatever the rows hold.  Raises
    SchemaError for a malformed file, one without train or val rows, or
    one whose columns do not match grid's loads and generators.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        n_in = sum(1 for h in header if h.startswith("d_"))
        n_out = sum(1 for h in header if h.startswith("g_"))
        expected = ([f"d_{i}" for i in range(n_in)]
                    + [f"g_{i}" for i in range(n_out)] + ["split"])
        if header != expected or n_in == 0 or n_out == 0:
            raise SchemaError(f"{path}: malformed header {header}")
        inputs = []
        targets = []
        split = []
        for ln, row in enumerate(reader, start=2):
            if len(row) != n_in + n_out + 1:
                raise SchemaError(f"{path}: line {ln}: expected {n_in + n_out + 1} fields")
            try:
                vals = [float(v) for v in row[:n_in + n_out]]
            except ValueError as exc:
                raise SchemaError(f"{path}: line {ln}: {exc}") from None
            if not all(map(math.isfinite, vals)):
                raise SchemaError(f"{path}: line {ln}: nonfinite value")
            if row[-1] not in SPLITS:
                raise SchemaError(f"{path}: line {ln}: bad split label {row[-1]!r}")
            inputs.append(vals[:n_in])
            targets.append(vals[n_in:])
            split.append(row[-1])
    if not inputs:
        raise SchemaError(f"{path}: no data rows")
    for part in ("train", "val"):
        if part not in split:
            raise SchemaError(f"{path}: dataset has no {part} rows")
    if n_in != grid.n_load or n_out != grid.n_gen:
        raise SchemaError(
            f"{path}: dataset dimensions {n_in} -> {n_out} do not match the grid's "
            f"{grid.n_load} loads and {grid.n_gen} generators")
    return Dataset(inputs=np.array(inputs), targets=np.array(targets),
                   split=np.array(split, dtype=object),
                   input_scaler=box_input_scaler(grid),
                   output_scaler=gen_output_scaler(grid), grid=grid)
