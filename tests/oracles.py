"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive: brute-force enumeration, plain
Python loops, and textbook formulas.  The implementations under test
must agree with these up to stated tolerances.
"""

import itertools

import numpy as np


def lp_vertex_enumeration(c, a_eq, b_eq, a_ub, b_ub, lo, hi, feas_tol=1e-9):
    """Maximize c @ x over a bounded polytope by enumerating basic points.

    Stacks every constraint (equalities, inequalities, finite bounds) and
    solves all n-subsets that include the equalities.  Returns
    (status, best_x, best_val) with status in {"optimal", "infeasible"}.
    All variables must have finite lower and upper bounds so the feasible
    set is bounded and, when nonempty, has a vertex.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    rows = []
    rhs = []
    eq_idx = []
    for i in range(len(b_eq)):
        eq_idx.append(len(rows))
        rows.append(np.asarray(a_eq[i], dtype=float))
        rhs.append(float(b_eq[i]))
    for i in range(len(b_ub)):
        rows.append(np.asarray(a_ub[i], dtype=float))
        rhs.append(float(b_ub[i]))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(e.copy())
        rhs.append(float(hi[j]))
        rows.append(e)
        rhs.append(float(lo[j]))
    rows = np.array(rows)
    rhs = np.array(rhs)
    free_idx = [i for i in range(len(rows)) if i not in eq_idx]

    def feasible(x):
        if np.any(x < np.asarray(lo) - feas_tol) or np.any(x > np.asarray(hi) + feas_tol):
            return False
        for i in eq_idx:
            if abs(rows[i] @ x - rhs[i]) > feas_tol * (1.0 + abs(rhs[i])):
                return False
        for i in range(len(b_eq), len(b_eq) + len(b_ub)):
            if rows[i] @ x > rhs[i] + feas_tol * (1.0 + abs(rhs[i])):
                return False
        return True

    best_val = -np.inf
    best_x = None
    need = n - len(eq_idx)
    if need < 0:
        return "infeasible", None, -np.inf
    for combo in itertools.combinations(free_idx, need):
        idx = eq_idx + list(combo)
        mat = rows[idx]
        try:
            x = np.linalg.solve(mat, rhs[idx])
        except np.linalg.LinAlgError:
            continue
        if not feasible(x):
            continue
        val = float(c @ x)
        if val > best_val + 1e-12:
            best_val = val
            best_x = x
    if best_x is None:
        return "infeasible", None, -np.inf
    return "optimal", best_x, best_val


def naive_forward(weights, biases, x):
    """Per-neuron loop forward pass through a ReLU MLP with linear output."""
    z = [float(v) for v in x]
    n_layers = len(weights)
    for k in range(n_layers):
        w = weights[k]
        b = biases[k]
        out = []
        for i in range(w.shape[0]):
            s = float(b[i])
            for j in range(w.shape[1]):
                s += float(w[i, j]) * z[j]
            if k < n_layers - 1:
                s = max(s, 0.0)
            out.append(s)
        z = out
    return np.array(z)


def central_difference(f, x0, h):
    """Central finite-difference gradient of a scalar function of a vector."""
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def ptdf_reference(n_bus, lines, slack):
    """PTDF from the reduced susceptance matrix, built row by row.

    `lines` is a list of (from_bus, to_bus, susceptance) with 0-based bus
    indices.  Returns an (n_lines, n_bus) array with a zero slack column.
    """
    bmat = np.zeros((n_bus, n_bus))
    for f, t, b in lines:
        bmat[f, f] += b
        bmat[t, t] += b
        bmat[f, t] -= b
        bmat[t, f] -= b
    keep = [i for i in range(n_bus) if i != slack]
    b_red = bmat[np.ix_(keep, keep)]
    bf = np.zeros((len(lines), n_bus))
    for l, (f, t, b) in enumerate(lines):
        bf[l, f] = b
        bf[l, t] = -b
    ptdf = np.zeros((len(lines), n_bus))
    ptdf[:, keep] = bf[:, keep] @ np.linalg.inv(b_red)
    return ptdf


def seeded_net(seed, dims, bias_scale=0.3):
    """Glorot net with bias noise so ReLU kinks sit inside typical boxes."""
    from wcopf.mlp import MlpParams, init_params

    rng = np.random.default_rng((seed, 7))
    base = init_params(dims, seed)
    biases = [b + bias_scale * rng.standard_normal(b.shape) for b in base.biases]
    return MlpParams(dims, [w.copy() for w in base.weights], biases)


def probe_output_range(params, box, n_probe=64, seed=0):
    """Empirical per-output min/max over box corners and random points."""
    from wcopf.mlp import forward_batch

    rng = np.random.default_rng((seed, 11))
    pts = [box.lo, box.hi, box.midpoint()]
    if box.dim <= 8:
        for bits in range(2 ** box.dim):
            mask = np.array([(bits >> i) & 1 for i in range(box.dim)], dtype=float)
            pts.append(box.lo + mask * (box.hi - box.lo))
    pts.append(rng.uniform(box.lo, box.hi, size=(n_probe, box.dim)))
    pts = np.vstack([np.atleast_2d(p) for p in pts])
    out = forward_batch(params, pts)[2]
    return out.min(axis=0), out.max(axis=0)


def bounds_around_outputs(params, box, seed, frac_hi=0.7, frac_lo=-10.0):
    """Generator bounds placed a fraction into the observed output range.

    frac_hi < 1 leaves part of the range above the upper bound, so upper
    violations exist; frac_lo > 0 similarly creates lower violations.
    frac_hi well above 1 with frac_lo well below 0 usually yields none.
    """
    from wcopf.verifier import Box

    dn, up = probe_output_range(params, box, seed=seed)
    span = np.maximum(up - dn, 1e-3)
    hi = dn + frac_hi * span
    lo = dn + frac_lo * span
    return Box(lo, hi)


def toy_dataset(seed, n=120, n_in=2, n_out=2, response=None):
    """Small dataset with affine targets and identity scalers.

    Inputs are uniform on the unit box; targets are response @ d rows
    (a map a trained net can realize exactly).  It has no grid, so a
    call that verifies needs its boxes given (unit_box).
    """
    from wcopf.grid.dataset import Dataset, Scaler

    rng = np.random.default_rng((seed, 23))
    d = rng.uniform(0.0, 1.0, size=(n, n_in))
    if response is None:
        response = rng.uniform(0.1, 1.0, size=(n_out, n_in))
        response *= 0.8 / response.sum(axis=1, keepdims=True)
    g = d @ np.asarray(response, dtype=float).T
    n_tr = int(round(0.7 * n))
    n_va = int(round(0.1 * n))
    split = np.array(["train"] * n_tr + ["val"] * n_va
                     + ["test"] * (n - n_tr - n_va))
    return Dataset(inputs=d, targets=g, split=split,
                   input_scaler=Scaler(np.zeros(n_in), np.ones(n_in)),
                   output_scaler=Scaler(np.zeros(n_out), np.ones(n_out)))


def unit_box(dim):
    """[0, 1]^dim: the demand box and the generator limits of a
    hand-built dataset, whose identity scalers put both there."""
    from wcopf.verifier import Box

    return Box(np.zeros(dim), np.ones(dim))


def in_box(box, x, tol):
    """lo - tol <= x <= hi + tol in every coordinate."""
    x = np.asarray(x, dtype=float)
    return bool(np.all(box.lo - tol <= x) and np.all(x <= box.hi + tol))


def grid_fixture(case, n=200, seed=0):
    """Dataset plus scaled input/output boxes for a builtin grid."""
    from wcopf.grid import builtin_grid, generate_dataset
    from wcopf.train import scaled_boxes

    data = generate_dataset(builtin_grid(case), n, seed=seed)
    box, gen_box = scaled_boxes(data.grid)
    return data, gen_box, box


def midband_dataset(seed=11, n=120):
    """Targets confined to [0.3, 0.7]: trained nets stay inside the unit
    output bounds over the whole input box, so v_g = 0.  It has no grid,
    like toy_dataset."""
    from wcopf.grid.dataset import Dataset, Scaler

    rng = np.random.default_rng((seed, 29))
    d = rng.uniform(0.0, 1.0, size=(n, 2))
    g = 0.3 + 0.2 * (d[:, :1] + d[:, 1:2]) * np.ones((1, 2))
    n_tr = int(round(0.7 * n))
    n_va = int(round(0.1 * n))
    split = np.array(["train"] * n_tr + ["val"] * n_va
                     + ["test"] * (n - n_tr - n_va))
    ident = Scaler(np.zeros(2), np.ones(2))
    return Dataset(inputs=d, targets=g, split=split,
                   input_scaler=ident, output_scaler=ident)


MAX_HIDDEN_UNITS = 16


class TooLarge(Exception):
    """Network too large for exhaustive pattern enumeration."""


def brute_force_worst_case(params, box, gen_bounds):
    """Exact (value, witness, constraint_id) of the worst margin.

    Ground truth for small networks: ReLU on/off patterns are enumerated
    neuron by neuron, carrying the affine form of each layer along the
    recursion, and the margin is maximized by LP inside every nonempty
    linear region.  A prefix whose region is already empty prunes its
    whole subtree, so the work scales with the number of linear regions
    that meet the box rather than with 2^H.

    value is the unclipped maximum margin over the box; negative means
    no constraint can be violated anywhere.  Raises TooLarge past
    MAX_HIDDEN_UNITS hidden units.
    """
    from wcopf.simplex import LpProblem, LpStatus, solve_lp
    from wcopf.verifier import candidate_constraints

    h_total = int(sum(params.hidden_dims))
    if h_total > MAX_HIDDEN_UNITS:
        raise TooLarge(f"{h_total} hidden units exceed the brute-force "
                       f"limit of {MAX_HIDDEN_UNITS}")
    if box.dim != params.n_inputs:
        raise ValueError("box dimension does not match network inputs")
    if gen_bounds.dim != params.n_outputs:
        raise ValueError("generator bounds do not match network outputs")

    n = box.dim
    candidates = candidate_constraints(params.n_outputs)
    best = [-np.inf, None, None]
    rows = []
    rhs = []

    def region_nonempty():
        sol = solve_lp(LpProblem(c=np.zeros(n), a_ub=np.array(rows),
                                 b_ub=np.array(rhs), lo=box.lo, hi=box.hi))
        return sol.status == LpStatus.OPTIMAL

    def leaf(a_act, c_act):
        a_out = params.weights[-1] @ a_act
        c_out = params.weights[-1] @ c_act + params.biases[-1]
        a_ub = np.array(rows) if rows else None
        b_ub = np.array(rhs) if rows else None
        for g, side in candidates:
            if side == "upper":
                c_vec = a_out[g]
                const = float(c_out[g] - gen_bounds.hi[g])
            else:
                c_vec = -a_out[g]
                const = float(gen_bounds.lo[g] - c_out[g])
            sol = solve_lp(LpProblem(c=c_vec, a_ub=a_ub, b_ub=b_ub,
                                     lo=box.lo, hi=box.hi))
            if sol.status != LpStatus.OPTIMAL:
                continue
            val = float(sol.objective_value) + const
            if val > best[0]:
                best[0], best[1], best[2] = val, sol.x, (g, side)

    def descend_layer(k, a_act, c_act):
        if k == params.n_hidden_layers:
            leaf(a_act, c_act)
            return
        a_pre = params.weights[k] @ a_act
        c_pre = params.weights[k] @ c_act + params.biases[k]
        width = a_pre.shape[0]
        mask = np.zeros(width, dtype=bool)

        def descend_neuron(j):
            if j == width:
                m = mask.astype(float)
                descend_layer(k + 1, m[:, None] * a_pre, m * c_pre)
                return
            for bit in (False, True):
                mask[j] = bit
                if bit:
                    rows.append(-a_pre[j])
                    rhs.append(float(c_pre[j]))
                else:
                    rows.append(a_pre[j])
                    rhs.append(float(-c_pre[j]))
                if region_nonempty():
                    descend_neuron(j + 1)
                rows.pop()
                rhs.pop()

        descend_neuron(0)

    descend_layer(0, np.eye(n), np.zeros(n))
    return best[0], best[1], best[2]


def big_m_node_lp(params, box, lower, upper, fix):
    """The three-row big-M node LP of a ReLU net, as textbooks write it.

    lower and upper hold the preactivation bounds of each hidden layer.
    A unit with lower < 0 < upper gets an activation z in [0, upper] and
    an on/off y in [0, 1], pinned to fix[u] for a fixed unit (fix lists
    one entry per such unit in layer order: -1 free, 0 off, 1 on), and
    three rows over its preactivation s:

        z >= s,    z <= s - lower (1 - y),    z <= upper y.

    A unit with upper <= 0 is 0 and one with lower >= 0 is its
    preactivation.  Variables are [d | z per unit | y per unit].
    Returns (a_ub, b_ub, lo, hi, out), out[g] = (a, b) with the net's
    output g equal to a @ x + b.
    """
    n_in = params.n_inputs
    units = [(k, j) for k in range(params.n_hidden_layers)
             for j in range(len(lower[k])) if lower[k][j] < 0.0 < upper[k][j]]
    h = len(units)
    n = n_in + 2 * h
    lo = np.concatenate([box.lo, np.zeros(2 * h)])
    hi = np.concatenate([box.hi, np.zeros(h), np.ones(h)])
    rows, rhs = [], []
    act = [(np.eye(n)[i], 0.0) for i in range(n_in)]
    for k in range(params.n_hidden_layers):
        w, b = params.weights[k], params.biases[k]
        layer = []
        for j in range(w.shape[0]):
            a = sum(w[j, i] * act[i][0] for i in range(len(act)))
            c = b[j] + sum(w[j, i] * act[i][1] for i in range(len(act)))
            if upper[k][j] <= 0.0:
                layer.append((np.zeros(n), 0.0))
            elif lower[k][j] >= 0.0:
                layer.append((a, c))
            else:
                u = units.index((k, j))
                z, y = n_in + u, n_in + h + u
                hi[z] = upper[k][j]
                if fix[u] >= 0:
                    lo[y] = hi[y] = fix[u]
                row = a.copy()            # s - z <= 0
                row[z] -= 1.0
                rows.append(row)
                rhs.append(-c)
                row = -a                  # z - s - lower y <= -lower
                row[z] += 1.0
                row[y] -= lower[k][j]
                rows.append(row)
                rhs.append(c - lower[k][j])
                row = np.zeros(n)         # z - upper y <= 0
                row[z] = 1.0
                row[y] = -upper[k][j]
                rows.append(row)
                rhs.append(0.0)
                layer.append((np.eye(n)[z], 0.0))
        act = layer
    w, b = params.weights[-1], params.biases[-1]
    out = [(sum(w[g, i] * act[i][0] for i in range(len(act))),
            b[g] + sum(w[g, i] * act[i][1] for i in range(len(act))))
           for g in range(w.shape[0])]
    return np.array(rows).reshape(-1, n), np.array(rhs), lo, hi, out


def adam_per_array(weights, biases, grad_w, grad_b, moments, step, alpha,
                   beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step array by array, as the textbook writes it.

    moments is a list of (m, v) pairs, weights first and then biases in
    layer order.  Returns (new weights, new biases, new moments).
    """
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    new, new_moments = [], []
    for theta, g, (m, v) in zip(weights + biases, grad_w + grad_b, moments):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        new.append(theta - alpha * (m / bc1) / (np.sqrt(v / bc2) + eps))
        new_moments.append((m, v))
    return new[:len(weights)], new[len(weights):], new_moments


class NodeLpBreaker:
    """Stand-in for the verifier's solve_lp (``milp.solve_lp``) that
    numbers every node LP it is handed, from 1 over its whole life, and
    raises NumericalBreakdown for each number that broken(number) accepts,
    as the simplex does when it hits its iteration cap.  calls counts the
    node LPs and raised the ones it broke."""

    def __init__(self, broken):
        self.broken = broken
        self.calls = 0
        self.raised = 0

    def __call__(self, problem, start=None, cutoff=None):
        from wcopf.errors import NumericalBreakdown
        from wcopf.simplex import solve_lp

        self.calls += 1
        if self.broken(self.calls):
            self.raised += 1
            raise NumericalBreakdown("simplex iteration cap 10 exceeded")
        return solve_lp(problem, start=start, cutoff=cutoff)
