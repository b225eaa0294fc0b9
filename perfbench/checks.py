"""Independent checks of wcopf's outputs, run after every timed region.

Certificates are compared with scipy.optimize.milp (HiGHS) on a big-M
encoding built here, with interval bounds computed here in centre/radius
form; nothing from wcopf.verifier is reused.  Dispatch targets are
compared with scipy.optimize.linprog on a DC-OPF built here from the grid
JSON, with its own PTDF.  Every function returns a list of problems; an
empty list means the output passed.
"""

import json

import numpy as np
from scipy.optimize import LinearConstraint, linprog, milp

TOL = 1e-6


def _layers(params):
    return [(np.asarray(w, float), np.asarray(b, float))
            for w, b in zip(params.weights, params.biases)]


def net_output(params, x):
    z = np.asarray(x, float)
    layers = _layers(params)
    for w, b in layers[:-1]:
        z = np.maximum(w @ z + b, 0.0)
    w, b = layers[-1]
    return w @ z + b


def _margin(out, gen_lo, gen_hi, g, side):
    return float(out[g] - gen_hi[g]) if side == "upper" else float(gen_lo[g] - out[g])


def _preact_bounds(layers, lo, hi):
    """Centre/radius interval propagation; bounds of each hidden preactivation."""
    centre, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
    out = []
    for w, b in layers[:-1]:
        c = w @ centre + b
        r = np.abs(w) @ radius
        out.append((c - r, c + r))
        a_lo, a_hi = np.maximum(c - r, 0.0), np.maximum(c + r, 0.0)
        centre, radius = 0.5 * (a_lo + a_hi), 0.5 * (a_hi - a_lo)
    return out


def highs_worst_case(params, lo, hi, gen_lo, gen_hi):
    """Exact worst violation by HiGHS: (optimum, point) with optimum >= 0.

    One MILP per (generator, side).  Variables are [x | z per unit | y per
    unit]; an unstable unit has z >= s, z <= s - l (1 - y), z <= u y.
    """
    layers = _layers(params)
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    bounds = _preact_bounds(layers, lo, hi)
    n_in = lo.size
    widths = [w.shape[0] for w, _ in layers[:-1]]
    h = sum(widths)
    n = n_in + 2 * h
    var_lo = np.concatenate([lo, np.zeros(2 * h)])
    var_hi = np.concatenate([hi, np.zeros(2 * h)])
    rows, r_lo, r_hi = [], [], []
    prev = np.arange(n_in)
    at = 0
    for (w, b), (l, u) in zip(layers[:-1], bounds):
        z_idx = n_in + at + np.arange(w.shape[0])
        for j in range(w.shape[0]):
            zj, yj = z_idx[j], n_in + h + at + j
            # s_j - z_j with s_j = w[j] @ prev + b[j]
            s_minus_z = np.zeros(n)
            s_minus_z[prev] = w[j]
            s_minus_z[zj] = -1.0
            if u[j] <= 0.0:
                continue  # z_j and y_j stay pinned at 0
            var_hi[zj] = u[j]
            if l[j] >= 0.0:
                var_lo[yj] = var_hi[yj] = 1.0
                rows.append(s_minus_z)
                r_lo.append(-b[j])
                r_hi.append(-b[j])
                continue
            var_hi[yj] = 1.0
            rows.append(s_minus_z)          # s - z <= 0
            r_lo.append(-np.inf)
            r_hi.append(-b[j])
            row = -s_minus_z                 # z - s + l (1 - y) <= 0
            row[yj] = -l[j]
            rows.append(row)
            r_lo.append(-np.inf)
            r_hi.append(b[j] - l[j])
            row = np.zeros(n)                # z - u y <= 0
            row[zj] = 1.0
            row[yj] = -u[j]
            rows.append(row)
            r_lo.append(-np.inf)
            r_hi.append(0.0)
        prev = z_idx
        at += w.shape[0]
    w_out, b_out = layers[-1]
    integrality = np.concatenate([np.zeros(n_in + h), np.ones(h)])
    constraints = [LinearConstraint(np.array(rows), r_lo, r_hi)] if rows else []
    best, best_x = 0.0, None
    for g in range(w_out.shape[0]):
        for side in ("upper", "lower"):
            sign = 1.0 if side == "upper" else -1.0
            c = np.zeros(n)
            c[prev] = -sign * w_out[g]
            const = (b_out[g] - gen_hi[g]) if side == "upper" else (gen_lo[g] - b_out[g])
            res = milp(c, integrality=integrality, bounds=(var_lo, var_hi),
                       constraints=constraints,
                       options={"mip_rel_gap": 1e-10, "time_limit": 120})
            if res.status != 0:
                raise RuntimeError(f"HiGHS failed on candidate {(g, side)}: {res.message}")
            value = float(-res.fun + const)
            if value > best:
                best, best_x = value, res.x[:n_in]
    return best, best_x


def check_certificate(params, cert, lo, hi, gen_lo, gen_hi):
    """Compare one WorstCaseCert with HiGHS and with a forward pass."""
    problems = []
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    if cert.status != "certified":
        problems.append(f"status {cert.status}")
    optimum, point = highs_worst_case(params, lo, hi, gen_lo, gen_hi)
    if not cert.value <= optimum + TOL:
        problems.append(f"value {cert.value!r} above HiGHS optimum {optimum!r}")
    if not optimum <= cert.bound + TOL:
        problems.append(f"HiGHS optimum {optimum!r} above bound {cert.bound!r}")
    if point is not None:
        attained = max(0.0, max(_margin(net_output(params, point), gen_lo, gen_hi, g, s)
                                for g in range(len(gen_lo)) for s in ("upper", "lower")))
        if not attained <= cert.bound + TOL:
            problems.append(f"HiGHS point attains {attained!r} above bound {cert.bound!r}")
    if cert.witness is None:
        if cert.value != 0.0:
            problems.append(f"value {cert.value!r} without a witness")
    else:
        w = np.asarray(cert.witness, float)
        if np.any(w < lo - 1e-9) or np.any(w > hi + 1e-9):
            problems.append("witness outside the box")
        g, side = cert.constraint_id
        at = _margin(net_output(params, w), gen_lo, gen_hi, g, side)
        if abs(at - cert.value) > 1e-9:
            problems.append(f"forward(witness) gives {at!r}, certificate says {cert.value!r}")
    return problems


def _ptdf(doc):
    buses = doc["buses"]
    index = {b: i for i, b in enumerate(buses)}
    n = len(buses)
    lines = doc["lines"]
    susceptance = np.zeros((n, n))
    incidence = np.zeros((len(lines), n))
    for k, ln in enumerate(lines):
        i, j = index[ln["from"]], index[ln["to"]]
        incidence[k, i], incidence[k, j] = 1.0, -1.0
        susceptance += ln["susceptance"] * np.outer(incidence[k], incidence[k])
    keep = [i for i in range(n) if buses[i] != doc["slack"]]
    flows = np.diag([ln["susceptance"] for ln in lines]) @ incidence
    ptdf = np.zeros((len(lines), n))
    ptdf[:, keep] = flows[:, keep] @ np.linalg.inv(susceptance[np.ix_(keep, keep)])
    return ptdf, index


def check_dispatch(grid_path, demands, dispatch):
    """Each row of `dispatch` must be feasible and cost-optimal for its demands."""
    with open(grid_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    ptdf, index = _ptdf(doc)
    gens, loads = doc["generators"], doc["loads"]
    m_gen = np.zeros((len(index), len(gens)))
    for g, gen in enumerate(gens):
        m_gen[index[gen["bus"]], g] = 1.0
    m_load = np.zeros((len(index), len(loads)))
    for k, ld in enumerate(loads):
        m_load[index[ld["bus"]], k] = 1.0
    cost = np.array([g["cost"] for g in gens], float)
    p_bounds = [(g["p_min"], g["p_max"]) for g in gens]
    limit = np.array([ln["limit"] for ln in doc["lines"]], float)
    shift_gen = ptdf @ m_gen
    problems = []
    for d, p in zip(np.asarray(demands, float), np.asarray(dispatch, float)):
        shift_load = ptdf @ m_load @ d
        res = linprog(cost, A_ub=np.vstack([shift_gen, -shift_gen]),
                      b_ub=np.concatenate([limit + shift_load, limit - shift_load]),
                      A_eq=np.ones((1, len(gens))), b_eq=[d.sum()],
                      bounds=p_bounds, method="highs")
        if res.status != 0:
            problems.append(f"linprog found no dispatch for demands {d.tolist()}")
            continue
        scale = 1.0 + abs(res.fun)
        if abs(cost @ p - res.fun) > 1e-7 * scale:
            problems.append(f"dispatch cost {cost @ p!r} differs from linprog {res.fun!r}")
        flow = shift_gen @ p - shift_load
        if abs(p.sum() - d.sum()) > 1e-6 * (1.0 + d.sum()) or np.any(np.abs(flow) > limit + 1e-6):
            problems.append(f"dispatch {p.tolist()} violates balance or line limits")
    return problems
