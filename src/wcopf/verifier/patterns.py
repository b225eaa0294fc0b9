"""Candidate constraints, violation margins and the fixed-pattern LP.

With every ReLU pinned to a side, the network is affine in its input,
and maximizing a single output-bound violation over the input box is a
small LP in the input variables only: the pattern-consistency rows keep
each pinned preactivation on its side of zero.  worst_case_fixed_pattern
solves that LP as a standalone public helper.  The branch-and-bound
search (milp.py) does not call it: a verification solves only bound
LPs (bounds.lp_bounds) and node LPs.
"""

import numpy as np

from ..errors import ShapeMismatch
from ..simplex import LpProblem, LpStatus, solve_lp
from .bounds import Box

SIDES = ("upper", "lower")


def candidate_constraints(n_outputs):
    """All (generator, side) pairs in their deterministic order."""
    return [(g, side) for g in range(n_outputs) for side in SIDES]


def check_pattern(params, pattern):
    if len(pattern) != params.n_hidden_layers:
        raise ShapeMismatch("pattern layer count does not match network")
    for k, p in enumerate(pattern):
        if np.shape(p) != (params.layer_dims[k + 1],):
            raise ShapeMismatch(f"pattern layer {k} has wrong width")


def masked_affine_forms(params, pattern):
    """Affine forms of each preactivation and the output under a pattern.

    Returns (pre_forms, out_form) where pre_forms[k] = (A, c) gives the
    layer-k preactivation as A @ d + c, and out_form the network output.
    """
    check_pattern(params, pattern)
    a_act = np.eye(params.n_inputs)
    c_act = np.zeros(params.n_inputs)
    pre_forms = []
    for k in range(params.n_hidden_layers):
        a_pre = params.weights[k] @ a_act
        c_pre = params.weights[k] @ c_act + params.biases[k]
        pre_forms.append((a_pre, c_pre))
        mask = np.asarray(pattern[k], dtype=float)
        a_act = mask[:, None] * a_pre
        c_act = mask * c_pre
    a_out = params.weights[-1] @ a_act
    c_out = params.weights[-1] @ c_act + params.biases[-1]
    return pre_forms, (a_out, c_out)


def consistency_rows(pre_forms, pattern):
    """Inequality rows keeping each preactivation on its pinned side."""
    rows = []
    rhs = []
    for (a_pre, c_pre), mask in zip(pre_forms, pattern):
        mask = np.asarray(mask, dtype=bool)
        for j in range(a_pre.shape[0]):
            if mask[j]:
                rows.append(-a_pre[j])
                rhs.append(c_pre[j])
            else:
                rows.append(a_pre[j])
                rhs.append(-c_pre[j])
    return np.array(rows), np.array(rhs)


def margin_objective(out_form, gen_bounds, constraint_id):
    """(c, const) so that the violation margin equals c @ d + const."""
    a_out, c_out = out_form
    g, side = constraint_id
    if side == "upper":
        return a_out[g], float(c_out[g] - gen_bounds.hi[g])
    if side == "lower":
        return -a_out[g], float(gen_bounds.lo[g] - c_out[g])
    raise ValueError(f"unknown constraint side {side!r}")


def margin_of_output(output, gen_bounds, constraint_id):
    g, side = constraint_id
    if side == "upper":
        return float(output[g] - gen_bounds.hi[g])
    return float(gen_bounds.lo[g] - output[g])


def violation_of_output(output, gen_bounds):
    """max(out - hi, lo - out, 0) over all outputs."""
    over = np.max(output - gen_bounds.hi)
    under = np.max(gen_bounds.lo - output)
    return float(max(over, under, 0.0))


def worst_case_fixed_pattern(params, pattern, box: Box, gen_bounds: Box,
                             constraint_id):
    """Maximize one bound violation over the pattern's input region.

    Returns (value, witness); value is -inf when the region is empty.
    """
    pre_forms, out_form = masked_affine_forms(params, pattern)
    rows, rhs = consistency_rows(pre_forms, pattern)
    c, const = margin_objective(out_form, gen_bounds, constraint_id)
    if not np.isfinite(const):
        return -np.inf, None
    sol = solve_lp(LpProblem(c=c, a_ub=rows, b_ub=rhs, lo=box.lo, hi=box.hi))
    if sol.status != LpStatus.OPTIMAL:
        return -np.inf, None
    return float(sol.objective_value + const), sol.x
