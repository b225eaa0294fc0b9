"""Certified worst-case constraint verification for ReLU networks."""

from .bounds import Box, PreactBounds, interval_bounds
from .brute import MAX_HIDDEN_UNITS, brute_force_worst_case
from .certificate import save_certificate
from .gradient import margin_param_gradient, worst_case_gradient
from .milp import (CERTIFIED, DEFAULT_NODE_LIMIT, GAP_REMAINING, GAP_TOL,
                   WorstCaseCert, solve_worst_case)
from .patterns import (SIDES, candidate_constraints, margin_of_output,
                       masked_affine_forms, violation_of_output,
                       worst_case_fixed_pattern)

__all__ = [
    "Box", "PreactBounds", "interval_bounds",
    "MAX_HIDDEN_UNITS", "brute_force_worst_case",
    "save_certificate",
    "margin_param_gradient", "worst_case_gradient",
    "CERTIFIED", "DEFAULT_NODE_LIMIT", "GAP_REMAINING", "GAP_TOL",
    "WorstCaseCert", "solve_worst_case",
    "SIDES", "candidate_constraints", "margin_of_output",
    "masked_affine_forms", "violation_of_output", "worst_case_fixed_pattern",
]
