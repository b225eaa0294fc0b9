"""Certified worst-case constraint verification for ReLU networks."""

from .bounds import Box, PreactBounds, interval_bounds
from .certificate import save_certificate
from .gradient import margin_param_gradient, worst_case_gradient
from .milp import (CERTIFIED, DEFAULT_NODE_LIMIT, GAP_REMAINING, GAP_TOL,
                   WorstCaseCert, solve_worst_case)
from .patterns import (SIDES, candidate_constraints, margin_of_output,
                       worst_case_fixed_pattern)

__all__ = [
    "Box", "PreactBounds", "interval_bounds",
    "save_certificate",
    "margin_param_gradient", "worst_case_gradient",
    "CERTIFIED", "DEFAULT_NODE_LIMIT", "GAP_REMAINING", "GAP_TOL",
    "WorstCaseCert", "solve_worst_case",
    "SIDES", "candidate_constraints", "margin_of_output",
    "worst_case_fixed_pattern",
]
