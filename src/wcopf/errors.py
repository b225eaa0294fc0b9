"""Exception types shared across the package, and read_json, the one
reader of every JSON input file, which turns a syntax error into a
SchemaError."""

import json


class WcopfError(Exception):
    """Base class for all library errors."""


class SingularMatrix(WcopfError):
    """Linear system's smallest singular value is below the singularity
    threshold."""


class NumericalBreakdown(WcopfError):
    """LP solver exceeded its iteration cap or lost feasibility; iterations
    counts the simplex iterations it spent (set by solve_lp)."""

    iterations = 0


class SchemaError(WcopfError):
    """Input file violates the expected schema."""


def read_json(path):
    """The JSON document in the file at path; SchemaError naming the path
    and line of a syntax error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: "
                              f"{exc.msg}") from exc


class SingularNetwork(WcopfError):
    """Reduced susceptance matrix is numerically singular: a tiny line
    susceptance, not a disconnected network, which the grid schema
    already rejects."""


class TooManyInfeasible(WcopfError):
    """Dataset generation exceeded its resampling budget."""


class ShapeMismatch(WcopfError):
    """Array arguments have inconsistent shapes."""


class BoundsUnavailable(WcopfError):
    """Interval bound propagation produced nonfinite bounds."""


class TrainingDiverged(WcopfError):
    """Training produced a nonfinite loss."""
