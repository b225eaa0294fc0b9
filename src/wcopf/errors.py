"""Exception types shared across the package."""


class WcopfError(Exception):
    """Base class for all library errors."""


class SingularMatrix(WcopfError):
    """Linear system's smallest singular value is below the singularity
    threshold."""


class NumericalBreakdown(WcopfError):
    """LP solver exceeded its iteration cap or lost feasibility."""


class SchemaError(WcopfError):
    """Input file violates the expected schema."""


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
