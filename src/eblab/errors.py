"""Exception types shared across the package."""


class SchemaError(ValueError):
    """Malformed or inconsistent serialized input (JSON files, profile strings)."""


class WindowMismatchError(ValueError):
    """Operands live on incompatible mode windows, or a product structure is missing."""


class InvariantViolationError(ValueError):
    """A numerical invariant failed (positivity, trace, normalization, completeness)."""


class ExtractionInconsistentError(InvariantViolationError):
    """Measure-and-prepare extraction failed to reproduce the channel.

    Carries the residual: the operator norm of the stacked-matrix difference,
    or the per-sector bound on it that eb_extract reports.
    """

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = float(residual)
