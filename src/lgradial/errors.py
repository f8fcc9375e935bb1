"""Exception types shared across the package."""


class DiagnosticError(ValueError):
    """A computation cannot proceed or did not meet its accuracy contract."""


class QuadratureConvergenceError(DiagnosticError):
    """Two successive orders disagreed, or the result failed its accuracy contract."""


class GridError(DiagnosticError):
    """A grid does not satisfy the requirements of the requested operation."""
