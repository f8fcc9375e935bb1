"""Exception types shared across the package, and the one order and size check."""

import numbers


class DiagnosticError(ValueError):
    """A computation cannot proceed or did not meet its accuracy contract."""


class QuadratureConvergenceError(DiagnosticError):
    """Two successive orders disagreed, or the result failed its accuracy contract."""


class GridError(DiagnosticError):
    """A grid does not satisfy the requirements of the requested operation."""


def _check_order(order, name="quadrature order"):
    """A quadrature order or grid size is an integer >= 1: not a bool, a float or a string."""
    if isinstance(order, bool) or not isinstance(order, numbers.Integral) or order < 1:
        raise DiagnosticError(f"{name} must be an integer >= 1, got {order!r}")
    return int(order)
