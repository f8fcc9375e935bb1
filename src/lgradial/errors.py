"""Exception types shared across the package, and the one integer and helicity checks."""

import numbers


class DiagnosticError(ValueError):
    """A computation cannot proceed or did not meet its accuracy contract."""


class QuadratureConvergenceError(DiagnosticError):
    """Two successive orders disagreed, or the result failed its accuracy contract."""


class GridError(DiagnosticError):
    """A grid does not satisfy the requirements of the requested operation."""


def _check_int(value, name, minimum=None):
    """An integer (numpy ones too, not a bool, a float or a string) >= minimum, as an int."""
    if not (type(value) is int or isinstance(value, numbers.Integral)
            and not isinstance(value, bool)) or minimum is not None and value < minimum:
        bound = "" if minimum is None else f" >= {minimum}"
        raise DiagnosticError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _check_order(order, name="quadrature order"):
    """A quadrature order or grid size is an integer >= 1."""
    return _check_int(order, name, 1)


def _check_helicity(sigma):
    """The helicity sigma is the integer +1 or -1."""
    if _check_int(sigma, "sigma") not in (1, -1):
        raise DiagnosticError(f"sigma must be +1 or -1, got {sigma!r}")
    return int(sigma)
