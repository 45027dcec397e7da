"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed input: dimension mismatch, non-unit vector, bad parameter."""


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class NonSmoothPoint(ArithmeticError):
    """Derivative requested at a point where the path length is not smooth
    (two consecutive vertices coincide)."""


class MaxIterations(RuntimeError):
    """Iterative solver exhausted its iteration budget without converging."""


class CornerCollision(RuntimeError):
    """Event-driven simulation hit a corner region where two thickened
    cylinders meet; the dynamics there is deliberately left undefined.

    Carries the partial path computed so far in ``self.path``.
    """

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


# every error the package raises on purpose; a caller that turns a failed
# solve into an ordinary outcome catches these and lets anything else escape
PACKAGE_ERRORS = (InputError, PreconditionError, NonSmoothPoint, MaxIterations,
                  CornerCollision)
