"""Exception types shared across the package.

Input errors (bad options, malformed files) are raised where options and files are
resolved, before any work.  A :class:`FitError` is what a fit can raise on valid input:
folds and Monte Carlo replications record it as a failure, ``ppcf fit`` raises it.
"""


class FitError(Exception):
    """A fit failed on valid input; folds and replications record it."""


class DegenerateWindowError(ValueError):
    """Window has a non-positive side length."""


class LatticeMismatchError(ValueError):
    """Two grid fields do not share a window and resolution."""


class DecompositionError(FitError, RuntimeError):
    """Lattice covariance operator is not numerically positive definite."""


class NonFiniteFieldError(FitError, ValueError):
    """A pointwise transform produced a non-finite lattice value."""


class BoundViolationError(FitError, RuntimeError):
    """Evaluated intensity exceeded the declared supremum bound."""


class UnmarkedPatternError(ValueError):
    """Fold extraction requested on a pattern without fold marks."""


class NonpositiveIntensityError(FitError, ValueError):
    """Intensity is zero or negative at a data point."""


class NonConvergenceError(FitError, RuntimeError):
    """Optimizer failed to reach the score tolerance."""


class SingularHessianError(FitError, RuntimeError):
    """Newton and gradient fallback both stalled on a singular Hessian."""


class ZeroMassError(FitError, RuntimeError):
    """Kernel weights carry no quadrature mass at the requested point."""


class ZeroDenominatorError(FitError, RuntimeError):
    """A kernel-weighted denominator vanished."""


class InsufficientPointsError(FitError, ValueError):
    """Too few points for the requested estimator."""


class SingularSensitivityError(FitError, RuntimeError):
    """Estimated sensitivity matrix is numerically singular."""


class WindowMismatchError(ValueError):
    """Input files do not share a common observation window."""


class ParseError(ValueError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class ScenarioInfeasibleError(RuntimeError):
    """More than half of the replications of a scenario failed."""
