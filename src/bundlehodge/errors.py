"""Exception types shared across the package."""


class BundleHodgeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(BundleHodgeError):
    """A scenario or algebra configuration is malformed."""


class DegreeError(BundleHodgeError):
    """A form degree is out of range for the requested operation."""


class DegreeOverflow(DegreeError):
    """A wedge product would exceed the top degree of the manifold."""


class NotSemisimple(BundleHodgeError):
    """The fiber algebra has nonzero first cohomology, so the Green matrix
    on degree-one cochains does not exist."""


class NotExact(BundleHodgeError):
    """A form that was required to be exact has a nonzero coexact or
    harmonic component.

    Carries the offending component norms so callers can report which
    branch of a theorem applies.
    """

    def __init__(self, message, coexact_norm=None, harmonic_norm=None):
        super().__init__(message)
        self.coexact_norm = coexact_norm
        self.harmonic_norm = harmonic_norm


class SolverFailure(BundleHodgeError):
    """An iterative or dense solve did not reach the requested tolerance.

    ``order`` records the polynomial order of the correction system that
    failed, when applicable.
    """

    def __init__(self, message, order=None, residual=None):
        super().__init__(message)
        self.order = order
        self.residual = residual
