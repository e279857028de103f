"""Exception types shared across the library."""


class MeridianError(Exception):
    """Base class for all library-specific errors."""


class OutOfDomain(MeridianError):
    """Evaluation requested outside a declared validity interval."""


class InconsistentGeometry(MeridianError):
    """A curve, surface or scalar field fails its consistency check at load."""


class NonpositiveProfile(MeridianError):
    """Profile radius f(u) is not strictly positive on the requested interval."""


class EmptyInterval(MeridianError):
    """Requested construction has an empty parameter interval."""


class RadicandNegative(MeridianError):
    """A square-root argument is negative at the initial state."""


class ParameterConflict(MeridianError):
    """Constructor parameters violate a compatibility condition."""


class MinimalPoint(MeridianError):
    """Mean curvature vanishes at the point; normalized quantities undefined."""


class MuVanishes(MeridianError):
    """The field mu vanishes somewhere on the grid; log |mu| undefined."""


class ChartDomain(MeridianError):
    """Point lies outside the isotropic chart's validity region."""


class InvalidInitialState(MeridianError):
    """ODE initial value outside the right-hand side's domain, or not finite."""


class StepSizeNonpositive(MeridianError):
    """ODE step size must be strictly positive."""


class TooManySteps(MeridianError):
    """A fixed-step integration would take more steps than the cap."""


class IntervalOutsideDomain(MeridianError):
    """Quadrature interval is not contained in the integrand's domain."""


class ToleranceNotReached(MeridianError):
    """Adaptive refinement hit the depth cap before meeting the tolerance."""
