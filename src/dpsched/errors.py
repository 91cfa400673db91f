"""Exception hierarchy shared across the package."""


class DpschedError(Exception):
    """Base class for all package-specific errors."""


class ModelError(DpschedError, ValueError):
    """Invalid model parameters or policy data."""


class NonPositiveAlpha(ModelError):
    pass


class AlphaAboveOne(ModelError):
    pass


class MLessThanA(ModelError):
    pass


class PowerNotIncreasingPerBit(ModelError):
    pass


class PowerNotConvex(ModelError):
    """A power table whose increments power[m+1] - power[m] decrease by
    more than their rounding (model.CONVEX_TOL); the threshold walk's
    frontier is wrong on such a table."""


class PowerZeroNonzero(ModelError):
    pass


class StateOutOfRange(ModelError):
    pass


class InvalidPolicy(ModelError):
    pass


class InfeasibleThresholds(ModelError):
    pass


class SingularChain(DpschedError, RuntimeError):
    """The chain's normalized balance system has no unique solution
    (pivot below threshold), e.g. multiple recurrent classes."""


class RowDiffCountMismatch(DpschedError, ValueError):
    """One-row-difference precondition violated, or no state has the two
    feasible actions a one-row pair needs."""


class DegenerateSegment(DpschedError, RuntimeError):
    """Both endpoint policies yield the same average power; the segment
    slope in the (power, delay) plane is undefined."""


class EnumerationTooLarge(DpschedError, RuntimeError):
    """Deterministic-policy enumeration would exceed the configured cap."""


class IterationLimit(DpschedError, RuntimeError):
    """Simplex pivot budget exhausted."""


class SimplexBreakdown(DpschedError, RuntimeError):
    """The simplex lost its numerical footing: a basis with an exactly zero
    LU pivot, non-finite basic values or duals, or a phase-1 ray."""


class DegenerateSolution(DpschedError, RuntimeError):
    """No policy can be recovered from an LP solution whose status is not
    "optimal" (`lp.recover_policy`)."""
