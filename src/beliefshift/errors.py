"""Exception hierarchy shared across the package."""

__all__ = [
    "BeliefShiftError",
    "NumericError",
    "TailMassError",
    "MomentError",
    "AbsoluteContinuityError",
    "DegenerateError",
    "UnsupportedPriorError",
    "ScenarioError",
]


class BeliefShiftError(Exception):
    """Base class for all package-specific errors."""


class NumericError(BeliefShiftError):
    """A computation could not be carried out at the required accuracy."""


class TailMassError(NumericError):
    """A grid window clips more probability mass than the 1e-6 budget allows."""


class MomentError(NumericError):
    """A quantile integral diverges: the required moment does not exist."""


class AbsoluteContinuityError(NumericError):
    """KL is undefined: p has mass where q has none."""


class DegenerateError(NumericError):
    """All posterior mass underflowed; the update produced no usable density."""


class UnsupportedPriorError(BeliefShiftError):
    """The Bayes step (``updating._bayes``) has no route for this prior kind."""


class ScenarioError(BeliefShiftError):
    """A scenario file failed validation; the message names the offending path."""
