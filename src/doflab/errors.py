"""Exception types shared across the package."""


class DoflabError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateCorner(DoflabError):
    """The two boundary lines coincide, so no unique corner exists."""


class UnboundedRegion(DoflabError):
    """Vertex enumeration was asked for a region with an open direction."""


class WrongCase(DoflabError):
    """An operation was called outside the antenna regime it applies to."""


class InvalidWeight(DoflabError):
    """Time-sharing weight outside [0, 1]."""


class AntennaOverflow(DoflabError):
    """A schedule needs more simultaneous streams than transmit antennas."""


class InfeasiblePlan(DoflabError):
    """A schedule violates its decoding conditions."""


class ShapeMismatch(DoflabError):
    """Array dimensions inconsistent with the configuration or schedule."""


class SingularCovariance(DoflabError):
    """An effective noise covariance is not positive definite.

    ``index`` is the flat batch position of the first such covariance when
    a stacked kernel raised it.
    """

    index = 0
