"""Exception types shared across the package.

Each type carries the ``code`` the command line prints as
``E:<code>:<message>``.
"""


class DoflabError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "DOMAIN_ERROR"


class DegenerateCorner(DoflabError):
    """The two boundary lines coincide, so no unique corner exists."""

    code = "DEGENERATE_CORNER"


class UnboundedRegion(DoflabError):
    """Vertex enumeration was asked for a region with an open direction."""

    code = "UNBOUNDED_REGION"


class WrongCase(DoflabError):
    """An operation was called outside the antenna regime it applies to."""

    code = "WRONG_CASE"


class InvalidWeight(DoflabError):
    """Time-sharing weight outside [0, 1]."""

    code = "INVALID_WEIGHT"


class AntennaOverflow(DoflabError):
    """A schedule needs more simultaneous streams than transmit antennas."""

    code = "ANTENNA_OVERFLOW"


class InfeasiblePlan(DoflabError):
    """A schedule violates its decoding conditions."""

    code = "INFEASIBLE_PLAN"


class ShapeMismatch(DoflabError):
    """Array dimensions inconsistent with the configuration or schedule."""

    code = "SHAPE_MISMATCH"


class SingularCovariance(DoflabError):
    """An effective noise covariance is not positive definite.

    ``index`` is the flat batch position of the first such covariance when
    a stacked kernel raised it.
    """

    code = "SINGULAR_COVARIANCE"
    index = 0


class GramOverflow(DoflabError):
    """A rate's Gram matrix ``I + G^H Sigma^{-1} G`` lost positive
    definiteness in floating point. Forming it squares the condition number
    of the whitened system, so at high SNR rounding loses its smallest
    eigenvalues (a little beyond ``rho = 1/eps`` at fractional alpha) long
    before its entries overflow (near 3000 dB).

    ``index`` is the flat batch position of the first such matrix.
    """

    code = "GRAM_OVERFLOW"
    index = 0


class PlanTooLarge(DoflabError):
    """Simulating a plan would need more memory per (trial, SNR) pair than
    the simulator allows."""

    code = "PLAN_TOO_LARGE"
