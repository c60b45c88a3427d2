"""Exception types shared across the package.

Each type carries the ``code`` the command line prints as
``E:<code>:<message>``; this module is the only place a code is named.
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


class InvalidConfig(DoflabError, ValueError):
    """An input outside its domain, such as an antenna or trial count below
    one, or a string that is not a rational. Also a ``ValueError``, as are
    its subtypes."""

    code = "INVALID_CONFIG"


class InvalidAlpha(InvalidConfig):
    """A CSIT quality that is not a rational in [0, 1]."""

    code = "INVALID_ALPHA"


class InvalidWeight(InvalidConfig):
    """Time-sharing weight that is not a rational in [0, 1]."""

    code = "INVALID_WEIGHT"


class InvalidSeed(InvalidConfig):
    """A seed that is not a non-negative integer."""

    code = "INVALID_SEED"


class InvalidSnrGrid(InvalidConfig):
    """An SNR grid a campaign cannot run: too few or too many points, not
    strictly increasing, or a point whose ``rho`` is not a positive finite
    float or is above the rate fidelity's SNR limit."""

    code = "INVALID_SNR_GRID"


class OutputError(DoflabError):
    """An output file that could not be written."""

    code = "OUTPUT_ERROR"


class TooManyAntennas(DoflabError):
    """An antenna count above the command line's cap."""

    code = "TOO_MANY_ANTENNAS"


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
    """A rate system has a non-finite entry: an already non-finite channel,
    or an SNR at the edge of the float range.

    ``index`` is the flat batch position of the first such system.
    """

    code = "GRAM_OVERFLOW"
    index = 0


class PlanTooLarge(DoflabError):
    """Simulating a plan would need more memory per (trial, SNR) pair, or
    per trial for the rank fidelity, than the simulator allows."""

    code = "PLAN_TOO_LARGE"
