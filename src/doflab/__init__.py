"""Exact DoF regions, achieving schedules, and link simulation for the
two-user MIMO broadcast channel with delayed, imperfect-quality CSIT."""

import importlib

from .errors import (
    AntennaOverflow,
    DegenerateCorner,
    DoflabError,
    GramOverflow,
    InfeasiblePlan,
    InvalidAlpha,
    InvalidConfig,
    InvalidSeed,
    InvalidSnrGrid,
    InvalidWeight,
    OutputError,
    PlanTooLarge,
    ShapeMismatch,
    SingularCovariance,
    TooManyAntennas,
    UnboundedRegion,
    WrongCase,
)
from .region import (
    DofPoint,
    DofRegion,
    HalfPlane,
    SystemConfig,
    corner_point,
    delayed_csit_region,
    dof_region,
    is_subset,
    no_csit_region,
    region_equal,
    representative_corner,
)
from .converse import converse_region, outer_bound_rx1_enhanced, outer_bound_rx2_enhanced
from .scheme import (
    DecodingCheck,
    Order2Payload,
    SchedulePlan,
    achievable_region,
    achieved_dof,
    check_decoding_conditions,
    corner_weight,
    order2_payload,
    plan_schedule,
    plan_tdma,
    scheme_region,
    tdma_region,
)

__version__ = "0.1.0"

# The Monte Carlo layer needs numpy, which the exact geometry does not:
# ``simulate``, ``kernels`` and the names below load on first use (PEP 562).
_SIMULATE_NAMES = frozenset({
    "ChannelRealization",
    "PhaseMatrices",
    "SimParams",
    "SimReport",
    "build_phase_matrices",
    "estimate_rates",
    "gen_channels",
    "quantize_csit",
    "rank_check_campaign",
    "rate_snr_limit_db",
})


def __getattr__(name: str):
    if name in ("simulate", "kernels"):
        return importlib.import_module(f".{name}", __name__)
    if name in _SIMULATE_NAMES:
        return getattr(importlib.import_module(".simulate", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
