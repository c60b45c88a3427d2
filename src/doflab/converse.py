"""Genie-aided outer bounds for the two-user region.

Each bound enhances one receiver with the other user's overheard equations,
discounted by that user's CSIT quality, and applies the usual antenna-count
cap. Either enhancement alone yields a valid outer bound; both hold for any
code simultaneously, so the combined outer bound is the *intersection* of
the two single-enhancement regions. (Reading the combination as a union
would not produce an outer bound at all; the intersection reading is
confirmed by the exhaustive tightness check against the achievable region
in the test suite.)
"""

from __future__ import annotations

from .region import DofRegion, HalfPlane, SystemConfig

__all__ = [
    "outer_bound_rx1_enhanced",
    "outer_bound_rx2_enhanced",
    "converse_region",
]


def _rx1_plane(cfg: SystemConfig) -> HalfPlane:
    return HalfPlane._from_ratios(cfg._enhanced(1), cfg._spatial(2))


def _rx2_plane(cfg: SystemConfig) -> HalfPlane:
    return HalfPlane._from_ratios(cfg._spatial(1), cfg._enhanced(2))


def outer_bound_rx1_enhanced(cfg: SystemConfig) -> DofRegion:
    """Bound from giving receiver 1 the overheard user-2 equations:

        d1 / min(N1 + alpha2*N2, M) + d2 / min(N2, M) <= 1.
    """
    return DofRegion([_rx1_plane(cfg)])


def outer_bound_rx2_enhanced(cfg: SystemConfig) -> DofRegion:
    """Bound from giving receiver 2 the overheard user-1 equations:

        d1 / min(N1, M) + d2 / min(N2 + alpha1*N1, M) <= 1.
    """
    return DofRegion([_rx2_plane(cfg)])


def converse_region(cfg: SystemConfig) -> DofRegion:
    """Intersection of both single-enhancement bounds."""
    return DofRegion([_rx1_plane(cfg), _rx2_plane(cfg)])
