"""The acceptance grid, built once for every test module that sweeps it.

``M``, ``N1`` and ``N2`` run over 1..6 and both CSIT qualities over the
quarters 0..1: 5400 configurations, antennas varying slowest. Nothing
here imports numpy, so the geometry and planning tests that use it run
without it.
"""

from fractions import Fraction as F
from itertools import product

from doflab import SystemConfig, corner_weight, plan_schedule, plan_tdma

ANTENNAS = range(1, 7)
QUALITIES = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
GRID_SIZE = 5400


def grid_configs():
    """The grid's configurations, as a list in grid order."""
    return [
        SystemConfig(m, n1, n2, a1, a2)
        for m, n1, n2, a1, a2 in product(ANTENNAS, ANTENNAS, ANTENNAS, QUALITIES, QUALITIES)
    ]


def grid_plans():
    """Each grid configuration with its corner plan where N2 < M, else its
    TDMA plan at weight 1/2, as a list of ``(cfg, plan)`` in grid order."""
    return [
        (cfg, plan_schedule(cfg, corner_weight(cfg)) if cfg.n2 < cfg.m else plan_tdma(cfg, F(1, 2)))
        for cfg in grid_configs()
    ]
