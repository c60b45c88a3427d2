"""The exact geometry against an oracle typed here in plain Fraction arithmetic.

The package computes dimensions, constraints and corners on integers and
builds a Fraction only for each value it returns. Over the whole acceptance
grid, every such value must equal the one this file derives from the
definitions, with no package helper: the dimensions from their min
formulas, each constraint from its axis intercepts, and the corner by
Cramer's rule on the two boundary lines.
"""

import math
import subprocess
import sys
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from doflab import (
    DegenerateCorner,
    SystemConfig,
    achievable_region,
    converse_region,
    corner_point,
    dof_region,
    representative_corner,
)

ALPHAS = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
ANTENNAS = range(1, 7)


def oracle_line(d1_max, d2_max):
    """(p, q, r, scaled) of d1/d1_max + d2/d2_max <= 1."""
    p, q, r = 1 / F(d1_max), 1 / F(d2_max), F(1)
    scale = math.lcm(p.denominator, q.denominator, r.denominator)
    return p, q, r, tuple(int(c * scale) for c in (p, q, r))


def assert_constraints(region, lines):
    got = [(hp.p, hp.q, hp.r, hp.scaled) for hp in region.constraints]
    assert got == [oracle_line(*line) for line in lines]
    assert all(type(c) is F for hp in region.constraints for c in (hp.p, hp.q, hp.r))


def test_geometry_matches_fraction_oracle_on_acceptance_grid():
    degenerate = 0
    for m, n1, n2, a1, a2 in product(ANTENNAS, ANTENNAS, ANTENNAS, ALPHAS, ALPHAS):
        cfg = SystemConfig(m, n1, n2, a1, a2)
        a, d = F(min(n1, m)), F(min(n2, m))
        c = min(n1 + a2 * n2, F(m))
        b = min(n2 + a1 * n1, F(m))
        dims = (cfg.spatial_dim(1), cfg.spatial_dim(2), cfg.enhanced_dim(1), cfg.enhanced_dim(2))
        assert dims == (a, d, c, b)
        assert all(type(x) is F for x in dims)

        assert_constraints(dof_region(cfg), [(c, d), (a, b)])
        assert_constraints(converse_region(cfg), [(c, d), (a, b)])
        if n2 < m:
            assert_constraints(achievable_region(cfg), [(c, n2), (n1, b)])
        else:
            assert_constraints(achievable_region(cfg), [(m, m), (a, m)])

        # Cramer's rule on d1/c + d2/d = 1 and d1/a + d2/b = 1
        p1, q1, p2, q2 = 1 / c, 1 / d, 1 / a, 1 / b
        det = p1 * q2 - p2 * q1
        if det == 0:
            degenerate += 1
            with pytest.raises(DegenerateCorner, match="^boundary lines coincide; "
                               "the region has no off-axis corner$"):
                corner_point(cfg)
            first, second = dof_region(cfg).vertices()[-2:]
            want = ((first.d1 + second.d1) / 2, (first.d2 + second.d2) / 2)
        else:
            want = ((q2 - q1) / det, (p1 - p2) / det)
            assert tuple(corner_point(cfg)) == want
        assert tuple(representative_corner(cfg)) == want
    assert degenerate == 2680


def test_geometry_import_leaves_numpy_unloaded():
    """``import doflab`` and the exact geometry load neither numpy nor the
    Monte Carlo layer; the simulator's names still resolve on first use."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import doflab; "
        "doflab.representative_corner(doflab.SystemConfig(3, 2, 1, '1/2', '1/3')); "
        "doflab.dof_region(doflab.SystemConfig(3, 2, 1)).vertices(); "
        "print(sorted({'numpy', 'doflab.simulate', 'doflab.kernels'} & set(sys.modules))); "
        "from doflab import estimate_rates; "
        "print(doflab.kernels.backend, estimate_rates.__module__, 'numpy' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", script, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\nnumpy doflab.simulate True\n"
