"""The benchmark's workloads: inputs built from a seed, one timed operation
each, and the check of every operation's output.

Runs inside the child interpreter started by ``worker.py``, after ``doflab``
was imported from the checkout's ``src``. Every call into the package goes
through a module attribute looked up at call time, so the tracer's wrappers
(which replace those attributes) see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

ALPHAS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
ANTENNAS = range(1, 7)
GEOMETRY_CHUNKS = 9  # 5400 configs -> nine timed chunks of 600

SNR_ARGS = ["--snr-min", "30", "--snr-max", "60", "--snr-step", "5"]
SNR_POINTS = 7  # 30, 35, ..., 60 dB
# |fitted slope - corner DoF| allowed on the alpha = 1 plans
SLOPE_TOL = 0.05


@dataclass(frozen=True)
class Plan:
    """One corner plan simulated by a campaign."""

    m: int
    n1: int
    n2: int
    alpha1: str
    alpha2: str
    rate_trials: int = 0  # 0: no rate invocation
    rank_trials: int = 0  # 0: no rank invocation

    @property
    def full_quality(self) -> bool:
        return self.alpha1 == "1" and self.alpha2 == "1"

    def argv(self, fidelity: str, trials: int, seed: int) -> list[str]:
        return [
            "simulate",
            "--M", str(self.m), "--N1", str(self.n1), "--N2", str(self.n2),
            "--alpha1", self.alpha1, "--alpha2", self.alpha2,
            "--at-corner", "--fidelity", fidelity, *SNR_ARGS,
            "--trials", str(trials), "--seed", str(seed),
        ]


# Trial counts keep a campaign pass near 1.5 s on one core, so a run of the
# benchmark holds many passes and reports their median.
CAMPAIGNS = {
    "campaign-small": (
        Plan(2, 1, 1, "1", "1", rate_trials=100),
        Plan(3, 2, 1, "1", "1", rate_trials=100, rank_trials=1500),
        Plan(2, 1, 1, "1/2", "1/2", rate_trials=100),
        Plan(4, 2, 2, "1/2", "1/2", rank_trials=1500),
    ),
    "campaign-large": (
        Plan(5, 3, 2, "1/2", "1/3", rate_trials=20, rank_trials=120),
        Plan(5, 3, 2, "1", "1", rate_trials=40, rank_trials=240),
    ),
}
WORKLOADS = ("geometry-sweep", *CAMPAIGNS)

# "tiny" shrinks every workload for the self-test; trial counts stay large
# enough that the alpha = 1 slope check still holds.
TINY_CONFIGS = 90
TINY_TRIALS = {"rate": 12, "rank": 20}


def digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


@dataclass
class Step:
    """One timed step of a workload: a geometry chunk or a campaign pass."""

    ops: int
    failed: int
    outputs: list  # compared across repeats and across tracing on and off
    detail: list  # per-config latencies in ns, or [(Outcome, seconds)]
    seconds: float = 0.0
    scale: float = 1.0  # measured -> reference-speed time factor


class GeometrySweep:
    """The acceptance grid, ordered by the seed, swept in timed chunks."""

    name = "geometry-sweep"

    def __init__(self, doflab, seed: int, tiny: bool):
        self.d = doflab
        grid = [
            doflab.SystemConfig(m, n1, n2, a1, a2)
            for m, n1, n2, a1, a2 in product(ANTENNAS, ANTENNAS, ANTENNAS, ALPHAS, ALPHAS)
        ]
        random.Random(seed).shuffle(grid)
        if tiny:
            grid = grid[:TINY_CONFIGS]
        self.configs = grid
        size = -(-len(grid) // GEOMETRY_CHUNKS)
        self.chunks = [grid[i : i + size] for i in range(0, len(grid), size)]
        self.steps = len(self.chunks)  # steps per pass

    def run_one(self, cfg):
        """Every geometry entry point on one config; returns (ok, result)."""
        d = self.d
        region = d.dof_region(cfg)
        verts = region.vertices()
        tight = d.region_equal(d.converse_region(cfg), region) and d.region_equal(
            d.achievable_region(cfg), region
        )
        corner = d.representative_corner(cfg)
        if cfg.n2 >= cfg.m:
            plan = d.plan_tdma(cfg, Fraction(1, 2))
        else:
            plan = d.plan_schedule(cfg, d.corner_weight(cfg))
        payload = d.order2_payload(plan, cfg)
        dof = d.achieved_dof(plan, cfg)
        ok = tight and region.contains(dof)
        result = (
            tuple(tuple(v) for v in verts), tuple(corner),
            (plan.tau1, plan.tau2, plan.tau3), payload.length, tuple(dof),
        )
        return ok, result

    def run_step(self, index: int, clock) -> Step:
        """Time each config of one chunk."""
        latencies, results, failed = [], [], 0
        for cfg in self.chunks[index]:
            start = clock()
            try:
                ok, result = self.run_one(cfg)
            except Exception as exc:  # a raising call is a failed operation
                ok, result = False, repr(exc)
            latencies.append(clock() - start)
            failed += not ok
            results.append(result)
        return Step(len(latencies), failed, results, latencies)


@dataclass
class Invocation:
    plan: Plan
    fidelity: str  # "rate" or "rank"
    trials: int
    argv: list[str]
    corner: tuple[float, float]


@dataclass
class Outcome:
    ok: bool
    fidelity: str
    trials: int
    full_quality: bool
    slope_gap: float = 0.0
    rank_passes: int = 0
    output: str = ""


class Campaign:
    """``doflab simulate`` invocations at the corner of each plan."""

    steps = 1  # a pass is one step

    def __init__(self, doflab, name: str, seed: int, tiny: bool):
        self.d = doflab
        self.invocations = []
        for plan in CAMPAIGNS[name]:
            cfg = doflab.SystemConfig(plan.m, plan.n1, plan.n2, plan.alpha1, plan.alpha2)
            corner = tuple(float(x) for x in doflab.corner_point(cfg))
            for fidelity, trials in (("rate", plan.rate_trials), ("rank", plan.rank_trials)):
                if trials:
                    if tiny:
                        trials = min(trials, TINY_TRIALS[fidelity])
                    argv = plan.argv(fidelity, trials, seed)
                    self.invocations.append(Invocation(plan, fidelity, trials, argv, corner))

    def run_one(self, inv: Invocation) -> Outcome:
        """One CLI invocation, checked. Known fractional-alpha defects are
        returned as numbers (slope gap, rank passes), not as failures."""
        out = Outcome(False, inv.fidelity, inv.trials, inv.plan.full_quality)
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.d.cli.main(list(inv.argv))
            out.output = buf.getvalue()
            if code == 0:
                out.ok = _check(inv, json.loads(out.output), out)
        except (Exception, SystemExit):  # raised, exited, or unparseable output
            out.ok = False
        return out

    def run_step(self, index: int, clock) -> Step:
        """All invocations once, each timed."""
        timed = []
        for inv in self.invocations:
            start = clock()
            outcome = self.run_one(inv)
            timed.append((outcome, (clock() - start) / 1e9))
        outcomes = [o for o, _ in timed]
        return Step(
            len(timed), sum(not o.ok for o in outcomes), [o.output for o in outcomes], timed
        )


def _check(inv: Invocation, payload: dict, out: Outcome) -> bool:
    if inv.fidelity == "rate":
        rates = payload["rate_bits_per_slot"]["rx1"] + payload["rate_bits_per_slot"]["rx2"]
        slopes = (payload["slope"]["rx1"], payload["slope"]["rx2"])
        if not all(math.isfinite(x) for x in (*rates, *slopes)):
            return False
        out.slope_gap = max(abs(s - c) for s, c in zip(slopes, inv.corner))
        return out.slope_gap <= SLOPE_TOL or not inv.plan.full_quality
    rank = payload["rank_check"]
    out.rank_passes = rank["rx1_passes"] + rank["rx2_passes"]
    dof = tuple(float(Fraction(x)) for x in payload["plan"]["dof"])
    return (
        rank["trials"] == inv.trials
        and dof == inv.corner
        and (out.rank_passes == 2 * inv.trials or not inv.plan.full_quality)
    )


def build(doflab, name: str, seed: int, tiny: bool = False):
    if name == GeometrySweep.name:
        return GeometrySweep(doflab, seed, tiny)
    return Campaign(doflab, name, seed, tiny)
