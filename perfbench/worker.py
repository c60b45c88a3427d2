"""One workload run in a fresh interpreter; started by ``run.py``.

Imports ``doflab`` from ``<root>/src``, builds the workload's inputs from the
seed, then either stops (``--setup-only``, to time set-up) or runs the
workload until ``--seconds`` have passed, always completing at least one
whole pass over its inputs. Prints one JSON object with the raw results.

A step is a geometry chunk or a whole campaign pass. With ``--trace 1``
every step runs twice, traced and not, in alternating order, in whole
passes until another pass would overrun ``--seconds``: the traced steps
give the per-layer numbers, the pairs give the tracing overhead, and the
two of a pair must produce identical outputs.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

clock = time.perf_counter_ns


def import_doflab(root: Path, campaign: bool):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import doflab

    if Path(doflab.__file__).resolve().parent.parent != src:
        raise SystemExit(f"doflab was imported from {doflab.__file__}, not from {src}")
    if campaign:
        import doflab.cli  # noqa: F401  (the simulate entry point)
    return doflab


def blas_info() -> dict:
    """BLAS library from numpy's build record, and the thread count the
    loaded OpenBLAS reports (None when it cannot be asked)."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def metadata(doflab) -> dict:
    import numpy as np

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "doflab": doflab.__version__,
        "numpy": np.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
        "blas": blas_info(),
        "thread_env": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")},
        "kernels_backend": doflab.kernels.backend,
        "nproc": len(os.sched_getaffinity(0)),
    }


# ------------------------------------------------------ machine speed


class Reference:
    """A fixed loop timed between the timed steps of a run, to scale their
    times to one machine speed.

    On a shared machine the speed of a core drifts by a quarter or more
    over minutes, with other tenants' load. The loop does the three kinds of
    work doflab does, in about equal parts: exact ``Fraction`` arithmetic in
    the interpreter, many numpy calls on tiny arrays, and complex LAPACK
    factorizations. It uses no doflab code, so a change to the program does
    not move it. A step's scaled time is its measured time times
    ``NOMINAL_S`` over the mean of the loop times just before and after it.
    """

    NOMINAL_S = 0.054  # the loop's time on the machine the benchmark was written on

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.sigma = a @ a.conj().T + 64 * np.eye(64)
        self.g = rng.standard_normal((64, 24)) + 1j * rng.standard_normal((64, 24))
        self.h = rng.standard_normal((6, 2, 3)) + 1j * rng.standard_normal((6, 2, 3))
        self.last = self.seconds()

    def seconds(self) -> float:
        np = self.np
        start = clock()
        acc = Fraction(0)
        for i in range(1, 2000):
            acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
            acc -= Fraction(acc.numerator % 13, acc.denominator % 17 + 1)
        for _ in range(40):
            white = np.linalg.solve(np.linalg.cholesky(self.sigma), self.g)
            np.linalg.cholesky(np.eye(24) + white.conj().T @ white)
        h = self.h
        for _ in range(400):
            block = np.zeros((4, 6), dtype=np.complex128)
            quantized = np.round(h.real / 0.3) + 1j * np.round(h.imag / 0.3)
            block[:2, :3] = quantized[0]
            block[2:, 3:] = h[1] - quantized[1]
            np.vstack([block, block]) @ block.conj().T
        return (clock() - start) / 1e9

    def scale(self) -> float:
        """Factor for the step that ended just now (measured -> nominal)."""
        before, self.last = self.last, self.seconds()
        return self.NOMINAL_S / ((before + self.last) / 2)


def _percentile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


# ------------------------------------------------------------------- loops


def run_untraced(work, seconds: float) -> dict:
    """Steps in turn until ``seconds`` have passed, at least one whole pass;
    each step timed and given the reference scale measured around it."""
    reference = Reference()
    deadline = clock() + seconds * 1e9
    steps, seen = [], {}
    attempted = failed = 0
    while len(steps) < work.steps or clock() < deadline:
        k = len(steps) % work.steps
        start = clock()
        step = work.run_step(k, clock)
        step.seconds = (clock() - start) / 1e9
        step.scale = reference.scale()
        # the same seed must give the same outputs on every repeat
        failed += step.failed + (seen.setdefault(k, step.outputs) != step.outputs)
        step.outputs = None  # seen keeps one copy: memory must not grow with run time
        attempted += step.ops
        steps.append(step)
    return {
        "steps": steps,
        "attempted": attempted,
        "failed": failed,
        "digest": workloads.digest([seen[k] for k in range(work.steps)]),
    }


def run_traced(work, seconds: float, tracer: Tracer, doflab) -> dict:
    """Each step twice, traced and not, in alternating order, in whole
    passes until another pass would overrun ``seconds``."""
    deadline = clock() + seconds * 1e9
    plain_ns = traced_ns = 0
    attempted = failed = passes = 0
    first = {}
    while passes == 0 or clock() + (plain_ns + traced_ns) / passes < deadline:
        for k in range(work.steps):
            pair = {}
            for traced in ((False, True) if (passes + k) % 2 == 0 else (True, False)):
                if traced:
                    tracer.install(doflab)
                start = clock()
                try:
                    pair[traced] = work.run_step(k, clock)
                finally:
                    tracer.uninstall()
                if traced:
                    traced_ns += clock() - start
                else:
                    plain_ns += clock() - start
                attempted += pair[traced].ops
                failed += pair[traced].failed
            # tracing must not change any output
            failed += pair[True].outputs != pair[False].outputs
            first.setdefault(k, pair[True])
        passes += 1
    return {
        "first": [first[k] for k in range(work.steps)],
        "attempted": attempted,
        "failed": failed,
        "digest": workloads.digest([first[k].outputs for k in range(work.steps)]),
        "passes": passes,
        "plain_s": plain_ns / 1e9,
        "traced_s": traced_ns / 1e9,
    }


# ------------------------------------------------------ end-to-end metrics


def geometry_metrics(work, steps) -> dict:
    """Configs per second, median over chunks; latencies of the first pass."""
    rates = [s.ops / s.seconds for s in steps]
    scaled = statistics.median(r / s.scale for r, s in zip(rates, steps))
    first_pass = sorted(lat for s in steps[: work.steps] for lat in s.detail)
    return {
        "throughput_per_s": scaled,
        "pass_s": len(work.configs) / scaled,
        "report": {
            "configs_per_s": statistics.median(rates),
            "config_p50_us": _percentile(first_pass, 0.50) / 1e3,
            "config_p99_us": _percentile(first_pass, 0.99) / 1e3,
        },
    }


def campaign_numbers(timed) -> dict:
    """Correctness numbers of one pass; these repeat exactly for a seed."""
    rank = [o for o, _ in timed if o.fidelity == "rank"]
    gaps = {True: [0.0], False: [0.0]}
    for outcome, _ in timed:
        if outcome.fidelity == "rate":
            gaps[outcome.full_quality].append(outcome.slope_gap)
    return {
        "rank_pass_ratio": sum(o.rank_passes for o in rank) / sum(2 * o.trials for o in rank),
        "slope_gap_alpha1": max(gaps[True]),
        "slope_gap_frac": max(gaps[False]),
    }


def _fidelity_rate(timed, fidelity: str) -> float:
    """Trials (times SNR points, for rate) per second of one fidelity."""
    units = seconds = 0.0
    for outcome, elapsed in timed:
        if outcome.fidelity == fidelity:
            units += outcome.trials * (workloads.SNR_POINTS if fidelity == "rate" else 1)
            seconds += elapsed
    return units / seconds


def campaign_metrics(steps) -> dict:
    """Rate evaluations per second and pass time, medians over passes."""
    rates = [_fidelity_rate(s.detail, "rate") for s in steps]
    return {
        "throughput_per_s": statistics.median(r / s.scale for r, s in zip(rates, steps)),
        "pass_s": statistics.median(s.seconds * s.scale for s in steps),
        "report": {
            "rate_evals_per_s": statistics.median(rates),
            "rank_trials_per_s": statistics.median(_fidelity_rate(s.detail, "rank") for s in steps),
            **campaign_numbers(steps[0].detail),
        },
    }


# ------------------------------------------------------------ layer metrics


def layer_metrics(tracer: Tracer, run: dict, campaign: bool) -> dict:
    """Per-layer numbers per traced pass of the workload."""
    passes = run["passes"]
    spans = tracer.summary()

    def span(name, key):
        return spans[name][key] / passes if name in spans else 0.0

    out = {}
    for name in ("region.dof_region", "region.vertices", "simulate.gen_channels",
                 "simulate.quantize_csit"):
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.total_s"] = span(name, "total_s")
    for name in ("region.region_equal", "region.representative_corner",
                 "converse.converse_region", "scheme.plan_schedule", "scheme.plan_tdma",
                 "scheme.achievable_region", "scheme.order2_payload", "scheme.achieved_dof",
                 "simulate.build_phase_matrices"):
        out[f"{name}.total_s"] = span(name, "total_s")
    out["scheme.plan_slots"] = tracer.max_plan_slots
    out["rational.as_ratio.calls"] = tracer.counts["rational.as_ratio"] / passes
    rates_total = span("simulate.estimate_rates", "total_s")
    rates_self = span("simulate.estimate_rates", "self_s")
    out["simulate.estimate_rates.total_s"] = rates_total
    out["simulate.estimate_rates.self_s"] = rates_self
    out["simulate.glue_share"] = rates_self / rates_total if rates_total else 0.0
    out["simulate.rank_check_campaign.self_s"] = span("simulate.rank_check_campaign", "self_s")
    for name in ("kernels.logdet_rate_bits", "kernels.numerical_rank"):
        calls, total = span(name, "calls"), span(name, "total_s")
        flops, nbytes, max_dim = tracer.kernel[name]
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total
        out[f"{name}.mean_us"] = total / calls * 1e6 if calls else 0.0
        out[f"{name}.max_dim"] = max_dim
        out[f"{name}.gflop_est"] = flops / passes / 1e9
        out[f"{name}.mbytes_est"] = nbytes / passes / 1e6
    out["kernels.singular_covariance"] = tracer.counts["kernels.singular_covariance"] / passes
    out["cli.main.self_s"] = span("cli.main", "self_s")
    correctness = campaign_numbers(run["first"][0].detail) if campaign else {}
    for key in ("rank_pass_ratio", "slope_gap_alpha1", "slope_gap_frac"):
        out[f"simulate.{key}"] = correctness.get(key, 0.0)
    overhead = (run["traced_s"] - run["plain_s"]) / passes
    out["trace.overhead_s"] = overhead
    out["trace.overhead_share"] = overhead / (run["plain_s"] / passes)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="write the traced spans here")
    args = parser.parse_args(argv)

    campaign = args.workload in workloads.CAMPAIGNS
    doflab = import_doflab(args.root, campaign)
    work = workloads.build(doflab, args.workload, args.seed, args.tiny)
    setup_done_ns = time.monotonic_ns()
    if args.setup_only:
        # the loop's first run in a fresh process pays numpy's lazy set-up
        loop = Reference()
        scale = Reference.NOMINAL_S / statistics.median(loop.seconds() for _ in range(3))
        print(json.dumps({"setup_done_ns": setup_done_ns, "scale": scale}))
        return 0

    result = {"setup_done_ns": setup_done_ns}
    if args.trace:
        tracer = Tracer(clock)
        run = run_traced(work, args.seconds, tracer, doflab)
        result["layers"] = layer_metrics(tracer, run, campaign)
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        run = run_untraced(work, args.seconds)
        if campaign:
            result.update(campaign_metrics(run["steps"]))
        else:
            result.update(geometry_metrics(work, run["steps"]))
    result.update(attempted=run["attempted"], failed=run["failed"], digest=run["digest"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["meta"] = metadata(doflab)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
