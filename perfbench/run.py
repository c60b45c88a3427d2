"""doflab's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload geometry-sweep --seed 1 --seconds 20 --trace 0

Workloads: ``geometry-sweep``, ``campaign-small``, ``campaign-large``, or
``all`` to run the three in turn and print every metric of each. Run from
the root of a checkout: the benchmark imports ``doflab`` from ``src`` there,
in fresh interpreters with BLAS pinned to one thread.

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it with spans around each layer and prints the
per-layer metrics. Lines before the last are a human-readable report (every
named metric with its unit, and the run's metadata); the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results with metadata, and the spans of a traced run, are written under
``.perfbench-out/`` in the checkout. See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import CAMPAIGNS, WORKLOADS  # noqa: E402

OUT_DIR = ROOT / ".perfbench-out"
SETUP_SAMPLES = 9  # set-up only interpreters per run
RUN_LIMIT_S = 170  # each workload's run ends within this

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}
# Every metric the report lines carry, per workload kind.
REPORT = {
    "geometry": {
        "setup_s": "s", "configs_per_s": "1/s", "config_p50_us": "us", "config_p99_us": "us",
        "peak_rss_mb": "MB", "error_rate": "ratio",
    },
    "campaign": {
        "setup_s": "s", "rate_evals_per_s": "1/s", "rank_trials_per_s": "1/s",
        "rank_pass_ratio": "ratio", "slope_gap_alpha1": "DoF", "slope_gap_frac": "DoF",
        "peak_rss_mb": "MB", "error_rate": "ratio",
    },
}
PER_LAYER = {
    "import.doflab_s": "s",
    "import.numpy_s": "s",
    "region.dof_region.calls": "count",
    "region.dof_region.total_s": "s",
    "region.vertices.calls": "count",
    "region.vertices.total_s": "s",
    "region.region_equal.total_s": "s",
    "region.representative_corner.total_s": "s",
    "converse.converse_region.total_s": "s",
    "scheme.plan_schedule.total_s": "s",
    "scheme.plan_tdma.total_s": "s",
    "scheme.achievable_region.total_s": "s",
    "scheme.order2_payload.total_s": "s",
    "scheme.achieved_dof.total_s": "s",
    "scheme.plan_slots": "count",
    "rational.as_ratio.calls": "count",
    "simulate.estimate_rates.total_s": "s",
    "simulate.estimate_rates.self_s": "s",
    "simulate.glue_share": "ratio",
    "simulate.gen_channels.calls": "count",
    "simulate.gen_channels.total_s": "s",
    "simulate.quantize_csit.calls": "count",
    "simulate.quantize_csit.total_s": "s",
    "simulate.build_phase_matrices.total_s": "s",
    "simulate.rank_check_campaign.self_s": "s",
    "simulate.rank_pass_ratio": "ratio",
    "simulate.slope_gap_alpha1": "DoF",
    "simulate.slope_gap_frac": "DoF",
    "kernels.logdet_rate_bits.calls": "count",
    "kernels.logdet_rate_bits.total_s": "s",
    "kernels.logdet_rate_bits.mean_us": "us",
    "kernels.logdet_rate_bits.max_dim": "count",
    "kernels.logdet_rate_bits.gflop_est": "GFLOP",
    "kernels.logdet_rate_bits.mbytes_est": "MB",
    "kernels.numerical_rank.calls": "count",
    "kernels.numerical_rank.total_s": "s",
    "kernels.numerical_rank.mean_us": "us",
    "kernels.numerical_rank.max_dim": "count",
    "kernels.numerical_rank.gflop_est": "GFLOP",
    "kernels.numerical_rank.mbytes_est": "MB",
    "kernels.singular_covariance": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}
# One BLAS thread: on a small machine a second thread makes the large
# kernels slower and noisier, and changes the last digits of the rates.
PINNED_THREADS = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)  # doflab must come from this checkout's src
    return env


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()  # reset at the start of each workload
        self.env = child_env()

    def remaining(self) -> float:
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 5:
            raise BenchError("out of time")
        return left

    def worker(self, workload: str, *extra: str, python_flags=()):
        """Start one worker interpreter; returns (start ns, its JSON, stderr)."""
        cmd = [
            sys.executable, *python_flags, str(HERE / "worker.py"), "--root", str(ROOT),
            "--workload", workload, "--seed", str(self.args.seed), *extra,
        ]
        if self.args.size == "tiny":
            cmd.append("--tiny")
        start = time.monotonic_ns()
        proc = subprocess.run(
            cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=self.remaining(),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"{workload} worker exited with {proc.returncode}")
        try:
            return start, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr
        except (IndexError, ValueError) as exc:
            raise BenchError(f"{workload} worker printed no result") from exc

    def setup_seconds(self, workload: str) -> tuple[float, float]:
        """Median set-up time over fresh interpreters: as measured, and
        scaled to the reference speed measured right after it."""
        raw, scaled = [], []
        for _ in range(SETUP_SAMPLES):
            start, out, _ = self.worker(workload, "--setup-only")
            raw.append((out["setup_done_ns"] - start) / 1e9)
            scaled.append(raw[-1] * out["scale"])
        return statistics.median(raw), statistics.median(scaled)

    def import_seconds(self, workload: str) -> dict:
        """Cumulative import time of doflab and of numpy, from -X importtime."""
        found = {"doflab": [], "numpy": []}
        for _ in range(SETUP_SAMPLES):
            _, _, err = self.worker(workload, "--setup-only", python_flags=("-X", "importtime"))
            seen = {}
            for line in err.splitlines():
                match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
                if match and match.group(2) in found:
                    seen[match.group(2)] = int(match.group(1)) / 1e6
            for name in found:
                found[name].append(seen.get(name, 0.0))
        return {f"import.{name}_s": statistics.median(v) for name, v in found.items()}

    def run(self, workload: str) -> dict:
        args = self.args
        self.started = time.monotonic()
        common = ["--seconds", str(args.seconds)]
        if args.trace:
            imports = self.import_seconds(workload)
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{workload}.tsv"
            _, out, _ = self.worker(workload, *common, "--trace", "1", "--spans", str(spans))
            metrics = {**imports, **out["layers"]}
            units = PER_LAYER
            report = {}
        else:
            setup_raw, setup_scaled = self.setup_seconds(workload)
            _, out, _ = self.worker(workload, *common)
            metrics = {
                "setup_s": setup_scaled,
                "throughput_per_s": out["throughput_per_s"],
                "pass_s": out["pass_s"],
                "peak_rss_mb": out["peak_rss_mb"],
            }
            units = END_TO_END
            kind = "campaign" if workload in CAMPAIGNS else "geometry"
            values = {
                **metrics, **out["report"], "setup_s": setup_raw,
                "error_rate": out["failed"] / out["attempted"],
            }
            report = {name: (values[name], unit) for name, unit in REPORT[kind].items()}
        meta = {
            **out["meta"], "workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "git_commit": git_commit(ROOT),
        }
        return {
            "workload": workload,
            "correct": out["failed"] == 0,
            "attempted": out["attempted"],
            "failed": out["failed"],
            "digest": out["digest"],
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            "report": report,
            "meta": meta,
        }


def print_result(res: dict) -> None:
    name = res["workload"]
    print(f"meta {name} {json.dumps(res['meta'], sort_keys=True)}")
    print(f"digest {name} {res['digest']}")
    for metric, (value, unit) in res["report"].items():
        print(f"metric {name} {metric} = {value:.6g} {unit}")
    for metric, entry in res["metrics"].items():
        print(f"{'layer' if res['meta']['trace'] else 'e2e'} {name} {metric} = "
              f"{entry['value']:.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload; at least one whole pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few configs and trials, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "doflab" / "__init__.py").is_file():
        print(f"perfbench: no doflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runner = Runner(args)
    results = []
    try:
        for name in names:
            results.append(runner.run(name))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    for res in results:
        print_result(res)
        path = OUT_DIR / f"{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=2, sort_keys=True) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
