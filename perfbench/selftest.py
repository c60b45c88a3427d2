"""Self-test of the benchmark, at a tiny size (about a minute).

    python3 perfbench/selftest.py

For every workload it runs ``run.py`` untraced and traced with one seed and
checks that:

* the last line is the result object with exactly its four keys, correct,
  with no failed operation;
* the metrics are exactly those ``BENCHMARK.json`` names, with its units
  (end-to-end untraced, per-layer traced);
* every report metric of the workload is printed by name with its unit;
* the outputs digest is the same with tracing on and off.

It also checks that the benchmark fails, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and the benchmark itself.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import CAMPAIGNS, OUT_DIR, REPORT, WORKLOADS  # noqa: E402

SEED = 5


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(workload: str, trace: int, spec: dict, problems: list) -> str | None:
    """Check one run; returns its outputs digest."""
    where = f"{workload} trace={trace}"
    proc = run_bench(ROOT, workload, trace)
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
    if not trace:
        kind = "campaign" if workload in CAMPAIGNS else "geometry"
        for name, unit in REPORT[kind].items():
            prefix = f"metric {workload} {name} = "
            if not any(line.startswith(prefix) and line.endswith(f" {unit}") for line in lines):
                problems.append(f"{where}: report metric {name} [{unit}] not printed")
    digests = [line.split()[-1] for line in lines if line.startswith(f"digest {workload} ")]
    return digests[0] if digests else None


def check_without_program(problems: list) -> None:
    bare = OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_bench(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without src: exit {proc.returncode}, stdout {proc.stdout.strip()[:80]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in WORKLOADS:
        plain = check_run(workload, 0, spec, problems)
        traced = check_run(workload, 1, spec, problems)
        if plain is None or plain != traced:
            problems.append(f"{workload}: outputs digest {plain} untraced, {traced} traced")
        print(f"{workload}: checked", flush=True)
    check_without_program(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
