"""Command-line front end.

Subcommands map one-to-one onto the library surface: exact region
geometry (``region``, ``corners``, ``compare``, ``sweep-alpha``,
``sweep-pairs``), scheduling (``plan``), and Monte Carlo simulation
(``simulate``). Exact quantities are printed as ``p/q`` strings; output
goes to stdout or ``--out``. Exit codes: 0 success, 2 usage, 3 domain
error (printed as ``E:<CODE>:<message>`` on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import DoflabError, InvalidWeight, TooManyAntennas
from .rational import as_ratio
from .region import (
    SystemConfig,
    delayed_csit_region,
    dof_region,
    is_subset,
    no_csit_region,
    representative_corner,
)
from .scheme import (
    achieved_dof,
    check_decoding_conditions,
    corner_weight,
    order2_payload,
    plan_schedule,
    plan_tdma,
)

MAX_SNR_POINTS = 1000
# Largest antenna count: with qualities and weights of up to
# rational.DIGIT_LIMIT digits, every command's numbers then stay within
# Python's 4300-digit limit on printing an integer.
ANTENNA_DIGITS = 300
MAX_ANTENNAS = 10**ANTENNA_DIGITS


class _CliError(DoflabError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _add_config_args(sub: argparse.ArgumentParser, with_alphas: bool = True):
    sub.add_argument("--M", type=int, required=True, help="transmit antennas")
    sub.add_argument("--N1", type=int, required=True, help="receiver-1 antennas")
    sub.add_argument("--N2", type=int, required=True, help="receiver-2 antennas")
    if with_alphas:
        sub.add_argument("--alpha1", default="1", help="CSIT quality of user 1 in [0,1], e.g. 1/2")
        sub.add_argument("--alpha2", default="1", help="CSIT quality of user 2 in [0,1]")


def _add_output_args(sub: argparse.ArgumentParser, formats=("json",)):
    sub.add_argument("--out", default="-", help="output path, or - for stdout")
    if len(formats) > 1:
        sub.add_argument("--format", choices=formats, default=formats[0])


def _add_seed_arg(sub: argparse.ArgumentParser):
    sub.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed (default: $DOFLAB_SEED, else 0)",
    )


def _resolve_seed(args) -> int:
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get("DOFLAB_SEED", "").strip()
        if not env:
            return 0
        try:
            seed, source = int(env), "DOFLAB_SEED"
        except ValueError:
            raise _CliError("INVALID_SEED", f"DOFLAB_SEED is not an integer: {env!r}")
    if seed < 0:
        raise _CliError("INVALID_SEED", f"{source} must be a non-negative integer, got {seed}")
    return seed


def _alpha(value: str, name: str):
    try:
        ratio = as_ratio(value)
    except ValueError as exc:
        raise _CliError("INVALID_ALPHA", f"{name} is {exc}")
    if not 0 <= ratio <= 1:
        raise _CliError("INVALID_ALPHA", f"{name} must lie in [0, 1], got {value}")
    return ratio


def _antennas(args) -> tuple[int, int, int]:
    """--M, --N1 and --N2, refused above MAX_ANTENNAS before any geometry
    runs."""
    for name in ("M", "N1", "N2"):
        if getattr(args, name) > MAX_ANTENNAS:
            raise TooManyAntennas(f"--{name} is above the cap of 10**{ANTENNA_DIGITS} antennas")
    return args.M, args.N1, args.N2


def _config(args) -> SystemConfig:
    antennas = _antennas(args)
    a1, a2 = _alpha(args.alpha1, "alpha1"), _alpha(args.alpha2, "alpha2")
    return SystemConfig(*antennas, a1, a2)


def _emit(text: str, out):
    """Write ``text`` to stdout for ``-``, else to the file ``out``."""
    if out in (None, "-", ""):
        sys.stdout.write(text)
    else:
        _write_files({Path(out): text})


def _write_files(texts: dict) -> None:
    """Write each text of ``texts`` to its path: every file, or none.

    Each text goes to a fresh hidden name next to its path, and these are
    renamed over the paths only after every write succeeded; a rename that
    fails removes the files renamed before it. A path that cannot be
    written is an ``OUTPUT_ERROR``.
    """
    temps, renamed = {}, []
    try:
        for path, text in texts.items():
            temps[path] = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
            with temps[path].open("x") as handle:
                handle.write(text)
        for path, temp in temps.items():
            os.replace(temp, path)
            renamed.append(path)
    except OSError as exc:
        for leftover in [*temps.values(), *renamed]:
            with contextlib.suppress(OSError):
                os.unlink(leftover)
        raise _CliError("OUTPUT_ERROR", f"cannot write {path}: {exc.strerror or exc}")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _plan_for(cfg: SystemConfig, weight, at_corner: bool):
    if at_corner:
        weight = corner_weight(cfg) if cfg.n2 < cfg.m else as_ratio("1/2")
    else:
        try:
            weight = as_ratio(weight)
        except ValueError as exc:
            raise InvalidWeight(f"weight is {exc}")
    if cfg.n2 < cfg.m:
        return plan_schedule(cfg, weight), weight
    return plan_tdma(cfg, weight), weight


def cmd_region(args) -> int:
    region = dof_region(_config(args))
    _emit(_json_text(region.to_json_dict()), args.out)
    return 0


def cmd_corners(args) -> int:
    region = dof_region(_config(args))
    verts = region.vertices()
    if args.format == "csv":
        lines = ["d1,d2"]
        lines += [f"{v.d1!s},{v.d2!s}" for v in verts]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {"vertices": [[str(v.d1), str(v.d2)] for v in verts]}
        _emit(_json_text(payload), args.out)
    return 0


def cmd_compare(args) -> int:
    cfg = _config(args)
    lower = no_csit_region(cfg)
    mid = dof_region(cfg)
    upper = delayed_csit_region(cfg)
    payload = {
        "no_csit": lower.to_json_dict(),
        "configured": mid.to_json_dict(),
        "perfect_delayed": upper.to_json_dict(),
        "nested": {
            "no_csit_within_configured": is_subset(lower, mid),
            "configured_within_perfect_delayed": is_subset(mid, upper),
        },
    }
    _emit(_json_text(payload), args.out)
    return 0


def _plan_payload(cfg: SystemConfig, plan, weight) -> dict:
    check = check_decoding_conditions(plan, cfg)
    payload = order2_payload(plan, cfg)
    dof = achieved_dof(plan, cfg)
    return {
        "weight": str(weight),
        "tau": [plan.tau1, plan.tau2, plan.tau3],
        "s1_count": plan.s1_count,
        "s2_count": plan.s2_count,
        "integer_scale": plan.integer_scale,
        "decoding": {"ok": check.ok, "slack1": check.slack1, "slack2": check.slack2},
        "payload": {
            "k1_needed": payload.k1_needed,
            "k2_needed": payload.k2_needed,
            "length": payload.length,
            "per_slot_streams": payload.per_slot_streams,
        },
        "dof": [str(dof.d1), str(dof.d2)],
    }


def cmd_plan(args) -> int:
    cfg = _config(args)
    plan, weight = _plan_for(cfg, args.weight, args.at_corner)
    _emit(_json_text(_plan_payload(cfg, plan, weight)), args.out)
    return 0


def _snr_grid(snr_min: float, snr_max: float, step: float) -> list[float]:
    """``snr_min``, ``snr_min + step``, ... up to ``snr_max`` (within 1e-9),
    rounded to 6 decimals. The point count is checked before any is built,
    and every point's ``rho = 10**(snr/10)`` must be a positive finite float."""
    if not all(math.isfinite(x) for x in (snr_min, snr_max, step)):
        raise _CliError("INVALID_SNR_GRID", "SNR bounds and step must be finite")
    if step <= 0:
        raise _CliError("INVALID_SNR_GRID", f"SNR step must be positive, got {step}")
    span = (snr_max - snr_min + 1e-9) / step
    if span >= MAX_SNR_POINTS:
        raise _CliError(
            "INVALID_SNR_GRID", f"SNR grid would exceed {MAX_SNR_POINTS} points"
        )
    count = math.floor(span) + 1 if span >= 0 else 0
    if count < 2:
        raise _CliError("INVALID_SNR_GRID", "need at least two SNR points")
    grid = [round(snr_min + i * step, 6) for i in range(count)]
    # the grid increases, so its ends bound every point's rho
    for snr_db in (grid[0], grid[-1]):
        try:
            rho = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            rho = math.inf
        if not 0 < rho < math.inf:
            raise _CliError(
                "INVALID_SNR_GRID", f"SNR {snr_db} dB gives no positive finite rho"
            )
    return grid


def cmd_simulate(args) -> int:
    # only this command loads the simulator, and numpy with it
    from .simulate import (
        RATE_ROUNDING,
        SimParams,
        estimate_rates,
        rank_check_campaign,
        rate_snr_limit_db,
    )

    cfg = _config(args)
    plan, weight = _plan_for(cfg, args.weight, args.at_corner)
    snrs = _snr_grid(args.snr_min, args.snr_max, args.snr_step)
    if args.fidelity != "rank":
        limit = rate_snr_limit_db(cfg, plan)
        if snrs[-1] > limit:
            raise _CliError(
                "INVALID_SNR_GRID",
                f"SNR {snrs[-1]} dB is above {limit:.1f} dB, the highest at which this plan's "
                f"rates keep rounding errors within {RATE_ROUNDING:g} "
                "(see doflab.simulate.rate_snr_limit_db)",
            )
    params = SimParams(
        snr_grid_db=tuple(snrs),
        trials=args.trials,
        seed=_resolve_seed(args),
    )

    if args.fidelity == "rank":
        passes = rank_check_campaign(cfg, plan, params)
        payload = {
            "plan": _plan_payload(cfg, plan, weight),
            "rank_check": {
                "rx1_passes": passes[0],
                "rx2_passes": passes[1],
                "trials": params.trials,
            },
        }
        _emit(_json_text(payload), args.out)
        return 0

    report = estimate_rates(cfg, plan, params)
    if args.fidelity == "both":
        passes = rank_check_campaign(cfg, plan, params)
        report = replace(report, rank_passes=passes, rank_trials=params.trials)

    if args.out in (None, "-", ""):
        if args.format == "csv":
            _emit(report.to_csv_text(), args.out)
        else:
            _emit(_json_text(report.to_json_dict()), args.out)
    else:
        base = Path(args.out)
        _write_files({
            base.with_suffix(".csv"): report.to_csv_text(),
            base.with_suffix(".json"): _json_text(report.to_json_dict()),
        })
    return 0


def _parse_alpha_list(text: str) -> list:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise _CliError("INVALID_ALPHA", "empty alpha list")
    return [_alpha(piece, "alpha") for piece in items]


def cmd_sweep_alpha(args) -> int:
    antennas = _antennas(args)
    alphas = _parse_alpha_list(args.alphas)
    entries = []
    for alpha in alphas:
        cfg = SystemConfig(*antennas, alpha, alpha)
        region = dof_region(cfg)
        corner = representative_corner(cfg)
        entries.append(
            {
                "alpha": str(alpha),
                "vertices": [[str(v.d1), str(v.d2)] for v in region.vertices()],
                "corner": [str(corner.d1), str(corner.d2)],
            }
        )
    if args.format == "csv":
        lines = ["alpha,vertex_index,d1,d2"]
        for entry in entries:
            for vi, (d1, d2) in enumerate(entry["vertices"]):
                lines.append(f"{entry['alpha']},{vi},{d1},{d2}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_text({"entries": entries}), args.out)
    return 0


def cmd_sweep_pairs(args) -> int:
    antennas = _antennas(args)
    pairs = []
    for piece in args.pairs.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ":" not in piece:
            raise _CliError("INVALID_ALPHA", f"pair {piece!r} is not alpha1:alpha2")
        left, right = piece.split(":", 1)
        pairs.append((_alpha(left, "alpha1"), _alpha(right, "alpha2")))
    if not pairs:
        raise _CliError("INVALID_ALPHA", "empty pair list")
    entries = []
    for a1, a2 in pairs:
        cfg = SystemConfig(*antennas, a1, a2)
        corner = representative_corner(cfg)
        entries.append(
            {
                "alpha1": str(a1),
                "alpha2": str(a2),
                "corner": [str(corner.d1), str(corner.d2)],
            }
        )
    if args.format == "csv":
        lines = ["alpha1,alpha2,d1,d2"]
        for entry in entries:
            lines.append(
                f"{entry['alpha1']},{entry['alpha2']},{entry['corner'][0]},{entry['corner'][1]}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_text({"entries": entries}), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doflab",
        description="DoF regions and link simulation for the two-user broadcast "
        "channel with delayed imperfect-quality CSIT",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("region", help="emit the exact region (constraints + vertices)")
    _add_config_args(sub)
    _add_output_args(sub)
    sub.set_defaults(func=cmd_region)

    sub = subs.add_parser("corners", help="emit the region's vertex list")
    _add_config_args(sub)
    _add_output_args(sub, formats=("json", "csv"))
    sub.set_defaults(func=cmd_corners)

    sub = subs.add_parser(
        "compare", help="no-CSIT vs configured vs perfect-delayed regions"
    )
    _add_config_args(sub)
    _add_output_args(sub)
    sub.set_defaults(func=cmd_compare)

    sub = subs.add_parser("plan", help="plan a schedule for a time-sharing weight")
    _add_config_args(sub)
    sub.add_argument("--weight", default="1/2", help="time share of user 1 in [0,1]")
    sub.add_argument(
        "--at-corner",
        action="store_true",
        help="use the weight that lands on the region's off-axis corner",
    )
    _add_output_args(sub)
    sub.set_defaults(func=cmd_plan)

    sub = subs.add_parser("simulate", help="Monte Carlo rank / rate simulation of a plan")
    _add_config_args(sub)
    sub.add_argument("--weight", default="1/2")
    sub.add_argument("--at-corner", action="store_true")
    sub.add_argument("--fidelity", choices=("rank", "rate", "both"), default="both")
    sub.add_argument("--snr-min", type=float, default=30.0)
    sub.add_argument("--snr-max", type=float, default=60.0)
    sub.add_argument("--snr-step", type=float, default=5.0)
    sub.add_argument("--trials", type=int, default=200)
    _add_seed_arg(sub)
    _add_output_args(sub, formats=("json", "csv"))
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser(
        "sweep-alpha", help="regions and corners for a list of symmetric qualities"
    )
    _add_config_args(sub, with_alphas=False)
    sub.add_argument("--alphas", default="0,1/4,1/2,3/4,1", help="comma list of qualities")
    _add_output_args(sub, formats=("json", "csv"))
    sub.set_defaults(func=cmd_sweep_alpha)

    sub = subs.add_parser(
        "sweep-pairs", help="corner points for a list of (alpha1, alpha2) pairs"
    )
    _add_config_args(sub, with_alphas=False)
    sub.add_argument(
        "--pairs",
        default="1:0,1:1/4,1:1/2,1:3/4,1:1",
        help="comma list of alpha1:alpha2 pairs",
    )
    _add_output_args(sub, formats=("json", "csv"))
    sub.set_defaults(func=cmd_sweep_pairs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DoflabError as exc:
        print(f"E:{exc.code}:{exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"E:INVALID_CONFIG:{exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
