"""Command-line front end.

Subcommands map one-to-one onto the library surface: exact region
geometry (``region``, ``corners``, ``compare``, ``sweep-alpha``,
``sweep-pairs``), scheduling (``plan``), and Monte Carlo simulation
(``simulate``). Exact quantities are printed as ``p/q`` strings; output
goes to stdout or ``--out``. Exit codes: 0 success, 2 usage, 3 domain
error. A domain error is a ``doflab.errors.DoflabError``, raised by the one
owner of its rule: here for the rules only the command line has (the
antenna cap, the seed text, the SNR grid's size and step, ``--out``), else
in the library, which checks antennas, qualities, weights and simulation
parameters. It is printed as ``E:<CODE>:<message>`` on stderr with the
``code`` of its type. Any other exception is a programming error and
propagates.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from pathlib import Path

from .errors import (DoflabError, InvalidAlpha, InvalidConfig, InvalidSeed, InvalidSnrGrid,
                     OutputError, TooManyAntennas)
from .rational import DIGIT_LIMIT, as_ratio
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
_SEED = re.compile(rf"[+-]?[0-9]{{1,{DIGIT_LIMIT}}}")


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
        default=None,
        help="RNG seed (default: $DOFLAB_SEED, else 0)",
    )


def _resolve_seed(args) -> int:
    """``--seed``, else ``DOFLAB_SEED``, else 0. Both are read by one rule:
    an optional sign and at most ``DIGIT_LIMIT`` decimal digits, and not
    negative; anything else raises ``InvalidSeed``."""
    if args.seed is not None:
        text, source = args.seed.strip(), "--seed"
    else:
        text, source = os.environ.get("DOFLAB_SEED", "").strip(), "DOFLAB_SEED"
        if not text:
            return 0
    if _SEED.fullmatch(text) is None:
        raise InvalidSeed(f"{source} is not an integer: {text!r}")
    seed = int(text)
    if seed < 0:
        raise InvalidSeed(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _antennas(args) -> tuple[int, int, int]:
    """--M, --N1 and --N2, refused above MAX_ANTENNAS before any geometry
    runs."""
    for name in ("M", "N1", "N2"):
        if getattr(args, name) > MAX_ANTENNAS:
            raise TooManyAntennas(f"--{name} is above the cap of 10**{ANTENNA_DIGITS} antennas")
    return args.M, args.N1, args.N2


def _config(args) -> SystemConfig:
    return SystemConfig(*_antennas(args), args.alpha1, args.alpha2)


def _out_path(out) -> Path | None:
    """The file ``--out`` names, or None for stdout (``-``). A path with no
    file name, such as ``.`` or ``/``, raises ``OutputError``."""
    if out in (None, "-", ""):
        return None
    path = Path(out)
    if not path.name:
        raise OutputError(f"cannot write {out}: it names a directory")
    return path


def _emit(text: str, out):
    """Write ``text`` to stdout for ``-``, else to the file ``out``."""
    path = _out_path(out)
    if path is None:
        sys.stdout.write(text)
    else:
        _write_files({path: text})


def _write_files(texts: dict) -> None:
    """Write each text of ``texts`` to its path: every file, or none.

    Each text goes to a fresh hidden name next to its path, and these are
    renamed over the paths only after every write succeeded; a rename that
    fails removes the files renamed before it. A path that cannot be
    written raises ``OutputError``.
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
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    """The table of ``header`` and ``rows``, each a sequence of cell
    strings, one comma-separated line each."""
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _emit_table(args, header, rows, payload) -> None:
    """Emit ``payload`` as JSON, or for ``--format csv`` the table of
    ``header`` and ``rows``."""
    if args.format == "csv":
        _emit(_csv_text(header, rows), args.out)
    else:
        _emit(_json_text(payload), args.out)


def _plan_for(cfg: SystemConfig, weight: str, at_corner: bool):
    """The plan of ``weight``, or of the corner's weight for ``at_corner``,
    and that weight as a Fraction. The planner parses and checks it."""
    three_phase = cfg.n2 < cfg.m
    if at_corner:
        weight = corner_weight(cfg) if three_phase else "1/2"
    plan = (plan_schedule if three_phase else plan_tdma)(cfg, weight)
    return plan, as_ratio(weight)


def cmd_region(args) -> int:
    region = dof_region(_config(args))
    _emit(_json_text(region.to_json_dict()), args.out)
    return 0


def cmd_corners(args) -> int:
    vertices = [[str(v.d1), str(v.d2)] for v in dof_region(_config(args)).vertices()]
    _emit_table(args, ("d1", "d2"), vertices, {"vertices": vertices})
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


def _snr_grid(snr_min: float, snr_max: float, step: float) -> tuple[float, ...]:
    """``snr_min``, ``snr_min + step``, ... up to ``snr_max`` (within 1e-9),
    rounded to 6 decimals. Only the bounds, the step and the point cap are
    checked here, before any point is built; ``SimParams`` checks the
    points themselves."""
    if not all(math.isfinite(x) for x in (snr_min, snr_max, step)):
        raise InvalidSnrGrid("SNR bounds and step must be finite")
    if step <= 0:
        raise InvalidSnrGrid(f"SNR step must be positive, got {step}")
    span = (snr_max - snr_min + 1e-9) / step
    if span >= MAX_SNR_POINTS:
        raise InvalidSnrGrid(f"SNR grid would exceed {MAX_SNR_POINTS} points")
    count = math.floor(span) + 1 if span >= 0 else 0
    return tuple(round(snr_min + i * step, 6) for i in range(count))


def cmd_simulate(args) -> int:
    if args.fidelity == "rank" and args.format == "csv":
        raise InvalidConfig("--format csv writes rates, and --fidelity rank computes none")
    # only this command loads the simulator, and numpy with it
    from .simulate import SimParams, estimate_rates, rank_check_campaign

    cfg = _config(args)
    plan, weight = _plan_for(cfg, args.weight, args.at_corner)
    params = SimParams(
        snr_grid_db=_snr_grid(args.snr_min, args.snr_max, args.snr_step),
        trials=args.trials,
        seed=_resolve_seed(args),
    )

    report = None if args.fidelity == "rank" else estimate_rates(cfg, plan, params)
    rank = None
    if args.fidelity != "rate":
        passes = rank_check_campaign(cfg, plan, params)
        rank = {"rx1_passes": passes[0], "rx2_passes": passes[1], "trials": params.trials}
    if report is None:
        _emit(_json_text({"plan": _plan_payload(cfg, plan, weight), "rank_check": rank}), args.out)
        return 0

    json_text = _json_text({**report.to_json_dict(), "rank_check": rank})
    rows = [(repr(snr), str(rx), repr(float(rate)), str(report.trials))
            for snr, pair in zip(report.snr_grid_db, report.rates)
            for rx, rate in enumerate(pair, 1)]
    csv_text = _csv_text(("snr_db", "rx", "rate_bits_per_slot", "trials"), rows)
    base = _out_path(args.out)
    if base is None:
        _emit(csv_text if args.format == "csv" else json_text, args.out)
    else:
        _write_files({base.with_suffix(".csv"): csv_text, base.with_suffix(".json"): json_text})
    return 0


def _items(text: str, what: str) -> list[str]:
    """The comma-separated items of ``text``, stripped, without the empty
    ones; none at all raises ``InvalidAlpha`` (``empty <what> list``)."""
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise InvalidAlpha(f"empty {what} list")
    return items


def cmd_sweep_alpha(args) -> int:
    antennas = _antennas(args)
    cfgs = [SystemConfig(*antennas, alpha, alpha) for alpha in _items(args.alphas, "alpha")]
    entries = []
    for cfg in cfgs:
        region = dof_region(cfg)
        corner = representative_corner(cfg)
        entries.append(
            {
                "alpha": str(cfg.alpha1),
                "vertices": [[str(v.d1), str(v.d2)] for v in region.vertices()],
                "corner": [str(corner.d1), str(corner.d2)],
            }
        )
    rows = [(entry["alpha"], str(vi), *vertex)
            for entry in entries for vi, vertex in enumerate(entry["vertices"])]
    _emit_table(args, ("alpha", "vertex_index", "d1", "d2"), rows, {"entries": entries})
    return 0


def cmd_sweep_pairs(args) -> int:
    antennas = _antennas(args)
    cfgs = []
    for piece in _items(args.pairs, "pair"):
        if ":" not in piece:
            raise InvalidAlpha(f"pair {piece!r} is not alpha1:alpha2")
        cfgs.append(SystemConfig(*antennas, *piece.split(":", 1)))
    entries = []
    for cfg in cfgs:
        corner = representative_corner(cfg)
        entries.append(
            {
                "alpha1": str(cfg.alpha1),
                "alpha2": str(cfg.alpha2),
                "corner": [str(corner.d1), str(corner.d2)],
            }
        )
    rows = [(entry["alpha1"], entry["alpha2"], *entry["corner"]) for entry in entries]
    _emit_table(args, ("alpha1", "alpha2", "d1", "d2"), rows, {"entries": entries})
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DoflabError as exc:
        print(f"E:{type(exc).code}:{exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
