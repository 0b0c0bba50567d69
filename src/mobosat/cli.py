"""Command-line frontend.

Subcommands: ``solve`` (exact / interval / coeff modes), ``evaluate``
(indicators over two point files), ``generate`` (set-covering benchmark
instances), ``oracle`` (brute-force ground truth for small instances), and
``enumerate-efficient`` (all efficient solutions, exact mode).

Exit codes:  0 success;  1 usage or input error;  2 solve truncated by the
time budget;  3 instance infeasible.  The ``MOBO_MCS_LOG`` environment
variable sets the log level (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import io as iomod
from . import quality
from .approx import as_ratio
from .engine import RatioSchedule, core_solve, enumerate_efficient_set, intre_solve
from .model import Instance

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TRUNCATED = 2
EXIT_INFEASIBLE = 3


def _configure_logging() -> None:
    level_name = os.environ.get("MOBO_MCS_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _ratio_arg(text: str) -> Fraction:
    try:
        return as_ratio(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _load_instance(path: str) -> Instance:
    return iomod.parse_pbmo(Path(path).read_text(encoding="utf-8"))


def _emit(data: bytes, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(data.decode("utf-8"))
    else:
        Path(out).write_bytes(data)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobosat",
        description="Pareto front enumeration and guaranteed approximation "
                    "for multi-objective Boolean optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a .pbmo instance")
    solve.add_argument("instance", help="input .pbmo file")
    solve.add_argument("--mode", choices=("exact", "interval", "coeff"), default="exact")
    solve.add_argument("--ratio", type=_ratio_arg, default=Fraction(1),
                       help="starting ratio 1+eps (accepts 2, 1.1 or 11/10)")
    solve.add_argument("--divisor", type=_fraction_arg, default=Fraction(10),
                       help="eps is divided by this after each iteration")
    solve.add_argument("--target-ratio", type=_ratio_arg, default=Fraction(1),
                       help="stop once an iteration at or below this ratio completes")
    solve.add_argument("--time-limit", type=float, default=None,
                       help="wall-clock budget in seconds (bounds encoding too)")
    solve.add_argument("--out", default=None, help="result JSON path (default stdout)")
    solve.add_argument("--trace", default=None, help="per-iteration trace CSV path")

    enum = sub.add_parser("enumerate-efficient",
                          help="enumerate every efficient solution (exact mode)")
    enum.add_argument("instance")
    enum.add_argument("--time-limit", type=float, default=None)
    enum.add_argument("--out", default=None)

    gen = sub.add_parser("generate", help="generate set-covering benchmark instances")
    gen.add_argument("-n", type=int, required=True, help="number of variables")
    gen.add_argument("-m", type=int, required=True, help="number of covering constraints")
    gen.add_argument("-p", type=int, required=True, help="number of objectives")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1, help="how many instances (seeds seed..seed+count-1)")
    gen.add_argument("--out", default=None,
                     help="output file, or a directory when count > 1 (default stdout)")

    orc = sub.add_parser("oracle", help="brute-force Pareto front of a small instance")
    orc.add_argument("instance")
    orc.add_argument("--max-vars", type=int, default=24, help="refuse instances above this size")
    orc.add_argument("--out", default=None)

    ev = sub.add_parser("evaluate", help="indicators for a point set against a reference")
    ev.add_argument("points", help="JSON point file or result document (set A)")
    ev.add_argument("reference", help="JSON point file or result document (reference set)")
    ev.add_argument("--protocol-slack", type=_fraction_arg, default=Fraction(1),
                    help="normalization slack factor (1 => max+1; 11/10 => 1.1x protocol)")
    ev.add_argument("--out", default=None)
    return parser


def _schedule_from_args(args) -> RatioSchedule:
    ratio = Fraction(1) if args.mode == "exact" else args.ratio
    target = Fraction(1) if args.mode == "exact" else args.target_ratio
    return RatioSchedule(
        start=ratio,
        divisor=args.divisor,
        target=target,
        budget_s=args.time_limit,
    )


def _cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    schedule = _schedule_from_args(args)
    if args.mode == "interval":
        result = intre_solve(instance, schedule)
    else:
        result = core_solve(instance, schedule)
    _emit(iomod.write_result(result, "json"), args.out)
    if args.trace:
        Path(args.trace).write_bytes(iomod.write_result(result, "csv"))
    if result.infeasible:
        return EXIT_INFEASIBLE
    if result.truncated:
        return EXIT_TRUNCATED
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    instance = _load_instance(args.instance)
    records, completed = enumerate_efficient_set(instance, budget_s=args.time_limit)
    payload = {
        "schema": iomod.RESULT_SCHEMA,
        "complete": completed,
        "solutions": [
            {"assignment": list(rec.assignment), "image": list(rec.image)}
            for rec in records
        ],
    }
    _emit(iomod._json_bytes(payload), args.out)
    if completed and not records:
        return EXIT_INFEASIBLE
    return EXIT_OK if completed else EXIT_TRUNCATED


def _generated_pbmo(n: int, m: int, p: int, seed: int) -> str:
    instance = iomod.generate_mscp(n, m, p, seed)
    return iomod.write_pbmo(instance, comment=f"mscp n={n} m={m} p={p} seed={seed}")


def _cmd_generate(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.count == 1:
        _emit(_generated_pbmo(args.n, args.m, args.p, args.seed).encode("utf-8"), args.out)
        return EXIT_OK
    if args.out is None:
        raise ValueError("--out directory is required when count > 1")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for seed in range(args.seed, args.seed + args.count):
        path = outdir / f"mscp_n{args.n}_m{args.m}_p{args.p}_s{seed}.pbmo"
        path.write_text(_generated_pbmo(args.n, args.m, args.p, seed), encoding="utf-8")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .oracle import brute_force_pareto  # imports numpy, which no other command needs

    instance = _load_instance(args.instance)
    report = brute_force_pareto(instance, cap=args.max_vars)
    payload = {
        "schema": iomod.RESULT_SCHEMA,
        "pareto_front": [list(q) for q in report.pareto_front],
        "efficient_count": len(report.efficient),
        "feasible_count": report.feasible_count,
    }
    _emit(iomod._json_bytes(payload), args.out)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    a_points = iomod.parse_point_file(Path(args.points).read_text(encoding="utf-8"))
    r_points = iomod.parse_point_file(Path(args.reference).read_text(encoding="utf-8"))
    report = quality.make_report(a_points, reference=r_points, slack=args.protocol_slack)
    payload = {
        "schema": iomod.RESULT_SCHEMA,
        "epsilon_vs_reference": iomod._ratio_str(report.epsilon_vs_reference),
        "epsilon_vs_reference_float": (None if report.epsilon_vs_reference is None
                                       else float(report.epsilon_vs_reference)),
        "hypervolume": iomod._ratio_str(report.hypervolume),
        "hypervolume_float": None if report.hypervolume is None else float(report.hypervolume),
        "denominators": list(report.denominators),
        "shifted": report.shifted,
    }
    _emit(iomod._json_bytes(payload), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    _configure_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage or help
        return EXIT_ERROR if exc.code else EXIT_OK
    handlers = {
        "solve": _cmd_solve,
        "enumerate-efficient": _cmd_enumerate,
        "generate": _cmd_generate,
        "oracle": _cmd_oracle,
        "evaluate": _cmd_evaluate,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:  # ParseError and OracleCapError are ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
