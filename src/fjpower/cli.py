"""Command-line entry point.

Each subcommand is one row of ``_COMMANDS``: its handler, its positional
argument and its help text (``fjpower --help`` lists them).  The parser is
built from that table, every subcommand takes the same ``--tol``,
``--max-iter``, ``--seed`` and ``--out`` flags, and ``main`` dispatches
through it.

Exit codes: 0 converged / report success, 2 diverged (an expected outcome
class, not an error), 1 anything else (parse/validation failures, hitting
the iteration budget, I/O problems).

The default output directory is the FJPOWER_OUT environment variable when
set, otherwise the working directory; ``--out`` overrides both.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import scenario
from .analysis import ConditionReport
from .errors import FJPowerError
from .fj_core import compute_social_power
from .scenario import (
    GAMMA_MODES,
    Scenario,
    ScenarioResult,
    claim_name,
    error_result,
    load_scenario,
    run_reports,
)

SCENARIO_SUFFIXES = (".yaml", ".yml")


def _load_with_overrides(config: Path, args: argparse.Namespace) -> Scenario:
    return load_scenario(config, tol=args.tol, max_iter=args.max_iter, seed=args.seed)


def _print_result(result: ScenarioResult) -> None:
    print(result.summary_line())
    if result.final is not None:
        print("final: " + " ".join(f"{v:.17e}" for v in result.final))
    for cid, rep in result.reports.items():
        if isinstance(rep, ConditionReport):
            print(f"condition {cid}: {'holds' if rep.holds else 'fails'} (margin {rep.margin:.6g})")
    for path in result.artifacts:
        print(f"wrote {path}")


def _cmd_run(args: argparse.Namespace) -> int:
    scn = _load_with_overrides(args.config, args)
    result = scenario.run_scenario(scn, out_dir=args.out)
    _print_result(result)
    return result.exit_code


def _cmd_batch(args: argparse.Namespace) -> int:
    directory: Path = args.directory
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 1
    paths = sorted(p for p in directory.iterdir()
                   if p.suffix.lower() in SCENARIO_SUFFIXES)
    if not paths:
        print(f"error: no scenario files in {directory}", file=sys.stderr)
        return 1
    codes = set()
    named: dict[str, str] = {}  # scenario name -> the file that took it first
    for path in paths:
        name, mode = path.stem, "?"
        try:
            scn = _load_with_overrides(path, args)
            name, mode = scn.name, scn.mode
            # a repeated name's outputs would overwrite the first file's
            claim_name(named, scn.name, path.name)
            # looked up at call time, so a wrapper patched onto it sees every file
            result = scenario.run_scenario(scn, out_dir=args.out)
        except Exception as exc:  # noqa: BLE001 — a batch must never abort
            result = error_result(name, mode, exc)
        print(result.summary_line())
        codes.add(result.exit_code)
    return 1 if 1 in codes else 2 if 2 in codes else 0


def _cmd_report(args: argparse.Namespace) -> int:
    scn = _load_with_overrides(args.config, args)
    result = run_reports(scn, out_dir=args.out)
    for key, report in result.reports.items():
        print(f"== {key} ==")
        print(report)
    for path in result.artifacts:
        print(f"wrote {path}")
    return result.exit_code


def _cmd_oracle(args: argparse.Namespace) -> int:
    scn = _load_with_overrides(args.config, args)
    if scn.gamma is None:
        print(f"error: {scn.name}: the oracle is the direct power solve and "
              f"needs a gamma vector (modes {GAMMA_MODES})", file=sys.stderr)
        return 1
    x = compute_social_power(scn.net, scn.gamma)
    for i, v in enumerate(x, start=1):
        print(f"p_{i} = {v:.17e}")
    print(f"sum = {x.sum():.17e}")
    return 0


_COMMANDS = {  # subcommand: (handler, positional argument, help text)
    "run": (_cmd_run, "config", "run one scenario file"),
    "batch": (_cmd_batch, "directory", "run every scenario in a directory"),
    "report": (_cmd_report, "config", "emit only report artifacts"),
    "oracle": (_cmd_oracle, "config", "print the power vector from the direct linear solve"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fjpower",
        description="Simulate and analyze perceived social power in "
                    "stubborn-agent influence networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, positional, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(positional, type=Path)
        p.add_argument("--tol", type=float, default=None,
                       help="override the scenario's convergence tolerance")
        p.add_argument("--max-iter", type=int, default=None,
                       help="override the scenario's iteration budget")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's random seed")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: $FJPOWER_OUT or cwd)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (FJPowerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
