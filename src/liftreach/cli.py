"""Command-line interface: scenario-driven lifts, reachability, and checks."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import runner
from .errors import LiftReachError
from .scenario import builtin_scenario_names, builtin_scenario_path, parse_scenario


def _resolve_scenario(name_or_path: str):
    p = Path(name_or_path)
    if p.is_file():
        return parse_scenario(p)
    return parse_scenario(builtin_scenario_path(name_or_path))


def _add_override_flags(p: argparse.ArgumentParser):
    p.add_argument("--grid", type=int, default=None, help="override cells per axis")
    p.add_argument("--dwell", type=float, default=None, help="override dwell time")
    p.add_argument("--horizon", type=float, default=None, help="override time horizon")
    p.add_argument("--step", type=float, default=None, help="override integrator step")
    p.add_argument("--tol", type=float, default=None, help="override tolerance")


def _overrides(args) -> dict:
    return {"grid": args.grid, "dwell": args.dwell, "horizon": args.horizon,
            "step": args.step, "tol": args.tol}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftreach",
        description="Construct, verify, and exercise trajectory-preserving "
                    "lifts of control systems across submersions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-scenarios", help="list built-in scenarios")

    p_run = sub.add_parser("run", help="run every experiment of a scenario")
    p_run.add_argument("scenario", help="built-in scenario name or path to a file")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default=None, help="artifact directory")
    p_run.add_argument("--experiment", default=None, help="run only this experiment")
    _add_override_flags(p_run)

    p_lift = sub.add_parser("lift", help="construct lifts and report residuals")
    p_lift.add_argument("scenario")
    p_lift.add_argument("--seed", type=int, default=0)
    _add_override_flags(p_lift)

    p_reach = sub.add_parser("reach", help="run reachability experiments")
    p_reach.add_argument("scenario")
    p_reach.add_argument("--experiment", default=None)
    p_reach.add_argument("--seed", type=int, default=0)
    p_reach.add_argument("--out", default=None)
    _add_override_flags(p_reach)

    p_verify = sub.add_parser(
        "verify", help="trajectory-preserving and global-in-time checks")
    p_verify.add_argument("scenario")
    p_verify.add_argument("--seed", type=int, default=0)
    _add_override_flags(p_verify)

    p_liftable = sub.add_parser("liftable", help="control-system liftability checks")
    p_liftable.add_argument("scenario")
    p_liftable.add_argument("--seed", type=int, default=0)
    _add_override_flags(p_liftable)

    return parser


_KIND_FILTERS = {
    "run": None,
    "lift": ("verify",),
    "reach": ("reach", "reachability-set", "stlc"),
    "verify": ("verify", "global-in-time"),
    "liftable": ("liftable", "roundtrip"),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list-scenarios":
        for name in builtin_scenario_names():
            print(name)
        return 0

    try:
        scenario = _resolve_scenario(args.scenario)
        result = runner.run(
            scenario,
            seed=args.seed,
            out_dir=getattr(args, "out", None),
            overrides=_overrides(args),
            kinds=_KIND_FILTERS[args.command],
            experiment=getattr(args, "experiment", None),
            echo=print,
        )
    except LiftReachError as exc:
        # the same status and form as argparse's usage errors
        print(f"liftreach: error: {exc}", file=sys.stderr)
        return 2
    if not result.experiments:
        print(f"no matching experiments in scenario {scenario.name!r}")
        return 1
    n_pass = sum(1 for e in result.experiments if e["verdict"])
    print(f"{n_pass}/{len(result.experiments)} experiments passed "
          f"({result.wall_clock:.2f}s)")
    if result.summary_path:
        print(f"summary: {result.summary_path}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
