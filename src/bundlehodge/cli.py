"""Command-line entry points.

Exit codes: 0 all checks passed (or an explicitly excluded branch),
1 tolerance failure, 2 configuration error, 3 solver failure (a dense
factorization that does not converge, or memory running out, included).
"""

import argparse
import os
import sys

from .errors import ConfigError, NotSemisimple, SolverFailure
from .harness import (
    cmd_lie_check,
    cmd_pages,
    cmd_report,
    cmd_spectrum,
    cmd_verify_cs1,
    cmd_verify_cs3,
    load_scenario,
    packaged_scenario_path,
)

_SCENARIO_COMMANDS = {
    "lie-check": cmd_lie_check,
    "verify-cs1": cmd_verify_cs1,
    "verify-cs3": cmd_verify_cs3,
    "pages": cmd_pages,
    "spectrum": cmd_spectrum,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bundlehodge",
        description="harmonicity checks for invariant forms on torus bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SCENARIO_COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="path or packaged scenario name")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument(
            "--band",
            type=int,
            default=None,
            help="override the frequency band; a scenario that declares no "
            "galerkin_bands takes it as its Galerkin box too",
        )
        p.add_argument("--quiet", action="store_true")
        if name in ("pages", "spectrum"):
            p.add_argument("--degree", type=int, default=None, help="total form degree")
    rep = sub.add_parser("report")
    rep.add_argument("directory")
    rep.add_argument("--out", default=None)
    rep.add_argument("--quiet", action="store_true")
    return parser


def _resolve_scenario(arg):
    if os.path.exists(arg):
        return load_scenario(arg)
    packaged = packaged_scenario_path(arg)
    if os.path.exists(packaged):
        return load_scenario(packaged)
    raise ConfigError(f"no scenario file or packaged scenario named {arg!r}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            summary = cmd_report(args.directory, out_dir=args.out, quiet=args.quiet)
            return 0 if summary["passed"] else 1
        scenario = _resolve_scenario(args.scenario)
        if args.seed is not None:
            scenario.seed = args.seed
        if args.band is not None:
            if args.band < 0:
                raise ConfigError(f"--band must be at least 0, got {args.band}")
            scenario.bands = (args.band,) * scenario.geometry.n
        kwargs = {"out_dir": args.out, "quiet": args.quiet}
        if args.command in ("pages", "spectrum") and args.degree is not None:
            kwargs["degree"] = args.degree
        report = _SCENARIO_COMMANDS[args.command](scenario, **kwargs)
        return 0 if report["passed"] else 1
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except NotSemisimple as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except SolverFailure as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    except MemoryError as err:
        print(f"solver failure: out of memory: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
