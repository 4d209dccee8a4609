"""CLI for the resilience subsystem.

Subcommands::

    python -m repro.resilience drill [--suite drill] [--seeds N]
                                     [--occurrences 1,3] [--workdir DIR]
    python -m repro.resilience sites

``drill`` runs the kill-and-resume drill (crash every fault site, resume,
byte-diff against the uninterrupted oracle) and exits 1 on any divergence —
wired as the CI ``resilience`` job.  ``sites`` lists the registered fault
sites the drill exercises.
"""

from __future__ import annotations

import argparse
import logging
from typing import Optional, Sequence

from repro.cli_types import positive_int, positive_int_list, suite_name
from repro.obs.logs import add_logging_flags, configure_cli_logging

module_logger = logging.getLogger(__name__)


def _cmd_drill(args: argparse.Namespace) -> int:
    # Imported lazily: the drill pulls in the bench/search stack, which the
    # resilience leaf helpers stay independent of.
    from repro.resilience.drill import drill_suite

    module_logger.info(
        "drilling suite %r with %d seed(s), occurrences %s, workdir %s",
        args.suite,
        args.seeds,
        list(args.occurrences),
        args.workdir,
    )
    report = drill_suite(
        suite=args.suite,
        seeds=range(args.seeds),
        occurrences=args.occurrences,
        workdir=args.workdir,
    )
    print(report.format())
    return 0 if report.ok else 1


def _cmd_sites(args: argparse.Namespace) -> int:
    # Importing the engine is what registers its fault sites.
    import repro.search.campaign  # noqa: F401
    from repro.resilience.faults import registered_fault_sites

    for site in registered_fault_sites():
        print(site)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description="Crash-safety drills for checkpoint/resume and the "
        "persistent evaluation cache.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    drill = subparsers.add_parser(
        "drill",
        help="crash a campaign at every fault site, resume it, and "
        "byte-diff the result against the uninterrupted oracle",
    )
    drill.add_argument(
        "--suite",
        default="drill",
        type=suite_name,
        help="bench suite to drill (default: drill — a case hard enough "
        "that every fault site is reached)",
    )
    drill.add_argument(
        "--seeds",
        type=positive_int,
        default=1,
        metavar="N",
        help="number of seeds (0..N-1) per case (default: 1)",
    )
    drill.add_argument(
        "--occurrences",
        type=positive_int_list,
        default=(1, 3),
        metavar="LIST",
        help="comma list of site occurrences to kill at; 1 exercises the "
        "no-snapshot-yet cold restart, later values the snapshot resume "
        "(default: 1,3 — on the drill suite every site fires at both)",
    )
    drill.add_argument(
        "--workdir",
        default="drill-workdir",
        metavar="DIR",
        help="directory for per-scenario checkpoints and cache stores, "
        "kept for inspection (default: drill-workdir)",
    )
    add_logging_flags(drill)
    drill.set_defaults(func=_cmd_drill)

    sites = subparsers.add_parser(
        "sites", help="list the registered fault sites"
    )
    add_logging_flags(sites)
    sites.set_defaults(func=_cmd_sites)

    args = parser.parse_args(argv)
    configure_cli_logging(quiet=args.quiet, verbose=args.verbose)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
