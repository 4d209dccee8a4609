"""CLI for the analysis subsystem.

Subcommands::

    python -m repro.analysis lint [PATHS...] [--select rule-a,rule-b]
    python -m repro.analysis determinism [--suite tiny] [--seeds N] [...]
    python -m repro.analysis rules

``lint`` exits 1 on any finding, ``determinism`` exits 1 on any
fingerprint mismatch — both are wired as the CI ``analysis`` job.
"""

from __future__ import annotations

import argparse
import logging
from dataclasses import replace
from typing import Optional, Sequence

from repro.analysis.engine import AnalysisConfig, lint_paths
from repro.analysis.rules import available_rules, get_rule
from repro.obs.logs import add_logging_flags, configure_cli_logging

module_logger = logging.getLogger(__name__)


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1 (a bad value exits 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _suite_name(text: str) -> str:
    """argparse type: a registered bench suite (an unknown one exits 2)."""
    # Imported lazily: linting must work even where the search stack's
    # dependencies are unavailable.
    from repro.bench.registry import available_suites

    if text not in available_suites():
        raise argparse.ArgumentTypeError(
            f"unknown suite {text!r}; available: {', '.join(available_suites())}"
        )
    return text


def _cmd_lint(args: argparse.Namespace) -> int:
    config = AnalysisConfig()
    if args.select:
        selected = tuple(
            token.strip() for token in args.select.split(",") if token.strip()
        )
        for rule_id in selected:
            get_rule(rule_id)  # fail fast with the available-rules message
        config = replace(config, select=selected)
    module_logger.info("linting %s", ", ".join(args.paths))
    findings = lint_paths(args.paths, config)
    # Findings and the count line are the machine-readable output: stdout.
    for finding in findings:
        print(finding.format())
    plural = "" if len(findings) == 1 else "s"
    print(f"{len(findings)} finding{plural} in {', '.join(args.paths)}")
    return 1 if findings else 0


def _cmd_determinism(args: argparse.Namespace) -> int:
    # Imported lazily: linting must work even where the search stack's
    # dependencies are unavailable.
    from repro.analysis.determinism import audit_suite

    if args.resume_parity and args.execution == "sharded":
        module_logger.error(
            "--resume-parity and --execution sharded are exclusive audit modes"
        )
        return 2
    mode = ""
    if args.resume_parity:
        mode = ", resume-parity mode"
    elif args.execution == "sharded":
        mode = f", sharded-parity mode ({args.workers} workers)"
    module_logger.info(
        "auditing suite %r twice with %d seed(s)%s", args.suite, args.seeds, mode
    )
    report = audit_suite(
        suite=args.suite,
        seeds=range(args.seeds),
        optimizer=args.optimizer,
        with_contracts=not args.no_contracts,
        resume_parity=args.resume_parity,
        execution=args.execution,
        workers=args.workers,
    )
    print(report.format())
    return 0 if report.ok else 1


def _cmd_rules(args: argparse.Namespace) -> int:
    for rule_id in available_rules():
        print(f"{rule_id:24s} {get_rule(rule_id).summary}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repo-specific static analysis, runtime contracts and "
        "determinism auditing.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    lint = subparsers.add_parser(
        "lint", help="run the AST lint rules over source files/trees"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all; see 'rules')",
    )
    add_logging_flags(lint)
    lint.set_defaults(func=_cmd_lint)

    determinism = subparsers.add_parser(
        "determinism",
        help="run each case of a bench suite twice in-process and "
        "byte-diff trajectories, metrics and cache content",
    )
    determinism.add_argument(
        "--suite",
        default="tiny",
        type=_suite_name,
        help="bench suite to audit (default: tiny)",
    )
    determinism.add_argument(
        "--seeds",
        type=_positive_int,
        default=3,
        metavar="N",
        help="number of seeds (0..N-1) per case (default: 3)",
    )
    determinism.add_argument(
        "--optimizer",
        default=None,
        help="search-strategy override for every case",
    )
    determinism.add_argument(
        "--execution",
        default="campaign",
        choices=("campaign", "sharded"),
        help="what the compared runs are: 'campaign' (default) runs the "
        "multi-seed campaign twice in-process; 'sharded' byte-diffs a "
        "multi-process sharded run against the in-process "
        "one-shard-at-a-time oracle over the same shard specs",
    )
    determinism.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        metavar="N",
        help="worker process count for --execution sharded (default: 2)",
    )
    determinism.add_argument(
        "--resume-parity",
        action="store_true",
        help="second run resumes a fresh campaign from the first run's "
        "mid-round snapshot instead of starting cold — the same byte-diff "
        "then gates checkpoint/resume bit-exactness",
    )
    determinism.add_argument(
        "--no-contracts",
        action="store_true",
        help="audit without enabling the runtime invariant contracts "
        "(default: contracts on, so violations fault loudly)",
    )
    add_logging_flags(determinism)
    determinism.set_defaults(func=_cmd_determinism)

    rules = subparsers.add_parser("rules", help="list the registered lint rules")
    add_logging_flags(rules)
    rules.set_defaults(func=_cmd_rules)

    args = parser.parse_args(argv)
    configure_cli_logging(quiet=args.quiet, verbose=args.verbose)
    return args.func(args)
