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
from typing import Optional, Sequence, Tuple

from repro.analysis.engine import lint_paths
from repro.analysis.rules import available_rules, get_rule
from repro.cli_types import positive_int, suite_name
from repro.obs.logs import add_logging_flags, configure_cli_logging

module_logger = logging.getLogger(__name__)


def rule_ids(text: str) -> Tuple[str, ...]:
    """A non-empty comma list of registered lint rule ids (``--select``).

    An empty list would lint with no rule at all and pass any file, so it
    is a usage error like an unknown id.
    """
    selected = tuple(token.strip() for token in text.split(",") if token.strip())
    if not selected:
        raise argparse.ArgumentTypeError("expected a comma list of rule ids (see 'rules')")
    for rule_id in selected:
        if rule_id not in available_rules():
            raise argparse.ArgumentTypeError(
                f"unknown lint rule {rule_id!r}; available: {', '.join(available_rules())}"
            )
    return selected


def _cmd_lint(args: argparse.Namespace) -> int:
    module_logger.info("linting %s", ", ".join(args.paths))
    findings = lint_paths(args.paths, args.select)
    # Findings and the count line are the machine-readable output: stdout.
    for finding in findings:
        print(finding.format())
    plural = "" if len(findings) == 1 else "s"
    print(f"{len(findings)} finding{plural} in {', '.join(args.paths)}")
    return 1 if findings else 0


def _cmd_determinism(args: argparse.Namespace) -> int:
    # Imported lazily: the auditor pulls in the bench stack.
    from repro.analysis.determinism import audit_suite

    module_logger.info(
        "auditing suite %r twice with %d seed(s)%s",
        args.suite,
        args.seeds,
        ", resume-parity mode" if args.resume_parity else "",
    )
    report = audit_suite(
        suite=args.suite,
        seeds=range(args.seeds),
        optimizer=args.optimizer,
        with_contracts=not args.no_contracts,
        resume_parity=args.resume_parity,
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
        type=rule_ids,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all; see 'rules')",
    )
    add_logging_flags(lint)
    lint.set_defaults(func=_cmd_lint)

    # The determinism subcommand's --optimizer choices, as in the bench CLI.
    from repro.search.optimizer import available_optimizers

    determinism = subparsers.add_parser(
        "determinism",
        help="run each case of a bench suite twice in-process and "
        "byte-diff trajectories, metrics and cache content",
    )
    determinism.add_argument(
        "--suite",
        default="tiny",
        type=suite_name,
        help="bench suite to audit (default: tiny)",
    )
    determinism.add_argument(
        "--seeds",
        type=positive_int,
        default=3,
        metavar="N",
        help="number of seeds (0..N-1) per case (default: 3)",
    )
    determinism.add_argument(
        "--optimizer",
        default=None,
        choices=available_optimizers(),
        help="search-strategy override for every case",
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
