"""CLI for the observability subsystem.

Subcommands::

    python -m repro.obs report TRACE.jsonl [--top N]

``report`` renders one JSONL trace (produced with ``repro.bench --trace
PATH`` or ``REPRO_TRACE=trace.jsonl``) into per-subsystem / per-seed /
per-phase wall-time breakdowns, a cache hit-rate table and a top-spans
view.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.cli_types import positive_int
from repro.obs.report import format_report, load_trace


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect structured traces emitted by repro.obs.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    report = subparsers.add_parser(
        "report", help="render a JSONL trace into wall-time breakdown tables"
    )
    report.add_argument("trace", metavar="TRACE", help="JSONL trace file")
    report.add_argument(
        "--top",
        type=positive_int,
        default=10,
        metavar="N",
        help="rows in the top-spans view (default: 10)",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(args.trace):
        print(f"no such trace file: {args.trace}", file=sys.stderr)
        return 2
    print(format_report(load_trace(args.trace), top=args.top))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
