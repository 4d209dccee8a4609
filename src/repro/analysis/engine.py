"""Lint engine: file discovery, pragma suppression, rule dispatch.

The engine parses each Python source once with stdlib :mod:`ast`, wraps it
in a :class:`ModuleSource` (path, tree, raw lines, and the repo-specific
classification the rules key on — "is this a test file", "is this a hot
module"), runs every selected rule from :mod:`repro.analysis.rules`, and
filters findings through the ``# analysis: allow(rule-id)`` pragma on the
offending line or the line directly above.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.rules import Finding, iter_rules

#: ``# analysis: allow(rule-a, rule-b)`` — optionally followed by free text.
_PRAGMA = re.compile(r"#\s*analysis:\s*allow\(([^)]*)\)")


# The repo layout the rules classify paths by; substring matching on
# forward-slashed paths keeps it portable.

#: Modules whose *every* function is allocation-sensitive (the fused
#: training backend, the evaluation cache, the Campaign round loop).
HOT_MODULES = (
    "repro/nn/fused.py",
    "repro/search/eval_cache.py",
    "repro/search/campaign.py",
)
#: Function names that are hot wherever they are defined (the stacked
#: corner evaluator entry points and per-topology hooks).
HOT_FUNCTIONS = (
    "evaluate_corners",
    "evaluate_batch",
    "_small_signal_parts",
    "_metrics_from_parts",
)
#: Directory names never descended into.
EXCLUDE_DIRS = (".git", "__pycache__", ".pytest_cache", "build", "dist", ".eggs")
#: Path substrings marking test code (some rules only apply to library code).
TEST_MARKERS = ("tests/", "test_", "conftest.py")
#: Modules sanctioned to read wall clocks directly (the observability
#: layer everything else is expected to time through).
TIMING_MODULES = ("repro/obs/",)
#: Modules sanctioned to open files in write mode directly (the atomic
#: write-temp + fsync + rename helpers everything else routes through,
#: and the CRC-framed append-only cache store).
DURABLE_WRITE_MODULES = ("repro/resilience/",)


def _matches(path: str, markers: Tuple[str, ...]) -> bool:
    normalized = path.replace(os.sep, "/")
    return any(marker in normalized for marker in markers)


@dataclass
class ModuleSource:
    """One parsed module plus everything a rule needs to classify it."""

    path: str
    tree: ast.Module
    lines: List[str]

    hot_functions = HOT_FUNCTIONS

    @property
    def is_test(self) -> bool:
        normalized = self.path.replace(os.sep, "/")
        basename = normalized.rsplit("/", 1)[-1]
        for marker in TEST_MARKERS:
            if marker.endswith("/"):
                if marker in normalized:
                    return True
            elif basename == marker or basename.startswith(marker):
                return True
        return False

    @property
    def is_hot_module(self) -> bool:
        return _matches(self.path, HOT_MODULES)

    @property
    def is_timing_module(self) -> bool:
        return _matches(self.path, TIMING_MODULES)

    @property
    def is_durable_write_module(self) -> bool:
        return _matches(self.path, DURABLE_WRITE_MODULES)

    def allowed_rules(self, line: int) -> Set[str]:
        """Rule ids suppressed at ``line`` (pragma there or on the line above)."""
        allowed: Set[str] = set()
        for lineno in (line, line - 1):
            if 1 <= lineno <= len(self.lines):
                match = _PRAGMA.search(self.lines[lineno - 1])
                if match:
                    allowed.update(
                        token.strip() for token in match.group(1).split(",") if token.strip()
                    )
        return allowed


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one source string; findings are pragma-filtered and line-sorted.

    ``select`` restricts linting to those rule ids (``None``: every
    registered rule).
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                "syntax-error",
                path,
                error.lineno or 0,
                f"could not parse: {error.msg}",
            )
        ]
    module = ModuleSource(path, tree, source.splitlines())
    findings: List[Finding] = []
    for rule in iter_rules(select):
        for finding in rule.check(module):
            if finding.rule not in module.allowed_rules(finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _python_files(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in EXCLUDE_DIRS)
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directory trees)
    with the ``select`` rules (``None``: all)."""
    findings: List[Finding] = []
    for filename in _python_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        findings.extend(lint_source(source, filename, select))
    return findings
