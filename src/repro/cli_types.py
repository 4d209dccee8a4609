"""argparse value types shared by the package's command-line entry points.

Each one turns a bad value into an :class:`argparse.ArgumentTypeError`, so
the parser prints a usage message and exits 2 instead of the command
crashing on it later with a traceback.
"""

from __future__ import annotations

import argparse
from typing import Tuple


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """An integer of at least 1."""
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    """An integer of at least 0."""
    return _int_at_least(text, 0)


def positive_int_list(text: str) -> Tuple[int, ...]:
    """A non-empty comma list of integers, each at least 1 (``"1,3"``)."""
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError("expected a comma list of integers >= 1")
    return tuple(positive_int(token) for token in tokens)


def suite_name(text: str) -> str:
    """A registered bench suite."""
    # Imported lazily: the registry pulls in the search stack.
    from repro.bench.registry import available_suites

    if text not in available_suites():
        raise argparse.ArgumentTypeError(
            f"unknown suite {text!r}; available: {', '.join(available_suites())}"
        )
    return text
