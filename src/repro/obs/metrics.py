"""Counters and histograms behind a named registry.

The :class:`MetricsRegistry` mirrors the optimizer/topology/rule registry
pattern: instruments are created on first use by name, a name is bound to
exactly one instrument kind for the registry's lifetime, and
:meth:`~MetricsRegistry.snapshot` exports everything as plain dicts — the
same shape :func:`diff_snapshots` consumes to compute what happened between
two points in time (how the bench runner builds the per-case ``telemetry``
block without replaying the trace ring, which may have wrapped).

The default metrics surface is the active tracer's registry
(``repro.obs.get_tracer().metrics``): every closed span feeds a
``span.<name>`` histogram and every event a ``event.<name>`` counter, so
span rollups are available even when the JSONL sink is off.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class Counter:
    """Monotonically increasing count (cache hits, events, retries)."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Streaming summary of observations (span durations, batch sizes).

    Keeps count/total/min/max rather than buckets: the consumers here want
    rollups (mean wall time per span name), and four scalars diff cleanly
    across snapshots.
    """

    kind = "histogram"
    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Name -> instrument store with get-or-create accessors.

    Mirrors the optimizer/topology/rule registries: looking up a name that
    exists returns the existing instrument, and asking for the same name as
    a different kind is an error rather than a silent shadow.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _get_or_create(self, name: str, factory: type) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, factory):
            raise TypeError(
                f"metric {name!r} is already registered as a "
                f"{instrument.kind}, not a {factory.kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def get(self, name: str) -> Any:
        """The instrument registered under ``name``; KeyError lists names."""
        try:
            return self._instruments[name]
        except KeyError:
            raise KeyError(
                f"unknown metric {name!r}; registered: {', '.join(self.names())}"
            ) from None

    def names(self) -> tuple:
        return tuple(sorted(self._instruments))

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict export of every instrument, keyed by name."""
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self._instruments.items())
        }


def diff_snapshots(
    before: Dict[str, Dict[str, Any]], after: Dict[str, Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """What changed between two :meth:`MetricsRegistry.snapshot` exports.

    Counters and histograms are differenced field-wise (min/max are taken
    from the *after* side — they do not diff meaningfully).  Instruments
    that did not move are omitted, so the result is exactly "what this
    slice of work did" — the bench runner's per-case telemetry.
    """
    delta: Dict[str, Dict[str, Any]] = {}
    for name, record in after.items():
        previous = before.get(name)
        if record["kind"] == "counter":
            moved = record["value"] - (previous["value"] if previous else 0)
            if moved:
                delta[name] = {"kind": "counter", "value": moved}
            continue
        count = record["count"] - (previous["count"] if previous else 0)
        if count:
            delta[name] = {
                "kind": "histogram",
                "count": count,
                "total": record["total"] - (previous["total"] if previous else 0.0),
                "min": record["min"],
                "max": record["max"],
            }
    return delta
