"""Render a trace (JSONL file or in-memory records) into wall-time tables.

The report answers the questions the raw counters cannot: *where* does a
campaign round spend its time (per-subsystem / per-span-name self-time),
how is it split across seeds and progressive phases (tags are inherited
down the span tree, so an ``optimizer.tell`` span's ``FusedMLP.fit`` child
books to the same seed), and what the cache traffic looked like (hit-rate
table from the ``eval_cache.evaluate`` event tags).

Self-time is a span's duration minus its direct children's durations —
summing self-time over any partition of the spans never double-counts, so
the per-subsystem, per-seed and per-phase tables each add up to (at most)
the traced wall clock.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file into record dicts (blank lines skipped).

    A torn **final** line is tolerated and dropped: the tracer's sink is
    line-buffered, so a killed writer leaves at most one partial record at
    the tail (a ``.partial`` sidecar someone inspects after a crash).
    Garbage anywhere else is still an error.
    """
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            records.append(json.loads(stripped))
        except json.JSONDecodeError as error:
            if lineno == len(lines):
                break  # torn tail of a crashed writer
            raise ValueError(
                f"{path}:{lineno}: not a trace record: {error}"
            ) from None
    return records


class TraceRollup:
    """Aggregated views over one trace's records."""

    def __init__(self, records: Sequence[Dict[str, Any]]) -> None:
        self.records = list(records)
        self.spans = [r for r in self.records if r.get("type") == "span"]
        self.events = [r for r in self.records if r.get("type") == "event"]
        self._by_id = {r["id"]: r for r in self.records if "id" in r}
        children_dur: Dict[Any, float] = defaultdict(float)
        for record in self.spans:
            if record.get("parent") is not None:
                children_dur[record["parent"]] += record.get("dur", 0.0)
        #: id -> duration minus direct children (clamped: a dropped parent
        #: can make the naive difference negative).
        self.self_seconds = {
            r["id"]: max(r.get("dur", 0.0) - children_dur.get(r["id"], 0.0), 0.0)
            for r in self.spans
        }

    def inherited_tag(self, record: Dict[str, Any], key: str) -> Optional[Any]:
        """``record``'s tag ``key``, or the nearest ancestor's (if any)."""
        seen = set()
        while record is not None and record["id"] not in seen:
            seen.add(record["id"])
            value = (record.get("tags") or {}).get(key)
            if value is not None:
                return value
            parent = record.get("parent")
            record = self._by_id.get(parent) if parent is not None else None
        return None

    # -- tables ----------------------------------------------------------
    def by_name(self) -> List[Tuple[str, int, float, float, float]]:
        """``(name, count, total_s, self_s, max_s)`` rows, self-time first."""
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        for record in self.spans:
            row = totals[record["name"]]
            row[0] += 1
            row[1] += record.get("dur", 0.0)
            row[2] += self.self_seconds[record["id"]]
            row[3] = max(row[3], record.get("dur", 0.0))
        return sorted(
            ((name, int(r[0]), r[1], r[2], r[3]) for name, r in totals.items()),
            key=lambda item: -item[3],
        )

    def by_tag(self, key: str) -> List[Tuple[str, float, int]]:
        """Self-time grouped by the inherited value of tag ``key``.

        Spans with no value anywhere up their ancestry are grouped under
        ``"-"`` (e.g. the shared multi-seed stacked pass has no single
        seed).  Rows are ``(value, self_seconds, span_count)``, biggest
        first.
        """
        groups: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for record in self.spans:
            value = self.inherited_tag(record, key)
            label = "-" if value is None else str(value)
            groups[label][0] += self.self_seconds[record["id"]]
            groups[label][1] += 1
        return sorted(
            ((label, r[0], int(r[1])) for label, r in groups.items()),
            key=lambda item: -item[1],
        )

    def by_subsystem(self) -> List[Tuple[str, float, int]]:
        """Self-time grouped by the span name's leading dotted component."""
        groups: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for record in self.spans:
            label = record["name"].split(".", 1)[0]
            groups[label][0] += self.self_seconds[record["id"]]
            groups[label][1] += 1
        return sorted(
            ((label, r[0], int(r[1])) for label, r in groups.items()),
            key=lambda item: -item[1],
        )

    def cache_stats(self) -> Dict[str, Any]:
        """Hit/miss totals from the ``eval_cache.evaluate`` event tags."""
        hits = misses = lookups = 0
        for record in self.events:
            if record["name"] != "eval_cache.evaluate":
                continue
            tags = record.get("tags") or {}
            hits += int(tags.get("hits", 0))
            misses += int(tags.get("misses", 0))
            lookups += 1
        engine = [r for r in self.spans if r["name"] == "eval_cache.engine"]
        return {
            "lookups": lookups,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if (hits + misses) else None,
            "engine_calls": len(engine),
            "engine_seconds": sum(r.get("dur", 0.0) for r in engine),
        }

    def top_spans(self, limit: int = 10) -> List[Dict[str, Any]]:
        return sorted(self.spans, key=lambda r: -r.get("dur", 0.0))[:limit]

    def wall_seconds(self) -> float:
        """End-to-end window covered by the records (last end - first start)."""
        if not self.records:
            return 0.0
        start = min(r.get("start", 0.0) for r in self.records)
        end = max(r.get("start", 0.0) + r.get("dur", 0.0) for r in self.records)
        return end - start


def _format_tag_table(
    title: str, rows: Iterable[Tuple[str, float, int]], wall: float
) -> List[str]:
    lines = [title, f"  {'key':28s} {'self_s':>9s} {'share':>7s} {'spans':>7s}"]
    for label, seconds, count in rows:
        share = seconds / wall if wall else 0.0
        lines.append(f"  {label:28s} {seconds:>9.3f} {share:>6.1%} {count:>7d}")
    return lines


def format_report(records: Sequence[Dict[str, Any]], top: int = 10) -> str:
    """The full ``python -m repro.obs report`` rendering."""
    rollup = TraceRollup(records)
    if not rollup.spans and not rollup.events:
        return "empty trace (no span or event records)"
    wall = rollup.wall_seconds()
    lines = [
        f"trace: {len(rollup.spans)} spans, {len(rollup.events)} events, "
        f"{wall:.3f} s covered"
    ]

    lines.append("")
    lines.extend(
        _format_tag_table("per-subsystem self-time:", rollup.by_subsystem(), wall)
    )
    lines.append("")
    lines.extend(_format_tag_table("per-seed self-time:", rollup.by_tag("seed"), wall))
    lines.append("")
    lines.extend(
        _format_tag_table("per-phase self-time:", rollup.by_tag("phase"), wall)
    )

    lines.append("")
    lines.append("per-span rollup:")
    lines.append(
        f"  {'name':32s} {'count':>6s} {'total_s':>9s} {'self_s':>9s} "
        f"{'mean_ms':>8s} {'max_ms':>8s}"
    )
    for name, count, total, self_s, max_s in rollup.by_name():
        lines.append(
            f"  {name:32s} {count:>6d} {total:>9.3f} {self_s:>9.3f} "
            f"{total / count * 1e3:>8.2f} {max_s * 1e3:>8.2f}"
        )

    cache = rollup.cache_stats()
    lines.append("")
    lines.append("cache:")
    if cache["lookups"]:
        lines.append(
            f"  {cache['hits']} hits / {cache['misses']} misses over "
            f"{cache['lookups']} lookups (hit rate "
            f"{cache['hit_rate']:.1%}), {cache['engine_calls']} engine calls, "
            f"{cache['engine_seconds']:.3f} s in the engine"
        )
    else:
        lines.append("  no eval_cache.evaluate events in this trace")

    lines.append("")
    lines.append(f"top {top} spans by duration:")
    for record in rollup.top_spans(top):
        tags = record.get("tags") or {}
        tag_text = " ".join(f"{k}={v}" for k, v in sorted(tags.items()))
        lines.append(
            f"  {record.get('dur', 0.0) * 1e3:>9.2f} ms  {record['name']}"
            + (f"  [{tag_text}]" if tag_text else "")
        )
    return "\n".join(lines)
