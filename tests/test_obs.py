"""The observability layer: tracer, metrics, report, and its neutrality.

The load-bearing guarantees, each locked here:

* **Trajectory neutrality** — tracing on/off changes no search trajectory,
  on every topology (and the determinism auditor stays green under it).
* **Near-zero disabled cost** — with tracing off the instrumented paths
  emit nothing and the primitives reduce to a flag test.
* **Round-trip** — the JSONL sink reproduces the ring, and the report
  renders every table from it.
"""

import json
import math

import pytest

from conftest import RESTARTING
from repro.bench import get_suite
from repro.bench.registry import BenchCase
from repro.bench.runner import run_case
from repro.obs import (
    MetricsRegistry,
    Tracer,
    diff_snapshots,
    event,
    get_tracer,
    profiled,
    set_tracing,
    span,
    tracing,
    tracing_enabled,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.report import TraceRollup, format_report, load_trace
from repro.obs.tracer import _env_sink


class TestMetricsRegistry:
    def test_counter_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2)
        registry.histogram("h").observe(1.0)
        registry.histogram("h").observe(3.0)
        assert registry.counter("c").value == 3
        hist = registry.histogram("h")
        assert (hist.count, hist.total, hist.min, hist.max) == (2, 4.0, 1.0, 3.0)
        assert hist.mean == 2.0
        assert registry.names() == ("c", "h")

    def test_name_bound_to_one_kind(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered as a counter"):
            registry.histogram("x")

    def test_unknown_metric_lists_registered(self):
        registry = MetricsRegistry()
        registry.counter("known")
        with pytest.raises(KeyError, match="known"):
            registry.get("nope")

    def test_diff_snapshots_reports_only_movement(self):
        registry = MetricsRegistry()
        registry.counter("moved").inc(2)
        registry.counter("still")
        registry.histogram("h").observe(0.5)
        before = registry.snapshot()
        registry.counter("moved").inc(3)
        registry.histogram("h").observe(1.5)
        delta = diff_snapshots(before, registry.snapshot())
        assert delta["moved"] == {"kind": "counter", "value": 3}
        assert delta["h"]["count"] == 1
        assert delta["h"]["total"] == 1.5
        assert "still" not in delta

    def test_diff_snapshots_from_empty_before(self):
        registry = MetricsRegistry()
        registry.counter("new").inc(5)
        delta = diff_snapshots({}, registry.snapshot())
        assert delta["new"]["value"] == 5


class TestTracer:
    def test_off_by_default_and_emits_nothing(self):
        assert not tracing_enabled()
        emitted = get_tracer().emitted

        @span("test.noop")
        def traced():
            return 42

        assert traced() == 42
        event("test.event", n=1)
        assert get_tracer().emitted == emitted

    def test_span_decorator_preserves_identity(self):
        @span("test.identity")
        def fn(x):
            """doc"""
            return x

        assert fn.__name__ == "fn"
        assert fn.__doc__ == "doc"
        assert fn.__traced_span__ == "test.identity"

    def test_tracing_context_records_and_restores(self):
        previous = get_tracer()
        with tracing() as tracer:
            assert tracing_enabled()
            assert get_tracer() is tracer is not previous
            event("test.mark", k="v")
            with profiled("test.outer") as outer:
                with profiled("test.inner"):
                    pass
            assert outer.seconds > 0.0
        assert not tracing_enabled()
        assert get_tracer() is previous
        names = [r["name"] for r in tracer.records]
        assert names == ["test.mark", "test.inner", "test.outer"]
        by_name = {r["name"]: r for r in tracer.records}
        # The inner span's parent is the outer span: a call tree, not a list.
        assert by_name["test.inner"]["parent"] == by_name["test.outer"]["id"]
        assert by_name["test.outer"]["parent"] is None
        assert by_name["test.mark"]["dur"] == 0.0
        # Every closed span feeds the owned registry.
        assert tracer.metrics.counter("event.test.mark").value == 1
        assert tracer.metrics.histogram("span.test.outer").count == 1

    def test_set_tracing_returns_previous_state(self):
        previous = set_tracing(True)
        try:
            assert previous[0] is False
            assert tracing_enabled()
        finally:
            enabled, tracer = previous
            restored = set_tracing(enabled)
            # Reinstall the original tracer object, not a fresh one.
            import repro.obs.tracer as tracer_module

            tracer_module._TRACER = tracer
            assert restored[0] is True
        assert not tracing_enabled()

    def test_profiled_times_even_when_disabled(self):
        assert not tracing_enabled()
        emitted = get_tracer().emitted
        with profiled("test.disabled") as timer:
            sum(range(100))
        assert timer.seconds > 0.0
        assert get_tracer().emitted == emitted

    def test_profiled_annotate_lands_in_the_record(self):
        with tracing() as tracer:
            with profiled("test.work", rows=3) as timer:
                timer.annotate(hits=5)
        (record,) = tracer.records
        assert record["tags"] == {"rows": 3, "hits": 5}

    def test_span_self_tags_read_off_the_receiver(self):
        class Problem:
            name = "ota_5t"

            @span("test.method", self_tags={"topology": "name"})
            def evaluate(self):
                return 1

        with tracing() as tracer:
            Problem().evaluate()
        (record,) = tracer.records
        assert record["tags"] == {"topology": "ota_5t"}

    def test_ring_drops_oldest_and_counts(self):
        with tracing(ring_size=4) as tracer:
            for i in range(10):
                event("test.tick", i=i)
        assert len(tracer.records) == 4
        assert tracer.dropped == 6
        assert tracer.emitted == 10
        assert [r["tags"]["i"] for r in tracer.records] == [6, 7, 8, 9]

    def test_exception_unwinds_the_span_stack(self):
        with tracing() as tracer:
            with pytest.raises(RuntimeError):
                with profiled("test.outer"):
                    inner = tracer.start("test.orphan")  # never finished
                    assert inner is not None
                    raise RuntimeError("boom")
            # The outer finish unwound past the orphan: new spans are roots.
            with profiled("test.after"):
                pass
        after = next(r for r in tracer.records if r["name"] == "test.after")
        assert after["parent"] is None

    def test_env_parsing(self, monkeypatch):
        for value, expected in [
            ("", (False, None)),
            ("0", (False, None)),
            ("false", (False, None)),
            ("1", (True, None)),
            ("yes", (True, None)),
            ("/tmp/t.jsonl", (True, "/tmp/t.jsonl")),
        ]:
            monkeypatch.setenv("REPRO_TRACE", value)
            assert _env_sink() == expected


class TestJsonlRoundTrip:
    def test_sink_matches_ring_and_report_renders(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with tracing(sink=path) as tracer:
            with profiled("campaign.run", seeds=2):
                with profiled("optimizer.ask", seed=0, phase=0):
                    pass
                event("eval_cache.evaluate", hits=3, misses=1)
            ring = [json.loads(json.dumps(r, default=str)) for r in tracer.records]
        records = load_trace(path)
        assert [r["name"] for r in records] == [r["name"] for r in ring]
        assert [r["id"] for r in records] == [r["id"] for r in ring]
        report = format_report(records)
        for section in (
            "per-subsystem self-time:",
            "per-seed self-time:",
            "per-phase self-time:",
            "per-span rollup:",
            "cache:",
            "spans by duration:",
        ):
            assert section in report
        assert "3 hits / 1 misses" in report

    def test_numpy_tags_serialize(self, tmp_path):
        np = pytest.importorskip("numpy")
        path = str(tmp_path / "trace.jsonl")
        with tracing(sink=path):
            event("test.np", rows=np.int64(7), loss=np.float64(0.5))
        (record,) = load_trace(path)
        assert record["tags"] == {"rows": 7, "loss": 0.5}

    def test_load_trace_points_at_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\nnot json\n{"type": "event"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_trace(str(path))

    def test_load_trace_tolerates_torn_final_line(self, tmp_path):
        """A killed writer leaves at most one partial record at the tail."""
        path = tmp_path / "torn.jsonl"
        path.write_text('{"type": "span"}\n{"type": "ev')
        records = load_trace(str(path))
        assert records == [{"type": "span"}]


class TestReportRollup:
    def make_records(self):
        return [
            {"type": "span", "id": 1, "parent": None, "name": "campaign.run",
             "start": 0.0, "dur": 1.0, "tags": {"seed": 0}},
            {"type": "span", "id": 2, "parent": 1, "name": "optimizer.ask",
             "start": 0.1, "dur": 0.4, "tags": {"phase": 1}},
            {"type": "event", "id": 3, "parent": 2, "name": "eval_cache.evaluate",
             "start": 0.2, "dur": 0.0, "tags": {"hits": 2, "misses": 2}},
        ]

    def test_self_time_subtracts_direct_children(self):
        rollup = TraceRollup(self.make_records())
        assert math.isclose(rollup.self_seconds[1], 0.6)
        assert math.isclose(rollup.self_seconds[2], 0.4)

    def test_tags_inherit_up_the_parent_chain(self):
        rollup = TraceRollup(self.make_records())
        by_seed = dict((label, seconds) for label, seconds, _ in rollup.by_tag("seed"))
        # The child span has no seed tag of its own; it books to seed 0.
        assert set(by_seed) == {"0"}
        assert math.isclose(by_seed["0"], 1.0)

    def test_cache_stats_from_event_tags(self):
        stats = TraceRollup(self.make_records()).cache_stats()
        assert stats["hits"] == 2 and stats["misses"] == 2
        assert stats["hit_rate"] == 0.5
        assert stats["lookups"] == 1

    def test_empty_trace_message(self):
        assert "empty trace" in format_report([])

    def test_cli_renders_and_flags_missing_files(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        with tracing(sink=path):
            with profiled("campaign.run", seeds=1):
                pass
        assert obs_main(["report", path, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "campaign.run" in out and "top 3 spans" in out
        assert obs_main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "top, needle",
        [("-3", "must be at least 1, got -3"), ("0", "must be at least 1, got 0"),
         ("x", "invalid int value: 'x'")],
    )
    def test_cli_bad_top_is_a_usage_error(self, tmp_path, capsys, top, needle):
        """A ``--top`` below 1 once printed every span but the last few."""
        path = str(tmp_path / "trace.jsonl")
        with tracing(sink=path):
            with profiled("campaign.run", seeds=1):
                pass
        with pytest.raises(SystemExit) as exit_info:
            obs_main(["report", path, "--top", top])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert needle in captured.err and "top" not in captured.out


def _trajectory(record):
    """A per-seed bench record minus its wall-clock (non-deterministic) field."""
    return {k: v for k, v in record.items() if k != "refit_seconds"}


class TestTrajectoryNeutrality:
    """Tracing must never perturb a search: bit-identical on or off."""

    @pytest.mark.parametrize(
        "topology", ["ota_5t", "two_stage_opamp", "folded_cascode", "telescopic"]
    )
    def test_bit_identical_trajectories_per_topology(self, topology):
        case = BenchCase(topology, "smoke", "nominal")
        baseline = run_case(case, seeds=[0])["per_seed"][0]
        with tracing() as tracer:
            traced = run_case(case, seeds=[0])["per_seed"][0]
        assert tracer.emitted > 0  # the instrumentation actually fired
        # Everything deterministic — trajectory, sizing, simulations — is
        # identical; only the wall-clock field may differ.
        assert _trajectory(traced) == _trajectory(baseline)

    def test_multi_seed_campaign_neutral_under_sink(self, tmp_path):
        (case,) = get_suite("tiny")
        baseline = run_case(case, seeds=[0, 1])
        with tracing(sink=str(tmp_path / "trace.jsonl")):
            traced = run_case(case, seeds=[0, 1])
        assert [_trajectory(r) for r in traced["per_seed"]] == [
            _trajectory(r) for r in baseline["per_seed"]
        ]
        assert traced["eval"] == baseline["eval"]

    def test_restarting_seed_neutral_and_traced(self):
        # Stalls at MIN_RADIUS and restarts (twice, so the restart
        # numbering below counts past one).
        case, (seed, _) = RESTARTING
        baseline = run_case(case, seeds=[seed])["per_seed"][0]
        with tracing() as tracer:
            traced_case = run_case(case, seeds=[seed])
        traced = traced_case["per_seed"][0]
        assert baseline["restarts"] >= 1
        assert _trajectory(traced) == _trajectory(baseline)
        events = [r for r in tracer.records if r["name"] == "trust_region.restart"]
        assert len(events) == baseline["restarts"]
        assert traced_case["telemetry"]["events"]["trust_region.restart"] == len(events)
        assert [e["tags"]["restart"] for e in events] == list(range(1, len(events) + 1))
        for record in events:
            assert {"seed", "evaluations", "local_best", "restart"} <= set(record["tags"])
            assert record["tags"]["local_best"] < 0.0  # still infeasible when it restarted

    def test_determinism_auditor_green_with_tracing_on(self):
        from repro.analysis.determinism import audit_case

        with tracing():
            report = audit_case(get_suite("tiny")[0], seeds=[0])
        assert report.identical, report.divergence


class TestBenchTelemetry:
    def test_traced_run_carries_telemetry_block(self, tmp_path):
        (case,) = get_suite("tiny")
        with tracing():
            record = run_case(case, seeds=[0])
        telemetry = record["telemetry"]
        assert telemetry is not None
        assert telemetry["events"]["campaign.solved"] == 1
        spans = telemetry["spans"]
        # The tiny case solves before a surrogate refit triggers, so
        # campaign.refit may be absent; these are the structurally
        # guaranteed hot points.
        for name in ("bench.run_case", "campaign.run", "campaign.round",
                     "optimizer.ask", "optimizer.tell", "eval_cache.engine",
                     "topology.evaluate_corners"):
            assert spans[name]["count"] >= 1
            assert spans[name]["seconds"] >= 0.0

    def test_untraced_run_telemetry_is_null(self):
        (case,) = get_suite("tiny")
        assert run_case(case, seeds=[0])["telemetry"] is None
