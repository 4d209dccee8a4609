"""Crash safety: atomic writes, snapshots, the persistent cache store,
fault injection, checkpoint/resume parity, and the kill-and-resume drill."""

import json
import os
import pickle
import re
from dataclasses import astuple

import numpy as np
import pytest

from conftest import FOLDING, RESTARTING
from repro.analysis.determinism import fingerprint_outcome
from repro.bench.registry import BenchCase, get_suite
from repro.bench.runner import SCHEMA, run_suite
from repro.circuits.topologies.base import SizingProblem
from repro.resilience import (
    CacheJournal,
    CacheStore,
    FaultPlan,
    InjectedFault,
    SnapshotError,
    StoreError,
    atomic_write_json,
    atomic_write_text,
    fault_point,
    fsync_replace,
    inject,
    load_snapshot,
    registered_fault_sites,
    save_snapshot,
)
from repro.resilience import snapshot as snapshot_module
from repro.resilience.drill import drill_case, drill_suite
from repro.resilience.store import read_journal
from repro.search.campaign import CACHE_JOURNAL, LATEST_SNAPSHOT, Campaign


def _campaign_fingerprint(campaign, outcome, seeds):
    return fingerprint_outcome(outcome, campaign.cache.state_digest(), seeds)


class TestAtomicWrites:
    def test_text_write_and_replace(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write_text(str(target), "first")
        atomic_write_text(str(target), "second")
        assert target.read_text() == "second"
        # No temp residue: the one file present is the artifact itself.
        assert os.listdir(tmp_path) == ["artifact.txt"]

    def test_json_write_is_stable(self, tmp_path):
        target = tmp_path / "payload.json"
        atomic_write_json(str(target), {"b": 1, "a": [1, 2]})
        text = target.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": [1, 2], "b": 1}
        # Keys are sorted so byte-diffs of artifacts are meaningful.
        assert text.index('"a"') < text.index('"b"')

    def test_fsync_replace_promotes_partial(self, tmp_path):
        partial = tmp_path / "trace.jsonl.partial"
        final = tmp_path / "trace.jsonl"
        partial.write_text("line\n")
        fsync_replace(str(partial), str(final))
        assert final.read_text() == "line\n"
        assert not partial.exists()


class TestSnapshot:
    def test_roundtrip_preserves_numpy_and_bytes(self, tmp_path):
        path = str(tmp_path / "state.snapshot")
        state = {
            "matrix": np.arange(6, dtype=np.float64).reshape(2, 3),
            "key": b"\x00\x01",
            "nested": {"seeds": (0, 1), "name": "ota_5t"},
        }
        save_snapshot(path, state)
        restored = load_snapshot(path)
        np.testing.assert_array_equal(restored["matrix"], state["matrix"])
        assert restored["key"] == state["key"]
        assert restored["nested"] == state["nested"]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="does not exist"):
            load_snapshot(str(tmp_path / "nope.snapshot"))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.snapshot"
        path.write_bytes(b"not a snapshot at all")
        with pytest.raises(SnapshotError, match="bad magic"):
            load_snapshot(str(path))

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "state.snapshot"
        save_snapshot(str(path), {"x": 1})
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(str(path))

    def test_bitflip_fails_crc(self, tmp_path):
        path = tmp_path / "state.snapshot"
        save_snapshot(str(path), {"x": 1})
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x40
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="CRC"):
            load_snapshot(str(path))


class TestCacheStore:
    DIM, METRICS = 3, 2

    def _block(self, *values):
        keys = [np.full(self.DIM, v, dtype=np.float64).tobytes() for v in values]
        rows = np.array([[v, -v] for v in values], dtype=np.float64)
        return b"corner", keys, rows

    def test_append_then_reopen_replays_records(self, tmp_path):
        path = str(tmp_path / "cache.evc")
        store = CacheStore(path, self.DIM, self.METRICS)
        store.append(*self._block(1.0))
        store.append(*self._block(2.0, 3.0))
        store.close()
        reopened = CacheStore(path, self.DIM, self.METRICS)
        assert reopened.repaired_bytes == 0
        assert len(reopened.records) == 2
        tag, keys, rows = reopened.records[1]
        assert tag == b"corner"
        assert keys == self._block(2.0, 3.0)[1]
        np.testing.assert_array_equal(rows, [[2.0, -2.0], [3.0, -3.0]])
        assert not rows.flags.writeable
        reopened.close()

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        path = str(tmp_path / "cache.evc")
        store = CacheStore(path, self.DIM, self.METRICS)
        store.append(*self._block(1.0))
        store.close()
        intact_size = os.path.getsize(path)
        torn = b"\x2a\x00\x00\x00torn-frame"
        with open(path, "ab") as handle:
            handle.write(torn)
        reopened = CacheStore(path, self.DIM, self.METRICS)
        # The torn bytes are gone from disk and the good record survived.
        assert reopened.repaired_bytes == len(torn)
        assert os.path.getsize(path) == intact_size
        assert len(reopened.records) == 1
        reopened.close()

    def test_injected_append_fault_leaves_repairable_half_frame(self, tmp_path):
        path = str(tmp_path / "cache.evc")
        store = CacheStore(path, self.DIM, self.METRICS)
        store.append(*self._block(1.0))
        with pytest.raises(InjectedFault):
            with inject(FaultPlan("cache.append", occurrence=1)):
                store.append(*self._block(2.0, 3.0))
        store.close()
        reopened = CacheStore(path, self.DIM, self.METRICS)
        assert reopened.repaired_bytes > 0
        # The torn block is lost as a whole; the block before it survives.
        assert [keys for _, keys, _ in reopened.records] == [self._block(1.0)[1]]
        reopened.close()

    def test_shape_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "cache.evc")
        CacheStore(path, self.DIM, self.METRICS).close()
        with pytest.raises(StoreError, match="dimension"):
            CacheStore(path, self.DIM + 1, self.METRICS)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "cache.evc"
        path.write_bytes(b"x" * 64)
        with pytest.raises(StoreError, match="not an evaluation-cache store"):
            CacheStore(str(path), self.DIM, self.METRICS)

    def test_malformed_block_rejected_before_writing(self, tmp_path):
        path = str(tmp_path / "cache.evc")
        store = CacheStore(path, self.DIM, self.METRICS)
        tag, keys, rows = self._block(1.0, 2.0)
        size = os.path.getsize(path)
        with pytest.raises(ValueError, match="at least one pair"):
            store.append(tag, [], rows[:0])
        with pytest.raises(ValueError, match="shape"):
            store.append(tag, keys, rows[:1])
        with pytest.raises(ValueError, match="keys span"):
            store.append(tag, [keys[0], keys[1][:-1]], rows)
        store.close()
        assert os.path.getsize(path) == size


class TestCacheJournalFile:
    DIM, METRICS = 3, 2

    def _block(self, *values):
        keys = [np.full(self.DIM, v, dtype=np.float64).tobytes() for v in values]
        return keys, [np.array([v, -v]) for v in values]

    def test_sync_then_read_up_to_watermark(self, tmp_path):
        path = str(tmp_path / "cache.journal")
        journal = CacheJournal(path, self.DIM, self.METRICS)
        journal.append(b"tt", *self._block(1.0, 2.0))
        first = journal.sync()
        journal.append(b"ff", *self._block(3.0))
        second = journal.sync()
        journal.close()
        # The watermark counts pairs, not frames.
        assert first[0] == 2 and second[0] == 3
        assert os.path.getsize(path) == second[1]
        records = read_journal(path, self.DIM, self.METRICS, first)
        assert [(tag, rows.tolist()) for tag, _, rows in records] == [
            (b"tt", [[1.0, -1.0], [2.0, -2.0]]),
        ]
        assert len(read_journal(path, self.DIM, self.METRICS, second)) == 2

    def test_journal_format_is_the_store_format(self, tmp_path):
        path = str(tmp_path / "cache.journal")
        journal = CacheJournal(path, self.DIM, self.METRICS)
        journal.append(b"tt", *self._block(1.0, 2.0))
        journal.sync()
        journal.close()
        store = CacheStore(path, self.DIM, self.METRICS)
        assert store.repaired_bytes == 0
        assert [keys for _, keys, _ in store.records] == [self._block(1.0, 2.0)[0]]
        store.close()

    def test_continuing_truncates_past_the_watermark(self, tmp_path):
        path = str(tmp_path / "cache.journal")
        journal = CacheJournal(path, self.DIM, self.METRICS)
        journal.append(b"tt", *self._block(1.0))
        mark = journal.sync()
        journal.append(b"tt", *self._block(2.0))
        journal.sync()
        journal.close()
        continued = CacheJournal(path, self.DIM, self.METRICS, mark)
        assert os.path.getsize(path) == mark[1]
        continued.append(b"tt", *self._block(5.0))
        end = continued.sync()
        continued.close()
        rows = [rows[0, 0] for _, _, rows in read_journal(path, self.DIM, self.METRICS, end)]
        assert rows == [1.0, 5.0]

    def test_continuing_past_the_end_is_rejected(self, tmp_path):
        path = str(tmp_path / "cache.journal")
        journal = CacheJournal(path, self.DIM, self.METRICS)
        journal.append(b"tt", *self._block(1.0, 2.0))
        mark = journal.sync()
        journal.close()
        with open(path, "r+b") as handle:
            handle.truncate(mark[1] - 1)
        # Continuing would zero-fill the gap and only fail at resume.
        with pytest.raises(SnapshotError, match=r"cache journal .* is shorter"):
            CacheJournal(path, self.DIM, self.METRICS, mark)
        assert os.path.getsize(path) == mark[1] - 1

    def test_journal_writes_never_reach_the_cache_append_site(self, tmp_path):
        journal = CacheJournal(str(tmp_path / "cache.journal"), self.DIM, self.METRICS)
        plan = FaultPlan("cache.append", occurrence=1)
        with inject(plan):
            journal.append(b"tt", *self._block(1.0, 2.0))
            journal.sync()
        journal.close()
        assert not plan.fired and "cache.append" not in plan.counts


class TestFaultInjection:
    def test_all_engine_sites_registered(self):
        assert {"cache.append", "engine.call", "optimizer.refit",
                "snapshot.journal", "snapshot.write"} <= set(registered_fault_sites())

    def test_plan_fires_at_exact_occurrence(self):
        plan = FaultPlan("engine.call", occurrence=3)
        with inject(plan):
            fault_point("engine.call")
            fault_point("engine.call")
            with pytest.raises(InjectedFault):
                fault_point("engine.call")
        assert plan.fired
        assert plan.counts["engine.call"] == 3
        # A fired plan never fires again.
        with inject(plan):
            fault_point("engine.call")

    def test_unarmed_fault_point_is_noop(self):
        fault_point("engine.call")

    def test_unknown_site_rejected_at_arming(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            with inject(FaultPlan("warp.core", occurrence=1)):
                pass

    def test_nested_arming_rejected(self):
        with inject(FaultPlan("engine.call", occurrence=99)):
            with pytest.raises(RuntimeError, match="already armed"):
                with inject(FaultPlan("engine.call", occurrence=1)):
                    pass


#: The drill workload (hard enough to refit) under each registered
#: optimizer, plus a second topology — the resume-parity matrix.
RESUME_CASES = [
    (get_suite("drill")[0], "trust_region"),
    (get_suite("drill")[0], "random"),
    (get_suite("drill")[0], "cross_entropy"),
    (
        BenchCase(
            "two_stage_opamp", "smoke", "nominal",
            max_evaluations=120, max_phases=1,
        ),
        "trust_region",
    ),
]


class TestCheckpointResume:
    @pytest.mark.parametrize(
        "case, optimizer",
        RESUME_CASES,
        ids=[f"{case.topology}-{opt}" for case, opt in RESUME_CASES],
    )
    def test_resume_is_bit_identical(self, tmp_path, case, optimizer):
        seeds = [0, 1]
        ckpt = str(tmp_path / "ckpt")
        oracle_campaign = case.build_campaign(seeds, optimizer=optimizer)
        oracle = _campaign_fingerprint(
            oracle_campaign,
            oracle_campaign.run(checkpoint_dir=ckpt, keep_history=True),
            seeds,
        )
        rounds = oracle["rounds"]
        assert rounds >= 2  # otherwise "mid-run" below is meaningless
        mid = max(1, rounds // 2)
        resumed_campaign = case.build_campaign(seeds, optimizer=optimizer)
        outcome = resumed_campaign.run(
            resume_from=os.path.join(ckpt, f"round-{mid:05d}.snapshot")
        )
        assert outcome.resumed_from_round == mid
        resumed = _campaign_fingerprint(resumed_campaign, outcome, seeds)
        # Full parity including the hit/miss accounting — the replay reads
        # the journaled cache content and the snapshot sets the counters.
        assert resumed == oracle

    def test_trace_separates_replayed_rounds(self, tmp_path):
        """A resumed run's trace wraps the replayed rounds in one
        ``campaign.replay`` span inside ``campaign.run`` and tags the
        resume event with their count; the rounds after it are new work."""
        from repro.obs import tracing

        (case,) = get_suite("drill")
        ckpt = str(tmp_path / "ckpt")
        rounds = case.build_campaign([0]).run(checkpoint_dir=ckpt, keep_history=True).rounds
        mid = rounds // 2
        with tracing() as tracer:
            outcome = case.build_campaign([0]).run(
                resume_from=os.path.join(ckpt, f"round-{mid:05d}.snapshot")
            )
        records = list(tracer.records)
        (run,) = [r for r in records if r["name"] == "campaign.run"]
        (replay,) = [r for r in records if r["name"] == "campaign.replay"]
        (resume,) = [r for r in records if r["name"] == "resilience.resume"]
        assert replay["parent"] == run["id"]
        assert resume["tags"]["replayed_rounds"] == replay["tags"]["rounds"] == mid
        parents = {r["id"]: r["parent"] for r in records}

        def replayed(record):
            parent = record["parent"]
            while parent is not None and parent != replay["id"]:
                parent = parents.get(parent)
            return parent is not None

        spans = [r for r in records if r["name"] == "campaign.round"]
        assert [(r["tags"]["round"], replayed(r)) for r in spans] == [
            (n, n <= mid) for n in range(1, outcome.rounds + 1)
        ]
        # A replayed round is all cache hits: no engine pass inside it.
        engine = [replayed(r) for r in records if r["name"] == "eval_cache.engine"]
        assert engine and not any(engine)

    def test_report_tallies_replayed_reads_apart(self, tmp_path):
        """``python -m repro.obs report`` on a resumed run's trace books
        only the rounds the run computed in its cache line; the replay's
        all-hit reads get their own line."""
        from repro.obs import tracing
        from repro.obs.report import TraceRollup, format_report

        (case,) = get_suite("drill")
        ckpt = str(tmp_path / "ckpt")
        seeds = [0, 1]
        rounds = case.build_campaign(seeds).run(checkpoint_dir=ckpt, keep_history=True).rounds
        snapshot = os.path.join(ckpt, f"round-{rounds - 1:05d}.snapshot")
        counters = load_snapshot(snapshot)["cache"]["counters"]
        with tracing() as tracer:
            outcome = case.build_campaign(seeds).run(resume_from=snapshot)
        records = list(tracer.records)
        stats = TraceRollup(records).cache_stats()
        # The cache line is the last round's own traffic: the result's
        # totals less the snapshot's counters.
        assert stats["hits"] == outcome.cache_hits - counters["hits"] > 0
        assert stats["misses"] == outcome.cache_misses - counters["misses"]
        replayed = stats["replayed"]
        assert replayed["misses"] == 0
        assert replayed["hits"] >= counters["hits"] + counters["misses"] > 0
        report = format_report(records)
        assert f"{stats['hits']} hits / {stats['misses']} misses" in report
        assert f"replayed: {replayed['hits']} hits / 0 misses" in report

    def test_resume_from_latest_in_directory(self, tmp_path):
        (case,) = get_suite("drill")
        ckpt = str(tmp_path / "ckpt")
        first = case.build_campaign([0])
        oracle = _campaign_fingerprint(first, first.run(checkpoint_dir=ckpt), [0])
        assert os.path.exists(os.path.join(ckpt, LATEST_SNAPSHOT))
        second = case.build_campaign([0])
        outcome = second.run(resume_from=ckpt)
        # The latest snapshot is the finished campaign: resume loads it and
        # the run loop immediately agrees it is done.
        assert outcome.resumed_from_round == oracle["rounds"]
        assert _campaign_fingerprint(second, outcome, [0]) == oracle

    def test_resume_from_missing_path_rejected(self, tmp_path):
        (case,) = get_suite("drill")
        campaign = case.build_campaign([0])
        with pytest.raises(FileNotFoundError):
            campaign.run(resume_from=str(tmp_path / "nowhere"))

    def test_empty_checkpoint_dir_is_a_cold_start(self, tmp_path):
        (case,) = get_suite("drill")
        ckpt = str(tmp_path / "ckpt")
        baseline_campaign = case.build_campaign([0])
        baseline = _campaign_fingerprint(
            baseline_campaign, baseline_campaign.run(), [0]
        )
        # resume_from pointing at the (empty) checkpoint dir of a run that
        # died before its first checkpoint: legitimate cold start.
        os.makedirs(ckpt)
        campaign = case.build_campaign([0])
        outcome = campaign.run(checkpoint_dir=ckpt, resume_from=ckpt)
        assert outcome.resumed_from_round is None
        assert _campaign_fingerprint(campaign, outcome, [0]) == baseline

    def test_snapshot_identity_mismatch_rejected(self, tmp_path):
        (case,) = get_suite("drill")
        ckpt = str(tmp_path / "ckpt")
        donor = case.build_campaign([0])
        donor.run(checkpoint_dir=ckpt)
        receiver = case.build_campaign([0, 1])  # different seed set
        with pytest.raises(SnapshotError, match="seeds"):
            receiver.run(resume_from=ckpt)

    def test_snapshot_from_another_phase0_start_set_rejected(self, tmp_path):
        case = BenchCase("two_stage_opamp", "smoke", "nine")
        ckpt = str(tmp_path / "ckpt")
        case.build_campaign([0]).run(checkpoint_dir=ckpt)
        path = os.path.join(ckpt, LATEST_SNAPSHOT)
        state = load_snapshot(path)
        identity = state["identity"]
        assert len(identity["initial_corners"]) == 2
        # A snapshot from the hardest-corner-alone start, with the field and
        # without it (as checkpoints written before the field existed).
        one_corner = dict(identity, initial_corners=identity["corners"][:1])
        legacy = {k: v for k, v in identity.items() if k != "initial_corners"}
        for foreign in (one_corner, legacy):
            save_snapshot(path, dict(state, identity=foreign))
            with pytest.raises(SnapshotError, match="initial_corners"):
                case.build_campaign([0]).run(resume_from=ckpt)

    def _drill_snapshot(self, tmp_path):
        """A one-corner drill checkpoint: its directory, path and state."""
        (case,) = get_suite("drill")
        ckpt = str(tmp_path / "ckpt")
        case.build_campaign([0]).run(checkpoint_dir=ckpt)
        path = os.path.join(ckpt, LATEST_SNAPSHOT)
        return case, ckpt, path, load_snapshot(path)

    def test_one_corner_snapshot_without_start_set_rejected(self, tmp_path):
        # Even where the start set is the hardest corner alone, an identity
        # without the field predates it and is refused, not patched up.
        case, ckpt, path, state = self._drill_snapshot(tmp_path)
        identity = dict(state["identity"])
        assert identity.pop("initial_corners") == identity["corners"][:1]
        save_snapshot(path, dict(state, identity=identity))
        with pytest.raises(SnapshotError, match="initial_corners"):
            case.build_campaign([0]).run(resume_from=ckpt)

    def test_snapshot_with_retired_config_fields_rejected(self, tmp_path):
        # A checkpoint written while the radius schedule was still a config
        # field carries that field in its config repr.
        case, ckpt, path, state = self._drill_snapshot(tmp_path)
        config = state["identity"]["config"]
        legacy = re.sub(r"(max_evaluations=\d+, )", r"\1initial_radius=0.25, ", config)
        assert "initial_radius=0.25" in legacy
        save_snapshot(path, dict(state, identity=dict(state["identity"], config=legacy)))
        with pytest.raises(SnapshotError, match="mismatch on 'config'"):
            case.build_campaign([0]).run(resume_from=ckpt)


class TestCheckpointJournal:
    """Checkpoints journal only new cache pairs; resume replays the prefix."""

    SEEDS = [0]

    @staticmethod
    def _case():
        return get_suite("drill")[0]

    @staticmethod
    def _watermark(ckpt, name=LATEST_SNAPSHOT):
        return tuple(load_snapshot(os.path.join(ckpt, name))["cache"]["journal"])

    def _run(self, **kwargs):
        campaign = self._case().build_campaign(self.SEEDS)
        outcome = campaign.run(**kwargs)
        return campaign, _campaign_fingerprint(campaign, outcome, self.SEEDS), outcome

    @pytest.fixture
    def oracle(self):
        return self._run()[1]

    @pytest.fixture
    def checkpointed(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        self._run(checkpoint_dir=ckpt)
        return ckpt

    def test_crash_between_journal_and_snapshot(self, tmp_path, oracle):
        ckpt = str(tmp_path / "ckpt")
        campaign = self._case().build_campaign(self.SEEDS)
        plan = FaultPlan("snapshot.journal", occurrence=3)
        with pytest.raises(InjectedFault):
            with inject(plan):
                campaign.run(checkpoint_dir=ckpt)
        campaign.close()
        journal = os.path.join(ckpt, CACHE_JOURNAL)
        # Round 3's frames are durable, but the latest snapshot is round 2's.
        assert os.path.getsize(journal) > self._watermark(ckpt)[1]
        resumed, fingerprint, outcome = self._run(checkpoint_dir=ckpt, resume_from=ckpt)
        assert outcome.resumed_from_round == 2
        assert fingerprint == oracle
        # The leftover frames were truncated before the resumed appends:
        # every cached pair is in the journal exactly once.
        frames, offset, _ = self._watermark(ckpt)
        assert frames == len(resumed.cache)
        assert os.path.getsize(journal) == offset

    def test_missing_journal_rejected(self, checkpointed):
        os.remove(os.path.join(checkpointed, CACHE_JOURNAL))
        with pytest.raises(SnapshotError, match=r"cache journal .* does not exist"):
            self._run(resume_from=checkpointed)

    def test_short_journal_rejected(self, checkpointed):
        journal = os.path.join(checkpointed, CACHE_JOURNAL)
        with open(journal, "r+b") as handle:
            handle.truncate(self._watermark(checkpointed)[1] - 1)
        with pytest.raises(SnapshotError, match=r"cache journal .* is shorter"):
            self._run(resume_from=checkpointed)

    def test_foreign_journal_rejected(self, tmp_path, checkpointed):
        other = str(tmp_path / "other")
        donor = self._case().build_campaign([0, 1])
        donor.run(checkpoint_dir=other)
        foreign = os.path.join(other, CACHE_JOURNAL)
        assert os.path.getsize(foreign) >= self._watermark(checkpointed)[1]
        os.replace(foreign, os.path.join(checkpointed, CACHE_JOURNAL))
        with pytest.raises(SnapshotError, match=r"cache journal .*CRC mismatch"):
            self._run(resume_from=checkpointed)

    def test_pre_journal_snapshot_refused(self, checkpointed, monkeypatch):
        latest = os.path.join(checkpointed, LATEST_SNAPSHOT)
        state = load_snapshot(latest)
        # The v1 layout carried the full cache content in the snapshot.
        state["cache"] = {"counters": state["cache"]["counters"], "content": []}
        with monkeypatch.context() as patch:
            patch.setattr(snapshot_module, "SNAPSHOT_FORMAT", "repro.resilience/snapshot-v1")
            save_snapshot(latest, state)
        with pytest.raises(SnapshotError, match="format"):
            self._run(resume_from=checkpointed)

    def test_snapshot_carries_no_cache_content(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        # Random search over the full grid: ~70 rounds, every one
        # checkpointed, while the cache grows about twentyfold.
        case = BenchCase("two_stage_opamp", "smoke", "full45", optimizer="random")
        campaign = case.build_campaign(self.SEEDS)
        campaign.run(checkpoint_dir=ckpt, keep_history=True)
        names = sorted(n for n in os.listdir(ckpt) if n.startswith("round-"))
        frames, block_bytes = [], []
        for name in names:
            state = load_snapshot(os.path.join(ckpt, name))
            assert set(state["cache"]) == {"counters", "corners", "journal"}
            # The corner order is bounded by the grid, not by the pairs.
            assert len(state["cache"]["corners"]) <= len(case.corners())
            frames.append(state["cache"]["journal"][0])
            block_bytes.append(
                len(pickle.dumps({**state["cache"], "corners": None}))
            )
        # The cache grows many-fold while its snapshot block stays put.
        assert frames[-1] >= 10 * frames[0]
        assert max(block_bytes) - min(block_bytes) <= 32
        assert frames[-1] == len(campaign.cache)
        assert os.path.getsize(os.path.join(ckpt, CACHE_JOURNAL)) == self._watermark(ckpt)[1]

    def test_history_snapshots_share_one_journal(self, tmp_path, oracle):
        ckpt = str(tmp_path / "ckpt")
        self._run(checkpoint_dir=ckpt, keep_history=True)
        marks = [
            self._watermark(ckpt, name)
            for name in sorted(n for n in os.listdir(ckpt) if n.startswith("round-"))
        ]
        assert marks == sorted(marks) and marks[-1] == self._watermark(ckpt)
        # A history snapshot and its copy in latest.snapshot are one blob.
        with open(os.path.join(ckpt, LATEST_SNAPSHOT), "rb") as latest:
            last = sorted(n for n in os.listdir(ckpt) if n.startswith("round-"))[-1]
            with open(os.path.join(ckpt, last), "rb") as history:
                assert latest.read() == history.read()

    def test_resume_into_another_directory_starts_a_new_journal(self, tmp_path, oracle):
        first, second = str(tmp_path / "first"), str(tmp_path / "second")
        _, _, outcome = self._run(checkpoint_dir=first, keep_history=True)
        mid = outcome.rounds // 2
        first_journal = os.path.join(first, CACHE_JOURNAL)
        first_size = os.path.getsize(first_journal)
        resumed, fingerprint, _ = self._run(
            checkpoint_dir=second,
            resume_from=os.path.join(first, f"round-{mid:05d}.snapshot"),
        )
        assert fingerprint == oracle
        assert os.path.getsize(first_journal) == first_size
        assert self._watermark(second)[0] == len(resumed.cache)
        # The new journal stands alone: resuming from it needs nothing else.
        _, again, _ = self._run(resume_from=second)
        assert again == oracle

    def test_fresh_run_replaces_an_existing_journal(self, checkpointed, oracle):
        campaign, fingerprint, _ = self._run(checkpoint_dir=checkpointed)
        assert fingerprint == oracle
        frames, offset, _ = self._watermark(checkpointed)
        assert frames == len(campaign.cache)
        assert os.path.getsize(os.path.join(checkpointed, CACHE_JOURNAL)) == offset

    def test_rerun_into_the_same_directory_continues_the_journal(self, tmp_path, oracle):
        ckpt = str(tmp_path / "ckpt")
        campaign, _, _ = self._run(checkpoint_dir=ckpt)
        # Already finished: no round runs, so no checkpoint is written, and
        # the journal the latest snapshot references must survive intact.
        campaign.run(checkpoint_dir=ckpt)
        _, resumed, _ = self._run(resume_from=ckpt)
        assert resumed == oracle

    def test_watermark_from_an_earlier_round_refused(self, tmp_path, monkeypatch):
        """A snapshot whose watermark is an earlier round's than its round
        count: replaying past that round needs pairs the journal prefix
        lacks, so the resume is refused before the engine runs."""
        ckpt = str(tmp_path / "ckpt")
        self._run(checkpoint_dir=ckpt, keep_history=True)
        names = sorted(n for n in os.listdir(ckpt) if n.startswith("round-"))
        early = load_snapshot(os.path.join(ckpt, names[1]))
        late = load_snapshot(os.path.join(ckpt, names[-1]))
        forged = dict(late, cache=early["cache"])
        path = os.path.join(ckpt, "forged.snapshot")
        save_snapshot(path, forged)
        calls = []
        evaluate_corners = SizingProblem.evaluate_corners

        def counted(problem, samples, corners):
            calls.append(len(samples))
            return evaluate_corners(problem, samples, corners)

        monkeypatch.setattr(SizingProblem, "evaluate_corners", counted)
        campaign = self._case().build_campaign(self.SEEDS)
        with pytest.raises(SnapshotError, match="replaying round 3 .* earlier round"):
            campaign.run(resume_from=path)
        assert calls == []
        assert campaign.rounds == 3 and forged["rounds"] > 3
        # A round count past the campaign's end is refused as well.
        save_snapshot(path, dict(late, rounds=late["rounds"] + 2))
        with pytest.raises(SnapshotError, match="replay finished after"):
            self._case().build_campaign(self.SEEDS).run(resume_from=path)
        assert calls == []

    def test_state_dict_needs_a_synced_journal(self):
        campaign = self._case().build_campaign(self.SEEDS)
        campaign.run()
        with pytest.raises(RuntimeError, match="journal"):
            campaign.state_dict()


def _member_arrays(tree):
    """Every NumPy array in a snapshot subtree."""
    if isinstance(tree, np.ndarray):
        return [tree]
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, (list, tuple)):
        return [array for item in tree for array in _member_arrays(item)]
    return []


def _derived_state(campaign):
    """What a resume rebuilds by replay, per member, as bytes: the phase
    machine, the live optimizer's dataset, history and RNG, every phase
    result, the corner reports and the simulation count."""
    members = []
    for member in campaign._members:
        optimizer = None
        if not member.finished:
            search = member.optimizer
            optimizer = (
                search._X[: search.evaluations].tobytes(),
                search._M[: search.evaluations].tobytes(),
                [astuple(record) for record in search._history],
                search.rng.bit_generator.state,
            )
        results = [
            (
                result.best_sizing,
                result.best_metrics,
                result.best_vector.tobytes(),
                result.best_score,
                result.solved,
                result.evaluations,
                [astuple(record) for record in result.history],
            )
            for result in member.phase_results
        ]
        members.append(pickle.dumps((
            member.phase, member.active, member.finished, member.solved_all,
            member.total_evaluations, member.simulations, optimizer, results,
            member.corner_reports,
        )))
    return members


class TestMemberJournal:
    """A resume rebuilds every member by replaying the journaled rounds;
    the snapshot keeps nothing per member."""

    SEEDS = [0, 1]

    @staticmethod
    def _case(optimizer):
        return BenchCase("two_stage_opamp", "nominal", "full45", optimizer=optimizer)

    @staticmethod
    def _rounds(ckpt):
        return sorted(name for name in os.listdir(ckpt) if name.startswith("round-"))

    @staticmethod
    def _resume_points(states, stride):
        """Indices of the rounds to resume from: the first and the last,
        every ``stride``-th, and the rounds on both sides of every change
        in some member's ``(phase, finished)``."""
        last = len(states) - 1
        points = {0, last, *range(stride - 1, last, stride)}
        for index in range(1, len(states)):
            if states[index] != states[index - 1]:
                points.update((index - 1, index))
        return sorted(points)

    #: Resume stride per optimizer.  The random case runs 184 rounds, and
    #: resuming from each replays 1 + 2 + ... + 184 of them.
    RESUME_STRIDE = {"cross_entropy": 1, "random": 8}

    @pytest.mark.parametrize("optimizer", ["cross_entropy", "random"])
    def test_resume_from_every_round(self, tmp_path, monkeypatch, optimizer):
        case, seeds = FOLDING[optimizer]
        seeds = list(seeds)
        ckpt = str(tmp_path / "ckpt")
        recorded, states = [], []
        serializer = Campaign.state_dict

        def recording(campaign):
            recorded.append(_derived_state(campaign))
            states.append(tuple((member.phase, member.finished) for member in campaign._members))
            return serializer(campaign)

        oracle_campaign = case.build_campaign(seeds)
        with monkeypatch.context() as patch:
            patch.setattr(Campaign, "state_dict", recording)
            outcome = oracle_campaign.run(checkpoint_dir=ckpt, keep_history=True)
        oracle = _campaign_fingerprint(oracle_campaign, outcome, seeds)
        names = self._rounds(ckpt)
        assert len(names) == len(recorded) == oracle["rounds"]
        points = self._resume_points(states, self.RESUME_STRIDE[optimizer])
        # The resumed rounds cover phase transitions and finished members.
        phases = [state for index in points for state in states[index]]
        assert any(phase > 0 and not finished for phase, finished in phases)
        assert any(finished for _, finished in phases)
        journal = os.path.join(ckpt, CACHE_JOURNAL)
        for index in points:
            name, derived = names[index], recorded[index]
            resumed = case.build_campaign(seeds)
            resumed.load_state_dict(load_snapshot(os.path.join(ckpt, name)), journal)
            assert _derived_state(resumed) == derived, name
            outcome = resumed.run()
            assert _campaign_fingerprint(resumed, outcome, seeds) == oracle, name

    def test_snapshot_carries_no_member_rows(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        # The random full45 campaign of test_snapshot_carries_no_cache_content:
        # ~70 rounds, two phases, ~600 evaluated rows.
        case = BenchCase("two_stage_opamp", "smoke", "full45", optimizer="random")
        campaign = case.build_campaign([0])
        campaign.run(checkpoint_dir=ckpt, keep_history=True)
        batch = campaign.progressive.trust_region.batch_size
        state_bytes = []
        for name in self._rounds(ckpt):
            state = load_snapshot(os.path.join(ckpt, name))
            # Identity, round count, cache counters: no member, no array.
            assert set(state) == {"identity", "rounds", "cache"}, name
            assert _member_arrays(state) == [], name
            state_bytes.append(len(pickle.dumps(state)))
        assert campaign._members[0].total_evaluations > 10 * batch
        assert state_bytes[-1] <= 3 * state_bytes[1]

    def test_crash_after_the_journal_rewrites_the_same_frames(self, tmp_path):
        case = self._case("cross_entropy")
        oracle_dir, ckpt = str(tmp_path / "oracle"), str(tmp_path / "ckpt")
        oracle_campaign = case.build_campaign(self.SEEDS)
        oracle = _campaign_fingerprint(
            oracle_campaign, oracle_campaign.run(checkpoint_dir=oracle_dir), self.SEEDS
        )
        campaign = case.build_campaign(self.SEEDS)
        with pytest.raises(InjectedFault):
            with inject(FaultPlan("snapshot.journal", occurrence=5)):
                campaign.run(checkpoint_dir=ckpt)
        campaign.close()
        journal = os.path.join(ckpt, CACHE_JOURNAL)
        mark = tuple(load_snapshot(os.path.join(ckpt, LATEST_SNAPSHOT))["cache"]["journal"])
        dimension, n_metrics = campaign.cache._dimension, campaign.cache.n_metrics
        # Round 5's frames are durable past the round-4 watermark.
        assert os.path.getsize(journal) > mark[1]
        resumed = case.build_campaign(self.SEEDS)
        outcome = resumed.run(checkpoint_dir=ckpt, resume_from=ckpt)
        fingerprint = _campaign_fingerprint(resumed, outcome, self.SEEDS)
        pairs = len(resumed.cache)
        resumed.close()
        assert outcome.resumed_from_round == 4
        assert fingerprint == oracle
        # The resumed run rewrote round 5's frames where the crash left
        # them: the journal is the uninterrupted run's, byte for byte.
        with open(journal, "rb") as resumed_journal:
            with open(os.path.join(oracle_dir, CACHE_JOURNAL), "rb") as oracle_journal:
                assert resumed_journal.read() == oracle_journal.read()
        final = tuple(load_snapshot(os.path.join(ckpt, LATEST_SNAPSHOT))["cache"]["journal"])
        records = read_journal(journal, dimension, n_metrics, final)
        assert sum(len(keys) for _, keys, _ in records) == final[0] == pairs

    @staticmethod
    def _assert_refused(tmp_path, monkeypatch, version):
        """Rewrite a finished run's snapshot under an older format tag;
        resuming from it must fail naming that format and the current one."""
        ckpt = str(tmp_path / "ckpt")
        campaign = get_suite("drill")[0].build_campaign([0])
        campaign.run(checkpoint_dir=ckpt)
        latest = os.path.join(ckpt, LATEST_SNAPSHOT)
        state = load_snapshot(latest)
        with monkeypatch.context() as patch:
            patch.setattr(
                snapshot_module, "SNAPSHOT_FORMAT", f"repro.resilience/snapshot-{version}"
            )
            save_snapshot(latest, state)
        resumed = get_suite("drill")[0].build_campaign([0])
        with pytest.raises(SnapshotError, match=rf"snapshot-{version}.*expected.*snapshot-v6"):
            resumed.run(resume_from=ckpt)

    def test_v2_snapshot_refused(self, tmp_path, monkeypatch):
        self._assert_refused(tmp_path, monkeypatch, "v2")

    def test_v3_snapshot_refused(self, tmp_path, monkeypatch):
        """v3 surrogate bundles hold float64 weights and Adam moments, which
        the float32 surrogate would round on load, so resume would drift
        from the uninterrupted run: refused by name."""
        self._assert_refused(tmp_path, monkeypatch, "v3")

    def test_v4_snapshot_refused(self, tmp_path, monkeypatch):
        """v4 carries each member's optimizer state, which v5 rebuilds by
        replay: refused by name."""
        self._assert_refused(tmp_path, monkeypatch, "v4")

    def test_v5_snapshot_refused(self, tmp_path, monkeypatch):
        """v5 carries each member's attributed evaluation accounting, which
        v6 drops (a seed's cost is its replayed ``simulations``): refused by
        name."""
        self._assert_refused(tmp_path, monkeypatch, "v5")


def _checkpointed_run(case, seeds, ckpt, moments):
    """Run ``case`` with a checkpoint every round.  Returns the campaign, its
    outcome and, per moment, the rounds at whose end every member's live
    optimizer satisfies it."""
    rounds = {moment: [] for moment in moments}
    serializer = Campaign.state_dict

    def recording(campaign):
        for moment in moments:
            if all(not m.finished and moment(m.optimizer) for m in campaign._members):
                rounds[moment].append(campaign.rounds)
        return serializer(campaign)

    campaign = case.build_campaign(seeds)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Campaign, "state_dict", recording)
        outcome = campaign.run(checkpoint_dir=ckpt, keep_history=True)
    return campaign, outcome, rounds


def _snapshot(ckpt, rounds):
    """The first of ``rounds``' history snapshots."""
    assert rounds, "no round of the oracle run ends at the moment"
    return os.path.join(ckpt, f"round-{rounds[0]:05d}.snapshot")


def _restart_pending(optimizer):
    return optimizer._restart_pending


def _restart_done(optimizer):
    # A restart sets the restart centre, and nothing clears it again.
    return optimizer._restart_center is not None and not optimizer._restart_pending


class TestStallRestartResume:
    """Resuming around a trust-region stall restart is byte-identical."""

    CASE = RESTARTING[0]
    SEEDS = list(RESTARTING[1][:1])  # stalls at MIN_RADIUS in phase 0 and restarts
    MOMENTS = (_restart_pending, _restart_done)

    @staticmethod
    def _outcome(campaign, outcome, seeds):
        histories = [
            [astuple(r) for phase in result.phase_results for r in phase.history]
            for result in outcome.results
        ]
        return _campaign_fingerprint(campaign, outcome, seeds), histories

    @pytest.fixture(scope="class")
    def oracle(self, tmp_path_factory):
        ckpt = str(tmp_path_factory.mktemp("restart") / "ckpt")
        campaign, outcome, rounds = _checkpointed_run(self.CASE, self.SEEDS, ckpt, self.MOMENTS)
        return ckpt, self._outcome(campaign, outcome, self.SEEDS), rounds

    @pytest.mark.parametrize("moment", MOMENTS)
    def test_resume_around_restart(self, oracle, moment):
        ckpt, expected, rounds = oracle
        campaign = self.CASE.build_campaign(self.SEEDS)
        outcome = campaign.run(resume_from=_snapshot(ckpt, rounds[moment]))
        assert 0 < outcome.resumed_from_round < outcome.rounds
        assert self._outcome(campaign, outcome, self.SEEDS) == expected


def _between_full_refits(optimizer):
    """A closed-form refit ran after the last full refit."""
    return optimizer._surrogate is not None and optimizer._full_refit_rows < optimizer.evaluations


class TestRefitScheduleResume:
    """Resuming between a closed-form refit and the next full refit is
    byte-identical."""

    CASE = BenchCase("two_stage_opamp", "nominal", "nine")
    SEEDS = [2, 4]  # both search past the first closed-form refit (64 rows)

    @staticmethod
    def _outcome(campaign, outcome, seeds):
        histories = [
            [astuple(r) for phase in result.phase_results for r in phase.history]
            for result in outcome.results
        ]
        surrogates = [
            None if member.optimizer._surrogate is None
            else member.optimizer._surrogate.theta.tobytes()
            for member in campaign._members
        ]
        return _campaign_fingerprint(campaign, outcome, seeds), histories, surrogates

    @pytest.fixture(scope="class")
    def oracle(self, tmp_path_factory):
        ckpt = str(tmp_path_factory.mktemp("schedule") / "ckpt")
        campaign, outcome, rounds = _checkpointed_run(
            self.CASE, self.SEEDS, ckpt, (_between_full_refits,)
        )
        return ckpt, self._outcome(campaign, outcome, self.SEEDS), rounds

    def test_resume_between_closed_form_and_full_refit(self, oracle):
        ckpt, expected, rounds = oracle
        campaign = self.CASE.build_campaign(self.SEEDS)
        outcome = campaign.run(resume_from=_snapshot(ckpt, rounds[_between_full_refits]))
        assert 0 < outcome.resumed_from_round < outcome.rounds
        assert self._outcome(campaign, outcome, self.SEEDS) == expected


class TestPersistentCampaignCache:
    def test_cross_process_warm_start_is_bit_identical(self, tmp_path):
        (case,) = get_suite("drill")
        cache_path = str(tmp_path / "cache.evc")
        cold = case.build_campaign([0], cache_path=cache_path)
        try:
            cold_fp = _campaign_fingerprint(cold, cold.run(), [0])
        finally:
            cold.close()
        assert cold_fp["cache_misses"] > 0
        warm = case.build_campaign([0], cache_path=cache_path)
        try:
            outcome = warm.run()
            warm_fp = _campaign_fingerprint(warm, outcome, [0])
        finally:
            warm.close()
        # Every previously computed pair is served from disk...
        assert warm.cache.preloaded_pairs > 0
        assert warm.cache.warm_hits > 0
        assert warm_fp["cache_misses"] == 0
        assert warm_fp["engine_calls"] < cold_fp["engine_calls"]
        # ...with byte-identical trajectories and final cache content
        # (hit/miss accounting legitimately differs: that is the warm
        # start working, so it is excluded exactly as in the drill).
        from repro.resilience.drill import _strip_counters

        assert _strip_counters(warm_fp) == _strip_counters(cold_fp)


class TestDrill:
    def test_drill_suite_green_with_every_site_fired(self, tmp_path):
        report = drill_suite(
            seeds=[0], occurrences=(1,), workdir=str(tmp_path / "drill")
        )
        assert report.ok, report.format()
        # Occurrence 1 of every registered site is reached on the drill
        # workload — each fault actually fired and each resume matched —
        # and every scenario is one of those in-process sites.
        assert report.fired_count == len(registered_fault_sites())
        assert [o.site for o in report.outcomes] == list(registered_fault_sites())
        assert "byte-identical" in report.format()

    def test_rerun_into_the_same_workdir_repeats_every_outcome(self, tmp_path):
        """Each scenario starts from an empty directory, so a second drill
        into one workdir, or one occurrence drilled twice in a run, reports
        exactly what the first drill did."""
        (case,) = get_suite("drill")
        workdir = str(tmp_path / "drill")
        first = drill_case(case, [0], (1,), workdir)
        assert all(outcome.identical and outcome.fired for outcome in first)
        assert drill_case(case, [0], (1,), workdir) == first
        twice = drill_case(case, [0], (1, 1), workdir)
        assert twice == [outcome for outcome in first for _ in range(2)]

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["--suite", "bogus"], "--suite: unknown suite 'bogus'"),
            (["--seeds", "0"], "--seeds: must be at least 1"),
            (["--occurrences", "1,x"], "--occurrences: invalid int value: 'x'"),
            (["--occurrences", "0"], "--occurrences: must be at least 1"),
            (["--occurrences", ","], "--occurrences: expected a comma list"),
            (["--skip-worker-kill"], "unrecognized arguments"),
        ],
    )
    def test_cli_bad_input_is_a_usage_error(self, capsys, tmp_path, argv, needle):
        """Bad drill inputs exit 2 with a usage message, never a traceback."""
        from repro.resilience.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["drill", "--workdir", str(tmp_path / "drill")] + argv)
        assert exit_info.value.code == 2
        assert needle in capsys.readouterr().err

    def test_cli_sites_lists_registry(self, capsys):
        from repro.resilience.__main__ import main

        assert main(["sites"]) == 0
        out = capsys.readouterr().out.split()
        assert out == sorted(set(out))  # registration order is stable here
        assert "snapshot.write" in out


class TestBenchResilienceIntegration:
    def test_v8_payload_reports_warm_cache_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_suite("tiny", seeds=[0], cache_dir=cache_dir)
        warm = run_suite("tiny", seeds=[0], cache_dir=cache_dir)
        assert cold["schema"] == SCHEMA
        cold_block = cold["cases"][0]["resilience"]["cache"]
        warm_block = warm["cases"][0]["resilience"]["cache"]
        assert cold_block["warm_hits"] == 0
        assert warm_block["preloaded_pairs"] > 0
        assert warm_block["warm_hits"] > 0
        assert warm_block["repaired_bytes"] == 0
        # Trajectories are unaffected by the warm start.
        t_cold = cold["cases"][0]["per_seed"][0]
        t_warm = warm["cases"][0]["per_seed"][0]
        assert t_warm["best_sizing"] == t_cold["best_sizing"]

    def test_unpersisted_run_reports_null_block(self):
        payload = run_suite("tiny", seeds=[0])
        resilience = payload["cases"][0]["resilience"]
        assert resilience == {"resumed_from_round": None, "cache": None}


class TestTracerSinkDurability:
    def test_sink_streams_to_partial_and_finalizes_on_close(self, tmp_path):
        from repro.obs import tracing

        sink = tmp_path / "trace.jsonl"
        partial = tmp_path / "trace.jsonl.partial"
        with tracing(sink=str(sink)) as tracer:
            tracer.event("drill.mark", {"n": 1})
            # Mid-run the stream lives in the .partial sidecar,
            # line-buffered: a kill here loses at most a torn final line.
            assert partial.exists()
            assert not sink.exists()
            assert '"drill.mark"' in partial.read_text()
        assert sink.exists()
        assert not partial.exists()
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        assert any(record["name"] == "drill.mark" for record in records)
