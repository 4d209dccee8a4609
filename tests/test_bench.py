"""Benchmark harness: registry, runner aggregation, JSON artifact, CLI,
and pinned smoke-suite outcomes."""

import hashlib
import json
import os
from statistics import median

import numpy as np
import pytest

from conftest import trajectory
from repro.bench import (
    SCHEMA,
    BenchCase,
    available_suites,
    format_summary,
    get_suite,
    register_benchmark,
    run_case,
    run_suite,
    write_bench_json,
)
from repro.bench.runner import censored_median, main as bench_main
from repro.circuits.pvt import initial_corners

#: Artifact fields of the retired oracle knobs (bench schema v9 and older)
#: and of the retired sharded execution (v10 and older).
RETIRED_FIELDS = {"backend", "corner_engine", "refit_mode", "execution", "shard"}


class TestRegistry:
    def test_builtin_suites(self):
        assert {"smoke", "full", "tiny"} <= set(available_suites())

    def test_smoke_suite_covers_four_topologies(self):
        topologies = {case.topology for case in get_suite("smoke")}
        assert len(topologies) >= 4

    def test_unknown_suite_lists_available(self):
        with pytest.raises(KeyError, match="smoke"):
            get_suite("nope")

    def test_unknown_corner_set_rejected(self):
        with pytest.raises(ValueError):
            BenchCase("ota_5t", "smoke", "everywhere")

    def test_unknown_tier_rejected_at_registration(self):
        with pytest.raises(ValueError, match="stretch"):
            BenchCase("ota_5t", "strech", "hardest")

    def test_case_name_is_stable_key(self):
        case = BenchCase("ota_5t", "smoke", "nominal")
        assert case.name == "ota_5t/smoke/nominal"

    def test_case_name_disambiguates_non_defaults(self):
        default = BenchCase("ota_5t", "stretch", "hardest")
        budgeted = BenchCase("ota_5t", "stretch", "hardest", max_evaluations=800)
        retargeted = BenchCase("ota_5t", "stretch", "hardest", load_cap=4e-12)
        names = {default.name, budgeted.name, retargeted.name}
        assert len(names) == 3, names
        assert budgeted.name == "ota_5t/stretch/hardest@max_evaluations=800"

    def test_register_benchmark_rejects_duplicates(self):
        case = BenchCase("ota_5t", "stretch", "nominal")
        register_benchmark("_test_suite", case)
        try:
            with pytest.raises(ValueError):
                register_benchmark("_test_suite", case)
        finally:
            from repro.bench.registry import _SUITES

            _SUITES.pop("_test_suite", None)

    def test_corner_sets_resolve(self):
        assert len(BenchCase("ota_5t", "smoke", "nine").corners()) == 9
        assert len(BenchCase("ota_5t", "smoke", "hardest").corners()) == 1
        assert len(BenchCase("ota_5t", "smoke", "full45").corners()) == 45
        assert BenchCase("ota_5t", "smoke", "nominal").corners()[0].process == "tt"

    def test_corners_suite_scales_the_corner_axis(self):
        """The corner-scaling suite runs one topology on nine vs full45."""
        cases = get_suite("corners")
        assert {case.topology for case in cases} == {"two_stage_opamp"}
        assert [case.corner_set for case in cases] == ["nine", "full45"]

    def test_config_carries_seed_and_budget(self):
        case = BenchCase("ota_5t", "smoke", max_evaluations=123, max_phases=2)
        config = case.config(seed=7)
        assert config.trust_region.seed == 7
        assert config.trust_region.max_evaluations == 123
        assert config.max_phases == 2
        assert config.optimizer == "trust_region"


class TestRunner:
    @pytest.fixture(scope="class")
    def tiny_result(self):
        (case,) = get_suite("tiny")
        return run_case(case, seeds=[0, 1])

    def test_case_record_structure(self, tiny_result):
        assert tiny_result["name"].startswith("ota_5t/smoke/nominal")
        assert tiny_result["design_dims"] == 5
        assert not RETIRED_FIELDS & set(tiny_result)
        assert set(tiny_result["refit"]) == {
            "refit_seconds",
            "refit_rounds",
            "batched_kernel_calls",
        }
        assert tiny_result["optimizer"] == "trust_region"  # the case default
        assert 0.0 <= tiny_result["success_rate"] <= 1.0
        assert tiny_result["wall_seconds"] >= tiny_result["refit_seconds"] >= 0.0
        assert tiny_result["wall_seconds"] >= tiny_result["eval_seconds"] >= 0.0
        eval_block = tiny_result["eval"]
        assert eval_block["engine_calls"] > 0
        assert eval_block["rounds"] >= eval_block["engine_calls"]
        assert eval_block["cache_misses"] > 0
        # Telemetry is only populated under tracing (--trace / REPRO_TRACE).
        assert tiny_result["telemetry"] is None
        assert len(tiny_result["per_seed"]) == 2
        for record in tiny_result["per_seed"]:
            assert set(record) == {
                "seed",
                "solved",
                "evaluations",
                "refit_seconds",
                "simulations",
                "phases",
                "restarts",
                "failing_corners",
                "best_sizing",
            }
            assert record["evaluations"] > 0
            assert record["simulations"] > 0
            assert record["refit_seconds"] >= 0.0
            # A solved seed has no failing corners (and vice versa the list
            # names exactly the corners that sank an unsolved one).
            if record["solved"]:
                assert record["failing_corners"] == []

    def test_tiny_case_solves(self, tiny_result):
        assert tiny_result["success_rate"] == 1.0
        assert tiny_result["median_evaluations_to_feasible"] is not None
        per_seed = [record["simulations"] for record in tiny_result["per_seed"]]
        assert tiny_result["simulations"] == sum(per_seed)
        assert tiny_result["simulations_to_feasible"] == median(per_seed)

    def test_censored_median_counts_unsolved_as_infinite(self):
        assert censored_median([10, None, 30]) == 30.0
        assert censored_median([10, 20, None, None]) is None
        assert censored_median([40, 10, 20, None]) == 30.0
        assert censored_median([None]) is None
        assert censored_median([]) is None

    def test_median_is_over_solved_seeds_only(self):
        case = BenchCase("ota_5t", "stretch", "nominal", max_evaluations=20, max_phases=1)
        result = run_case(case, seeds=[0])
        # A 20-evaluation budget cannot satisfy the stretch tier.
        assert result["success_rate"] == 0.0
        assert result["median_evaluations_to_feasible"] is None
        assert result["simulations_to_feasible"] is None
        assert result["simulations"] > 0

    def test_run_is_deterministic_per_seed(self):
        (case,) = get_suite("tiny")
        first = run_case(case, seeds=[3])["per_seed"][0]
        second = run_case(case, seeds=[3])["per_seed"][0]
        assert first["best_sizing"] == second["best_sizing"]
        assert first["evaluations"] == second["evaluations"]

    def test_suite_payload_and_artifact(self, tmp_path):
        payload = run_suite("tiny", seeds=[0])
        assert payload["schema"] == SCHEMA == "repro.bench/v13"
        assert payload["suite"] == "tiny"
        assert payload["seeds"] == [0]
        assert not RETIRED_FIELDS & set(payload)
        assert payload["optimizer"] == "trust_region"
        assert payload["totals"]["cases"] == len(payload["cases"])
        host = payload["host"]
        assert host["cpu_count"] == os.cpu_count()
        assert set(host) == {"cpu_count", "blas", "blas_threads", "thread_variables"}
        assert all(name.endswith("_NUM_THREADS") for name in host["thread_variables"])
        path = tmp_path / "BENCH_tiny.json"
        write_bench_json(payload, str(path))
        assert json.loads(path.read_text()) == payload
        summary = format_summary(payload)
        assert "ota_5t/smoke/nominal" in summary

    def test_backend_override_recorded(self):
        """No backend override exists, so no artifact level records one."""
        (case,) = get_suite("tiny")
        with pytest.raises(TypeError, match="backend"):
            run_case(case, seeds=[0], backend="autodiff")
        with pytest.raises(TypeError, match="backend"):
            run_suite("tiny", seeds=[0], backend="autodiff")

    def test_backends_produce_identical_trajectories(self, oracles):
        """Bit-identical training steps -> bit-identical bench results."""
        (case,) = get_suite("tiny")
        fused = run_case(case, seeds=[0])["per_seed"][0]
        oracles.autodiff_surrogate()
        autodiff = run_case(case, seeds=[0])["per_seed"][0]
        assert fused["evaluations"] == autodiff["evaluations"]
        assert fused["best_sizing"] == autodiff["best_sizing"]


class TestCLI:
    def test_cli_writes_artifact(self, tmp_path, capsys):
        output = tmp_path / "bench.json"
        code = bench_main(["--suite", "tiny", "--seeds", "1", "--output", str(output)])
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["schema"] == SCHEMA
        assert payload["seeds"] == [0]
        captured = capsys.readouterr()
        assert "wrote" in captured.out

    def test_cli_first_seed_runs_held_out_seeds(self, tmp_path):
        output = tmp_path / "bench.json"
        args = ["--suite", "tiny", "--seeds", "2", "--first-seed", "64"]
        assert bench_main(args + ["--output", str(output)]) == 0
        payload = json.loads(output.read_text())
        assert payload["seeds"] == [64, 65]
        (case,) = payload["cases"]
        assert [record["seed"] for record in case["per_seed"]] == [64, 65]
        # The same seeds as a direct run of the registered suite.
        direct = run_suite("tiny", seeds=[64, 65])["cases"][0]["per_seed"]
        for got, expected in zip(case["per_seed"], direct):
            assert got["evaluations"] == expected["evaluations"]
            assert got["best_sizing"] == expected["best_sizing"]

    def test_cli_rejects_negative_first_seed(self):
        with pytest.raises(SystemExit):
            bench_main(["--suite", "tiny", "--first-seed", "-1"])

    def test_cli_rejects_bad_seed_count(self, tmp_path):
        with pytest.raises(SystemExit):
            bench_main(["--suite", "tiny", "--seeds", "0"])

    def test_cli_fail_under_gates_regressions(self, tmp_path):
        """The CI gate must go red when cases stop solving."""
        from repro.bench.registry import _SUITES

        _SUITES["_gate_test"] = [
            # A 20-evaluation budget cannot satisfy the stretch tier.
            BenchCase("ota_5t", "stretch", "nominal", max_evaluations=20, max_phases=1)
        ]
        try:
            args = ["--suite", "_gate_test", "--seeds", "1",
                    "--output", str(tmp_path / "gate.json")]
            assert bench_main(args + ["--fail-under", "1.0"]) == 1
            assert bench_main(args) == 0  # default: report, don't gate
        finally:
            _SUITES.pop("_gate_test", None)

    def test_cli_rejects_bad_fail_under(self, tmp_path):
        with pytest.raises(SystemExit):
            bench_main(["--suite", "tiny", "--fail-under", "1.5"])

    def test_cli_unknown_suite_prints_listing(self, capsys):
        """An unknown suite enumerates the registry instead of erroring."""
        assert bench_main(["--suite", "definitely_not_a_suite"]) == 2
        out = capsys.readouterr().out
        assert "definitely_not_a_suite" in out
        assert "suites:" in out and "optimizers:" in out
        assert "trust_region" in out

    def test_cli_list_flag(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        for needle in ("suites:", "topologies:", "spec tiers:", "optimizers:"):
            assert needle in out
        assert "two_stage_opamp/smoke/nominal@optimizer=random" in out

    def test_cli_backend_flag(self):
        """The training backend is not selectable: the flag is gone."""
        for backend in ("fused", "autodiff"):
            with pytest.raises(SystemExit) as exit_info:
                bench_main(["--suite", "tiny", "--backend", backend])
            assert exit_info.value.code == 2

    def test_cli_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            bench_main(["--suite", "tiny", "--backend", "jax"])

    def test_cli_corner_engine_flag(self):
        """The corner engine is not selectable: the flag is gone."""
        for engine in ("stacked", "looped"):
            with pytest.raises(SystemExit) as exit_info:
                bench_main(["--suite", "tiny", "--corner-engine", engine])
            assert exit_info.value.code == 2

    def test_cli_rejects_unknown_corner_engine(self):
        with pytest.raises(SystemExit):
            bench_main(["--suite", "tiny", "--corner-engine", "spiral"])

    def test_corner_engines_produce_identical_trajectories(self, oracles):
        """Stacked corner evaluation is bit-identical to the looped oracle."""
        (case,) = get_suite("tiny")
        stacked = run_case(case, seeds=[0])["per_seed"][0]
        oracles.looped_corners()
        looped = run_case(case, seeds=[0])["per_seed"][0]
        assert stacked["evaluations"] == looped["evaluations"]
        assert stacked["best_sizing"] == looped["best_sizing"]
        assert stacked["solved"] == looped["solved"]

    def test_cli_optimizer_flag(self, tmp_path):
        output = tmp_path / "bench.json"
        code = bench_main(
            ["--suite", "tiny", "--seeds", "1", "--optimizer", "random",
             "--output", str(output)]
        )
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["optimizer"] == "random"
        assert all(case["optimizer"] == "random" for case in payload["cases"])
        # Random search carries no surrogate: zero refit time.
        assert payload["cases"][0]["refit_seconds"] == 0.0

    def test_cli_rejects_unknown_optimizer(self):
        with pytest.raises(SystemExit):
            bench_main(["--suite", "tiny", "--optimizer", "simulated_annealing"])

    @pytest.mark.parametrize(
        "flag",
        [
            ["--execution", "sharded"],
            ["--workers", "2"],
            ["--shard-scaling"],
            ["--workers-list", "1,2"],
        ],
    )
    def test_cli_has_no_sharding_flags(self, flag, capsys):
        """A suite runs one way; the sharding flags are usage errors."""
        with pytest.raises(SystemExit) as exit_info:
            bench_main(["--suite", "tiny"] + flag)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _one_seed_runs(case, seeds):
    """One single-seed campaign per seed, run one after another."""
    outcomes = []
    for seed in seeds:
        campaign = case.build_campaign([seed])
        try:
            outcomes.append(campaign.run())
        finally:
            campaign.close()
    return outcomes


class TestCampaignExecution:
    """The multi-seed campaign path: bit-exact, fewer evaluator calls."""

    def test_campaign_matches_sequential_per_seed(self):
        """One multi-seed campaign == one single-seed campaign per seed.

        Cache accounting is left out: the campaign shares one cache across
        seeds, so per-seed hit/miss/engine-call splits legitimately differ
        from a fresh cache per seed.
        """
        (case,) = get_suite("tiny")
        campaign = run_case(case, seeds=[0, 1, 2])
        sequential = _one_seed_runs(case, [0, 1, 2])
        assert [trajectory(r) for r in campaign["per_seed"]] == [
            trajectory(outcome.results[0].to_dict()) for outcome in sequential
        ]

    def test_campaign_issues_fewer_larger_engine_calls(self):
        (case,) = get_suite("tiny")
        campaign = run_case(case, seeds=[0, 1, 2])
        sequential = _one_seed_runs(case, [0, 1, 2])
        assert campaign["eval"]["engine_calls"] < sum(
            outcome.engine_calls for outcome in sequential
        )
        # Batching never re-evaluates: the campaign computes at most the
        # (row, corner) pairs the sequential loop computed, plus union
        # corners shared across seeds' requests.
        assert campaign["eval"]["cache_misses"] >= campaign["eval"]["engine_calls"]

    def test_baseline_case_in_smoke_suite(self):
        """The smoke artifact carries a random-search baseline case."""
        cases = get_suite("smoke")
        baselines = [case for case in cases if case.optimizer == "random"]
        assert len(baselines) == 1
        record = run_case(baselines[0], seeds=[0])
        assert record["optimizer"] == "random"
        assert record["success_rate"] == 1.0
        assert record["refit_seconds"] == 0.0  # no surrogate to fit


class TestCrossCheck:
    def test_cli_cross_check_flag(self):
        """The A/B modes moved into pytest (test_fused, test_batched_refit)."""
        for flag in ("--cross-check", "--refit-cross-check", "--refit-mode"):
            with pytest.raises(SystemExit) as exit_info:
                bench_main(["--suite", "tiny", flag])
            assert exit_info.value.code == 2


class TestDemoParity:
    def test_smoke_two_stage_matches_opamp_demo_at_seed_zero(self):
        """The bench harness must reproduce the demo bit-for-bit: same
        progressive search, same RNG stream, same winning sizing."""
        from repro.search.opamp_demo import DEFAULT_SPECS
        from repro.search.sizing import size_problem

        demo = size_problem("two_stage_opamp", specs=DEFAULT_SPECS, seed=0)
        case = next(
            case for case in get_suite("smoke") if case.topology == "two_stage_opamp"
        )
        bench = run_case(case, seeds=[0])["per_seed"][0]
        assert bench["solved"] and demo.solved_all_corners
        assert bench["evaluations"] == demo.evaluations
        np.testing.assert_array_equal(
            list(bench["best_sizing"].values()), list(demo.best_sizing.values())
        )


#: Smoke-suite outcomes at seeds 0-3, per case: (solved, evaluations, the
#: first 16 hex digits of the SHA-256 of ``best_vector``'s bytes).  Every
#: value is grid-snapped, so unlike the cache digest the pins do not hang on
#: how the host's transcendentals round; they move only when a trajectory
#: does (e.g. a change to the surrogate's arithmetic or precision), which
#: the double-run determinism audit cannot see.
SMOKE_OUTCOMES = {
    "two_stage_opamp/nominal/nine": [
        (True, 64, "d7f8b482d0dbde08"), (True, 97, "eaf4263cb61c06c8"),
        (True, 80, "28a56cecd20610a3"), (True, 48, "0d433b111ab28bf6"),
    ],
    "ota_5t/nominal/hardest": [
        (True, 56, "bd82396692009c78"), (True, 64, "03ec499604d2ce29"),
        (True, 24, "863de712a7cb7d4e"), (True, 40, "add6951764482399"),
    ],
    "folded_cascode/nominal/nine": [
        (True, 56, "438a8e35f0a68e77"), (True, 88, "0c631755efa0f16f"),
        (True, 80, "b24d85301d218006"), (True, 112, "816b40e8b58804f6"),
    ],
    "telescopic/nominal/nine": [
        (True, 72, "4b43a7d903d95caf"), (True, 136, "70b612d797b593cf"),
        (True, 88, "a963200c263eb4a2"), (True, 80, "1fbea592fe62397a"),
    ],
    "two_stage_opamp/smoke/nominal@optimizer=random": [
        (True, 56, "b32a8914bbddf861"), (True, 112, "39f863a6b7fa042e"),
        (True, 48, "d960923ef593b2f7"), (True, 48, "bb8129e1e58e4f15"),
    ],
}


class TestPinnedSmokeOutcomes:
    @pytest.mark.parametrize("case", get_suite("smoke"), ids=lambda case: case.name)
    def test_seeds_0_to_3(self, case):
        outcome = case.build_campaign([0, 1, 2, 3]).run()
        observed = [
            (
                bool(result.solved_all_corners),
                int(result.evaluations),
                hashlib.sha256(result.best_vector.tobytes()).hexdigest()[:16],
            )
            for result in outcome.results
        ]
        assert observed == SMOKE_OUTCOMES[case.name]


class TestSimulationCount:
    """A seed's ``simulations`` is the distinct ``(row, corner)`` pairs its
    own requests named: the same whichever seeds share its campaign."""

    SEEDS = [0, 1, 2, 3]

    @pytest.mark.parametrize("case", get_suite("smoke"), ids=lambda case: case.name)
    def test_multi_seed_count_equals_the_seed_run_alone(self, case):
        shared = case.build_campaign(self.SEEDS).run()
        for seed, result in zip(self.SEEDS, shared.results):
            alone = case.build_campaign([seed])
            outcome = alone.run()
            solo = outcome.results[0]
            assert result.simulations == solo.simulations == len(alone.cache) > 0
            # Alone, each missed pair is one the seed requested, except that
            # a phase's verification recomputes the winner at the corners
            # the phase searched (phase k searches the start set plus k
            # folded corners); on a one-corner grid it is all hits.
            corners = case.corners()
            start = len(initial_corners(corners))
            recomputed = sum(
                start + phase for phase in range(len(solo.phase_results))
            ) if len(corners) > 1 else 0
            assert outcome.cache_misses == solo.simulations + recomputed


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-seed fields of a committed artifact that record the search itself.
TRAJECTORY_FIELDS = (
    "seed", "solved", "evaluations", "phases", "restarts", "failing_corners",
    "best_sizing", "simulations",
)


class TestCommittedArtifacts:
    """The checked-in BENCH artifacts carry the current schema, and their
    per-seed trajectories are pinned: a schema bump that only drops
    accounting fields must leave them as they were."""

    #: SHA-256 of each artifact's per-case trajectory records (see
    #: ``trajectory_digest``), taken from the ``repro.bench/v12`` artifacts
    #: the v13 ones replaced.
    DIGESTS = {
        "BENCH_smoke.json": "ac5f88cfdf45ab9f55e4887bb1e2cefa155988b11481f1155f907ecdc6c1faa5",
        "BENCH_corners.json": "5bbd49138b175db8b07b0c5384dc4ef23e40fea2e48092cd9fcf5b245aa7cb77",
    }

    @staticmethod
    def trajectory_digest(payload):
        records = [
            [case["name"], [{k: r[k] for k in TRAJECTORY_FIELDS} for r in case["per_seed"]]]
            for case in payload["cases"]
        ]
        return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_schema_and_trajectories(self, name):
        with open(os.path.join(REPO, name)) as handle:
            payload = json.load(handle)
        assert payload["schema"] == SCHEMA
        for case in payload["cases"]:
            for record in case["per_seed"]:
                assert set(record) == set(TRAJECTORY_FIELDS) | {"refit_seconds"}
        assert self.trajectory_digest(payload) == self.DIGESTS[name]
