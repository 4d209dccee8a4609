"""The AST lint engine: every rule fires on bad code, stays silent on good.

Each rule gets a minimal good/bad snippet pair, run with the rule selected
in isolation so the corpus never cross-fires other rules.  The repo
self-check at the bottom is the same gate CI runs: the linter must exit
clean on the final ``src/`` and ``tests/`` trees, and the determinism
auditor must byte-diff a double-run to zero.
"""

import ast
import glob
import os
import subprocess
import sys

import pytest

from repro.analysis.engine import lint_paths, lint_source
from repro.analysis.rules import available_rules, get_rule
from repro.analysis.cli import main as analysis_main
from repro.circuits.topologies import available_topologies, get_topology

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
TESTS = os.path.join(REPO_ROOT, "tests")

#: (rule id, bad snippet that must fire, good snippet that must stay silent).
CORPUS = [
    (
        "unseeded-rng",
        "import numpy as np\n"
        "def init():\n"
        "    return np.random.default_rng()\n",
        "import numpy as np\n"
        "def init(seed):\n"
        "    return np.random.default_rng(seed)\n",
    ),
    (
        "unseeded-rng",
        "import numpy as np\n"
        "def draw():\n"
        "    return np.random.normal(0.0, 1.0)\n",
        "import numpy as np\n"
        "def draw(rng):\n"
        "    return rng.normal(0.0, 1.0)\n",
    ),
    (
        "float-equality",
        "def check(x):\n"
        "    return x == 1.0\n",
        "def check(x):\n"
        "    return x >= 1.0\n",
    ),
    (
        "float-equality",
        "def check(x, y):\n"
        "    return float(x) != y\n",
        "def check(x, y):\n"
        "    return x != y\n",
    ),
    (
        "hot-loop-alloc",
        "import numpy as np\n"
        "from repro.analysis import hot_path\n"
        "@hot_path\n"
        "def step(n):\n"
        "    for _ in range(n):\n"
        "        buf = np.zeros(8)\n"
        "    return buf\n",
        "import numpy as np\n"
        "from repro.analysis import hot_path\n"
        "@hot_path\n"
        "def step(n, out):\n"
        "    buf = np.zeros(8)\n"
        "    for _ in range(n):\n"
        "        np.multiply(buf, 2.0, out=out)\n"
        "    return out\n",
    ),
    (
        "corner-python-loop",
        "class Topology:\n"
        "    def _small_signal_parts(self, samples, card, temperature_c):\n"
        "        return {}\n"
        "    def evaluate_corners(self, samples, corners):\n"
        "        return [self.one(samples, corner) for corner in corners]\n",
        "class Topology:\n"
        "    def _small_signal_parts(self, samples, card, temperature_c):\n"
        "        return {}\n"
        "    def evaluate_corners(self, samples, corners):\n"
        "        card = stack_cards(corners)\n"
        "        return self._small_signal_parts(samples, card, None)\n",
    ),
    (
        "naked-except",
        "def risky():\n"
        "    try:\n"
        "        return 1\n"
        "    except:\n"
        "        return None\n",
        "def risky():\n"
        "    try:\n"
        "        return 1\n"
        "    except ValueError:\n"
        "        return None\n",
    ),
    (
        "mutable-default",
        "def collect(item, into=[]):\n"
        "    into.append(item)\n"
        "    return into\n",
        "def collect(item, into=None):\n"
        "    into = [] if into is None else into\n"
        "    into.append(item)\n"
        "    return into\n",
    ),
    (
        "ad-hoc-timing",
        "import time\n"
        "def measure(fn):\n"
        "    t0 = time.perf_counter()\n"
        "    fn()\n"
        "    return time.perf_counter() - t0\n",
        "from repro.obs import profiled\n"
        "def measure(fn):\n"
        "    with profiled('measure') as timer:\n"
        "        fn()\n"
        "    return timer.seconds\n",
    ),
    (
        "ad-hoc-timing",
        "from time import monotonic as clock\n"
        "def stamp():\n"
        "    return clock()\n",
        "import time\n"
        "def pause():\n"
        "    time.sleep(0.01)\n",
    ),
    (
        "corner-python-loop",
        "class Topology:\n"
        "    def _small_signal_parts(self, samples, card, temperature_c):\n"
        "        return {}\n"
        "    def _corner_cards(self, corners):\n"
        "        cards = []\n"
        "        for corner in corners:\n"
        "            cards.append(corner.apply(self.base_card))\n"
        "        return cards\n",
        "from abc import ABC, abstractmethod\n"
        "class Base(ABC):\n"
        "    @abstractmethod\n"
        "    def _small_signal_parts(self, samples, card, temperature_c):\n"
        "        ...\n"
        "    def evaluate_corners(self, samples, corners):\n"
        "        temperatures = [corner.temperature_c for corner in corners]\n"
        "        return self._small_signal_parts(samples, None, temperatures)\n",
    ),
    (
        "corner-python-loop",
        "class Topology:\n"
        "    def _small_signal_parts(self, samples, card, temperature_c):\n"
        "        return {}\n"
        "    def evaluate_corners_looped(self, samples, corners):\n"
        "        return [self.one(samples, corner) for corner in corners]\n",
        "def evaluate_corners_looped(problem, samples, corners):\n"
        "    return [problem.one(samples, corner) for corner in corners]\n",
    ),
    (
        "non-atomic-artifact-write",
        "import json\n"
        "def dump(payload, path):\n"
        "    with open(path, 'w') as handle:\n"
        "        json.dump(payload, handle)\n",
        "from repro.resilience import atomic_write_json\n"
        "def dump(payload, path):\n"
        "    atomic_write_json(path, payload)\n",
    ),
    (
        "non-atomic-artifact-write",
        "def append(path, line):\n"
        "    with open(path, mode='ab') as handle:\n"
        "        handle.write(line)\n",
        "def load(path):\n"
        "    with open(path, 'rb') as handle:\n"
        "        return handle.read()\n",
    ),
    (
        "spawn-unsafe",
        "import multiprocessing\n"
        "def launch(run):\n"
        "    return multiprocessing.Process(target=run)\n",
        "import multiprocessing\n"
        "def launch(run):\n"
        "    context = multiprocessing.get_context('spawn')\n"
        "    return context.Process(target=run)\n",
    ),
    (
        "spawn-unsafe",
        "import multiprocessing as mp\n"
        "def pool():\n"
        "    return mp.get_context().Pool(2)\n",
        "import multiprocessing as mp\n"
        "def pool():\n"
        "    return mp.get_context('spawn').Pool(2)\n",
    ),
    (
        "spawn-unsafe",
        "from multiprocessing import Process\n"
        "def launch(run):\n"
        "    return Process(target=run)\n",
        "from multiprocessing import get_context\n"
        "def launch(run):\n"
        "    return get_context('spawn').Process(target=run)\n",
    ),
]


def lint_with(rule_id, source, path="src/repro/example.py"):
    return lint_source(source, path, select=(rule_id,))


class TestRuleCorpus:
    @pytest.mark.parametrize(
        "rule_id,bad,good", CORPUS, ids=[f"{c[0]}-{i}" for i, c in enumerate(CORPUS)]
    )
    def test_fires_on_bad_and_stays_silent_on_good(self, rule_id, bad, good):
        bad_findings = lint_with(rule_id, bad)
        assert bad_findings, f"{rule_id} did not fire on the bad snippet"
        assert all(f.rule == rule_id for f in bad_findings)
        assert lint_with(rule_id, good) == []

    def test_every_registered_rule_has_corpus_coverage(self):
        covered = {rule_id for rule_id, _, _ in CORPUS}
        assert covered == set(available_rules())

    def test_findings_carry_location(self):
        (finding,) = lint_with("naked-except", CORPUS[6][1])
        assert finding.path == "src/repro/example.py"
        assert finding.line == 4
        assert "except" in finding.format()


class TestScoping:
    def test_unseeded_rng_allowed_in_tests(self):
        bad = CORPUS[0][1]
        assert lint_with("unseeded-rng", bad, path="tests/test_example.py") == []

    def test_hot_module_functions_are_hot_without_decorator(self):
        source = (
            "import numpy as np\n"
            "def helper(n):\n"
            "    for _ in range(n):\n"
            "        x = np.empty(4)\n"
            "    return x\n"
        )
        hot = lint_with("hot-loop-alloc", source, path="src/repro/nn/fused.py")
        cold = lint_with("hot-loop-alloc", source, path="src/repro/nn/other.py")
        assert hot and not cold

    def test_hot_function_names_are_hot_anywhere(self):
        source = (
            "import numpy as np\n"
            "def evaluate_batch(self, samples):\n"
            "    for row in samples:\n"
            "        out = np.zeros(4)\n"
            "    return out\n"
        )
        assert lint_with("hot-loop-alloc", source, path="src/repro/cold.py")

    def test_corner_loop_rule_selects_every_shipped_topology(self):
        """The rule keys on a concrete ``_small_signal_parts``: every
        registered topology class is selected, the abstract base is not."""
        rule = get_rule("corner-python-loop")
        selected = set()
        for path in glob.glob(os.path.join(SRC, "repro", "circuits", "topologies", "*.py")):
            with open(path) as handle:
                tree = ast.parse(handle.read())
            selected.update(
                node.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and rule.selects(node)
            )
        assert selected == {get_topology(name).__name__ for name in available_topologies()}

    def test_ad_hoc_timing_allowed_inside_repro_obs(self):
        source = (
            "import time\n"
            "def now():\n"
            "    return time.perf_counter()\n"
        )
        sanctioned = lint_with(
            "ad-hoc-timing", source, path="src/repro/obs/tracer.py"
        )
        elsewhere = lint_with(
            "ad-hoc-timing", source, path="src/repro/search/campaign.py"
        )
        in_tests = lint_with(
            "ad-hoc-timing", source, path="tests/test_example.py"
        )
        assert not sanctioned and not in_tests and elsewhere

    def test_atomic_write_rule_exempts_resilience_and_tests(self):
        source = (
            "def dump(path, data):\n"
            "    with open(path, 'wb') as handle:\n"
            "        handle.write(data)\n"
        )
        sanctioned = lint_with(
            "non-atomic-artifact-write", source, path="src/repro/resilience/atomic.py"
        )
        elsewhere = lint_with(
            "non-atomic-artifact-write", source, path="src/repro/bench/runner.py"
        )
        in_tests = lint_with(
            "non-atomic-artifact-write", source, path="tests/test_example.py"
        )
        assert not sanctioned and not in_tests and elsewhere

    def test_out_kwarg_exempts_alloc_rule(self):
        source = (
            "import numpy as np\n"
            "from repro.analysis import hot_path\n"
            "@hot_path\n"
            "def step(n, buf):\n"
            "    for _ in range(n):\n"
            "        np.add(buf, 1.0, out=buf)\n"
            "    return buf\n"
        )
        assert lint_with("hot-loop-alloc", source) == []


class TestPragma:
    BAD = (
        "import numpy as np\n"
        "from repro.analysis import hot_path\n"
        "@hot_path\n"
        "def step(n):\n"
        "    for _ in range(n):\n"
        "        buf = np.zeros(8)\n"
        "    return buf\n"
    )

    def test_pragma_on_the_finding_line(self):
        source = self.BAD.replace(
            "        buf = np.zeros(8)\n",
            "        buf = np.zeros(8)  # analysis: allow(hot-loop-alloc)\n",
        )
        assert lint_with("hot-loop-alloc", source) == []

    def test_pragma_on_the_line_above(self):
        source = self.BAD.replace(
            "        buf = np.zeros(8)\n",
            "        # analysis: allow(hot-loop-alloc) one-time scratch\n"
            "        buf = np.zeros(8)\n",
        )
        assert lint_with("hot-loop-alloc", source) == []

    def test_pragma_for_another_rule_does_not_suppress(self):
        source = self.BAD.replace(
            "        buf = np.zeros(8)\n",
            "        buf = np.zeros(8)  # analysis: allow(naked-except)\n",
        )
        assert lint_with("hot-loop-alloc", source)


class TestEngine:
    def test_syntax_error_reported_as_finding(self):
        findings = lint_source("def broken(:\n", "src/repro/x.py")
        assert findings and findings[0].rule == "syntax-error"

    def test_unknown_rule_lists_available(self):
        with pytest.raises(KeyError, match="unseeded-rng"):
            get_rule("nope")

    def test_lint_paths_walks_directories(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "bad.py").write_text("def f(x=[]):\n    return x\n")
        (package / "good.py").write_text("def f(x=None):\n    return x\n")
        findings = lint_paths([str(tmp_path)])
        assert [f.rule for f in findings] == ["mutable-default"]


class TestCLI:
    def test_lint_clean_repo_exits_zero(self):
        """The gate this whole PR is about: the final tree lints clean."""
        assert analysis_main(["lint", SRC, TESTS]) == 0

    def test_lint_reports_findings_with_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        assert analysis_main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "mutable-default" in out and "bad.py:1" in out

    def test_lint_select_restricts_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        assert analysis_main(["lint", str(bad), "--select", "naked-except"]) == 0

    @pytest.mark.parametrize(
        "select, needle",
        [
            (" , ", "--select: expected a comma list of rule ids"),
            ("", "--select: expected a comma list of rule ids"),
            ("unseeded-rng,bogus", "--select: unknown lint rule 'bogus'"),
        ],
        ids=["blank", "empty", "unknown"],
    )
    def test_lint_select_without_a_known_rule_is_a_usage_error(
        self, tmp_path, capsys, select, needle
    ):
        """A selection that names no rule, or an unknown one, must not lint
        with nothing: it exits 2 with a usage message."""
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\n\nnp.random.rand(3)\n")
        assert analysis_main(["lint", str(bad), "--select", "unseeded-rng"]) == 1
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            analysis_main(["lint", str(bad), "--select", select])
        assert exit_info.value.code == 2
        assert needle in capsys.readouterr().err

    def test_rules_subcommand_lists_all(self, capsys):
        assert analysis_main(["rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in available_rules():
            assert rule_id in out

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "rules"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0
        assert "unseeded-rng" in result.stdout


class TestDeterminismAuditor:
    def test_tiny_case_double_run_is_byte_identical(self):
        from repro.analysis.determinism import audit_case
        from repro.bench.registry import get_suite

        report = audit_case(get_suite("tiny")[0], seeds=[0])
        assert report.identical, report.divergence
        assert len(report.fingerprint_sha256) == 64

    def test_divergence_pointer_names_the_field(self):
        from repro.analysis.determinism import _first_divergence

        first = {"per_seed": [{"seed": 0, "evaluations": 10}]}
        second = {"per_seed": [{"seed": 0, "evaluations": 11}]}
        where = _first_divergence(first, second)
        assert "per_seed[0].evaluations" in where


class TestDeterminismCLIInputs:
    """Bad audit inputs are usage errors (exit 2), never a failed audit (1)."""

    def _usage_error(self, capsys, argv, needle):
        with pytest.raises(SystemExit) as exit_info:
            analysis_main(["determinism"] + argv)
        assert exit_info.value.code == 2
        assert needle in capsys.readouterr().err

    def test_zero_seeds_is_a_usage_error(self, capsys):
        self._usage_error(capsys, ["--seeds", "0"], "--seeds: must be at least 1")

    def test_unknown_optimizer_is_a_usage_error(self, capsys):
        self._usage_error(
            capsys, ["--optimizer", "bogus"], "--optimizer: invalid choice: 'bogus'"
        )

    @pytest.mark.parametrize(
        "flag", [["--execution", "sharded"], ["--workers", "2"]]
    )
    def test_sharding_flags_are_gone(self, capsys, flag):
        self._usage_error(capsys, flag, "unrecognized arguments")

    def test_unknown_suite_is_a_usage_error(self, capsys):
        self._usage_error(capsys, ["--suite", "nope"], "unknown suite 'nope'")
