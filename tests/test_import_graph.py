"""The campaign stack imports only what a campaign runs.

``repro.search``, ``repro.bench.registry`` and ``repro.shard`` are what
every campaign-building entry point loads; the lint engine, the trace
renderer and the bench CLI stay out of that import graph, so they cost a
sizing run nothing.  Checked in a fresh interpreter: the test session has
already imported everything.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Modules a campaign must not import.
OFF_THE_CAMPAIGN_PATH = (
    "repro.analysis.engine",
    "repro.analysis.rules",
    "repro.obs.report",
    "repro.bench.runner",
    "logging",
    "argparse",
)


def test_campaign_stack_leaves_tooling_unimported():
    probe = (
        "import json, sys\n"
        "import repro.search, repro.bench.registry, repro.shard\n"
        f"print(json.dumps([m for m in {list(OFF_THE_CAMPAIGN_PATH)!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(completed.stdout) == []
