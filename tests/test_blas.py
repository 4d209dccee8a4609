"""BLAS thread pinning: one thread per process unless the environment asks.

Each check runs in a fresh interpreter: pinning happens once, when
``repro`` is imported, and depends on what the environment held then.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy  # noqa: F401  -- blas_threads() reads the BLAS numpy has loaded
import pytest

from repro.blas import THREAD_VARIABLES, blas_threads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

pytestmark = pytest.mark.skipif(
    blas_threads() is None, reason="numpy's BLAS exposes no OpenBLAS thread count"
)

#: numpy first, as a caller that imports it before repro would.
REPORT = """
    import json
    import os

    import numpy
    import repro
    from repro.blas import THREAD_VARIABLES, blas_threads

    print(json.dumps({
        "threads": blas_threads(),
        "env": [os.environ.get(name) for name in THREAD_VARIABLES],
    }))
"""


def _probe(tmp_path, body, **environment):
    """Run ``body`` in a fresh interpreter; returns its last stdout line as JSON.

    The child starts with none of the BLAS thread variables set, then
    ``environment`` on top.
    """
    env = {name: value for name, value in os.environ.items() if name not in THREAD_VARIABLES}
    env.update(environment, PYTHONPATH=SRC)
    script = tmp_path / "probe.py"
    script.write_text(textwrap.dedent(body))
    done = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_numpy_imported_first_is_pinned_to_one_thread(tmp_path):
    assert _probe(tmp_path, REPORT) == {"threads": 1, "env": ["1", "1", "1"]}


def test_exported_variable_overrides_and_environment_is_untouched(tmp_path):
    record = _probe(tmp_path, REPORT, OPENBLAS_NUM_THREADS="2")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # OpenBLAS caps its pool at the cores it may run on.
    assert record == {"threads": min(2, cpus), "env": ["2", None, None]}


def test_spawned_shard_worker_runs_one_thread(tmp_path):
    """A spawn-context child that imports ``repro`` — what every spawned
    shard worker is — inherits the pin and runs one BLAS thread."""
    record = _probe(
        tmp_path,
        """
        import json
        import multiprocessing

        import repro
        from repro.blas import blas_threads


        def worker_threads():
            import numpy  # a shard worker loads numpy with its first campaign

            return blas_threads()


        if __name__ == "__main__":
            with multiprocessing.get_context("spawn").Pool(1) as pool:
                print(json.dumps(pool.apply(worker_threads)))
        """,
    )
    assert record == 1
