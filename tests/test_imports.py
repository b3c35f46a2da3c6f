"""Import budget of the entry points that schedule, serve or call the daemon.

Each case starts a fresh interpreter, imports one entry point (or runs the
library path once) and reads back ``sorted(sys.modules)``.  None of them may
load numpy: only the workload generators (``repro.workloads``) and
``run_with_prediction`` use it.  The wire codecs and the client may not load
the service, the worker pool or ``multiprocessing``, which only the daemon
runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Algorithm Lookahead and the simulator on a two-block wire program.
LIBRARY_PATH = """
from repro.core import algorithm_lookahead
from repro.serve.protocol import machine_from_dict, trace_from_dict
from repro.sim import simulate_trace

trace = trace_from_dict({
    "blocks": [
        {"name": "top", "nodes": [["a", 1], ["b", 1], ["c", 1]],
         "edges": [["a", "c", 1], ["b", "c", 1]]},
        {"name": "bottom", "nodes": [["d", 1]]},
    ],
    "cross_edges": [["c", "d", 4]],
})
machine = machine_from_dict({"window_size": 2})
result = algorithm_lookahead(trace, machine)
assert simulate_trace(trace, result.block_orders, machine).makespan == 9
"""

SERVE_TIER = {"repro.serve.service", "repro.robust.pool", "multiprocessing"}


def loaded_modules(code: str) -> set[str]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    probe = code + "\nimport sys\nprint('\\n'.join(sorted(sys.modules)))\n"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(out.stdout.split())


@pytest.mark.parametrize(
    "code, absent",
    [
        pytest.param("import repro", {"numpy"}, id="repro"),
        pytest.param("import repro.cli", {"numpy"}, id="repro.cli"),
        pytest.param("import repro.serve.daemon", {"numpy"}, id="repro.serve.daemon"),
        pytest.param(
            "import repro.serve.client", {"numpy"} | SERVE_TIER, id="repro.serve.client"
        ),
        pytest.param(LIBRARY_PATH, {"numpy"} | SERVE_TIER, id="library-path"),
    ],
)
def test_entry_point_import_budget(code, absent):
    assert loaded_modules(code) & absent == set()
